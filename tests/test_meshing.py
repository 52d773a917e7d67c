import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COORDS, MODERATE, coord_arrays
from degcz.meshing import Mesh, disk_mesh, region_mean, unit_square_mesh
from degcz.weight_algebra import Ball


# ---------------------------------------------------------------------------
# loop references: the per-cell Python versions of the edge table, the
# quadrisection and the mesh builders, kept to pin the array versions
# ---------------------------------------------------------------------------

def reference_edges(cells):
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0, return_counts=True)


def reference_refine(mesh):
    edges, counts = reference_edges(mesh.cells)
    edge_ids = {tuple(e): i for i, e in enumerate(edges)}
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    if mesh.geometry.get("kind") == "disk":
        rad = mesh.geometry["radius"]
        vr = np.linalg.norm(mesh.vertices, axis=1)
        both = (np.abs(vr[edges[:, 0]] - rad) < 1e-9 * max(rad, 1.0)) & (
            np.abs(vr[edges[:, 1]] - rad) < 1e-9 * max(rad, 1.0)
        )
        project = both & (counts == 1)
        if project.any():
            vec = mids[project]
            mids[project] = vec * (rad / np.linalg.norm(vec, axis=1))[:, None]
    nv = len(mesh.vertices)
    cells = []
    for tri in mesh.cells:
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        ab = nv + edge_ids[tuple(sorted((a, b)))]
        bc = nv + edge_ids[tuple(sorted((b, c)))]
        ca = nv + edge_ids[tuple(sorted((c, a)))]
        cells.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return Mesh(np.vstack([mesh.vertices, mids]), np.asarray(cells, dtype=np.int64),
                dict(mesh.geometry))


def reference_ring_cells(gaps, angular):
    cells = []
    for k in range(gaps):
        outer = k * angular
        inner = (k + 1) * angular
        for j in range(angular):
            jn = (j + 1) % angular
            cells.append((outer + j, inner + j, outer + jn))
            cells.append((inner + j, inner + jn, outer + jn))
    return cells


def reference_disk_cells(angular, layers):
    cells = reference_ring_cells(layers - 1, angular)
    innermost, center_idx = (layers - 1) * angular, layers * angular
    for j in range(angular):
        cells.append((innermost + j, center_idx, innermost + (j + 1) % angular))
    return cells


def reference_square_cells(k):
    cells = []
    for i in range(k):
        for j in range(k):
            v00 = i * (k + 1) + j
            v10 = (i + 1) * (k + 1) + j
            cells.append((v00, v10, v00 + 1))
            cells.append((v10, v10 + 1, v00 + 1))
    return cells


def assert_same_mesh(got, want):
    assert np.array_equal(got.cells, want.cells)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.boundary_vertices, want.boundary_vertices)
    assert got.geometry == want.geometry


class TestConstruction:
    def test_unit_square(self):
        mesh = unit_square_mesh(8)
        assert mesh.num_vertices == 81
        assert mesh.num_cells == 128
        assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-12)
        # boundary = 4 edges minus shared corners
        assert len(mesh.boundary_vertices) == 32

    def test_disk_area_converges(self):
        areas = []
        for angular in (16, 32, 64):
            mesh = disk_mesh(angular=angular, layers=10, grading=0.7)
            areas.append(mesh.areas.sum())
        errs = [abs(a - math.pi) for a in areas]
        assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3

    def test_disk_boundary_is_outer_ring(self):
        mesh = disk_mesh(angular=12, layers=5, grading=0.7)
        r = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
        assert np.allclose(r, 1.0)
        assert len(mesh.boundary_vertices) == 12

    def test_deep_grading_allowed(self):
        # graded meshes legitimately reach exponentially small cells
        mesh = disk_mesh(angular=12, layers=220, grading=0.7)
        assert mesh.areas.min() > 0
        assert mesh.areas.min() < 1e-14  # tiny in absolute terms, still valid

    def test_degenerate_cell_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2], [0, 1, 3]])
        with pytest.raises(ValueError):
            Mesh(verts, cells)

    def test_clockwise_cells_flipped_without_touching_input(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = np.array([[0, 2, 1], [0, 2, 3]], dtype=np.int64)  # first is clockwise
        given = cells.copy()
        mesh = Mesh(verts, cells)
        assert np.array_equal(cells, given)
        assert mesh.cells is not cells
        assert np.array_equal(mesh.cells, [[0, 1, 2], [0, 2, 3]])
        assert np.all(mesh.areas > 0)

    def test_counterclockwise_cells_not_copied(self):
        mesh = unit_square_mesh(2)
        assert Mesh(mesh.vertices, mesh.cells).cells is mesh.cells


class TestGradients:
    def test_linear_exact(self):
        mesh = unit_square_mesh(5)
        vals = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1] + 1.0
        grads = mesh.cell_gradients(vals)
        assert np.allclose(grads, [2.0, -3.0])

    def test_cell_values_mean(self):
        mesh = unit_square_mesh(4)
        vals = mesh.vertices[:, 0]
        assert np.allclose(mesh.cell_values(vals), mesh.barycenters[:, 0])


def reference_geometry(vertices, cells):
    """The broadcast formulas over the (nc, 3, 2) corner array that the
    column kernels of ``Mesh`` replaced: the oriented cells, areas, squared
    diameters, barycenters and hat gradients."""
    def corners(cells):
        p = vertices[cells]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return p, e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]

    p, det = corners(cells)
    flip = det < 0
    if flip.any():
        cells = np.where(flip[:, None], cells[:, [0, 2, 1]], cells)
        p, det = corners(cells)
    areas = 0.5 * det
    diam2 = np.max(np.stack([((p[:, 1] - p[:, 0]) ** 2).sum(1),
                             ((p[:, 2] - p[:, 1]) ** 2).sum(1),
                             ((p[:, 0] - p[:, 2]) ** 2).sum(1)]), axis=0)
    grads = np.empty((len(cells), 3, 2))
    for loc, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        edge = p[:, b] - p[:, a]
        grads[:, loc, 0] = -edge[:, 1]
        grads[:, loc, 1] = edge[:, 0]
    return cells, areas, diam2, p.mean(axis=1), grads / (2.0 * areas)[:, None, None]


@st.composite
def triangles(draw):
    """Corners of one cell, in any order: three COORDS points (most of them
    degenerate or overflowing), a sliver whose area is near 1e-14 of its
    squared diameter, or, twice as often as each, a triangle with legs h
    down to 1e-50 (areas down to 1e-100) at a point with signed zero or
    subnormal coordinates or coordinates up to 10 h."""
    kind = draw(st.sampled_from(["coords", "sliver", "legs", "legs"]))
    h = draw(st.sampled_from([1e-50, 1e-20, 1e-3, 1.0, 7.0, 1e100]))
    if kind == "coords":
        pts = [(draw(COORDS), draw(COORDS)) for _ in range(3)]
    elif kind == "sliver":
        # area 0.5 t h within a factor 1.5 of 1e-14 h^2, the degeneracy bound
        # on the squared diameter h^2, and of the other edges' squares
        t = draw(st.floats(0.5, 1.5)) * 2e-14 * h
        pts = [(0.0, 0.0), (h, 0.0), (draw(st.floats(0.3, 0.7)) * h, t)]
    else:
        near = st.one_of(st.floats(-10.0, 10.0).map(lambda v: v * h),
                         st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]))
        x, y = draw(near), draw(near)
        skew = draw(st.floats(-2.0, 2.0))
        pts = [(x, y), (x + h, y), (x + skew * h, y + h)]
    return draw(st.permutations(pts))


class TestColumnKernels:
    """The column kernels of ``Mesh`` give the bits of the broadcast and
    einsum formulas they replace, on clockwise and counterclockwise cells."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tris=st.lists(triangles(), min_size=1, max_size=4), data=st.data())
    def test_geometry_and_cell_fields_equal_broadcast_formulas(self, tris, data):
        verts = np.array([pt for tri in tris for pt in tri], dtype=float)
        cells = np.arange(len(verts)).reshape(-1, 3)
        nv, nc = len(verts), len(cells)
        with np.errstate(all="ignore"):
            ref_cells, areas, diam2, bary, hat = reference_geometry(verts, cells)
            if np.any(areas <= 1e-14 * diam2):
                with pytest.raises(ValueError, match="degenerate"):
                    Mesh(verts, cells)
                return
            mesh = Mesh(verts, cells)
            assert mesh.cells.tobytes() == ref_cells.tobytes()
            assert mesh.corners.tobytes() == ref_cells.T.tobytes()
            for got, want in ((mesh.areas, areas), (mesh.barycenters, bary),
                              (mesh.hat_gradients, hat)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            elements = data.draw(st.sampled_from([COORDS, MODERATE]))
            values = data.draw(coord_arrays(nv, elements))
            # the mesh's own hat gradients, then arbitrary ones
            for grads in (mesh.hat_gradients, data.draw(coord_arrays((nc, 3, 2), elements))):
                mesh.hat_gradients = grads
                want = np.einsum("cld,cl->cd", grads, values[mesh.cells])
                assert mesh.cell_gradients(values).tobytes() == want.tobytes()
            assert mesh.cell_values(values).tobytes() == \
                values[mesh.cells].mean(axis=1).tobytes()


class TestRefine:
    def test_quadrisection_counts(self):
        mesh = unit_square_mesh(4)
        fine = mesh.refine()
        assert fine.num_cells == 4 * mesh.num_cells
        assert fine.areas.sum() == pytest.approx(1.0, rel=1e-12)

    def test_disk_refine_projects_boundary(self):
        mesh = disk_mesh(angular=16, layers=6, grading=0.7)
        fine = mesh.refine()
        r = np.linalg.norm(fine.vertices[fine.boundary_vertices], axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)
        assert fine.areas.sum() > mesh.areas.sum()  # closer to the disk


def off_centre_disk() -> Mesh:
    """A disk mesh moved off the origin, without geometry: refined without
    boundary projection."""
    disk = disk_mesh(angular=14, layers=5)
    return Mesh(disk.vertices + (0.2, -0.1), disk.cells)


class TestArrayCodeMatchesLoops:
    MESHES = {
        "graded-disk": lambda: disk_mesh(angular=20, layers=36, grading=0.7),
        "off-centre-disk": off_centre_disk,
        "square": lambda: unit_square_mesh(6),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_edge_table(self, name):
        mesh = self.MESHES[name]()
        edges, counts = reference_edges(mesh.cells)
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.edge_counts, counts)
        # cell_edges[c] names the (ab, bc, ca) edges of cell c
        pairs = np.stack([mesh.cells, np.roll(mesh.cells, -1, axis=1)], axis=-1)
        assert np.array_equal(mesh.edges[mesh.cell_edges], np.sort(pairs, axis=-1))

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_refine_two_levels(self, name):
        mesh = self.MESHES[name]()
        want = mesh
        for _ in range(2):
            mesh, want = mesh.refine(), reference_refine(want)
            assert_same_mesh(mesh, want)

    def test_builders(self):
        for angular, layers in ((20, 36), (6, 1), (9, 4)):
            mesh = disk_mesh(radius=1.5, angular=angular, layers=layers)
            want = Mesh(mesh.vertices, np.asarray(reference_disk_cells(angular, layers)))
            assert np.array_equal(mesh.cells, want.cells)
        for k in (1, 6):
            mesh = unit_square_mesh(k)
            want = Mesh(mesh.vertices, np.asarray(reference_square_cells(k)))
            assert np.array_equal(mesh.cells, want.cells)


class TestRegions:
    def test_contains_ball(self):
        disk = disk_mesh(angular=12, layers=4, grading=0.7)
        assert disk.contains_ball((0.0, 0.0), 0.99)
        assert not disk.contains_ball((0.5, 0.0), 0.6)
        square = unit_square_mesh(4)
        assert square.contains_ball((0.5, 0.5), 0.5)
        assert not square.contains_ball((0.5, 0.5), 0.51)

    def test_region_mean_constant(self):
        mesh = unit_square_mesh(16)
        mask = Ball((0.5, 0.5), 0.25).contains(mesh.barycenters)
        vals = np.full(mesh.num_cells, 7.0)
        assert region_mean(mesh, vals, mask) == pytest.approx(7.0)

    def test_region_mean_moment(self):
        # quadrature oracle: mean of x1^2 over a centered disk of radius r is r^2/4
        mesh = unit_square_mesh(96)
        mask = Ball((0.5, 0.5), 0.25).contains(mesh.barycenters)
        vals = (mesh.barycenters[:, 0] - 0.5) ** 2
        assert region_mean(mesh, vals, mask) == pytest.approx(0.25 ** 2 / 4.0, rel=2e-2)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        mesh = disk_mesh(angular=12, layers=4, grading=0.7)
        vpath, cpath = mesh.to_csv(tmp_path / "m")
        verts = np.loadtxt(vpath, delimiter=",", skiprows=1)
        back = Mesh(verts[:, :2], np.loadtxt(cpath, delimiter=",", skiprows=1, dtype=np.int64))
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
        assert np.array_equal(verts[:, 2], mesh.boundary_mask)
