import math

import numpy as np
import pytest

from degcz.meshing import Mesh, annulus_mesh, cells_in_ball, disk_mesh, region_mean, unit_square_mesh


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
    kind = mesh.geometry.get("kind")
    if kind in ("unit-disk", "disk", "annulus"):
        center = np.asarray(mesh.geometry.get("center", (0.0, 0.0)))
        if kind == "annulus":
            radii = [mesh.geometry["r_in"], mesh.geometry["r_out"]]
        else:
            radii = [mesh.geometry["radius"]]
        vr = np.linalg.norm(mesh.vertices - center, axis=1)
        for rad in radii:
            both = (np.abs(vr[edges[:, 0]] - rad) < 1e-9 * max(rad, 1.0)) & (
                np.abs(vr[edges[:, 1]] - rad) < 1e-9 * max(rad, 1.0)
            )
            project = both & (counts == 1)
            if project.any():
                vec = mids[project] - center
                mids[project] = center + vec * (rad / np.linalg.norm(vec, axis=1))[:, None]
    nv = len(mesh.vertices)
    cells = []
    for tri in mesh.cells:
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        ab = nv + edge_ids[tuple(sorted((a, b)))]
        bc = nv + edge_ids[tuple(sorted((b, c)))]
        ca = nv + edge_ids[tuple(sorted((c, a)))]
        cells.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return Mesh(np.vstack([mesh.vertices, mids]), np.asarray(cells, dtype=np.int64),
                dict(mesh.geometry), mesh.refinement_level + 1)


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
    assert got.refinement_level == want.refinement_level
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

    def test_annulus(self):
        mesh = annulus_mesh(0.5, 1.0, angular=32, layers=6)
        exact = math.pi * (1.0 - 0.25)
        assert mesh.areas.sum() == pytest.approx(exact, rel=2e-2)
        r = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
        assert set(np.round(r, 6)) == {0.5, 1.0}


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


class TestRefine:
    def test_quadrisection_counts(self):
        mesh = unit_square_mesh(4)
        fine = mesh.refine()
        assert fine.num_cells == 4 * mesh.num_cells
        assert fine.areas.sum() == pytest.approx(1.0, rel=1e-12)
        assert fine.refinement_level == mesh.refinement_level + 1

    def test_disk_refine_projects_boundary(self):
        mesh = disk_mesh(angular=16, layers=6, grading=0.7)
        fine = mesh.refine()
        r = np.linalg.norm(fine.vertices[fine.boundary_vertices], axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)
        assert fine.areas.sum() > mesh.areas.sum()  # closer to the disk


class TestArrayCodeMatchesLoops:
    MESHES = {
        "graded-disk": lambda: disk_mesh(angular=20, layers=36, grading=0.7),
        "annulus": lambda: annulus_mesh(0.4, 1.0, angular=14, layers=5, center=(0.2, -0.1)),
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
            mesh = disk_mesh(radius=1.5, angular=angular, layers=layers, center=(0.1, 0.3))
            want = Mesh(mesh.vertices, np.asarray(reference_disk_cells(angular, layers)))
            assert np.array_equal(mesh.cells, want.cells)
        for angular, layers in ((14, 5), (8, 1)):
            mesh = annulus_mesh(0.4, 1.0, angular=angular, layers=layers)
            want = Mesh(mesh.vertices, np.asarray(reference_ring_cells(layers, angular)))
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
        mask = cells_in_ball(mesh, (0.5, 0.5), 0.25)
        vals = np.full(mesh.num_cells, 7.0)
        assert region_mean(mesh, vals, mask) == pytest.approx(7.0)

    def test_region_mean_moment(self):
        # quadrature oracle: mean of x1^2 over a centered disk of radius r is r^2/4
        mesh = unit_square_mesh(96)
        mask = cells_in_ball(mesh, (0.5, 0.5), 0.25)
        vals = (mesh.barycenters[:, 0] - 0.5) ** 2
        assert region_mean(mesh, vals, mask) == pytest.approx(0.25 ** 2 / 4.0, rel=2e-2)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        mesh = disk_mesh(angular=12, layers=4, grading=0.7)
        mesh.to_csv(tmp_path / "m")
        back = Mesh.from_csv(tmp_path / "m", dict(mesh.geometry))
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
