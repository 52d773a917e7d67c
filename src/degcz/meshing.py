"""Conforming P1 triangulations of disks and the unit square, with CSV export.

Disk meshes are built from concentric vertex rings whose radii decrease
geometrically toward the center, so that point singularities at the origin
can be resolved down to exponentially small scales with a linear number of
cells.  Degeneracy is checked relative to the cell diameter, since graded
meshes legitimately contain cells of tiny absolute area.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "unit_square_mesh",
    "disk_mesh",
    "region_mean",
]


@dataclass
class Mesh:
    """Triangle mesh with cached cell geometry, edge table and boundary flags."""

    vertices: np.ndarray            # (nv, 2)
    cells: np.ndarray               # (nc, 3) int
    geometry: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        # the cell geometry works on contiguous (nc,) columns, one per corner
        # and coordinate, in the operations and order of the broadcast
        # formulas over the (nc, 3, 2) corner array
        self.corners = np.ascontiguousarray(self.cells.T)   # (3, nc)
        x, y, det = self._corner_geometry()
        # enforce counterclockwise orientation
        flip = det < 0
        if flip.any():
            # a new array: ascontiguousarray may have returned the caller's
            self.cells = np.where(flip[:, None], self.cells[:, [0, 2, 1]], self.cells)
            self.corners = np.ascontiguousarray(self.cells.T)
            x, y, det = self._corner_geometry()
        self.areas = 0.5 * det
        # edge vectors p_b - p_a of the edges (a, b) = (1, 2), (2, 0), (0, 1)
        dx = [x[2] - x[1], x[0] - x[2], x[1] - x[0]]
        dy = [y[2] - y[1], y[0] - y[2], y[1] - y[0]]
        diam2 = np.maximum(np.maximum(dx[2] ** 2 + dy[2] ** 2, dx[0] ** 2 + dy[0] ** 2),
                           dx[1] ** 2 + dy[1] ** 2)
        if np.any(self.areas <= 1e-14 * diam2):
            raise ValueError("mesh contains a degenerate cell (area ~ 0 relative to diameter)")
        # the corner mean summed onto +0.0, as numpy's mean over the corner axis
        self.barycenters = np.empty((len(self.cells), 2))
        self.barycenters[:, 0] = (((0.0 + x[0]) + x[1]) + x[2]) / 3.0
        self.barycenters[:, 1] = (((0.0 + y[0]) + y[1]) + y[2]) / 3.0
        # gradients of the three hat functions on each cell, (nc, 3, 2) with
        # every [:, l, k] a contiguous column
        two_area = 2.0 * self.areas
        self.hat_gradients = _cells_last((len(self.cells), 3, 2))
        for loc in range(3):
            np.divide(-dy[loc], two_area, out=self.hat_gradients[:, loc, 0])
            np.divide(dx[loc], two_area, out=self.hat_gradients[:, loc, 1])
        self.edges, self.edge_counts, self.cell_edges = self._edges()
        self.boundary_vertices = np.unique(self.edges[self.edge_counts == 1])
        self.boundary_mask = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_mask[self.boundary_vertices] = True

    # -- structure -----------------------------------------------------------

    def _corner_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (3, nc) corner coordinates x and y of the cells, one contiguous
        row per corner, and the (nc,) doubled signed cell areas."""
        x, y = self.vertices[:, 0][self.corners], self.vertices[:, 1][self.corners]
        det = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
        return x, y, det

    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique edges as sorted vertex pairs in lexicographic order, the
        number of cells sharing each, and each cell's (ab, bc, ca) edge ids."""
        nv = len(self.vertices)
        a, b = self.cells, np.roll(self.cells, -1, axis=1)
        keys = (np.minimum(a, b) * nv + np.maximum(a, b)).reshape(-1)
        keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        edges = np.stack([keys // nv, keys % nv], axis=1)
        return edges, counts, inverse.reshape(-1, 3)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_gradients(self, values: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient of a nodal field, per cell: (nc, 2),
        each component a contiguous column summed onto +0.0 over the corners
        (the bits of einsum("cld,cl->cd", hat_gradients, values[cells]))."""
        v, hat = values[self.corners], self.hat_gradients
        grads = _cells_last((len(self.cells), 2))
        for k in range(2):
            grads[:, k] = ((0.0 + hat[:, 0, k] * v[0]) + hat[:, 1, k] * v[1]) + hat[:, 2, k] * v[2]
        return grads

    def cell_values(self, values: np.ndarray) -> np.ndarray:
        """Nodal field averaged to cell midpoint values (the bits of
        ``values[cells].mean(axis=1)``)."""
        v = values[self.corners]
        return (((0.0 + v[0]) + v[1]) + v[2]) / 3.0

    # -- geometry ------------------------------------------------------------

    def contains_ball(self, center, radius: float) -> bool:
        kind = self.geometry.get("kind")
        c = np.asarray(center, dtype=float)
        tol = 1e-9
        if kind == "disk":
            return np.linalg.norm(c) + radius <= self.geometry["radius"] + tol
        if kind == "unit-square":
            return bool(
                np.all(c - radius >= -tol) and np.all(c + radius <= 1.0 + tol)
            )
        # fall back to the convex hull of the vertices via bounding circle
        mid = self.vertices.mean(axis=0)
        rmax = np.linalg.norm(self.vertices - mid, axis=1).max()
        return np.linalg.norm(c - mid) + radius <= rmax + tol

    # -- refinement ----------------------------------------------------------

    def refine(self) -> "Mesh":
        """Uniform quadrisection; midpoints of curved boundary edges are
        projected back onto the boundary circle."""
        edges, counts = self.edges, self.edge_counts
        mids = 0.5 * (self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]])
        if self.geometry.get("kind") == "disk":
            rad = self.geometry["radius"]
            vr = np.linalg.norm(self.vertices, axis=1)
            both = (np.abs(vr[edges[:, 0]] - rad) < 1e-9 * max(rad, 1.0)) & (
                np.abs(vr[edges[:, 1]] - rad) < 1e-9 * max(rad, 1.0)
            )
            project = both & (counts == 1)
            if project.any():
                mids[project] *= (rad / np.linalg.norm(mids[project], axis=1))[:, None]
        nv = len(self.vertices)
        new_vertices = np.vstack([self.vertices, mids])
        a, b, c = self.cells.T
        ab, bc, ca = (nv + self.cell_edges).T
        cells = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        return Mesh(new_vertices, cells, dict(self.geometry))

    # -- persistence ----------------------------------------------------------

    def to_csv(self, prefix: str | Path) -> tuple[Path, Path]:
        prefix = Path(prefix)
        vpath = prefix.with_name(prefix.name + "_vertices.csv")
        cpath = prefix.with_name(prefix.name + "_cells.csv")
        with open(vpath, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "boundary"])
            for (x, y), b in zip(self.vertices, self.boundary_mask):
                wr.writerow([f"{x:.17g}", f"{y:.17g}", int(b)])
        with open(cpath, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["v0", "v1", "v2"])
            for tri in self.cells:
                wr.writerow([int(tri[0]), int(tri[1]), int(tri[2])])
        return vpath, cpath


def _cells_last(shape: tuple[int, ...]) -> np.ndarray:
    """An empty float array of ``shape`` = (nc, ...) stored with the cell axis
    last, so that every [:, i, ...] is a contiguous (nc,) column."""
    store = np.empty(shape[1:] + shape[:1])
    return store.transpose((store.ndim - 1,) + tuple(range(store.ndim - 1)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def unit_square_mesh(divisions: int) -> Mesh:
    """Regular right-triangle mesh of the unit square."""
    if divisions < 1:
        raise ValueError("divisions must be positive")
    k = divisions
    xs = np.linspace(0.0, 1.0, k + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    v00 = (np.arange(k)[:, None] * (k + 1) + np.arange(k)[None, :]).reshape(-1)
    v10 = v00 + (k + 1)
    cells = np.stack([v00, v10, v00 + 1, v10, v10 + 1, v00 + 1], axis=1).reshape(-1, 3)
    return Mesh(verts, cells, {"kind": "unit-square"})


def _ring_cells(gaps: int, angular: int) -> np.ndarray:
    """Two triangles per (ring gap, angle) between consecutive vertex rings
    of ``angular`` vertices each, ring-major then angle order."""
    j = np.arange(angular)
    jn = (j + 1) % angular
    outer = np.arange(gaps)[:, None] * angular
    inner = outer + angular
    return np.stack(
        [outer + j, inner + j, outer + jn, inner + j, inner + jn, outer + jn], axis=-1
    ).reshape(-1, 3)


def _ring_radii(radius: float, layers: int, grading: float) -> np.ndarray:
    if layers < 1:
        raise ValueError("need at least one layer")
    if grading == 1.0:
        return radius * (1.0 - np.arange(layers) / layers)
    return radius * grading ** np.arange(layers)


def disk_mesh(
    radius: float = 1.0,
    angular: int = 24,
    layers: int = 20,
    grading: float = 0.7,
) -> Mesh:
    """Disk about the origin, in concentric rings with geometric radial grading."""
    if angular < 6:
        raise ValueError("need at least 6 angular subdivisions")
    radii = _ring_radii(radius, layers, grading)
    theta = np.arange(angular) * (2.0 * math.pi / angular)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    verts = (radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
    verts = np.vstack([verts, [[0.0, 0.0]]])
    center_idx = len(verts) - 1
    j = np.arange(angular)
    innermost = (len(radii) - 1) * angular
    fan = np.stack(
        [innermost + j, np.full(angular, center_idx), innermost + (j + 1) % angular], axis=1
    )
    return Mesh(
        verts,
        np.vstack([_ring_cells(len(radii) - 1, angular), fan]),
        {"kind": "disk", "radius": radius},
    )


# ---------------------------------------------------------------------------
# region means (a ball's region is Ball.contains(mesh.barycenters))
# ---------------------------------------------------------------------------

def region_mean(mesh: Mesh, cell_values: np.ndarray, mask: np.ndarray) -> float:
    """Area-weighted mean of a cell field over the selected cells."""
    areas = mesh.areas[mask]
    if len(areas) == 0:
        raise ValueError("region contains no cell barycenters")
    return float(np.sum(cell_values[mask] * areas) / areas.sum())
