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
        p = self.vertices[self.cells]          # (nc, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        # enforce counterclockwise orientation
        flip = det < 0
        if flip.any():
            # a new array: ascontiguousarray may have returned the caller's
            self.cells = np.where(flip[:, None], self.cells[:, [0, 2, 1]], self.cells)
            p = self.vertices[self.cells]
            e1 = p[:, 1] - p[:, 0]
            e2 = p[:, 2] - p[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * det
        diam2 = np.max(
            np.stack(
                [
                    ((p[:, 1] - p[:, 0]) ** 2).sum(1),
                    ((p[:, 2] - p[:, 1]) ** 2).sum(1),
                    ((p[:, 0] - p[:, 2]) ** 2).sum(1),
                ]
            ),
            axis=0,
        )
        if np.any(self.areas <= 1e-14 * diam2):
            raise ValueError("mesh contains a degenerate cell (area ~ 0 relative to diameter)")
        self.barycenters = p.mean(axis=1)
        # gradients of the three hat functions on each cell
        grads = np.empty((len(self.cells), 3, 2))
        for loc, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            edge = p[:, b] - p[:, a]
            grads[:, loc, 0] = -edge[:, 1]
            grads[:, loc, 1] = edge[:, 0]
        self.hat_gradients = grads / (2.0 * self.areas)[:, None, None]
        self.edges, self.edge_counts, self.cell_edges = self._edges()
        self.boundary_vertices = np.unique(self.edges[self.edge_counts == 1])
        self.boundary_mask = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_mask[self.boundary_vertices] = True

    # -- structure -----------------------------------------------------------

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
        """Piecewise-constant gradient of a nodal field, per cell."""
        return np.einsum("cld,cl->cd", self.hat_gradients, values[self.cells])

    def cell_values(self, values: np.ndarray) -> np.ndarray:
        """Nodal field averaged to cell midpoint values."""
        return values[self.cells].mean(axis=1)

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
