"""Structured curved triangulations of truncated exterior domains.

The domain between an obstacle boundary (disk or ellipse) and the outer
truncation circle of radius R = r1 + L is meshed as two structured
annuli sharing the circle |x| = r1:

* an inner annulus from the obstacle curve c(theta) to the onset circle,
  built by the radius blend (1-t) c(theta) + t r1 (cos,sin)(theta);
* a polar annulus from r1 to R.

Each quadrilateral cell is split into two counterclockwise triangles.
Every triangle carries the degree-q lattice of mapping nodes evaluated
through the *exact* block mapping, so nodes on the obstacle, interface,
and outer rings lie on those curves to machine precision, and the
curved geometry is conforming across element edges (shared edges carry
identical node sets).  ``hmax`` is the one mesh-size parameter.

``outer_edges`` lists the edges of the truncation circle |x| = R, which
carries the Dirichlet condition; the sound-hard obstacle needs no data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (LOCAL_EDGES, lagrange_geometry_basis, lattice_nodes,
                    triangle_quadrature)
from .errors import ValidationError

__all__ = [
    "DiskObstacle",
    "EllipseObstacle",
    "Geometry",
    "Mesh",
    "generate",
    "mapping",
]


@dataclass(frozen=True)
class DiskObstacle:
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValidationError("disk radius must be positive")

    @property
    def extent(self) -> float:
        return self.radius

    def curve(self, theta):
        return np.stack([self.radius * np.cos(theta),
                         self.radius * np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class EllipseObstacle:
    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 > 0.0 and self.a2 > 0.0):
            raise ValidationError("ellipse semi-axes must be positive")

    @property
    def extent(self) -> float:
        return max(self.a1, self.a2)

    def curve(self, theta):
        return np.stack([self.a1 * np.cos(theta),
                         self.a2 * np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class Geometry:
    """Obstacle plus onset radius r1 and damping-layer width."""

    obstacle: DiskObstacle | EllipseObstacle
    r1: float
    layer_width: float

    def __post_init__(self):
        if not math.isfinite(self.r1):
            raise ValidationError(f"r1 must be finite, got {self.r1:g}")
        if not self.obstacle.extent < self.r1:
            raise ValidationError(
                f"obstacle extent {self.obstacle.extent:g} must lie strictly "
                f"inside the onset circle r1 = {self.r1:g}")
        if not 0.0 < self.layer_width < math.inf:
            raise ValidationError("layer width must be positive and finite")

    @property
    def truncation_radius(self) -> float:
        return self.r1 + self.layer_width


@dataclass(frozen=True)
class Mesh:
    """Curved triangulation with the edges of its truncation circle.

    ``mapping_nodes[t]`` holds the physical coordinates of the degree-q
    lattice (see :func:`radpml.basis.lattice_nodes`) of triangle ``t``;
    the corners sit at lattice indices 0, q and -1.  These nodes are the
    one copy of the geometry: ``triangles`` and ``outer_edges`` use the
    ``num_vertices`` vertex numbers only as labels for the dof numbering.
    """

    q: int
    num_vertices: int
    triangles: np.ndarray       # (nt, 3) int, counterclockwise
    outer_edges: np.ndarray     # (n_theta, 2) int, |x| = R in ring order
    mapping_nodes: np.ndarray   # (nt, n_lattice, 2) float

    def __post_init__(self):
        for name in ("triangles", "outer_edges", "mapping_nodes"):
            getattr(self, name).setflags(write=False)

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def mapping(nodes: np.ndarray, L: np.ndarray, dL: np.ndarray):
    """The curved element map of a batch of triangles at reference points.

    ``nodes`` (nt, m, 2) are mapping nodes and ``(L, dL)`` the geometry
    basis at n points (``lagrange_geometry_basis``).  Returns the images
    (nt, n, 2), the Jacobian entries (j00, j01, j10, j11) with j_ij =
    d(x_i)/d(xi_j), and det J, each (nt, n).
    """
    nodes = nodes.transpose(0, 2, 1)                         # (t, 2, m)
    phys = (nodes @ L).transpose(0, 2, 1)                    # (t, n, 2)
    jac = nodes @ dL.reshape(dL.shape[0], -1)                # (t, 2, 2n)
    j00, j01 = jac[:, 0, 0::2], jac[:, 0, 1::2]
    j10, j11 = jac[:, 1, 0::2], jac[:, 1, 1::2]
    return phys, (j00, j01, j10, j11), j00 * j11 - j01 * j10


def _check_jacobians(mesh: Mesh):
    pts, _ = triangle_quadrature(2 * mesh.q + 2)
    _, _, det = mapping(mesh.mapping_nodes, *lagrange_geometry_basis(mesh.q, pts))
    bad = np.where(np.any(det <= 0.0, axis=1))[0]
    if bad.size:
        raise ValidationError(f"inverted mapped element {int(bad[0])}")


def _lattice_params(q: int, corner_params: np.ndarray) -> np.ndarray:
    """Affine images of the reference lattice in parameter space.

    corner_params: (nt, 3, 2) parameter coordinates of the triangle
    corners; returns (nt, n_lattice, 2).
    """
    ref = lattice_nodes(q)
    lam = np.stack([1.0 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]], axis=1)
    return np.einsum("nc,tcd->tnd", lam, corner_params)


def generate(geometry: Geometry, hmax: float, q: int) -> Mesh:
    """Structured curved mesh with all edge lengths <= hmax.

    The split-quad diagonal is the longest edge, so the structured steps
    are bounded by hmax/sqrt(2).

    Raises
    ------
    ValidationError
        If a mapped element has a nonpositive Jacobian somewhere.
    """
    if not 0.0 < hmax < math.inf:
        raise ValidationError("hmax must be positive and finite")
    if q < 1:
        raise ValidationError("mapping order must be >= 1")
    r1 = geometry.r1
    r_out = geometry.truncation_radius
    step = hmax / math.sqrt(2.0)
    n_theta = max(8, int(math.ceil(2.0 * math.pi * r_out / step)))
    theta_probe = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    thickness = float(np.max(
        r1 - np.linalg.norm(geometry.obstacle.curve(theta_probe), axis=1)))
    n_ri = max(1, int(math.ceil(thickness / step)))
    n_rp = max(1, int(math.ceil(geometry.layer_width / step)))

    n_rows = n_ri + n_rp
    rows = np.arange(n_rows)
    cols = np.arange(n_theta)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    v00 = rr * n_theta + cc
    v01 = rr * n_theta + (cc + 1) % n_theta
    v10 = v00 + n_theta
    v11 = v01 + n_theta
    # radial leg first: (+theta, +rho) is a clockwise frame in the plane
    tris_a = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    tris_b = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    triangles = np.concatenate([tris_a[:, None], tris_b[:, None]],
                               axis=1).reshape(-1, 3)

    # parameter coordinates (theta unwrapped, rho) of the triangle corners
    th0 = 2.0 * np.pi * cc / n_theta
    th1 = 2.0 * np.pi * (cc + 1) / n_theta
    rho0 = np.where(rr < n_ri, rr / n_ri,
                    r1 + geometry.layer_width * (rr - n_ri) / n_rp)
    rho1 = np.where(rr + 1 <= n_ri, (rr + 1) / n_ri,
                    r1 + geometry.layer_width * (rr + 1 - n_ri) / n_rp)
    p00 = np.stack([th0, rho0], -1).reshape(-1, 2)
    p01 = np.stack([th1, rho0], -1).reshape(-1, 2)
    p10 = np.stack([th0, rho1], -1).reshape(-1, 2)
    p11 = np.stack([th1, rho1], -1).reshape(-1, 2)
    corner_a = np.stack([p00, p10, p11], axis=1)
    corner_b = np.stack([p00, p11, p01], axis=1)
    corners = np.concatenate([corner_a[:, None], corner_b[:, None]],
                             axis=1).reshape(-1, 3, 2)
    params = _lattice_params(q, corners)
    pml_mask = np.repeat(rr.ravel() >= n_ri, 2)

    nodes = np.empty_like(params)
    th = params[..., 0]
    rho = params[..., 1]
    u = np.stack([np.cos(th), np.sin(th)], axis=-1)
    # interior block: radius blend; pml block: plain polar
    blend = ((1.0 - rho)[..., None]
             * geometry.obstacle.curve(th) + (rho * r1)[..., None] * u)
    polar = rho[..., None] * u
    nodes[:] = np.where(pml_mask[:, None, None], polar, blend)

    outer = n_rows * n_theta + np.stack([cols, (cols + 1) % n_theta], axis=1)
    mesh = Mesh(q=q, num_vertices=(n_rows + 1) * n_theta, triangles=triangles,
                outer_edges=outer, mapping_nodes=nodes)
    _check_jacobians(mesh)
    return mesh


def _global_edges(tri: np.ndarray, ends: np.ndarray, nv: int):
    """Global edge numbers of each triangle's local edges and of the
    vertex pairs ``ends``, and the number of edges.

    Edges are numbered in order of first appearance, triangle by triangle
    and local edge by local edge, and keyed by their sorted end vertices.
    """
    def keys_of(pairs):
        pairs = np.sort(pairs, axis=-1).astype(np.int64)
        return pairs[..., 0] * nv + pairs[..., 1]

    keys, first, inverse = np.unique(keys_of(tri[:, np.array(LOCAL_EDGES)]),
                                     return_index=True, return_inverse=True)
    number = np.empty(keys.size, dtype=np.int64)
    number[np.argsort(first)] = np.arange(keys.size)
    return (number[inverse].reshape(tri.shape[0], 3),
            number[np.searchsorted(keys, keys_of(ends))], keys.size)
