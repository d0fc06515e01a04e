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
identical node sets).

Refinement is uniform red subdivision performed in the parent's
reference coordinates: child vertices and mapping nodes are images
under the parent's curved mapping, which keeps the represented curved
domain exactly fixed (no re-snapping to the analytic curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import lagrange_geometry_basis, lattice_nodes, triangle_quadrature
from .errors import GenerationError, GeometryError, ValidationError

__all__ = [
    "DiskObstacle",
    "EllipseObstacle",
    "Geometry",
    "Mesh",
    "REGION_INTERIOR",
    "REGION_PML",
    "BOUNDARY_OBSTACLE",
    "BOUNDARY_OUTER",
    "generate",
    "refine",
    "mapping",
    "triangle_areas",
    "max_edge_length",
]

REGION_INTERIOR = 0
REGION_PML = 1
BOUNDARY_OBSTACLE = 0
BOUNDARY_OUTER = 1


@dataclass(frozen=True)
class DiskObstacle:
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError("disk radius must be positive")

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
            raise GeometryError("ellipse semi-axes must be positive")

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
        if not self.obstacle.extent < self.r1:
            raise GeometryError(
                f"obstacle extent {self.obstacle.extent:g} must lie strictly "
                f"inside the onset circle r1 = {self.r1:g}")
        if not self.layer_width > 0.0:
            raise GeometryError("layer width must be positive")

    @property
    def truncation_radius(self) -> float:
        return self.r1 + self.layer_width


@dataclass(frozen=True)
class Mesh:
    """Curved triangulation with region and boundary tags.

    ``mapping_nodes[t]`` holds the physical coordinates of the degree-q
    lattice (see :func:`radpml.basis.lattice_nodes`) of triangle ``t``;
    vertices are duplicated inside it by construction.
    """

    geometry: Geometry
    q: int
    vertices: np.ndarray        # (nv, 2) float
    triangles: np.ndarray       # (nt, 3) int, counterclockwise
    regions: np.ndarray         # (nt,) uint8
    boundary_edges: np.ndarray  # (nb, 2) int
    boundary_tags: np.ndarray   # (nb,) uint8
    interface_edges: np.ndarray  # (ni, 2) int, on |x| = r1
    mapping_nodes: np.ndarray   # (nt, n_lattice, 2) float

    def __post_init__(self):
        for name in ("vertices", "triangles", "regions", "boundary_edges",
                     "boundary_tags", "interface_edges", "mapping_nodes"):
            getattr(self, name).setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def mapping(mesh: Mesh, ref_points: np.ndarray):
    """Physical images and Jacobians of reference points in all triangles.

    Returns (phys, jac) with shapes (nt, n, 2) and (nt, n, 2, 2) where
    jac[t, k, i, j] = d(x_i)/d(xi_j).
    """
    L, dL = lagrange_geometry_basis(mesh.q, ref_points)
    phys = np.einsum("tmd,mn->tnd", mesh.mapping_nodes, L)
    jac = np.einsum("tmd,mne->tnde", mesh.mapping_nodes, dL)
    return phys, jac


def _det2(jac: np.ndarray) -> np.ndarray:
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def _check_jacobians(mesh: Mesh):
    pts, wgt = triangle_quadrature(2 * mesh.q + 2)
    _, jac = mapping(mesh, pts)
    det = _det2(jac)
    bad = np.where(np.any(det <= 0.0, axis=1))[0]
    if bad.size:
        raise GenerationError(f"inverted mapped element {int(bad[0])}")


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Curved areas by quadrature of the mapping Jacobian."""
    pts, wgt = triangle_quadrature(2 * mesh.q + 2)
    _, jac = mapping(mesh, pts)
    return _det2(jac) @ wgt


def max_edge_length(mesh: Mesh) -> float:
    """Longest straight edge chord between triangle corner vertices."""
    tri = mesh.vertices[mesh.triangles]
    chords = np.concatenate([
        tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2]])
    return float(np.max(np.hypot(chords[:, 0], chords[:, 1])))


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
    GenerationError
        If a mapped element has a nonpositive Jacobian somewhere.
    """
    if not hmax > 0.0:
        raise ValidationError("hmax must be positive")
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

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rings = []
    for i in range(n_ri + 1):
        t = i / n_ri
        rings.append((1.0 - t) * geometry.obstacle.curve(theta) + t * r1 * unit)
    for i in range(1, n_rp + 1):
        rings.append((r1 + geometry.layer_width * i / n_rp) * unit)
    vertices = np.concatenate(rings)

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
    regions = np.where(np.repeat(rr.ravel(), 2) < n_ri,
                       REGION_INTERIOR, REGION_PML).astype(np.uint8)

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

    b_edges = []
    b_tags = []
    for j in range(n_theta):
        b_edges.append((j, (j + 1) % n_theta))
        b_tags.append(BOUNDARY_OBSTACLE)
    outer0 = n_rows * n_theta
    for j in range(n_theta):
        b_edges.append((outer0 + j, outer0 + (j + 1) % n_theta))
        b_tags.append(BOUNDARY_OUTER)
    if0 = n_ri * n_theta
    iface = [(if0 + j, if0 + (j + 1) % n_theta) for j in range(n_theta)]

    mesh = Mesh(
        geometry=geometry, q=q, vertices=vertices, triangles=triangles,
        regions=regions,
        boundary_edges=np.array(b_edges, dtype=np.int64),
        boundary_tags=np.array(b_tags, dtype=np.uint8),
        interface_edges=np.array(iface, dtype=np.int64),
        mapping_nodes=nodes)
    _check_jacobians(mesh)
    return mesh


# red-refinement child corners in parent reference coordinates
_CHILD_CORNERS = np.array([
    [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
    [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]],
    [[0.0, 0.5], [0.5, 0.5], [0.0, 1.0]],
    [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]],
])
_PARENT_EDGE_OF_MID = {(0, 1): 0, (1, 2): 1, (2, 0): 2}


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement through the parent curved mappings.

    Midpoint vertices and child mapping nodes are images of reference
    midpoints under the parents' mappings, so the curved domain the mesh
    represents is unchanged; tags are inherited.
    """
    nt = mesh.num_triangles
    q = mesh.q
    mid_ref = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    mids, _ = mapping(mesh, mid_ref)

    verts = [mesh.vertices]
    next_vert = mesh.num_vertices
    mid_index = np.empty((nt, 3), dtype=np.int64)
    edge_owner: dict[tuple[int, int], int] = {}
    new_points = []
    for t in range(nt):
        tri = mesh.triangles[t]
        for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            idx = edge_owner.get(key)
            if idx is None:
                idx = next_vert
                edge_owner[key] = idx
                new_points.append(mids[t, e])
                next_vert += 1
            mid_index[t, e] = idx
    verts.append(np.array(new_points))
    vertices = np.concatenate(verts)

    # children: corner indices in terms of parent vertices and midpoints
    tri = mesh.triangles
    m01, m12, m20 = mid_index[:, 0], mid_index[:, 1], mid_index[:, 2]
    children = np.stack([
        np.stack([tri[:, 0], m01, m20], 1),
        np.stack([m01, tri[:, 1], m12], 1),
        np.stack([m20, m12, tri[:, 2]], 1),
        np.stack([m01, m12, m20], 1),
    ], axis=1).reshape(-1, 3)
    regions = np.repeat(mesh.regions, 4)

    # child mapping nodes: parent mapping at the child's lattice
    ref = lattice_nodes(q)
    lam = np.stack([1.0 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]], axis=1)
    child_refs = np.einsum("nc,kcd->knd", lam, _CHILD_CORNERS)
    blocks = []
    for k in range(4):
        phys, _ = mapping(mesh, child_refs[k])
        blocks.append(phys)
    nodes = np.stack(blocks, axis=1).reshape(4 * nt, -1, 2)

    def split_edges(edges, tags=None):
        out_e = []
        out_t = []
        for row, edge in enumerate(edges):
            key = (min(edge), max(edge))
            mid = edge_owner[key]
            out_e.append((edge[0], mid))
            out_e.append((mid, edge[1]))
            if tags is not None:
                out_t.extend([tags[row], tags[row]])
        return (np.array(out_e, dtype=np.int64),
                None if tags is None else np.array(out_t, dtype=np.uint8))

    b_edges, b_tags = split_edges([tuple(e) for e in mesh.boundary_edges],
                                  list(mesh.boundary_tags))
    i_edges, _ = split_edges([tuple(e) for e in mesh.interface_edges])

    out = Mesh(
        geometry=mesh.geometry, q=q, vertices=vertices, triangles=children,
        regions=regions, boundary_edges=b_edges, boundary_tags=b_tags,
        interface_edges=i_edges, mapping_nodes=nodes)
    _check_jacobians(out)
    return out
