"""Assembly of the complex-scaled Helmholtz pencil on curved meshes.

The truncated weak form is  <tensor grad u, grad u'> - omega^2 <w u, u'>
with the complex-symmetric (unconjugated) pairing.  In 2D the radial
scaling enters through the polar frame F = (rhat, that):

    tensor(x) = (dt d)^{-1} * A sigma A,   A = dt rhat rhat^T + d that that^T
    w(x) = dt d

where dt, d are the scaling factors at |x| (the cofactor pattern: each
frame direction carries det(J)/stretch with radial stretch d and
tangential stretch dt).  Below the onset radius both factors are one and
the coefficient reduces to (sigma, 1) exactly — interior elements are
assembled bitwise identically with or without a profile.

A solve makes one sweep over the elements.  Each chunk's blocks are one
GEMM of the coefficient, pulled back to the reference triangle, against
shape-function products tabulated once per pass; the upper triangle is
mirrored, and blocks are summed in element order into a CSR pattern that
K and M share, so both are exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .basis import (
    LOCAL_EDGES,
    dof_count,
    lagrange_geometry_basis,
    reference_basis,
    triangle_quadrature,
)
from .errors import (AssemblyError, DomainError, ShiftRejectedError,
                     ValidationError)
from .media import Medium
from .mesh import BOUNDARY_OBSTACLE, BOUNDARY_OUTER, Mesh, REGION_INTERIOR
from .scaling import ScalingProfile

__all__ = [
    "DIRICHLET",
    "NEUMANN",
    "DEFAULT_BC",
    "FunctionSpace",
    "AssembledPencil",
    "CondensedShiftSolver",
    "scaled_tensor",
    "element_matrices",
    "assemble",
    "rayleigh_residual",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: default boundary conditions: sound-hard obstacle, truncation by a
#: homogeneous Dirichlet condition on the outer circle
DEFAULT_BC = {BOUNDARY_OBSTACLE: NEUMANN, BOUNDARY_OUTER: DIRICHLET}


# ---------------------------------------------------------------------------
# scaled coefficient
# ---------------------------------------------------------------------------

def _factors_at(radii: np.ndarray, profile: ScalingProfile | None):
    if profile is None:
        ones = np.ones_like(radii, dtype=complex)
        return ones, ones.copy()
    return profile.d_tilde(radii), profile.d(radii)


def _tensor_batch(points: np.ndarray, profile: ScalingProfile | None,
                  medium: Medium):
    """Vectorized (tensor, weight) at an array of 2D points."""
    pts = np.asarray(points, dtype=float)
    radii = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(radii == 0.0):
        raise DomainError("the polar coefficient frame is singular at the origin")
    dt, d = _factors_at(radii, profile)
    sigma = medium.sigma
    tensor = np.empty(pts.shape[:-1] + (2, 2), dtype=complex)
    weight = dt * d
    identity = (dt == 1.0) & (d == 1.0)
    # identity region: exactly (sigma, 1), bitwise independent of profile
    tensor[identity] = sigma
    weight = np.where(identity, 1.0 + 0.0j, weight)
    active = ~identity
    if np.any(active):
        rhat = pts[active] / radii[active][..., None]
        that = np.stack([-rhat[..., 1], rhat[..., 0]], axis=-1)
        a_mat = (dt[active][..., None, None]
                 * rhat[..., :, None] * rhat[..., None, :]
                 + d[active][..., None, None]
                 * that[..., :, None] * that[..., None, :])
        # A sigma A as explicit 2x2 products (A is symmetric), B = A sigma
        a00, a01, a11 = a_mat[:, 0, 0], a_mat[:, 0, 1], a_mat[:, 1, 1]
        (s00, s01), (s10, s11) = sigma
        b00, b01 = a00 * s00 + a01 * s10, a00 * s01 + a01 * s11
        b10, b11 = a01 * s00 + a11 * s10, a01 * s01 + a11 * s11
        sand = np.empty_like(a_mat)
        sand[:, 0, 0] = b00 * a00 + b01 * a01
        sand[:, 0, 1] = b00 * a01 + b01 * a11
        sand[:, 1, 0] = b10 * a00 + b11 * a01
        sand[:, 1, 1] = b10 * a01 + b11 * a11
        sand /= weight[active][:, None, None]
        tensor[active] = sand
    return tensor, weight


def scaled_tensor(x, profile: ScalingProfile | None, medium: Medium):
    """Diffusion tensor and mass weight of the scaled form at one point."""
    if medium.dim != 2:
        raise ValidationError("the assembled form is two-dimensional")
    tensor, weight = _tensor_batch(np.asarray(x, dtype=float)[None, :],
                                   profile, medium)
    return tensor[0], complex(weight[0])


# ---------------------------------------------------------------------------
# function space
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class FunctionSpace:
    """Hierarchic H^1 space of order p on a curved mesh.

    Global dofs are numbered vertices first, then p-1 modes per global
    edge, then interior bubbles per triangle.  Dirichlet-tagged boundary
    dofs are struck from the free numbering.
    """

    mesh: Mesh
    p: int
    bc: dict = field(default_factory=lambda: dict(DEFAULT_BC))
    num_dofs: int = field(init=False)
    element_dofs: np.ndarray = field(init=False)     # (nt, local) into free dofs, -1 constrained
    orientations: np.ndarray = field(init=False)     # (nt, 3) signs
    free_of_global: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 1 <= self.p <= 6:
            raise ValidationError("polynomial order must lie in [1, 6]")
        mesh = self.mesh
        tri = mesh.triangles
        nt = mesh.num_triangles
        nv = mesh.num_vertices
        p = self.p

        dirichlet_tags = [tag for tag, kind in self.bc.items() if kind == DIRICHLET]
        ends = mesh.boundary_edges[np.isin(mesh.boundary_tags, dirichlet_tags)]
        tri_edge, edges, ne = _global_edges(tri, ends, nv)
        n_edge_modes = p - 1
        n_bubbles = (p - 1) * (p - 2) // 2
        total = nv + ne * n_edge_modes + nt * n_bubbles

        constrained = np.zeros(total, dtype=bool)
        constrained[ends.ravel()] = True
        constrained[nv + edges[:, None] * n_edge_modes + np.arange(n_edge_modes)] = True

        free = np.full(total, -1, dtype=np.int64)
        free[~constrained] = np.arange(int((~constrained).sum()))

        local = dof_count(p)
        element_dofs = np.empty((nt, local), dtype=np.int64)
        element_dofs[:, 0:3] = tri
        pos = 3
        for e in range(3):
            cols = nv + tri_edge[:, e, None] * n_edge_modes + np.arange(n_edge_modes)
            element_dofs[:, pos:pos + n_edge_modes] = cols
            pos += n_edge_modes
        if n_bubbles:
            base = nv + ne * n_edge_modes
            cols = base + np.arange(nt)[:, None] * n_bubbles + np.arange(n_bubbles)
            element_dofs[:, pos:] = cols

        orientations = np.empty((nt, 3), dtype=np.int8)
        for e, (a, b) in enumerate(LOCAL_EDGES):
            orientations[:, e] = np.where(tri[:, a] < tri[:, b], 1, -1)

        object.__setattr__(self, "num_dofs", int((~constrained).sum()))
        object.__setattr__(self, "element_dofs", free[element_dofs])
        object.__setattr__(self, "orientations", orientations)
        object.__setattr__(self, "free_of_global", free)


@dataclass(frozen=True)
class AssembledPencil:
    """Complex-symmetric stiffness/mass pair over the free dofs."""

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix

    @property
    def size(self) -> int:
        return self.stiffness.shape[0]

    @cached_property
    def frobenius_norms(self) -> tuple[float, float]:
        """(||K||_F, ||M||_F), the scale of every Rayleigh residual."""
        return (float(np.linalg.norm(self.stiffness.data)),
                float(np.linalg.norm(self.mass.data)))


def element_matrices(space: FunctionSpace, profile: ScalingProfile | None,
                     medium: Medium, triangle_ids, quad_degree: int | None = None):
    """Local (stiffness, mass) blocks for the given triangles.

    Exposed for the interior-identity and quadrature-robustness checks;
    assembly uses the same code path.
    """
    ids = np.asarray(triangle_ids, dtype=np.int64)
    return _element_blocks(space, profile, medium, ids,
                           _reference_tables(space, quad_degree))


def _reference_tables(space, quad_degree):
    """Quadrature weights, geometry basis and, per local pair i <= j, the
    shape-function products that a pulled-back coefficient C multiplies:
    sym(dN_i dN_j^T) for the components (C00, C01 + C10, C11), and N_i N_j."""
    pts, wq = triangle_quadrature(quad_degree or (2 * space.p + 2))
    L, dL = lagrange_geometry_basis(space.mesh.q, pts)
    N, dN = reference_basis(space.p, pts)
    pairs = np.triu_indices(N.shape[0])
    x, y = dN[pairs[0]], dN[pairs[1]]
    stiffness = np.stack([x[..., 0] * y[..., 0],
                          0.5 * (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]),
                          x[..., 1] * y[..., 1]], axis=-1)
    stiffness = stiffness.reshape(len(pairs[0]), -1).T
    mass = (N[pairs[0]] * N[pairs[1]]).T
    return wq, L, dL, stiffness, mass, pairs


def _symmetric_blocks(coef, table, pairs, pair_signs):
    """Blocks whose upper triangle is coef @ table (times the orientation
    signs), computed as one real GEMM over the real and imaginary parts;
    the lower triangle mirrors it, so every block is exactly symmetric."""
    nt = coef.shape[0]
    flat = coef.reshape(nt, -1)
    prod = np.concatenate([flat.real, flat.imag]) @ table
    upper = (prod[:nt] + 1j * prod[nt:]) * pair_signs
    local = pairs[1][-1] + 1
    blocks = np.empty((nt, local, local), dtype=complex)
    blocks[:, pairs[0], pairs[1]] = upper
    blocks[:, pairs[1], pairs[0]] = upper
    return blocks


def _element_blocks(space, profile, medium, ids, tables):
    wq, L, dL, stiffness, mass, pairs = tables
    nodes = space.mesh.mapping_nodes[ids].transpose(0, 2, 1)  # (t, 2, m)
    phys = (nodes @ L).transpose(0, 2, 1)                    # (t, n, 2)
    jac = nodes @ dL.reshape(dL.shape[0], -1)                # (t, 2, 2n)
    j00, j01 = jac[:, 0, 0::2], jac[:, 0, 1::2]
    j10, j11 = jac[:, 1, 0::2], jac[:, 1, 1::2]
    det = j00 * j11 - j01 * j10
    if np.any(det <= 0.0):
        bad = int(ids[np.argmax(np.any(det <= 0.0, axis=1))])
        raise AssemblyError(f"nonpositive mapping Jacobian in element {bad}")
    tensor, weight = _tensor_batch(phys, profile, medium)
    # w det J^-1 T J^-T, the coefficient pulled back to the reference
    # triangle; the rows of det J^-1 are (j11, -j01) and (-j10, j00)
    def form(a0, a1, b0, b1):
        return (a0 * (tensor[..., 0, 0] * b0 + tensor[..., 0, 1] * b1)
                + a1 * (tensor[..., 1, 0] * b0 + tensor[..., 1, 1] * b1))

    coef = np.stack([form(j11, -j01, j11, -j01),
                     form(j11, -j01, -j10, j00) + form(-j10, j00, j11, -j01),
                     form(-j10, j00, -j10, j00)], axis=-1)
    coef *= (wq / det)[..., None]
    # Reversing an edge multiplies its degree-k mode by (-1)^k (integrated
    # Legendre parity), so one reference basis serves every orientation.
    p = space.p
    signs = np.ones((len(ids), dof_count(p)))
    signs[:, 3:3 * p] = np.where(space.orientations[ids, :, None] < 0,
                                 (-1.0) ** np.arange(2, p + 1),
                                 1.0).reshape(len(ids), -1)
    pair_signs = signs[:, pairs[0]] * signs[:, pairs[1]]
    return (_symmetric_blocks(coef, stiffness, pairs, pair_signs),
            _symmetric_blocks(wq * det * weight, mass, pairs, pair_signs))


class _Pattern:
    """Fixed CSR pattern of element blocks over ``dofs`` (nt, local), -1
    marking a constrained dof; entry (dofs[t, i], dofs[t, j]) sits at
    data[slot[t, i, j]].  Blocks are summed in element order, so symmetric
    blocks give an exactly symmetric matrix."""

    def __init__(self, dofs, n):
        valid = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
        keys = dofs[:, :, None] * n + dofs[:, None, :]
        unique, inverse = np.unique(keys[valid], return_inverse=True)
        del keys
        self.slot = np.full(valid.shape, -1, dtype=np.int32)
        self.slot[valid] = inverse
        self.n = n
        self.indptr = np.searchsorted(unique, np.arange(n + 1) * n)
        self.indices = (unique % n).astype(np.int32)
        self.nnz = unique.size

    def add(self, data, ids, blocks):
        slot = self.slot[ids]
        keep = slot >= 0
        np.add.at(data, slot[keep], blocks[keep])

    def matrix(self, data):
        return scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                       shape=(self.n, self.n))


def _element_pass(space, profile, medium, quad_degree, chunk, condense=None):
    """The one sweep over the elements: each chunk's K and M blocks are
    scattered into the pencil, then handed to ``condense`` if given."""
    if medium.dim != 2:
        raise ValidationError("the assembled form is two-dimensional")
    tables = _reference_tables(space, quad_degree)
    pattern = _Pattern(space.element_dofs, space.num_dofs)
    k_data, m_data = np.zeros((2, pattern.nnz), dtype=complex)
    nt = space.mesh.num_triangles
    for start in range(0, nt, chunk):
        ids = np.arange(start, min(start + chunk, nt))
        k_blocks, m_blocks = _element_blocks(space, profile, medium, ids,
                                             tables)
        pattern.add(k_data, ids, k_blocks)
        pattern.add(m_data, ids, m_blocks)
        if condense is not None:
            condense(ids, k_blocks, m_blocks)
    return AssembledPencil(stiffness=pattern.matrix(k_data),
                           mass=pattern.matrix(m_data))


def assemble(space: FunctionSpace, profile: ScalingProfile | None,
             medium: Medium, quad_degree: int | None = None,
             chunk: int = 512) -> AssembledPencil:
    """Assemble the scaled stiffness/mass pencil over the free dofs.

    Quadrature degree defaults to 2p+2; Dirichlet rows and columns are
    eliminated.  K and M come out exactly symmetric and share a sparsity
    pattern.
    """
    return _element_pass(space, profile, medium, quad_degree, chunk)


def rayleigh_residual(pencil: AssembledPencil, omega: complex,
                      u: np.ndarray) -> float:
    """|| K u - omega^2 M u || / (||u|| (||K||_F + |omega^2| ||M||_F))."""
    u = np.asarray(u)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValidationError("eigenvector must be nonzero")
    omega_sq = complex(omega) ** 2
    resid = np.linalg.norm(pencil.stiffness @ u - omega_sq * (pencil.mass @ u))
    k_norm, m_norm = pencil.frobenius_norms
    return float(resid / (nrm * (k_norm + abs(omega_sq) * m_norm)))


class CondensedShiftSolver:
    """Direct solver for K - shift_sq*M with element-interior elimination.

    Interior (bubble) modes of each triangle couple only to dofs of that
    same triangle, so for a fixed shift they can be eliminated exactly,
    element by element, before anything global is factored.  What remains
    is the Schur complement on the vertex/edge skeleton, which is much
    smaller at high order and factors with far less fill.  The elimination
    is algebraically exact; solutions match the unreduced factorization up
    to roundoff.

    Construction is the one element pass of a solve: it assembles the
    pencil (``pencil``) and condenses in the same sweep.  ``solve`` needs
    ``factor`` to have run.
    """

    method = "condensed"

    def __init__(self, space: FunctionSpace, profile: ScalingProfile | None,
                 medium: Medium, shift_sq: complex,
                 quad_degree: int | None = None, chunk: int = 512):
        p = space.p
        ns_local = 3 * p                      # vertex + edge modes
        nb_local = (p - 1) * (p - 2) // 2     # interior bubbles
        nt = space.mesh.num_triangles

        self.n = space.num_dofs
        self.shift_sq = complex(shift_sq)
        # bubbles are numbered last, element by element (FunctionSpace),
        # so the skeleton keeps its free-dof numbers
        self.skeleton_size = self.n - nt * nb_local
        self.skel = space.element_dofs[:, :ns_local]
        self.gain = np.empty((nt, ns_local, nb_local), dtype=complex)
        self.bb_inv = np.empty((nt, nb_local, nb_local), dtype=complex)
        self._schur_pattern = _Pattern(self.skel, self.skeleton_size)
        self._schur_data = np.zeros(self._schur_pattern.nnz, dtype=complex)
        self.lu = None
        self.pencil = _element_pass(space, profile, medium, quad_degree,
                                    chunk, self._condense)

    def _condense(self, ids, k_blocks, m_blocks):
        ns_local = self.gain.shape[1]
        a = k_blocks - self.shift_sq * m_blocks
        a_ss = a[:, :ns_local, :ns_local]
        a_sb = a[:, :ns_local, ns_local:]
        a_bb = a[:, ns_local:, ns_local:]
        try:
            bb_inv = np.linalg.inv(a_bb)
        except np.linalg.LinAlgError as exc:
            raise ShiftRejectedError(
                f"shift_sq {self.shift_sq} hits an element-interior "
                f"eigenvalue: {exc}") from exc
        gain = a_sb @ bb_inv
        self.gain[ids] = gain
        self.bb_inv[ids] = bb_inv
        self._schur_pattern.add(self._schur_data, ids,
                                a_ss - gain @ np.swapaxes(a_sb, 1, 2))

    def factor(self) -> "CondensedShiftSolver":
        """Factor the condensed Schur complement; returns self."""
        from .eig import sparse_lu

        self.lu = sparse_lu(self._schur_pattern.matrix(self._schur_data))
        self._schur_pattern = self._schur_data = None
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply (K - shift_sq*M)^{-1} to a free-dof vector.

        Without bubbles (p <= 2) the skeleton is every dof and the factor
        solves the system as it stands.
        """
        b = np.asarray(b, dtype=complex)
        if b.shape != (self.n,):
            raise ValidationError(
                f"right-hand side must have shape ({self.n},)")
        ns = self.skeleton_size
        if ns == self.n:
            return self.lu.solve(b)
        w_b = b[ns:].reshape(self.bb_inv.shape[:2])[:, :, None]  # (nt, nb, 1)
        corr = (self.gain @ w_b)[:, :, 0]                        # (nt, ns)
        valid = self.skel >= 0
        idx = self.skel[valid]
        cv = corr[valid]
        rhs = b[:ns] - (np.bincount(idx, weights=cv.real, minlength=ns)
                        + 1j * np.bincount(idx, weights=cv.imag, minlength=ns))
        x_s = self.lu.solve(rhs)
        xs_elem = np.where(valid, x_s[self.skel], 0.0)[:, None, :]
        x_b = (self.bb_inv @ w_b)[:, :, 0] - (xs_elem @ self.gain)[:, 0, :]
        return np.concatenate([x_s, x_b.ravel()])
