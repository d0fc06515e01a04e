"""Assembly of the complex-scaled Helmholtz pencil on curved meshes.

The truncated weak form is  <tensor grad u, grad u'> - omega^2 <w u, u'>
with the complex-symmetric (unconjugated) pairing, on H^1 functions that
vanish on the truncation circle |x| = R (Dirichlet); the obstacle is
sound-hard (natural Neumann).  In 2D the radial scaling enters through
the polar frame F = (rhat, that):

    tensor(x) = (dt d)^{-1} * A sigma A,   A = dt rhat rhat^T + d that that^T
    w(x) = dt d

where dt, d are the scaling factors at |x| (the cofactor pattern: each
frame direction carries det(J)/stretch with radial stretch d and
tangential stretch dt).  Below the onset radius both factors are one and
the coefficient reduces to (sigma, 1) exactly — interior elements are
assembled bitwise identically whatever the profile, and a profile whose
onset lies beyond the mesh gives the unscaled pencil.

``CondensedShiftSolver`` is the one route from a function space to a
pencil and a shift-invert operator: its construction makes the one sweep
over the elements.  Each chunk is mapped by ``mesh.mapping``; its blocks
are one GEMM of the coefficient, pulled back to the reference triangle,
against shape-function products tabulated once per pass, with the edge
parity signs of :mod:`radpml.basis`.  The upper triangle is mirrored, and
blocks are summed in element order into a CSR pattern that K and M share,
so both are exactly symmetric.  The same chunk's blocks are then condensed onto
the vertex/edge skeleton, and ``factor`` factors what remains.  Element-pair
keys are sorted once per pass, for the skeleton pattern; the pencil's
pattern appends each element's bubbles to it, and without bubbles it is
the skeleton pattern itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import (
    LOCAL_EDGES,
    dof_count,
    edge_parity,
    lagrange_geometry_basis,
    reference_basis,
    triangle_quadrature,
)
from .errors import (AssemblyError, DomainError, SingularMatrixError,
                     ValidationError)
from .media import Medium
from .mesh import Mesh, _global_edges, mapping
from .scaling import ScalingProfile, limits

__all__ = [
    "FunctionSpace",
    "AssembledPencil",
    "CondensedShiftSolver",
    "element_matrices",
    "rayleigh_residual",
]

#: elements per chunk of the element pass
CHUNK = 512


# ---------------------------------------------------------------------------
# scaled coefficient
# ---------------------------------------------------------------------------

def _tensor_batch(points: np.ndarray, profile: ScalingProfile,
                  medium: Medium):
    """Vectorized (tensor, weight) at an array of 2D points."""
    pts = np.asarray(points, dtype=float)
    radii = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(radii == 0.0):
        raise DomainError("the polar coefficient frame is singular at the origin")
    dt, d = profile.d_tilde(radii), profile.d(radii)
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


# ---------------------------------------------------------------------------
# function space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpace:
    """Hierarchic H^1 space of order p on a curved mesh.

    Global dofs are numbered vertices first, then p-1 modes per global
    edge, then interior bubbles per triangle.  The dofs on
    ``mesh.outer_edges`` (Dirichlet on |x| = R) are struck from the free
    numbering; the obstacle boundary is natural (Neumann).
    """

    mesh: Mesh
    p: int
    num_dofs: int = field(init=False)
    element_dofs: np.ndarray = field(init=False)     # (nt, local) into free dofs, -1 constrained
    orientations: np.ndarray = field(init=False)     # (nt, 3) signs

    def __post_init__(self):
        if not 1 <= self.p <= 6:
            raise ValidationError("polynomial order must lie in [1, 6]")
        mesh = self.mesh
        tri = mesh.triangles
        nt = mesh.num_triangles
        nv = mesh.num_vertices
        p = self.p

        tri_edge, outer, ne = _global_edges(tri, mesh.outer_edges, nv)
        n_edge_modes = p - 1
        n_bubbles = (p - 1) * (p - 2) // 2
        total = nv + ne * n_edge_modes + nt * n_bubbles

        constrained = np.zeros(total, dtype=bool)
        constrained[mesh.outer_edges.ravel()] = True
        constrained[nv + outer[:, None] * n_edge_modes + np.arange(n_edge_modes)] = True

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


def element_matrices(space: FunctionSpace, profile: ScalingProfile,
                     medium: Medium, triangle_ids, quad_degree: int | None = None):
    """Local (stiffness, mass) blocks for the given triangles.

    Exposed for the interior-identity and quadrature-robustness checks;
    the solver's element pass uses the same code path with the default
    2p+2 rule.
    """
    ids = np.asarray(triangle_ids, dtype=np.int64)
    return _element_blocks(space, profile, medium, ids,
                           _reference_tables(space, quad_degree))


def _reference_tables(space, quad_degree=None):
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
    phys, (j00, j01, j10, j11), det = mapping(space.mesh.mapping_nodes[ids],
                                              L, dL)
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
    # one reference basis serves every orientation: the modes of a
    # reversed edge take its parity signs (basis.edge_parity)
    p = space.p
    signs = np.ones((len(ids), dof_count(p)))
    signs[:, 3:3 * p] = np.where(space.orientations[ids, :, None] < 0,
                                 edge_parity(p), 1.0).reshape(len(ids), -1)
    pair_signs = signs[:, pairs[0]] * signs[:, pairs[1]]
    return (_symmetric_blocks(coef, stiffness, pairs, pair_signs),
            _symmetric_blocks(wq * det * weight, mass, pairs, pair_signs))


class _Pattern:
    """Fixed CSR pattern of element blocks: entry (dofs[t, i], dofs[t, j])
    sits at data[slot[t, i, j]], -1 where either dof is constrained.
    Blocks are summed in element order, so symmetric blocks give an
    exactly symmetric matrix."""

    def __init__(self, n, indptr, indices, slot):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.slot = slot
        self.nnz = indices.size

    @classmethod
    def of_blocks(cls, dofs, n):
        """The pattern of blocks over ``dofs`` (nt, local), -1 marking a
        constrained dof, from one sort of every element-pair key."""
        valid = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
        keys = dofs[:, :, None] * n + dofs[:, None, :]
        unique, inverse = np.unique(keys[valid], return_inverse=True)
        del keys
        slot = np.full(valid.shape, -1, dtype=np.int32)
        slot[valid] = inverse
        return cls(n, np.searchsorted(unique, np.arange(n + 1) * n),
                   (unique % n).astype(np.int32), slot)

    def with_bubbles(self, skel, nb):
        """The pattern over ``skel``, this pattern's element dofs, followed
        by ``nb`` bubbles per element, numbered n + t*nb + b; equal to
        ``of_blocks`` over those dofs, with no sort of the keys.

        A bubble couples to its own element only, so each skeleton row is
        this pattern's row followed by the bubbles of the elements that
        touch it, in ascending element order, and each bubble row is its
        element's valid skeleton dofs, sorted, followed by its own
        bubbles.  Without bubbles this pattern serves as it stands.
        """
        if not nb:
            return self
        nt, ns_local = skel.shape
        ns = self.n
        valid = skel >= 0
        rows = skel[valid]                             # element-major
        touching = np.bincount(rows, minlength=ns)
        row_len = np.diff(self.indptr)
        n_valid = valid.sum(axis=1)
        indptr = np.zeros(ns + nt * nb + 1, dtype=self.indptr.dtype)
        np.cumsum(np.concatenate([row_len + nb * touching,
                                  np.repeat(n_valid + nb, nb)]),
                  out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        slot = np.full((nt, ns_local + nb, ns_local + nb), -1, dtype=np.int32)
        bubbles = ns + np.arange(nt * nb).reshape(nt, nb)
        own = np.arange(nb)

        # skeleton x skeleton: each row moves by the bubbles of the rows
        # before it
        shift = np.repeat(nb * (np.cumsum(touching) - touching), row_len)
        moved = np.arange(self.nnz) + shift
        indices[moved] = self.indices
        slot[:, :ns_local, :ns_local] = np.where(self.slot >= 0,
                                                 moved[self.slot], -1)
        # skeleton x bubble: the q-th (row, element) incidence in row
        # order starts nb*q past the end of its row's skeleton entries
        order = np.argsort(rows, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        start = self.indptr[rows + 1] + nb * rank
        cols = start[:, None] + own
        indices[cols] = np.repeat(bubbles, n_valid, axis=0)
        slot[:, :ns_local, ns_local:][valid] = cols
        # bubble x skeleton, then bubble x bubble
        row_start = indptr[ns:-1].reshape(nt, nb)
        by_dof = np.argsort(np.argsort(np.where(valid, skel, ns), axis=1),
                            axis=1)
        cols = row_start[:, :, None] + by_dof[:, None, :]
        mask = np.broadcast_to(valid[:, None, :], cols.shape)
        indices[cols[mask]] = np.broadcast_to(skel[:, None, :], cols.shape)[mask]
        slot[:, ns_local:, :ns_local][mask] = cols[mask]
        cols = (row_start + n_valid[:, None])[:, :, None] + own
        indices[cols] = bubbles[:, None, :]
        slot[:, ns_local:, ns_local:] = cols
        return _Pattern(ns + nt * nb, indptr, indices, slot)

    def add(self, data, ids, blocks):
        slot = self.slot[ids]
        keep = slot >= 0
        np.add.at(data, slot[keep], blocks[keep])

    def matrix(self, data):
        # imported here: commands that assemble nothing never load scipy
        import scipy.sparse

        return scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                       shape=(self.n, self.n))


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

    Construction is the one element pass of a solve: each chunk's K and
    M blocks are scattered into the pencil (``pencil``) and condensed in
    the same sweep.  ``solve`` needs ``factor`` to have run.  ``d0``, the
    profile's asymptotic direction, comes from ``limits`` before the pass.
    """

    def __init__(self, space: FunctionSpace, profile: ScalingProfile,
                 medium: Medium, shift_sq: complex):
        self.d0 = limits(profile, medium).d0
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
        self._schur_pattern = _Pattern.of_blocks(self.skel, self.skeleton_size)
        self._schur_data = np.zeros(self._schur_pattern.nnz, dtype=complex)
        self.lu = None
        tables = _reference_tables(space)
        pattern = self._schur_pattern.with_bubbles(self.skel, nb_local)
        k_data, m_data = np.zeros((2, pattern.nnz), dtype=complex)
        for start in range(0, nt, CHUNK):
            ids = np.arange(start, min(start + CHUNK, nt))
            k_blocks, m_blocks = _element_blocks(space, profile, medium, ids,
                                                 tables)
            pattern.add(k_data, ids, k_blocks)
            pattern.add(m_data, ids, m_blocks)
            self._condense(ids, k_blocks, m_blocks)
        self.pencil = AssembledPencil(stiffness=pattern.matrix(k_data),
                                      mass=pattern.matrix(m_data))

    def _condense(self, ids, k_blocks, m_blocks):
        ns_local = self.gain.shape[1]
        a = k_blocks - self.shift_sq * m_blocks
        a_ss = a[:, :ns_local, :ns_local]
        a_sb = a[:, :ns_local, ns_local:]
        a_bb = a[:, ns_local:, ns_local:]
        try:
            bb_inv = np.linalg.inv(a_bb)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"shift_sq {self.shift_sq} hits an element-interior "
                f"eigenvalue: {exc}") from exc
        gain = a_sb @ bb_inv
        self.gain[ids] = gain
        self.bb_inv[ids] = bb_inv
        self._schur_pattern.add(self._schur_data, ids,
                                a_ss - gain @ np.swapaxes(a_sb, 1, 2))

    def factor(self) -> "CondensedShiftSolver":
        """Factor the condensed Schur complement; returns self.

        Raises
        ------
        SingularMatrixError
            If the skeleton factor is singular (the shift is an
            eigenvalue).
        """
        from .eig import sparse_lu

        try:
            self.lu = sparse_lu(self._schur_pattern.matrix(self._schur_data))
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"shifted pencil is singular ({exc}); move the shift") from exc
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
