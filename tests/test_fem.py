"""Assembly tests: scaled coefficient, function space, and the pencil.

Every pencil comes from the element pass of ``CondensedShiftSolver``, the
one route from a function space to a pencil.  Unscaled pencils use a
profile whose onset lies beyond the mesh, where the coefficient is
exactly (sigma, 1).

Closed-form anchors (the P1 element matrices, eigenstructure of the
scaled tensor, determinant invariance) are classical identities stated
inline.  Accuracy anchors — mass totals against the exact truncated-disk
area and the quadrature-robustness levels — were measured once at the
pinned configurations and frozen with safety margins.  Bitwise anchors
(exact pencil symmetry, profile-independence of interior elements,
reality of the unscaled pencil) assert exact equality by design of the
assembly path, not approximate closeness.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from radpml.basis import LOCAL_EDGES
from radpml.eig import rayleigh_residual
from radpml.errors import ValidationError
from radpml.fem import (
    CHUNK,
    AssembledPencil,
    CondensedShiftSolver,
    FunctionSpace,
    SymmetricMatrix,
    element_matrices,
    _Pattern,
    _tensor_batch,
)
from radpml.media import Medium
from radpml.mesh import (
    DiskObstacle,
    EllipseObstacle,
    Geometry,
    Mesh,
    generate,
)
from radpml.scaling import AffineProfile, RampProfile, SmoothedPolynomialProfile

from pencils import full_csr, stored

ISO = Medium(np.eye(2))
ANISO = Medium(np.diag([0.25, 1.0]))
GAMMA = 8j
#: onset far beyond every mesh below: the scaling is the identity there
UNSCALED = AffineProfile(r1=100.0, gamma=GAMMA)
SHIFT_SQ = (1.5 - 1.0j) ** 2

DISK = Geometry(DiskObstacle(1.0), 1.5, 2.0)
ELLIPSE = Geometry(EllipseObstacle(0.5, 1.0), 1.5, 2.0)


def inside_onset(mesh, r1=1.5):
    """Triangles whose mapping nodes all lie in |x| <= r1 (to 1e-12);
    no triangle straddles the onset circle (tests/test_mesh.py)."""
    radii = np.hypot(mesh.mapping_nodes[..., 0], mesh.mapping_nodes[..., 1])
    return radii.max(axis=1) <= r1 + 1e-12


def corner_radii(mesh):
    """|x| of the mean of each triangle's corners, the lattice nodes 0, q
    and -1 of its mapping nodes."""
    corners = mesh.mapping_nodes[:, [0, mesh.q, -1]]
    return np.hypot(*corners.mean(axis=1).T)


def assembled(space, profile, medium):
    """The pencil of the solver's element pass (no factorization)."""
    return CondensedShiftSolver(space, profile, medium, SHIFT_SQ).pencil


def all_neumann(mesh):
    """``mesh`` without Dirichlet edges: every boundary is natural."""
    return replace(mesh, outer_edges=np.empty((0, 2), dtype=np.int64))


def unit_triangle_mesh(counterclockwise=True):
    """Single straight P1-ready triangle with no Dirichlet edges."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    order = [0, 1, 2] if counterclockwise else [0, 2, 1]
    return Mesh(
        q=1,
        num_vertices=3,
        triangles=np.array([order]),
        outer_edges=np.empty((0, 2), dtype=np.int64),
        mapping_nodes=vertices[order][None, :, :].copy())


def tensor_at(x, profile, medium):
    """(tensor, weight) of the scaled form at the one point x."""
    tensor, weight = _tensor_batch(np.asarray(x, dtype=float)[None, :],
                                   profile, medium)
    return tensor[0], weight[0]


class TestScaledTensor:
    def test_identity_inside_onset(self):
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        for medium in (ISO, ANISO):
            tensor, weight = tensor_at(np.array([0.3, -1.2]), profile, medium)
            assert np.array_equal(tensor, medium.sigma)
            assert weight == 1.0 + 0.0j

    def test_isotropic_eigenstructure(self):
        """Isotropic medium: the radial direction carries dt/d and the
        tangential direction d/dt, with mass weight dt*d."""
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        x = np.array([2.1, 0.3])
        r = np.hypot(*x)
        dt = complex(profile.d_tilde(r))
        d = complex(profile.d(r))
        tensor, weight = tensor_at(x, profile, ISO)
        rhat = x / r
        that = np.array([-rhat[1], rhat[0]])
        assert np.max(np.abs(tensor @ rhat - (dt / d) * rhat)) < 1e-13
        assert np.max(np.abs(tensor @ that - (d / dt) * that)) < 1e-13
        assert abs(weight - dt * d) < 1e-13

    def test_determinant_invariance(self):
        """det(A sigma A)/(dt d)^2 = det(sigma) since det A = dt d —
        a coordinate-free check of the cofactor pattern."""
        profile = SmoothedPolynomialProfile(r1=1.5, gamma=GAMMA, exponent=2.0)
        full = Medium(np.array([[2.0, 0.5], [0.5, 1.0]]))
        rng = np.random.default_rng(7)
        for medium in (ISO, ANISO, full):
            det_sigma = np.linalg.det(medium.sigma)
            for _ in range(20):
                x = rng.uniform(-3.4, 3.4, size=2)
                if np.hypot(*x) < 0.2:
                    continue
                tensor, _ = tensor_at(x, profile, medium)
                assert abs(np.linalg.det(tensor) - det_sigma) < 1e-12 * abs(det_sigma)

    def test_batch_matches_einsum_sandwich(self):
        """The explicit 2x2 products agree with A sigma A / (dt d) formed
        by a three-operand einsum to 1e-15 relative, across the layer."""
        profile = SmoothedPolynomialProfile(r1=1.5, gamma=GAMMA, exponent=2.0)
        full = Medium(np.array([[2.0, 0.5], [0.5, 1.0]]))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3.5, 3.5, size=(800, 2))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        pts, radii = pts[radii > 1.6], radii[radii > 1.6]
        dt, d = profile.d_tilde(radii), profile.d(radii)
        rhat = pts / radii[:, None]
        that = np.stack([-rhat[:, 1], rhat[:, 0]], axis=1)
        a_mat = (dt[:, None, None] * rhat[:, :, None] * rhat[:, None, :]
                 + d[:, None, None] * that[:, :, None] * that[:, None, :])
        for medium in (ISO, ANISO, full):
            tensor, weight = _tensor_batch(pts, profile, medium)
            expected = (np.einsum("...ij,jk,...kl->...il", a_mat, medium.sigma, a_mat)
                        / (dt * d)[:, None, None])
            assert np.array_equal(weight, dt * d)
            err = np.abs(tensor - expected).max(axis=(1, 2))
            assert np.all(err <= 1e-15 * np.abs(expected).max(axis=(1, 2)))

    def test_tensor_symmetric(self):
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        tensor, _ = tensor_at(np.array([-1.7, 2.4]), profile, ANISO)
        assert np.max(np.abs(tensor - tensor.T)) < 1e-15 * np.max(np.abs(tensor))

    def test_origin_rejected(self):
        """The polar frame is singular at the origin; a medium that is not
        2x2 is rejected by ``Medium`` itself
        (tests/test_media.py::TestMedium::test_medium_dimension_checked)."""
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        with pytest.raises(ValidationError, match="singular at the origin"):
            tensor_at(np.array([0.0, 0.0]), profile, ISO)

    def test_coefficient_continuity_across_onset(self):
        """d_tilde is continuous at r1 for every profile kind; the full
        coefficient pair is continuous for the ramp kind (alpha also
        vanishes at the onset), while the affine and smoothed-polynomial
        kinds jump in the mass weight by exactly gamma * alpha(r1+)."""
        r1 = 1.5
        delta = 1e-13 * r1
        profiles = (AffineProfile(r1=r1, gamma=GAMMA),
                    RampProfile(r1=r1, gamma=GAMMA, width=1.2, amax=0.9),
                    SmoothedPolynomialProfile(r1=r1, gamma=GAMMA, exponent=2.0))
        for profile in profiles:
            jump = complex(profile.d_tilde(r1 + delta)) - complex(profile.d_tilde(r1 - delta))
            assert abs(jump) < 1e-10, profile.kind

        ramp = profiles[1]
        t_lo, w_lo = tensor_at(np.array([r1 - delta, 0.0]), ramp, ANISO)
        t_hi, w_hi = tensor_at(np.array([r1 + delta, 0.0]), ramp, ANISO)
        assert np.max(np.abs(t_hi - t_lo)) < 1e-10
        assert abs(w_hi - w_lo) < 1e-10

        _, w_lo = tensor_at(np.array([r1 - delta, 0.0]), profiles[0], ISO)
        _, w_hi = tensor_at(np.array([r1 + delta, 0.0]), profiles[0], ISO)
        assert abs((w_hi - w_lo) - GAMMA) < 1e-10  # alpha(r1+) = 1

        sp = profiles[2]
        _, w_lo = tensor_at(np.array([r1 - delta, 0.0]), sp, ISO)
        _, w_hi = tensor_at(np.array([r1 + delta, 0.0]), sp, ISO)
        assert abs((w_hi - w_lo) - GAMMA * 2.0) < 1e-9  # alpha(r1+) = amax * m


def _dict_loop_numbering(mesh, p):
    """(num_dofs, element_dofs, orientations) of a space, with the global
    edges numbered by a dict loop over the triangles."""
    tri = mesh.triangles
    nt, nv = mesh.num_triangles, mesh.num_vertices
    edge_index = {}
    tri_edge = np.empty((nt, 3), dtype=np.int64)
    for t in range(nt):
        for e, (a, b) in enumerate(LOCAL_EDGES):
            va, vb = int(tri[t, a]), int(tri[t, b])
            key = (va, vb) if va < vb else (vb, va)
            tri_edge[t, e] = edge_index.setdefault(key, len(edge_index))
    ne = len(edge_index)
    n_edge, n_bub = p - 1, (p - 1) * (p - 2) // 2
    total = nv + ne * n_edge + nt * n_bub
    constrained = np.zeros(total, dtype=bool)
    for va, vb in mesh.outer_edges:
        constrained[[va, vb]] = True
        start = nv + edge_index[(min(va, vb), max(va, vb))] * n_edge
        constrained[start:start + n_edge] = True
    free = np.full(total, -1, dtype=np.int64)
    free[~constrained] = np.arange(int((~constrained).sum()))
    element_dofs = np.concatenate(
        [tri]
        + [nv + tri_edge[:, e, None] * n_edge + np.arange(n_edge) for e in range(3)]
        + [nv + ne * n_edge + np.arange(nt)[:, None] * n_bub + np.arange(n_bub)],
        axis=1)
    orientations = np.stack(
        [np.where(tri[:, a] < tri[:, b], 1, -1) for a, b in LOCAL_EDGES],
        axis=1).astype(np.int8)
    return int((~constrained).sum()), free[element_dofs], orientations


class TestFunctionSpace:
    def test_order_validation(self):
        mesh = generate(DISK, hmax=10.0, q=1)
        with pytest.raises(ValidationError):
            FunctionSpace(mesh, 0)
        with pytest.raises(ValidationError):
            FunctionSpace(mesh, 7)

    def test_dof_counts(self):
        mesh = generate(DISK, hmax=10.0, q=1)
        edges = {tuple(sorted(pair))
                 for tri in mesh.triangles
                 for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
        nv, ne, nt = mesh.num_vertices, len(edges), mesh.num_triangles
        for p in (1, 3, 6):
            n_bub = (p - 1) * (p - 2) // 2
            total = nv + ne * (p - 1) + nt * n_bub
            space = FunctionSpace(all_neumann(mesh), p)
            assert space.num_dofs == total
            # the Dirichlet outer circle strikes its 8 vertices and the
            # p-1 modes of each of its 8 edges
            space = FunctionSpace(mesh, p)
            assert space.num_dofs == total - 8 - 8 * (p - 1)

    def test_numbering_matches_dict_loop(self):
        """Edges are numbered in order of first appearance, so every
        array of the space is that of a dict loop over the triangles."""
        dirichlet = generate(ELLIPSE, hmax=0.2, q=2)
        for p in (1, 2, 4):
            for mesh in (dirichlet, all_neumann(dirichlet)):
                space = FunctionSpace(mesh, p)
                num_dofs, element_dofs, orientations = \
                    _dict_loop_numbering(mesh, p)
                assert space.num_dofs == num_dofs
                assert np.array_equal(space.element_dofs, element_dofs)
                assert np.array_equal(space.orientations, orientations)

    def test_element_dofs_mark_constrained(self):
        mesh = generate(DISK, hmax=10.0, q=1)
        space = FunctionSpace(mesh, 2)
        assert space.element_dofs.min() == -1
        assert space.element_dofs.max() == space.num_dofs - 1
        assert set(np.unique(space.orientations)) <= {-1, 1}


class TestAssemble:
    def test_p1_unit_triangle_matrices(self):
        """Classical P1 element matrices on the unit right triangle."""
        space = FunctionSpace(unit_triangle_mesh(), 1)
        pencil = assembled(space, UNSCALED, ISO)
        k_exp = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        m_exp = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.allclose(full_csr(pencil.stiffness).toarray(), k_exp,
                           rtol=0, atol=1e-14)
        assert np.allclose(full_csr(pencil.mass).toarray(), m_exp,
                           rtol=1e-13, atol=0)

    def test_mass_total_is_domain_area(self):
        """With w = 1 and the P1 partition of unity, sum_ij M_ij is the
        quadrature-exact domain area (anchor 2.1e-13 relative)."""
        mesh = generate(DISK, hmax=0.3, q=6)
        space = FunctionSpace(all_neumann(mesh), 1)
        pencil = assembled(space, UNSCALED, ISO)
        exact = np.pi * (3.5**2 - 1.0**2)
        total = full_csr(pencil.mass).sum()
        assert abs(total - exact) / exact < 1e-12
        assert total.imag == 0.0

    def test_pencil_exactly_symmetric(self):
        """Mirror-averaged blocks plus mirror-invariant duplicate
        summation make K and M exactly symmetric, not just close.  The
        pencil stores one triangle, so the full matrix it stands for is
        symmetric by construction; ``TestStoredTriangle`` shows that it
        is bitwise the full sum of the blocks."""
        mesh = generate(ELLIPSE, hmax=0.5, q=3)
        space = FunctionSpace(mesh, 4)
        pencil = assembled(space, AffineProfile(r1=1.5, gamma=GAMMA), ANISO)
        for mat in map(full_csr, (pencil.stiffness, pencil.mass)):
            diff = (mat - mat.T).tocoo()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_shared_sparsity_pattern(self):
        mesh = generate(DISK, hmax=0.8, q=2)
        space = FunctionSpace(mesh, 3)
        pencil = assembled(space, AffineProfile(r1=1.5, gamma=GAMMA), ISO)
        stiffness, mass = pencil.stiffness.upper, pencil.mass.upper
        assert np.array_equal(stiffness.indptr, mass.indptr)
        assert np.array_equal(stiffness.indices, mass.indices)

    def test_interior_elements_profile_independent_bitwise(self):
        mesh = generate(DISK, hmax=0.8, q=4)
        space = FunctionSpace(mesh, 5)
        interior = np.where(inside_onset(mesh))[0]
        assert 0 < interior.size < mesh.num_triangles
        k_flat, m_flat = element_matrices(space, UNSCALED, ISO, interior)
        k_prof, m_prof = element_matrices(
            space, AffineProfile(r1=1.5, gamma=GAMMA), ISO, interior)
        assert np.array_equal(k_flat, k_prof)
        assert np.array_equal(m_flat, m_prof)

    def test_quadrature_robustness_geometric(self):
        """Raising the rule from 2p+2 to 2p+4 moves unscaled entries on
        the most curved elements by < 1e-11 relative (measured 1.9e-13
        for K and 7.2e-13 for M at this configuration)."""
        mesh = generate(DISK, hmax=0.07, q=4)
        space = FunctionSpace(mesh, 4)
        radii = corner_radii(mesh)
        ids = np.concatenate([np.argsort(radii)[:16], np.argsort(radii)[-16:]])
        k_a, m_a = element_matrices(space, UNSCALED, ISO, ids, quad_degree=10)
        k_b, m_b = element_matrices(space, UNSCALED, ISO, ids, quad_degree=14)
        assert np.max(np.abs(k_a - k_b)) / np.max(np.abs(k_b)) < 1e-11
        assert np.max(np.abs(m_a - m_b)) / np.max(np.abs(m_b)) < 1e-11

    def test_quadrature_robustness_scaled_near_onset(self):
        """On scaled elements next to the onset the coefficient is
        rational with a complex pole at gamma*r1/(1+gamma) — a fixed
        distance r1/|1+gamma| ~ 0.19 off the ring — so the 2p+2 rule is
        quadrature-converged only to the geometric rate set by
        pole-distance/element-size.  Anchors at the production
        configuration: 4.9e-9 for K, 2.1e-11 for M, frozen with margin."""
        mesh = generate(DISK, hmax=0.1, q=6)
        space = FunctionSpace(mesh, 6)
        radii = corner_radii(mesh)
        pml = np.where(~inside_onset(mesh))[0]
        ids = pml[np.argsort(radii[pml])][:16]
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        k_a, m_a = element_matrices(space, profile, ISO, ids, quad_degree=14)
        k_b, m_b = element_matrices(space, profile, ISO, ids, quad_degree=18)
        assert np.max(np.abs(k_a - k_b)) / np.max(np.abs(k_b)) < 5e-8
        assert np.max(np.abs(m_a - m_b)) / np.max(np.abs(m_b)) < 1e-9

    def test_unscaled_pencil_real_scaled_pencil_damped(self):
        """With the onset beyond the mesh the pencil is exactly real, and
        with M symmetric positive definite the generalized spectrum is
        real (the self-adjoint gamma -> 0 limit).  With Im gamma > 0 active
        on the layer every eigenvalue moves off the real axis (anchor:
        min |Im| / max(|lambda|, 1) = 4.7e-5 at this configuration)."""
        mesh = generate(Geometry(DiskObstacle(1.0), 1.5, 1.0), hmax=0.7, q=2)
        space = FunctionSpace(mesh, 2)
        pencil = assembled(space, UNSCALED, ISO)
        assert np.all(pencil.stiffness.upper.data.imag == 0.0)
        assert np.all(pencil.mass.upper.data.imag == 0.0)
        m_real = full_csr(pencil.mass).real.toarray()
        assert scipy.linalg.eigh(m_real, eigvals_only=True).min() > 0.0

        scaled = assembled(space, AffineProfile(r1=1.5, gamma=GAMMA), ISO)
        lam = scipy.linalg.eig(full_csr(scaled.stiffness).toarray(),
                               full_csr(scaled.mass).toarray(), right=False)
        lam = lam[np.isfinite(lam)]
        assert lam.size == scaled.size
        ratios = np.abs(lam.imag) / np.maximum(np.abs(lam), 1.0)
        assert ratios.min() > 1e-6

    def test_quad_degree_default(self):
        mesh = generate(DISK, hmax=1.0, q=2)
        space = FunctionSpace(mesh, 3)
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        ids = np.arange(mesh.num_triangles)
        k_a, m_a = element_matrices(space, profile, ISO, ids)
        k_b, m_b = element_matrices(space, profile, ISO, ids, quad_degree=8)
        assert np.array_equal(k_a, k_b)
        assert np.array_equal(m_a, m_b)

    def test_inverted_element_raises_assembly_error(self):
        space = FunctionSpace(unit_triangle_mesh(counterclockwise=False), 1)
        with pytest.raises(ValidationError,
                           match="nonpositive mapping Jacobian in element 0"):
            assembled(space, UNSCALED, ISO)


class TestElementPass:
    """The one element pass of a solve: the pencil it assembles, the
    condensed solver it builds, and how often it evaluates elements."""

    def setup_method(self):
        mesh = generate(ELLIPSE, hmax=0.8, q=3)
        self.space = FunctionSpace(mesh, 4)
        self.profile = AffineProfile(r1=1.5, gamma=GAMMA)
        self.shift_sq = (1.5 - 1.0j) ** 2

    def test_pencil_is_dense_sum_of_element_matrices(self):
        space = self.space
        n = space.num_dofs
        k_dense = np.zeros((n, n), dtype=complex)
        m_dense = np.zeros((n, n), dtype=complex)
        ids = np.arange(space.mesh.num_triangles)
        k_loc, m_loc = element_matrices(space, self.profile, ANISO, ids)
        for dofs, k_blk, m_blk in zip(space.element_dofs, k_loc, m_loc):
            keep = dofs >= 0
            sub = np.ix_(dofs[keep], dofs[keep])
            k_dense[sub] += k_blk[np.ix_(keep, keep)]
            m_dense[sub] += m_blk[np.ix_(keep, keep)]
        solver = CondensedShiftSolver(space, self.profile, ANISO,
                                      self.shift_sq)
        for mat, dense in ((full_csr(solver.pencil.stiffness), k_dense),
                           (full_csr(solver.pencil.mass), m_dense)):
            err = np.max(np.abs(mat.toarray() - dense))
            assert err <= 1e-14 * np.max(np.abs(dense))
            assert np.array_equal(mat.toarray(), mat.T.toarray())

    def test_condensed_solve_matches_sparse_direct(self):
        solver = CondensedShiftSolver(self.space, self.profile, ANISO,
                                      self.shift_sq).factor()
        pencil = solver.pencil
        rng = np.random.default_rng(11)
        b = rng.normal(size=pencil.size) + 1j * rng.normal(size=pencil.size)
        shifted = (full_csr(pencil.stiffness)
                   - self.shift_sq * full_csr(pencil.mass)).tocsc()
        expected = scipy.sparse.linalg.spsolve(shifted, b)
        x = solver.solve(b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("p", [1, 2])
    def test_solve_without_bubbles_is_the_factor_solve(self, p):
        space = FunctionSpace(self.space.mesh, p)
        solver = CondensedShiftSolver(space, self.profile, ANISO,
                                      self.shift_sq).factor()
        assert solver.skeleton_size == space.num_dofs
        rng = np.random.default_rng(12)
        b = rng.normal(size=space.num_dofs) + 1j * rng.normal(size=space.num_dofs)
        x = solver.solve(b)
        assert np.array_equal(x, solver.lu.solve(b))
        pencil = solver.pencil
        shifted = (full_csr(pencil.stiffness)
                   - self.shift_sq * full_csr(pencil.mass))
        assert np.linalg.norm(shifted @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_elements_evaluated_once_per_solve(self, monkeypatch, tmp_path):
        import radpml.fem as fem_module
        from radpml.cli import _solve_once, parse_config

        config_path = tmp_path / "run.cfg"
        config_path.write_text("""
[geometry]
obstacle = disk
radius = 1.0
r1 = 1.5
layer_width = 2.0
[medium]
sigma_xx = 1.0
sigma_yy = 1.0
[scaling]
profile = affine
gamma = 8i
[discretization]
hmax = 0.6
p = 3
q = 2
[solver]
shift_re = 1.5
shift_im = -1.0
k = 4
""", encoding="utf-8")
        seen = []
        blocks = fem_module._element_blocks

        def counting(space, profile, medium, ids, tables):
            seen.extend(ids.tolist())
            return blocks(space, profile, medium, ids, tables)

        monkeypatch.setattr(fem_module, "_element_blocks", counting)
        config = parse_config(config_path)
        _, mesh, _ = _solve_once(config, seed=0)
        assert sorted(seen) == list(range(mesh.num_triangles))


def sorted_key_pattern(dofs, n):
    """(indptr, indices, slot) of the element-pair pattern over ``dofs``
    from one sort of every key; over every dof it is the full pencil's
    pattern, the oracle of ``TestStoredTriangle``."""
    valid = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
    keys = dofs[:, :, None] * n + dofs[:, None, :]
    unique, inverse = np.unique(keys[valid], return_inverse=True)
    slot = np.full(valid.shape, -1, dtype=np.int32)
    slot[valid] = inverse
    return (np.searchsorted(unique, np.arange(n + 1) * n),
            (unique % n).astype(np.int32), slot)


class TestPattern:
    """The element-pair keys are sorted once, for the skeleton; the
    pencil holds its bubble blocks per element, with no pattern."""

    @pytest.mark.parametrize("geometry", [DISK, ELLIPSE], ids=["disk", "ellipse"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_derived_pattern_matches_sorted_keys(self, geometry, p):
        """The skeleton's upper pattern, with each element's bubble blocks
        joined at its own dofs, stands for the pattern of one sort of
        every element-pair key over every dof; and each upper slot
        addresses its own (row, col) entry."""
        mesh = generate(geometry, hmax=0.8, q=2)
        assert len(mesh.outer_edges)
        space = FunctionSpace(mesh, p)
        nt = mesh.num_triangles
        nb = (p - 1) * (p - 2) // 2
        ns = space.num_dofs - nt * nb
        skel = space.element_dofs[:, :3 * p]
        upper = _Pattern.of_blocks(skel, ns).upper()
        rows = np.repeat(np.arange(ns), np.diff(upper.indptr))
        row = np.broadcast_to(skel[:, :, None], upper.slot.shape)
        col = np.broadcast_to(skel[:, None, :], upper.slot.shape)
        kept = upper.slot >= 0
        assert np.array_equal(kept, (row >= 0) & (col >= 0) & (row <= col))
        assert np.array_equal(rows[upper.slot[kept]], row[kept])
        assert np.array_equal(upper.indices[upper.slot[kept]], col[kept])
        matrix = SymmetricMatrix(upper.matrix(np.ones(upper.nnz, dtype=complex)),
                                 skel, np.ones((nt, 3 * p, nb), dtype=complex),
                                 np.ones((nt, nb, nb), dtype=complex))
        full = full_csr(matrix)
        indptr, indices, _ = sorted_key_pattern(space.element_dofs,
                                                space.num_dofs)
        assert matrix.shape == (space.num_dofs, space.num_dofs)
        assert np.array_equal(full.indptr, indptr)
        assert np.array_equal(full.indices, indices)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_sort_per_pass(self, monkeypatch, p):
        """The keys are sorted once, for the skeleton.  The pencil's
        pattern is the skeleton's upper triangle, a pattern object of its
        own even without bubbles, where the factor's is the full one."""
        sorts, built = [], []
        of_blocks, matrix = _Pattern.of_blocks.__func__, _Pattern.matrix

        def counting_sort(cls, dofs, n):
            sorts.append(n)
            return of_blocks(cls, dofs, n)

        def recording_matrix(pattern, data):
            built.append(pattern)
            return matrix(pattern, data)

        monkeypatch.setattr(_Pattern, "of_blocks", classmethod(counting_sort))
        monkeypatch.setattr(_Pattern, "matrix", recording_matrix)
        space = FunctionSpace(generate(DISK, hmax=0.8, q=2), p)
        solver = CondensedShiftSolver(space, AffineProfile(r1=1.5, gamma=GAMMA),
                                      ISO, SHIFT_SQ).factor()
        assert sorts == [solver.skeleton_size]
        stiffness, mass, schur = built
        assert stiffness is mass
        assert stiffness is not schur


class TestStoredTriangle:
    """The pencil stores the upper triangle of the skeleton block of K
    and M, diagonal included, and each element's bubble blocks, and
    stands for the full matrices that the element pass sums."""

    CASES = [(DISK, 2, ISO), (ELLIPSE, 3, ANISO), (ELLIPSE, 6, ANISO)]

    @pytest.fixture(scope="class", params=CASES,
                    ids=["disk-p2", "ellipse-p3", "ellipse-p6"])
    def case(self, request):
        geometry, p, medium = request.param
        space = FunctionSpace(generate(geometry, hmax=0.8, q=2), p)
        profile = AffineProfile(r1=1.5, gamma=GAMMA)
        return space, profile, medium, assembled(space, profile, medium)

    def test_stores_one_triangle(self, case):
        space, _, _, pencil = case
        p, nt = space.p, space.mesh.num_triangles
        nb = (p - 1) * (p - 2) // 2
        ns = space.num_dofs - nt * nb
        _, indices, _ = sorted_key_pattern(space.element_dofs[:, :3 * p], ns)
        for mat in (pencil.stiffness, pencil.mass):
            assert mat.upper.nnz == (indices.size + ns) // 2
            assert mat.coupling.shape == (nt, 3 * p, nb)
            assert mat.bubbles.shape == (nt, nb, nb)

    def test_full_matrix_is_the_sorted_key_assembly_bitwise(self, case):
        """The element blocks summed in element order into the full
        pattern of one key sort give, entry for entry, the full matrix
        that the stored triangle and element blocks stand for."""
        space, profile, medium, pencil = case
        indptr, indices, slot = sorted_key_pattern(space.element_dofs,
                                                   space.num_dofs)
        full = np.zeros((2, indices.size), dtype=complex)
        nt = space.mesh.num_triangles
        for start in range(0, nt, CHUNK):
            ids = np.arange(start, min(start + CHUNK, nt))
            blocks = element_matrices(space, profile, medium, ids)
            keep = slot[ids] >= 0
            for data, block in zip(full, blocks):
                np.add.at(data, slot[ids][keep], block[keep])
        for mat, data in zip((pencil.stiffness, pencil.mass), full):
            rebuilt = full_csr(mat)
            assert np.array_equal(rebuilt.indptr, indptr)
            assert np.array_equal(rebuilt.indices, indices)
            assert np.array_equal(rebuilt.data, data)

    def test_product_matches_full_csr(self, case):
        space, _, _, pencil = case
        rng = np.random.default_rng(7)
        x = rng.normal(size=space.num_dofs) + 1j * rng.normal(size=space.num_dofs)
        for mat in (pencil.stiffness, pencil.mass):
            expected = full_csr(mat) @ x
            assert (np.linalg.norm(mat @ x - expected)
                    <= 1e-15 * np.linalg.norm(expected))

    def test_frobenius_norms_match_full(self, case):
        """Against the full matrix's norm from an exactly rounded sum of
        its squared entries."""
        pencil = case[3]
        for mat, norm in zip((pencil.stiffness, pencil.mass),
                             pencil.frobenius_norms):
            data = full_csr(mat).data
            exact = np.sqrt(math.fsum(np.concatenate([data.real ** 2,
                                                      data.imag ** 2])))
            assert abs(norm - exact) <= 1e-15 * exact


class TestRayleighResidual:
    def test_exact_eigenpair_of_diagonal_pencil(self):
        pencil = AssembledPencil(
            stiffness=stored(np.diag([4.0, 9.0]).astype(complex)),
            mass=stored(np.eye(2).astype(complex)))
        assert rayleigh_residual(pencil, 2.0, np.array([1.0, 0.0])) == 0.0
        assert rayleigh_residual(pencil, 3.0, np.array([0.0, 1.0])) == 0.0

    def test_random_pair_is_positive(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pencil = AssembledPencil(
            stiffness=stored(mat + mat.T),
            mass=stored(np.eye(4).astype(complex)))
        assert rayleigh_residual(pencil, 1.3 - 0.2j, rng.normal(size=4)) > 0.0

    def test_cached_scale_matches_formula(self):
        mesh = generate(DISK, hmax=1.2, q=2)
        pencil = assembled(FunctionSpace(mesh, 3),
                           AffineProfile(r1=1.5, gamma=GAMMA), ISO)
        rng = np.random.default_rng(5)
        for omega in (1.5 - 1.0j, 0.4 - 0.1j, 3.0 - 2.5j):
            u = rng.normal(size=pencil.size) + 1j * rng.normal(size=pencil.size)
            omega_sq = omega ** 2
            expected = np.linalg.norm(
                pencil.stiffness @ u - omega_sq * (pencil.mass @ u)) / (
                np.linalg.norm(u)
                * (pencil.stiffness.frobenius_norm
                   + abs(omega_sq) * pencil.mass.frobenius_norm))
            assert rayleigh_residual(pencil, omega, u) == expected

    def test_zero_vector_rejected(self):
        pencil = AssembledPencil(stiffness=stored(np.eye(2).astype(complex)),
                                 mass=stored(np.eye(2).astype(complex)))
        with pytest.raises(ValidationError):
            rayleigh_residual(pencil, 1.0, np.zeros(2))
