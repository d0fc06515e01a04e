"""Eigensolver tests: factorization, shift-invert Arnoldi, spurious filter.

The factorization oracles are independent classical algorithms stated
inline (Thomas sweep for tridiagonal systems, residual checks for random
systems).  Arnoldi runs on factored condensed solvers, the production
path, and its results are checked against a dense full-spectrum solve
of the solver's pencil; anchors from that oracle run are frozen far
below the 1e-9 contract.  Synthetic diagonal and identity pencils go
through the same solver, as pencils without bubbles, whose d0 = 1 makes
the in_lambda_d0 flags test Im(omega) != 0.
Determinism assertions are bitwise: same pencil, same seed, same bits.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from radpml.errors import SingularMatrixError, ValidationError
import radpml.eig as eig_module
from radpml.eig import (
    Spectrum,
    _arnoldi,
    _lower_branch_sqrt,
    _ritz_estimates,
    rayleigh_residual,
    read_spectrum_csv,
    shift_invert_arnoldi,
    sparse_lu,
    spurious_filter,
    write_spectrum_csv,
    write_spectrum_json,
)
from radpml.fem import (
    AssembledPencil,
    CondensedShiftSolver,
    FunctionSpace,
    assemble,
)
from radpml.media import Medium
from radpml.mesh import DiskObstacle, Geometry, generate
from radpml.scaling import AffineProfile

from pencils import full_csr, stored

ISO = Medium(np.eye(2))
PROFILE = AffineProfile(r1=1.5, gamma=8j)
SHIFT_SQ = (2.5 - 0.8j) ** 2
COARSEST_DISK = Geometry(DiskObstacle(1.0), 1.5, 2.0)


def synthetic_solver(k, m, shift_sq, d0=1.0):
    """The factored solver of the bubble-free pencil (k, m)."""
    return CondensedShiftSolver(AssembledPencil(stored(k), stored(m), d0=d0),
                                shift_sq).factor()


def diagonal_solver(shift_sq, *entries, d0=1.0):
    k = scipy.sparse.diags([complex(e) for e in entries], format="csr")
    m = scipy.sparse.identity(len(entries), dtype=complex, format="csr")
    return synthetic_solver(k, m, shift_sq, d0)


def dense_lower_branch_omegas(pencil):
    lam = scipy.linalg.eig(full_csr(pencil.stiffness).toarray(),
                           full_csr(pencil.mass).toarray(), right=False)
    omega = np.sqrt(lam[np.isfinite(lam)])
    return np.where(omega.imag > 0, -omega, omega)


def make_spectrum(omegas, provenance=None):
    omegas = np.asarray(omegas, dtype=complex)
    n = omegas.size
    return Spectrum(
        omegas=omegas,
        residuals=np.full(n, 1e-12),
        in_lambda_d0=np.ones(n, dtype=bool),
        spurious=np.zeros(n, dtype=bool),
        ambiguous=np.zeros(n, dtype=bool),
        provenance=provenance or {})


def thomas_solve(lower, diag, upper, rhs):
    """Classical tridiagonal sweep, used as an independent oracle."""
    n = rhs.size
    c = np.zeros(n, dtype=complex)
    d = np.zeros(n, dtype=complex)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / den
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / den
    x = np.zeros(n, dtype=complex)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


@pytest.fixture(scope="module")
def coarse_solver():
    """Factored solver over a 64-dof pencil (coarsest disk, p=2, affine
    8i scaling) at the shift (2.5 - 0.8i)^2."""
    mesh = generate(COARSEST_DISK, hmax=10.0, q=1)
    space = FunctionSpace(mesh, 2)
    return CondensedShiftSolver(assemble(space, PROFILE, ISO),
                                SHIFT_SQ).factor()


@pytest.fixture(scope="module")
def condensed_solver():
    """Factored p = 3 solver on the coarsest disk (144 dofs, bubbles
    condensed out of the factor) at the shift (2.5 - 0.8i)^2."""
    mesh = generate(COARSEST_DISK, hmax=10.0, q=2)
    return CondensedShiftSolver(assemble(FunctionSpace(mesh, 3), PROFILE, ISO),
                                SHIFT_SQ).factor()


def explicit_ritz_stage(solver, k, krylov_dim, seed):
    """The Ritz stage with the explicit residual of every candidate, as
    the oracle of the screened one.  Returns the sorted (omegas,
    residuals), the dropped count, the residuals computed to reach k
    pairs, and (explicit residual, estimate) of every candidate."""
    mass = solver.pencil.mass
    v, h, mb = _arnoldi(lambda x: solver.solve(mass @ x), solver.n,
                        krylov_dim, np.random.default_rng(seed))
    theta, y = scipy.linalg.eig(h[:mb, :mb])
    estimates = _ritz_estimates(solver, v, h, mb, theta, y)
    kept, dropped, calls, pairs = [], 0, 0, []
    for idx in np.argsort(-np.abs(theta), kind="stable"):
        omega = _lower_branch_sqrt(solver.shift_sq + 1.0 / theta[idx])
        res = rayleigh_residual(solver.pencil, omega, v[:mb].T @ y[:, idx])
        pairs.append((res, estimates[idx]))
        if len(kept) == k:
            continue
        calls += 1
        if res > eig_module.RESIDUAL_DROP:
            dropped += 1
        else:
            kept.append((omega, res))
    omegas, residuals = (np.array(col) for col in zip(*kept))
    shift = _lower_branch_sqrt(solver.shift_sq)
    sort = np.argsort(np.abs(omegas - shift), kind="stable")
    return omegas[sort], residuals[sort], dropped, calls, np.array(pairs)


class TestSparseLU:
    def test_identity_solve_is_identity(self):
        eye = scipy.sparse.identity(12, dtype=complex, format="csc")
        b = np.arange(12, dtype=complex)
        assert np.allclose(sparse_lu(eye).solve(b), b, rtol=0, atol=1e-15)

    def test_random_sparse_residual(self):
        rng = np.random.default_rng(11)
        n = 100
        a = (scipy.sparse.identity(n, dtype=complex)
             + 0.5 * (scipy.sparse.random(n, n, density=0.05, random_state=7)
                      + 1j * scipy.sparse.random(n, n, density=0.05,
                                                 random_state=8))).tocsc()
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = sparse_lu(a).solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    def test_tridiagonal_against_thomas_oracle(self):
        n = 200
        rng = np.random.default_rng(5)
        main = np.full(n, 2.0 + 0.0j)
        off = np.full(n - 1, -1.0 + 0.0j)
        a = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csc")
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        oracle = thomas_solve(np.full(n, -1.0 + 0j), main.copy(),
                              np.full(n, -1.0 + 0j), b)
        x = sparse_lu(a).solve(b)
        assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-12

    def test_singular_dense_input_rejected(self):
        """A dense array goes through SuperLU too; an exactly singular
        one fails both factorizations and is reported as singular."""
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError, match="factorization failed"):
            sparse_lu(a)

    def test_empty_column_reports_index(self):
        a = scipy.sparse.csc_matrix(
            np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]],
                     dtype=complex))
        with pytest.raises(SingularMatrixError, match="index 1"):
            sparse_lu(a)

    def test_probe_falls_back_to_threshold_pivoting(self):
        """Diagonal pivots on 2x2 blocks with 1e-17 diagonals leave a
        relative residual of about 5; the probe must send the matrix to
        threshold pivoting, which solves it to roundoff."""
        n = 400
        block = scipy.sparse.csc_matrix(np.array([[1e-17, 1.0],
                                                  [1.0, 1e-17]]))
        a = (scipy.sparse.block_diag([block] * (n // 2))
             + scipy.sparse.diags(np.full(n - 1, 1e-3), 1)).astype(complex)
        b = np.random.default_rng(2).standard_normal(n) + 0j
        lu = sparse_lu(a)
        assert lu.fallback is True
        assert lu.probe_residual > 1e-9
        assert lu.path == "sparse-fallback"
        assert np.linalg.norm(a @ lu.solve(b) - b) / np.linalg.norm(b) < 1e-12

    def test_condensed_pencil_keeps_diagonal_pivots(self):
        mesh = generate(Geometry(DiskObstacle(1.0), 1.5, 2.0), hmax=1.0, q=2)
        solver = CondensedShiftSolver(
            assemble(FunctionSpace(mesh, 4), PROFILE, ISO), SHIFT_SQ).factor()
        assert solver.lu.fallback is False
        assert solver.lu.probe_residual <= 1e-9
        assert solver.lu.path == "sparse"
        assert solver.lu.fill >= solver.lu.n

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            sparse_lu(np.zeros((2, 3)))


class TestShiftInvertArnoldi:
    def test_diagonal_pencil(self):
        spectrum = shift_invert_arnoldi(diagonal_solver(1.9, 2.0, 5.0), k=1)
        assert len(spectrum) == 1
        assert abs(spectrum.omegas[0] - np.sqrt(2.0)) < 1e-12
        assert spectrum.residuals[0] < 1e-12

    def test_matches_dense_oracle(self, coarse_solver):
        """Every returned pair sits within 1e-9 of a dense-solver
        eigenvalue (anchor 4.4e-12 at this configuration), with the
        unconverged straggler dropped and counted in the provenance."""
        spectrum = shift_invert_arnoldi(
            coarse_solver, k=5, krylov_dim=40, seed=0)
        omega = dense_lower_branch_omegas(coarse_solver.pencil)
        assert spectrum.provenance["dropped"] > 0
        assert len(spectrum) >= 4
        for w in spectrum.omegas:
            assert np.abs(omega - w).min() < 1e-9
        assert np.all(spectrum.residuals < 1e-6)

    @pytest.mark.parametrize("p", [3, 4])
    def test_condensed_matches_dense_oracle(self, p):
        """With bubbles condensed out of the factor, every returned pair
        still sits within 1e-9 of the dense spectrum of the solver's full
        pencil (anchors 8.4e-15 at p = 3, 2.2e-14 at p = 4).  The basis
        spans all but two dofs, as in acceptance criterion 9: a smaller
        one keeps pairs whose residual passes the 1e-6 gate but whose
        eigenvalue is not yet converged to 1e-9."""
        mesh = generate(COARSEST_DISK, hmax=10.0, q=2)
        solver = CondensedShiftSolver(
            assemble(FunctionSpace(mesh, p), PROFILE, ISO), SHIFT_SQ).factor()
        assert solver.skeleton_size < solver.n
        spectrum = shift_invert_arnoldi(
            solver, k=6, krylov_dim=solver.n - 2, seed=0)
        omega = dense_lower_branch_omegas(solver.pencil)
        assert len(spectrum) >= 4
        for w in spectrum.omegas:
            assert np.abs(omega - w).min() < 1e-9

    def test_lower_branch_and_sorting(self, coarse_solver):
        spectrum = shift_invert_arnoldi(coarse_solver, k=5, krylov_dim=40)
        assert spectrum.provenance["dropped"] > 0
        assert np.all(spectrum.omegas.imag <= 0.0)
        dist = np.abs(spectrum.omegas - spectrum.provenance["shift"])
        assert np.all(np.diff(dist) >= 0.0)

    def test_deterministic_bitwise(self, coarse_solver):
        runs = []
        for _ in range(2):
            runs.append(shift_invert_arnoldi(coarse_solver, k=5,
                                             krylov_dim=40, seed=3))
        a, b = runs
        assert a.provenance["dropped"] == b.provenance["dropped"] > 0
        # each residual is measured on a Ritz vector formed from the whole
        # basis, so the comparison reaches the basis as well
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.residuals, b.residuals)

    def test_dropped_pairs_are_data_not_warnings(self, coarse_solver):
        """Unconverged Ritz pairs are reported once, as the provenance
        count, and never as a Python warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = shift_invert_arnoldi(coarse_solver, k=5, krylov_dim=40)
        assert spectrum.provenance["dropped"] > 0

    def test_basis_is_orthonormal(self, coarse_solver):
        mass = coarse_solver.pencil.mass
        v, _, mb = _arnoldi(lambda x: coarse_solver.solve(mass @ x),
                            coarse_solver.n, 40, np.random.default_rng(3))
        basis = v[:mb]
        gram = basis @ basis.conj().T
        assert mb == 40
        assert np.max(np.abs(gram - np.eye(mb))) < 1e-12

    def test_in_lambda_d0_flag_semantics(self):
        """An eigenvalue on the ray where i*omega*d0 is purely imaginary
        must be flagged outside the region (margin 1e-10)."""
        d0 = PROFILE.d0
        on_ray = np.conj(d0)           # omega*d0 real, Im(omega) < 0
        off_ray = 2.0 - 0.5j
        solver = diagonal_solver(on_ray**2 + 0.01, on_ray**2, off_ray**2,
                                 d0=d0)
        spectrum = shift_invert_arnoldi(solver, k=2)
        flags = {np.round(w, 8): f
                 for w, f in zip(spectrum.omegas, spectrum.in_lambda_d0)}
        assert flags[np.round(on_ray, 8)] == False  # noqa: E712
        assert flags[np.round(off_ray, 8)] == True  # noqa: E712

    @pytest.mark.parametrize("case", ["identity", "last_step"])
    def test_breakdown_uses_invariant_basis(self, case, monkeypatch):
        """On K = M = I every start vector spans an invariant subspace;
        the solver keeps the one-vector basis and still returns the exact
        eigenvalue omega = 1.  On a 2 x 2 diagonal pencil the basis is
        invariant at the last step (size = krylov_dim = n = 2), where the
        requested size is reached all the same.  Either way the next
        basis row was never written, and the residual screen must not
        read it: the basis handed over here ends at the invariant
        subspace, so a read raises IndexError."""
        def truncated(*args):
            v, h, mb = _arnoldi(*args)
            return v[:mb], h, mb

        monkeypatch.setattr(eig_module, "_arnoldi", truncated)
        if case == "identity":
            eye = scipy.sparse.identity(30, dtype=complex, format="csr")
            solver = synthetic_solver(eye, eye, 0.5)
            omega, size = 1.0, 1
        else:
            solver, omega, size = diagonal_solver(1.9, 2.0, 5.0), 2**0.5, 2
        spectrum = shift_invert_arnoldi(solver, k=1)
        assert abs(spectrum.omegas[0] - omega) < 1e-13
        assert spectrum.provenance["basis_size"] == size

    @pytest.mark.parametrize("fixture", ["coarse_solver", "condensed_solver"])
    def test_screening_matches_explicit_oracle(self, fixture, request,
                                               monkeypatch):
        """Dropping a pair on its Arnoldi residual estimate keeps the
        spectrum, its residuals and the dropped count bit for bit, and
        forms fewer Ritz vectors."""
        solver = request.getfixturevalue(fixture)
        omegas, residuals, dropped, calls, _ = explicit_ritz_stage(
            solver, k=8, krylov_dim=40, seed=0)
        counted = []

        def counting(*args):
            counted.append(args)
            return rayleigh_residual(*args)

        monkeypatch.setattr(eig_module, "rayleigh_residual", counting)
        spectrum = shift_invert_arnoldi(solver, k=8, krylov_dim=40, seed=0)
        assert np.array_equal(spectrum.omegas, omegas)
        assert np.array_equal(spectrum.residuals, residuals)
        assert spectrum.provenance["dropped"] == dropped > 0
        assert len(counted) < calls

    @pytest.mark.parametrize("fixture", ["coarse_solver", "condensed_solver"])
    def test_residual_estimate_matches_explicit(self, fixture, request):
        """Above roundoff the estimate is the explicit residual, and no
        pair that passes the gate is screened out."""
        solver = request.getfixturevalue(fixture)
        pairs = explicit_ritz_stage(solver, k=8, krylov_dim=40, seed=0)[-1]
        explicit, estimate = pairs.T
        above = explicit > 1e-8
        assert above.sum() >= 10
        assert np.all(np.abs(estimate[above] - explicit[above])
                      <= 1e-6 * explicit[above])
        screened = estimate > eig_module.RESIDUAL_DROP
        assert screened.any()
        assert np.all(explicit[screened] > eig_module.RESIDUAL_DROP)

    @pytest.mark.parametrize("fixture", ["coarse_solver", "condensed_solver"])
    def test_estimate_above_gate_drops_unformed(self, fixture, request,
                                                monkeypatch):
        """A pair whose estimate reads twice the gate is dropped without
        forming its Ritz vector, though its formed residual would pass:
        the estimate alone decides which pairs are formed.  Compared with
        a run asked for one pair more, which stops at the same candidate,
        exactly that pair moves from the kept to the dropped."""
        solver = request.getfixturevalue(fixture)
        base = shift_invert_arnoldi(solver, k=9, krylov_dim=40, seed=0)
        target = []

        def inflated(*args):
            estimates = _ritz_estimates(*args)
            theta = args[4]
            # the first candidate in Ritz order that passes well inside
            # the gate, so that it is kept when the estimate is left alone
            idx = next(i for i in np.argsort(-np.abs(theta), kind="stable")
                       if estimates[i] < 1e-3 * eig_module.RESIDUAL_DROP)
            estimates[idx] = 2.0 * eig_module.RESIDUAL_DROP
            target.append(_lower_branch_sqrt(solver.shift_sq
                                             + 1.0 / theta[idx]))
            return estimates

        formed = []

        def spying(pencil, omega, u):
            formed.append(omega)
            return rayleigh_residual(pencil, omega, u)

        monkeypatch.setattr(eig_module, "_ritz_estimates", inflated)
        monkeypatch.setattr(eig_module, "rayleigh_residual", spying)
        spectrum = shift_invert_arnoldi(solver, k=8, krylov_dim=40, seed=0)
        (omega,) = target
        others = base.omegas != omega
        assert not others.all()
        assert np.array_equal(spectrum.omegas, base.omegas[others])
        assert np.array_equal(spectrum.residuals, base.residuals[others])
        assert omega not in formed
        assert spectrum.provenance["dropped"] == base.provenance["dropped"] + 1

    def test_singular_shift_rejected(self, monkeypatch):
        """A singular skeleton factor means the shift is an eigenvalue:
        ``factor`` raises SingularMatrixError that says to move it."""
        import radpml.eig as eig_mod

        def singular(mat):
            raise SingularMatrixError("zero pivot at index 0 (empty column)")

        mesh = generate(COARSEST_DISK, hmax=10.0, q=1)
        solver = CondensedShiftSolver(
            assemble(FunctionSpace(mesh, 2), PROFILE, ISO), SHIFT_SQ)
        monkeypatch.setattr(eig_mod, "sparse_lu", singular)
        with pytest.raises(SingularMatrixError, match="move the shift"):
            solver.factor()

    def test_argument_validation(self):
        solver = diagonal_solver(1.9, 2.0, 5.0)
        with pytest.raises(ValidationError):
            shift_invert_arnoldi(solver, k=0)
        with pytest.raises(ValidationError):
            shift_invert_arnoldi(solver, k=5, krylov_dim=12)


class TestSpuriousFilter:
    def test_unmatched_eigenvalue_flagged(self):
        base = make_spectrum([1.0 - 0.1j, 2.0 - 0.2j, 5.0 - 3.0j])
        stretched = make_spectrum([1.0001 - 0.1j, 2.0002 - 0.2j])
        result = spurious_filter(base, stretched, stretch=1.5)
        assert list(result.spurious) == [False, False, True]
        assert not result.ambiguous.any()
        assert np.array_equal(result.omegas, base.omegas)

    def test_large_movement_flagged(self):
        base = make_spectrum([1.0 - 0.1j, 2.0 - 0.2j, 3.0 - 1.0j])
        stretched = make_spectrum([1.0 - 0.1j + 1e-6, 2.0 - 0.2j + 2e-6,
                                   3.3 - 1.0j])
        result = spurious_filter(base, stretched, stretch=1.5)
        assert list(result.spurious) == [False, False, True]

    def test_empty_stretched_spectrum_flags_everything(self):
        base = make_spectrum([1.0 - 0.1j, 2.0 - 0.2j, 5.0 - 3.0j])
        result = spurious_filter(base, make_spectrum([]), stretch=1.5)
        assert result.spurious.all()
        assert not result.ambiguous.any()
        assert result.provenance["movements"] == [None, None, None]
        assert result.provenance["median_movement"] is None
        assert np.isnan(result.provenance["move_threshold"])

    def test_ambiguous_match_not_spurious(self):
        base = make_spectrum([1.0 - 0.1j, 4.0 - 0.5j])
        stretched = make_spectrum([0.9 - 0.1j, 1.1 - 0.1j, 4.0 - 0.5j])
        result = spurious_filter(base, stretched, stretch=1.2)
        assert list(result.ambiguous) == [True, False]
        assert list(result.spurious) == [False, False]

    def test_floor_shields_truncation_level_movement(self):
        # When every matched mode sits at the truncation level (~1e-8
        # movement), the median collapses and 10x-median would flag a
        # weakly damped physical mode that moved a few 1e-6.  Such a
        # movement is far below the reproducibility floor, so it must
        # survive; a genuinely repositioned mode must still be flagged.
        base = make_spectrum([1.0 - 1.0j, 2.0 - 1.0j,
                              3.0 - 1.0j, 0.5 - 0.3j])
        gentle = make_spectrum([1.0 - 1.0j + 1e-8, 2.0 - 1.0j - 1e-8,
                                3.0 - 1.0j + 2e-8, 0.5 - 0.3j + 4e-6])
        result = spurious_filter(base, gentle, stretch=1.5)
        assert not result.spurious.any()
        assert result.provenance["move_threshold"] == \
            result.provenance["move_floor"]
        rough = make_spectrum([1.0 - 1.0j + 1e-8, 2.0 - 1.0j - 1e-8,
                               3.0 - 1.0j + 2e-8, 0.5 - 0.3j + 0.05])
        result = spurious_filter(base, rough, stretch=1.5)
        assert list(result.spurious) == [False, False, False, True]

    def test_identity_stretch_flags_nothing(self, coarse_solver):
        """stretch = 1 re-solves the identical problem; determinism makes
        every movement exactly zero and no flag can raise."""
        def solve():
            spectrum = shift_invert_arnoldi(coarse_solver, k=5, krylov_dim=40,
                                            seed=0)
            assert spectrum.provenance["dropped"] > 0
            return spectrum
        result = spurious_filter(solve(), solve(), stretch=1.0)
        assert not result.spurious.any()
        assert not result.ambiguous.any()
        # zero median -> the reproducibility floor is the active threshold
        assert result.provenance["move_threshold"] == \
            result.provenance["move_floor"]
        assert result.provenance["median_movement"] == 0.0

    def test_stretch_validation(self):
        base = make_spectrum([1.0])
        with pytest.raises(ValidationError):
            spurious_filter(base, base, stretch=0.9)


class TestSpectrumSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        base = make_spectrum([1.25 - 0.375j, 2.0 - 1.0 / 3.0 * 1j])
        object.__setattr__(base, "residuals", np.array([1e-9, 3e-8]))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(base, path)
        omegas, residuals, in_lambda, spurious = read_spectrum_csv(path)
        assert np.array_equal(omegas, base.omegas)
        assert np.array_equal(residuals, base.residuals)
        assert np.array_equal(in_lambda, base.in_lambda_d0)
        assert np.array_equal(spurious, base.spurious)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValidationError):
            read_spectrum_csv(path)

    def test_json_document(self, tmp_path):
        import json
        spectrum = make_spectrum([1.0 - 0.5j],
                                 provenance={"shift": 2.5 - 0.8j, "k": 1})
        path = tmp_path / "spectrum.json"
        write_spectrum_json(spectrum, path, extra={"config_sha256": "ab12"})
        doc = json.loads(path.read_text())
        assert doc["provenance"]["shift"] == {"re": 2.5, "im": -0.8}
        assert doc["eigenvalues"][0]["im_omega"] == -0.5
        assert doc["eigenvalues"][0]["ambiguous"] is False
        assert doc["config_sha256"] == "ab12"
