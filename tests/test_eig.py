"""Eigensolver tests: factorization, shift-invert Arnoldi, spurious filter.

The factorization oracles are independent classical algorithms stated
inline (Thomas sweep for tridiagonal systems, residual checks for random
systems).  Arnoldi results are checked against a dense full-spectrum
solve of the same pencil; anchors from that oracle run (distance 2.5e-12
at the pinned configuration) are frozen far below the 1e-9 contract.
Determinism assertions are bitwise: same pencil, same seed, same bits.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from radpml.errors import (
    AccuracyWarning,
    ShiftRejectedError,
    SingularMatrixError,
    ValidationError,
)
from radpml.eig import (
    Spectrum,
    _arnoldi,
    read_spectrum_csv,
    shift_invert_arnoldi,
    sparse_lu,
    spurious_filter,
    write_spectrum_csv,
    write_spectrum_json,
)
from radpml.fem import (AssembledPencil, CondensedShiftSolver, FunctionSpace,
                        assemble)
from radpml.media import Medium
from radpml.mesh import DiskObstacle, Geometry, generate
from radpml.scaling import AffineProfile, limits

ISO = Medium.isotropic(2)
PROFILE = AffineProfile(r1=1.5, gamma=8j)


def diagonal_pencil(*entries):
    k = scipy.sparse.diags([complex(e) for e in entries], format="csr")
    m = scipy.sparse.identity(len(entries), dtype=complex, format="csr")
    return AssembledPencil(stiffness=k.tocsr(), mass=m)


def make_spectrum(omegas, provenance=None):
    omegas = np.asarray(omegas, dtype=complex)
    n = omegas.size
    return Spectrum(
        omegas=omegas,
        vectors=np.eye(max(n, 1), n, dtype=complex),
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
def coarse_pencil():
    """64-dof assembled pencil (coarsest disk, p=2, affine 8i scaling)."""
    mesh = generate(Geometry(DiskObstacle(1.0), 1.5, 2.0), hmax=10.0, q=1)
    space = FunctionSpace(mesh, 2)
    return assemble(space, PROFILE, ISO)


class TestSparseLU:
    def test_identity_solve_is_identity(self):
        eye = scipy.sparse.identity(12, dtype=complex, format="csc")
        b = np.arange(12, dtype=complex)
        for method in ("dense", "sparse"):
            assert np.allclose(sparse_lu(eye, method).solve(b), b,
                               rtol=0, atol=1e-15)

    def test_random_sparse_residual(self):
        rng = np.random.default_rng(11)
        n = 100
        a = (scipy.sparse.identity(n, dtype=complex)
             + 0.5 * (scipy.sparse.random(n, n, density=0.05, random_state=7)
                      + 1j * scipy.sparse.random(n, n, density=0.05,
                                                 random_state=8))).tocsc()
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for method in ("dense", "sparse"):
            x = sparse_lu(a, method).solve(b)
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
        for method in ("dense", "sparse"):
            x = sparse_lu(a, method).solve(b)
            assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-12

    def test_auto_method_selection(self):
        small = scipy.sparse.identity(10, dtype=complex, format="csc")
        assert sparse_lu(small).method == "dense"
        n = 3500
        big = scipy.sparse.diags(
            [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
            [-1, 0, 1], format="csc").astype(complex)
        assert sparse_lu(big).method == "sparse"

    def test_singular_dense_reports_pivot_index(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError, match="index 1"):
            sparse_lu(a, method="dense")

    def test_empty_column_reports_index(self):
        a = scipy.sparse.csc_matrix(
            np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]],
                     dtype=complex))
        with pytest.raises(SingularMatrixError, match="index 1"):
            sparse_lu(a, method="sparse")

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
        lu = sparse_lu(a, "sparse")
        assert lu.fallback is True
        assert lu.probe_residual > 1e-9
        assert lu.path == "sparse-fallback"
        assert np.linalg.norm(a @ lu.solve(b) - b) / np.linalg.norm(b) < 1e-12

    def test_condensed_pencil_keeps_diagonal_pivots(self, monkeypatch):
        import radpml.eig as eig_mod
        monkeypatch.setattr(eig_mod, "DENSE_CUTOFF", 0)
        mesh = generate(Geometry(DiskObstacle(1.0), 1.5, 2.0), hmax=1.0, q=2)
        solver = CondensedShiftSolver(FunctionSpace(mesh, 4), PROFILE, ISO,
                                      (2.5 - 0.8j) ** 2).factor()
        assert solver.lu.fallback is False
        assert solver.lu.probe_residual <= 1e-9
        assert solver.lu.path == "sparse"
        assert solver.lu.fill >= solver.lu.n

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            sparse_lu(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            sparse_lu(np.eye(2), method="cholesky")


class TestShiftInvertArnoldi:
    def test_diagonal_pencil(self):
        spectrum = shift_invert_arnoldi(diagonal_pencil(2.0, 5.0), 1.9, k=1)
        assert len(spectrum) == 1
        assert abs(spectrum.omegas[0] - np.sqrt(2.0)) < 1e-12
        assert spectrum.residuals[0] < 1e-12

    def test_matches_dense_oracle(self, coarse_pencil):
        """Every returned pair sits within 1e-9 of a dense-solver
        eigenvalue (anchor 2.5e-12 at this configuration), with the
        unconverged straggler dropped under its documented warning."""
        shift_sq = (2.5 - 0.8j) ** 2
        with pytest.warns(AccuracyWarning, match="residual"):
            spectrum = shift_invert_arnoldi(
                coarse_pencil, shift_sq, k=5, krylov_dim=40,
                d0=limits(PROFILE, ISO).d0, seed=0)
        lam = scipy.linalg.eig(coarse_pencil.stiffness.toarray(),
                               coarse_pencil.mass.toarray(), right=False)
        lam = lam[np.isfinite(lam)]
        omega = np.sqrt(lam)
        omega = np.where(omega.imag > 0, -omega, omega)
        assert len(spectrum) >= 4
        for w in spectrum.omegas:
            assert np.abs(omega - w).min() < 1e-9
        assert np.all(spectrum.residuals < 1e-6)

    def test_lower_branch_and_sorting(self, coarse_pencil):
        shift_sq = (2.5 - 0.8j) ** 2
        with pytest.warns(AccuracyWarning):
            spectrum = shift_invert_arnoldi(coarse_pencil, shift_sq, k=5,
                                            krylov_dim=40)
        assert np.all(spectrum.omegas.imag <= 0.0)
        dist = np.abs(spectrum.omegas - spectrum.provenance["shift"])
        assert np.all(np.diff(dist) >= 0.0)

    def test_deterministic_bitwise(self, coarse_pencil):
        shift_sq = (2.5 - 0.8j) ** 2
        runs = []
        for _ in range(2):
            with pytest.warns(AccuracyWarning):
                runs.append(shift_invert_arnoldi(coarse_pencil, shift_sq,
                                                 k=5, krylov_dim=40, seed=3))
        a, b = runs
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.residuals, b.residuals)

    def test_disk_backed_basis_bitwise_identical(self, coarse_pencil,
                                                 monkeypatch):
        """Forcing the basis onto disk must not change a single bit."""
        import radpml.eig as eig_mod
        shift_sq = (2.5 - 0.8j) ** 2
        with pytest.warns(AccuracyWarning):
            in_core = shift_invert_arnoldi(coarse_pencil, shift_sq,
                                           k=5, krylov_dim=40, seed=3)
        monkeypatch.setattr(eig_mod, "BASIS_MEMMAP_BYTES", 0)
        with pytest.warns(AccuracyWarning):
            on_disk = shift_invert_arnoldi(coarse_pencil, shift_sq,
                                           k=5, krylov_dim=40, seed=3)
        assert np.array_equal(in_core.omegas, on_disk.omegas)
        assert np.array_equal(in_core.vectors, on_disk.vectors)
        assert np.array_equal(in_core.residuals, on_disk.residuals)

    def test_basis_is_orthonormal(self, coarse_pencil):
        lu = sparse_lu(coarse_pencil.stiffness
                       - (2.5 - 0.8j) ** 2 * coarse_pencil.mass)
        v, _, mb = _arnoldi(lambda x: lu.solve(coarse_pencil.mass @ x),
                            coarse_pencil.size, 40, np.random.default_rng(3))
        basis = np.asarray(v[:mb])
        gram = basis @ basis.conj().T
        assert mb == 40
        assert np.max(np.abs(gram - np.eye(mb))) < 1e-12

    def test_in_lambda_d0_flag_semantics(self):
        """An eigenvalue on the ray where i*omega*d0 is purely imaginary
        must be flagged outside the region (margin 1e-10)."""
        d0 = limits(PROFILE, ISO).d0
        on_ray = np.conj(d0)           # omega*d0 real, Im(omega) < 0
        off_ray = 2.0 - 0.5j
        pencil = diagonal_pencil(on_ray**2, off_ray**2)
        spectrum = shift_invert_arnoldi(pencil, on_ray**2 + 0.01, k=2,
                                        d0=d0)
        flags = {np.round(w, 8): f
                 for w, f in zip(spectrum.omegas, spectrum.in_lambda_d0)}
        assert flags[np.round(on_ray, 8)] == False  # noqa: E712
        assert flags[np.round(off_ray, 8)] == True  # noqa: E712

    def test_breakdown_restarts_then_succeeds(self):
        """On K = M = I every start vector spans an invariant subspace;
        the solver restarts three times, accepts the one-vector basis,
        and still returns the exact eigenvalue omega = 1."""
        eye = scipy.sparse.identity(30, dtype=complex, format="csr")
        pencil = AssembledPencil(stiffness=eye, mass=eye.copy())
        spectrum = shift_invert_arnoldi(pencil, 0.5, k=1)
        assert abs(spectrum.omegas[0] - 1.0) < 1e-13
        assert spectrum.provenance["restarts"] == 3
        assert spectrum.provenance["basis_size"] == 1

    def test_singular_shift_rejected(self):
        with pytest.raises(ShiftRejectedError):
            shift_invert_arnoldi(diagonal_pencil(2.0, 5.0), 2.0, k=1)

    def test_argument_validation(self):
        pencil = diagonal_pencil(2.0, 5.0)
        with pytest.raises(ValidationError):
            shift_invert_arnoldi(pencil, 1.9, k=0)
        with pytest.raises(ValidationError):
            shift_invert_arnoldi(pencil, 1.9, k=5, krylov_dim=12)


class TestSpuriousFilter:
    def test_unmatched_eigenvalue_flagged(self):
        base = make_spectrum([1.0 - 0.1j, 2.0 - 0.2j, 5.0 - 3.0j])
        stretched = make_spectrum([1.0001 - 0.1j, 2.0002 - 0.2j])
        result = spurious_filter(lambda s: stretched, base, stretch=1.5)
        assert list(result.spurious) == [False, False, True]
        assert not result.ambiguous.any()
        assert np.array_equal(result.omegas, base.omegas)

    def test_large_movement_flagged(self):
        base = make_spectrum([1.0 - 0.1j, 2.0 - 0.2j, 3.0 - 1.0j])
        stretched = make_spectrum([1.0 - 0.1j + 1e-6, 2.0 - 0.2j + 2e-6,
                                   3.3 - 1.0j])
        result = spurious_filter(lambda s: stretched, base, stretch=1.5)
        assert list(result.spurious) == [False, False, True]

    def test_ambiguous_match_not_spurious(self):
        base = make_spectrum([1.0 - 0.1j, 4.0 - 0.5j])
        stretched = make_spectrum([0.9 - 0.1j, 1.1 - 0.1j, 4.0 - 0.5j])
        result = spurious_filter(lambda s: stretched, base, stretch=1.2)
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
        result = spurious_filter(lambda s: gentle, base, stretch=1.5)
        assert not result.spurious.any()
        assert result.provenance["move_threshold"] == \
            result.provenance["move_floor"]
        rough = make_spectrum([1.0 - 1.0j + 1e-8, 2.0 - 1.0j - 1e-8,
                               3.0 - 1.0j + 2e-8, 0.5 - 0.3j + 0.05])
        result = spurious_filter(lambda s: rough, base, stretch=1.5)
        assert list(result.spurious) == [False, False, False, True]

    def test_identity_stretch_flags_nothing(self, coarse_pencil):
        """stretch = 1 re-solves the identical problem; determinism makes
        every movement exactly zero and no flag can raise."""
        def solve(stretch):
            with pytest.warns(AccuracyWarning):
                return shift_invert_arnoldi(coarse_pencil, (2.5 - 0.8j) ** 2,
                                            k=5, krylov_dim=40, seed=0)
        base = solve(1.0)
        result = spurious_filter(solve, base, stretch=1.0)
        assert not result.spurious.any()
        assert not result.ambiguous.any()
        # zero median -> the reproducibility floor is the active threshold
        assert result.provenance["move_threshold"] == \
            result.provenance["move_floor"]
        assert result.provenance["median_movement"] == 0.0

    def test_stretch_validation(self):
        base = make_spectrum([1.0])
        with pytest.raises(ValidationError):
            spurious_filter(lambda s: base, base, stretch=0.9)


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
