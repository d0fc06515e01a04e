"""Tests for SPD media and the phased numerical-range bounds."""

import numpy as np
import pytest

from radpml import (
    DefinitenessError,
    DomainError,
    Medium,
    RangeBox,
    ValidationError,
    anisotropy_degree,
    b_tau,
    numerical_range_bounds,
    spd_extremes,
)


def jacobi_extremes(mat, tol=1e-15):
    """Cyclic Jacobi eigenvalue iteration; independent oracle for spd_extremes."""
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    for _ in range(60):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < tol * max(1.0, np.max(np.abs(np.diagonal(a)))):
            break
    d = np.sort(np.diagonal(a))
    return d[0], d[-1]


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + 0.05 * np.eye(dim)


class TestSpdExtremes:
    def test_identity(self):
        assert spd_extremes(np.eye(2)) == (1.0, 1.0)
        assert spd_extremes(np.eye(3)) == (1.0, 1.0)

    def test_paper_medium(self):
        lo, hi = spd_extremes(np.diag([0.25, 1.0]))
        assert lo == 0.25 and hi == 1.0

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            mat = random_spd(rng, rng.integers(2, 4))
            lo, hi = spd_extremes(mat)
            olo, ohi = jacobi_extremes(mat)
            scale = max(1.0, abs(ohi))
            assert abs(lo - olo) <= 1e-12 * scale
            assert abs(hi - ohi) <= 1e-12 * scale
            # triangulate the oracle itself against LAPACK
            w = np.linalg.eigvalsh(mat)
            assert abs(olo - w[0]) <= 1e-11 * scale
            assert abs(ohi - w[-1]) <= 1e-11 * scale

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError):
            spd_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            spd_extremes(np.eye(4))
        with pytest.raises(ValidationError):
            spd_extremes(np.ones((2, 3)))


class TestMedium:
    def test_fields(self):
        med = Medium(np.diag([0.25, 1.0]))
        assert med.dim == 2
        assert med.sigma_min == 0.25
        assert med.sigma_max == 1.0
        assert med.det == pytest.approx(0.25, rel=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            Medium(np.diag([1.0, -1.0]))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError):
            Medium(np.array([[1.0, 0.3], [0.1, 1.0]]))

    def test_constructors(self):
        assert Medium.isotropic(3).sigma_max == 1.0
        assert Medium.diagonal([0.25, 1.0]).sigma_min == 0.25

    def test_anisotropy_degree(self):
        assert anisotropy_degree(Medium.isotropic(2)) == 0.0
        assert anisotropy_degree(Medium.diagonal([0.25, 1.0])) == 0.75
        # scale invariance of the spread
        assert anisotropy_degree(Medium.diagonal([2.0, 8.0])) == 0.75


class TestBTau:
    def test_zero_phase_is_identity(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = b_tau(mat, 0.0)
        assert np.array_equal(out, mat.astype(complex))

    def test_phases_and_untouched_entries(self):
        rng = np.random.default_rng(5)
        mat = random_spd(rng, 3)
        tau = 0.7
        out = b_tau(mat, tau)
        assert out[0, 0] == mat[0, 0] * np.exp(1j * tau)
        assert np.array_equal(out[1:, 1:], mat[1:, 1:] * np.exp(-1j * tau))
        # mixed entries keep their values bitwise
        assert out[0, 1] == mat[0, 1] and out[1, 0] == mat[1, 0]
        assert out[0, 2] == mat[0, 2] and out[2, 0] == mat[2, 0]

    def test_two_dimensional_split(self):
        mat = np.array([[3.0, 1.0], [1.0, 2.0]])
        out = b_tau(mat, -0.3)
        assert out[0, 0] == 3.0 * np.exp(-0.3j)
        assert out[1, 1] == 2.0 * np.exp(0.3j)
        assert out[0, 1] == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            b_tau(np.eye(2), np.pi / 2)
        with pytest.raises(DomainError):
            b_tau(np.eye(2), -2.0)


class TestNumericalRangeBounds:
    def test_closed_form_values(self):
        box = numerical_range_bounds(np.diag([0.25, 1.0, 1.0]), np.pi / 3)
        assert box.re_lo == pytest.approx(0.25 - 0.5 * 1.0, abs=1e-15)
        assert box.re_hi == pytest.approx(1.0 - 0.5 * 0.25, abs=1e-15)
        assert box.im_hi == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)
        assert box.im_lo == -box.im_hi

    def test_zero_phase_collapses_to_spectrum(self):
        box = numerical_range_bounds(np.diag([0.5, 2.0]), 0.0)
        assert (box.re_lo, box.re_hi) == (0.5, 2.0)
        assert box.im_lo == box.im_hi == 0.0

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            mat = random_spd(rng, dim)
            tau = rng.uniform(-1.55, 1.55)
            box = numerical_range_bounds(mat, tau)
            phased = b_tau(mat, tau)
            x = rng.standard_normal((dim, 50)) + 1j * rng.standard_normal((dim, 50))
            x /= np.linalg.norm(x, axis=0)
            vals = np.einsum("ik,ij,jk->k", x.conj(), phased, x)
            assert np.all(vals.real >= box.re_lo - 1e-10)
            assert np.all(vals.real <= box.re_hi + 1e-10)
            assert np.all(np.abs(vals.imag) <= box.im_hi + 1e-10)

    def test_positivity_criterion(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            mat = random_spd(rng, int(rng.integers(2, 4)))
            lo, hi = spd_extremes(mat)
            tau = rng.uniform(-1.5, 1.5)
            want = np.cos(tau) > 1.0 - lo / hi
            assert numerical_range_bounds(mat, tau).positive == want

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            numerical_range_bounds(np.diag([1.0, 0.0]), 0.1)

    def test_rejects_large_phase(self):
        with pytest.raises(DomainError):
            numerical_range_bounds(np.eye(2), 1.5708)


class TestRangeBox:
    def test_contains(self):
        box = RangeBox(0.0, 1.0, -1.0, 1.0)
        assert box.contains(0.5 + 0.5j)
        assert not box.contains(1.5)
        assert box.contains(1.0 + 1e-12j, slack=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            RangeBox(1.0, 0.0, 0.0, 0.0)
