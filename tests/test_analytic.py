"""Tests for cylinder functions, complex distances, kernel damping and references."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from radpml import analytic
from radpml.analytic import (
    MAX_ORDER,
    SUPPORTED_RADIUS,
    ComplexDistance,
    bessel_j,
    bessel_y,
    d_sigma,
    damping_rate,
    find_disk_neumann_references,
    hankel1,
    hankel1_deriv,
    read_reference_csv,
    write_reference_csv,
)
from radpml.cli import parse_config
from radpml.errors import (
    DomainError,
    IncompleteSearchError,
    PreconditionError,
)
from radpml.media import Medium, RangeBox
from radpml.scaling import AffineProfile, RampProfile, limits

# Roots of (H_n^{(1)})' in Re in (0.1, 8), Im in (-3, 0), keyed by
# (order, index).  Golden values from an independent extended-precision
# root search, run twice (30 and 50 digits) with agreement to ~1e-20;
# residuals |(H_n^{(1)})'| were below 3e-16 at 50 digits.
GOLDEN_ROOTS = {
    (1, 1): 0.50118350869158501 - 0.64354502447689588j,
    (2, 1): 1.4344380231860916 - 0.83454617442159118j,
    (3, 1): 0.4407998747275641 - 1.9816183381685755j,
    (3, 2): 2.3738574460975084 - 0.96756207613268763j,
    (4, 1): 1.322591331812472 - 2.4409343934883703j,
    (4, 2): 3.3220835285540806 - 1.072787352664047j,
    (5, 1): 2.2119320668415638 - 2.8037211602714076j,
    (5, 2): 4.2768877068551436 - 1.1612492864197106j,
    (6, 1): 5.2366170446908127 - 1.2383205081954578j,
}

REFERENCE_BOX = RangeBox(0.1, 8.0, -3.0, 0.0)

REPO_ROOT = Path(__file__).resolve().parents[1]


def sample_disk(rng, count, r_min=0.05, r_max=SUPPORTED_RADIUS):
    radii = rng.uniform(r_min, r_max, count)
    angles = rng.uniform(-np.pi, np.pi, count)
    return radii * np.exp(1j * angles)


class TestHankel:
    def test_pinned_value_order_zero(self):
        val = hankel1(0, 1.0)
        assert val.real == pytest.approx(0.7651976865579666, rel=1e-12)
        assert val.imag == pytest.approx(0.08825696421567696, rel=1e-12)

    def test_against_library_bessel(self):
        """Scale-aware relative error <= 1e-10 across the supported disk."""
        rng = np.random.default_rng(7)
        z = sample_disk(rng, 120)
        for n in range(MAX_ORDER + 1):
            j = bessel_j(n, z)
            y = bessel_y(n, z)
            j_ref = scipy.special.jv(n, z)
            y_ref = scipy.special.yv(n, z)
            scale = np.maximum.reduce(
                [np.abs(j_ref), np.abs(y_ref), np.abs(j_ref + 1j * y_ref)])
            assert np.all(np.abs(j - j_ref) <= 1e-10 * scale)
            assert np.all(np.abs(y - y_ref) <= 1e-10 * scale)

    def test_wronskian(self):
        """J_n Y'_n - J'_n Y_n = 2/(pi z) at 100 random points.

        The residual is measured against the magnitude of the products:
        off the real axis both terms grow like e^{2|Im z|} while their
        difference stays 2/(pi z), so a cancellation-blind comparison
        would be unattainable in double precision for any implementation.
        """
        rng = np.random.default_rng(11)
        z = sample_disk(rng, 100, r_max=SUPPORTED_RADIUS - 1e-6)
        for n in (0, 1, 3, 7, 20):
            j0 = bessel_j(n, z)
            y0 = bessel_y(n, z)
            # derivatives via the standard recurrence C'_n = C_{n-1} - n/z C_n
            if n == 0:
                j1 = -bessel_j(1, z)
                y1 = -bessel_y(1, z)
            else:
                j1 = bessel_j(n - 1, z) - (n / z) * j0
                y1 = bessel_y(n - 1, z) - (n / z) * y0
            target = 2.0 / (np.pi * z)
            resid = np.abs(j0 * y1 - j1 * y0 - target)
            scale = np.abs(j0 * y1) + np.abs(j1 * y0) + np.abs(target)
            assert np.all(resid <= 1e-10 * scale)

    def test_deriv_order_zero_is_minus_order_one(self):
        z = np.array([0.5 + 0.1j, 3.0 - 2.0j, 9.0])
        assert np.array_equal(hankel1_deriv(0, z), -hankel1(1, z))

    def test_deriv_against_library(self):
        """Scale includes the J/Y component magnitudes: high in the upper
        half-plane H is exponentially smaller than J and Y separately, so
        the J + iY representation cannot beat component-relative accuracy
        there (the physics below the real axis has no such cancellation)."""
        rng = np.random.default_rng(13)
        z = sample_disk(rng, 60)
        for n in (0, 1, 2, 5, 11):
            ref = scipy.special.h1vp(n, z)
            val = hankel1_deriv(n, z)
            lo = max(n - 1, 0)
            scale = sum(np.abs(f(k, z))
                        for f in (scipy.special.jv, scipy.special.yv)
                        for k in (lo, n))
            assert np.all(np.abs(val - ref) <= 1e-10 * scale)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            hankel1(0, 0.0)

    def test_rejects_beyond_supported_radius(self):
        with pytest.raises(DomainError):
            hankel1(0, SUPPORTED_RADIUS + 0.5)

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            hankel1(MAX_ORDER + 1, 1.0)
        with pytest.raises(DomainError):
            hankel1(-1, 1.0)
        with pytest.raises(DomainError):
            hankel1(0.5, 1.0)


def _oracle_j_y(n, z):
    """The ascending series as it stood with a per-point stopping test.

    Returns J_n, Y_n and the index of the last term run, which is where
    the test first held for every argument.
    """
    half = 0.5 * z
    q = half * half
    term = half**n / math.factorial(n)
    j_sum = term.copy()
    h_m = 0.0
    h_nm = sum(1.0 / k for k in range(1, n + 1))
    y_sum = (h_m + h_nm) * term
    scale = np.abs(term)
    for m in range(1, analytic._SERIES_MAX_TERMS):
        term = -term * q / (m * (m + n))
        h_m += 1.0 / m
        h_nm += 1.0 / (m + n)
        j_sum += term
        y_sum += (h_m + h_nm) * term
        mag = np.abs(term)
        scale = np.maximum(scale, mag)
        if np.all(mag * (h_m + h_nm + 1.0) <= 1e-18 * np.maximum(scale, 1e-300)):
            break
    finite = np.zeros_like(z)
    if n > 0:
        coeff = float(math.factorial(n - 1))
        pw = half ** (-n)
        for k in range(n):
            finite += coeff * pw
            if k < n - 1:
                coeff /= float((n - k - 1) * (k + 1))
                pw *= q
    y = ((2.0 / np.pi) * (np.log(half) + analytic._EULER_GAMMA) * j_sum
         - finite / np.pi - y_sum / np.pi)
    return j_sum, y, m


def _oracle(name, n, z):
    """bessel_j, bessel_y, hankel1 or hankel1_deriv composed from the oracle."""
    arr = np.asarray(z, dtype=complex)
    if name == "hankel1_deriv":
        if n == 0:
            out = -_oracle("hankel1", 1, arr)
        else:
            out = (_oracle("hankel1", n - 1, arr)
                   - (n / arr) * _oracle("hankel1", n, arr))
    else:
        j, y, _ = _oracle_j_y(n, arr)
        out = {"bessel_j": j, "bessel_y": y, "hankel1": j + 1j * y}[name]
    return out if np.ndim(z) else complex(out)


def mixed_radius_arrays(rng, count):
    """Arrays whose moduli span 1e-6 to their largest |z|, which steps up
    to just inside SUPPORTED_RADIUS."""
    arrays = []
    for k in range(count):
        r_max = SUPPORTED_RADIUS * (1.0 - 1e-12) * (k + 1) / count
        radii = np.concatenate([
            [1e-6, 1e-3, r_max],
            np.maximum(r_max * rng.uniform(0.0, 1.0, 60) ** 3, 1e-9)])
        arrays.append(radii * np.exp(1j * rng.uniform(-np.pi, np.pi, radii.size)))
    return arrays


class TestSeries:
    """The series runs a term count fixed by the largest |z|; it must give
    the bits of the per-point stopping test it replaced."""

    FUNCTIONS = ("bessel_j", "bessel_y", "hankel1", "hankel1_deriv")

    def test_term_count_is_per_point_stop_index(self):
        rng = np.random.default_rng(21)
        arrays = mixed_radius_arrays(rng, 30)
        arrays.append(np.array([SUPPORTED_RADIUS, 1e-3j]))
        for n in range(MAX_ORDER + 1):
            for z in arrays:
                radius = float(np.max(np.abs(z)))
                assert analytic._series_terms(n, radius) == _oracle_j_y(n, z)[2]

    def test_arrays_bitwise_equal_to_per_point_test(self):
        rng = np.random.default_rng(22)
        arrays = mixed_radius_arrays(rng, 6)
        arrays.append(np.array([SUPPORTED_RADIUS, -1e-6j]))
        for n in range(MAX_ORDER + 1):
            for z in arrays:
                for name in self.FUNCTIONS:
                    got = getattr(analytic, name)(n, z)
                    assert got.tobytes() == _oracle(name, n, z).tobytes(), (name, n)

    def test_scalars_bitwise_equal_to_per_point_test(self):
        rng = np.random.default_rng(23)
        points = [complex(z) for z in sample_disk(rng, 4, r_min=1e-4)]
        points += [SUPPORTED_RADIUS, 1e-6j, 2.5 - 1.0j]
        for n in range(MAX_ORDER + 1):
            for z in points:
                for name in self.FUNCTIONS:
                    got = getattr(analytic, name)(n, z)
                    assert isinstance(got, complex)
                    assert got == _oracle(name, n, z), (name, n, z)

    def test_two_derivs_of_empty_array(self):
        empty = np.array([], dtype=complex)
        h, d1, d2 = analytic._hankel_with_two_derivs(3, empty)
        assert h.shape == d1.shape == d2.shape == (0,)
        for name in self.FUNCTIONS:
            out = getattr(analytic, name)(3, empty)
            assert isinstance(out, np.ndarray) and out.shape == (0,), name


class TestComplexDistance:
    MED = Medium.isotropic(2)
    ANISO = Medium.diagonal([0.25, 1.0])
    PROF = AffineProfile(r1=2.0, gamma=0.5 + 1.0j)

    def test_coincident_points_vanish(self):
        x = np.array([0.3, -0.4])
        assert d_sigma(x, x, self.PROF, self.MED).value == 0.0

    def test_real_inside_onset(self):
        x = np.array([0.8, 0.3])
        y = np.array([-0.2, 0.5])
        val = d_sigma(x, y, self.PROF, self.MED).value
        assert val.imag == 0.0
        assert val.real == pytest.approx(np.linalg.norm(x - y), rel=1e-14)

    def test_anisotropic_metric_inside(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 0.0])
        # sqrt(x^T sigma^{-1} x) with sigma_xx = 0.25 gives 1/sqrt(0.25) = 2
        val = d_sigma(x, y, AffineProfile(r1=3.0, gamma=1j), self.ANISO).value
        assert val == pytest.approx(2.0, rel=1e-14)

    def test_branch_on_large_sample(self):
        """Im(d_sigma) >= 0 on 1e5 random admissible inputs.

        The bulk is batched through the same stretch/metric algebra; a
        random subset is cross-checked against the public scalar op.
        """
        rng = np.random.default_rng(23)
        total = 100_000
        for med in (self.MED, self.ANISO):
            prof = AffineProfile(r1=5.0, gamma=0.3 + 0.9j)
            max_r0 = prof.r1 * med.sigma_min / med.sigma_max
            xs = rng.normal(size=(total, 2)) * rng.uniform(0.1, 8.0, (total, 1))
            y_dir = rng.normal(size=(total, 2))
            y_dir /= np.linalg.norm(y_dir, axis=1, keepdims=True)
            ys = y_dir * rng.uniform(0.0, 0.999 * max_r0, (total, 1))
            rx = np.linalg.norm(xs, axis=1)
            diff = prof.d_tilde(rx)[:, None] * xs - ys
            quad = np.einsum("ki,ij,kj->k", diff, med.inv, diff)
            roots = np.sqrt(quad)
            roots = np.where(roots.imag < 0.0, -roots, roots)
            assert np.all(roots.imag >= 0.0)
            for k in rng.choice(total, 400, replace=False):
                val = d_sigma(xs[k], ys[k], prof, med).value
                assert val == pytest.approx(complex(roots[k]), abs=1e-13 * (1 + abs(roots[k])))

    def test_separation_precondition(self):
        y = np.array([2.5, 0.0])
        with pytest.raises(PreconditionError):
            d_sigma(np.array([3.0, 0.0]), y, self.PROF, self.MED)
        # anisotropic: ratio 4 shrinks the admissible ball
        with pytest.raises(PreconditionError):
            d_sigma(np.array([3.0, 0.0]), np.array([0.6, 0.0]),
                    self.PROF, self.ANISO)

    def test_off_branch_construction_rejected(self):
        with pytest.raises(ValueError):
            ComplexDistance(1.0 - 0.5j)


class TestDampingRate:
    def test_isotropic_bound_is_eight(self):
        """gamma = 8i, omega = 1: bound -Re(i omega d0)|d_inf|/sigma_max = 8."""
        med = Medium.isotropic(2)
        prof = AffineProfile(r1=1.5, gamma=8j)
        measured, bound = damping_rate(1.0, prof, med, np.array([1.0, 1.0]))
        assert bound == pytest.approx(8.0, rel=1e-12)
        assert measured >= 0.95 * bound

    def test_anisotropic_rays(self):
        med = Medium.diagonal([0.25, 1.0])
        prof = AffineProfile(r1=1.5, gamma=8j)
        for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([1.0, -1.0])):
            measured, bound = damping_rate(1.0, prof, med, direction)
            assert measured >= 0.95 * bound

    def test_rejects_wrong_sign_frequency(self):
        med = Medium.isotropic(2)
        prof = AffineProfile(r1=1.5, gamma=8j)
        with pytest.raises(PreconditionError):
            damping_rate(-1.0, prof, med, np.array([1.0, 0.0]))


def _newton_polish(n, z, steps=60):
    """Newton on (H_n^{(1)})' using only public evaluations."""
    for _ in range(steps):
        h = hankel1(n, z)
        d1 = hankel1_deriv(n, z)
        d2 = ((n * n - z * z) * h - z * d1) / (z * z)
        step = d1 / d2
        z = z - step
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            break
    return z


@pytest.fixture(scope="module")
def refs():
    return find_disk_neumann_references(6, REFERENCE_BOX)


class TestDiskReferences:
    def test_matches_golden_set(self, refs):
        assert {(r.order, r.index) for r in refs} == set(GOLDEN_ROOTS)
        for ref in refs:
            golden = GOLDEN_ROOTS[(ref.order, ref.index)]
            assert abs(ref.root - golden) < 1e-12
            assert ref.residual < 1e-10

    def test_sorted_by_order_then_index(self, refs):
        keys = [(r.order, r.index) for r in refs]
        assert keys == sorted(keys)

    def test_upper_half_box_is_empty(self):
        assert find_disk_neumann_references(4, RangeBox(0.5, 3.0, 0.5, 2.0)) == []

    def test_contour_perturbation_invariance(self, refs):
        wider = find_disk_neumann_references(
            6, RangeBox(0.09, 8.1, -3.05, 0.02))
        assert len(wider) == len(refs)
        for a, b in zip(refs, wider):
            assert (a.order, a.index) == (b.order, b.index)
            assert abs(a.root - b.root) < 1e-10

    def test_perturbed_seed_reconvergence(self):
        offset = 1e-3 * (1.0 + 1.0j) / math.sqrt(2.0)
        for (n, _), golden in GOLDEN_ROOTS.items():
            polished = _newton_polish(n, golden + offset)
            assert abs(polished - golden) < 1e-9

    def test_boundary_root_box_fails_honestly(self):
        # right edge passes through the order-1 root: the count cannot
        # stabilize and the search must say so instead of guessing
        bad = RangeBox(0.1, GOLDEN_ROOTS[(1, 1)].real, -3.0, 0.0)
        with pytest.raises(IncompleteSearchError):
            find_disk_neumann_references(1, bad)

    def test_box_validation(self):
        with pytest.raises(DomainError):
            find_disk_neumann_references(2, RangeBox(-1.0, 3.0, -2.0, 0.0))
        with pytest.raises(DomainError):
            find_disk_neumann_references(2, RangeBox(0.1, 20.0, -2.0, 0.0))
        with pytest.raises(DomainError):
            find_disk_neumann_references(MAX_ORDER + 1, REFERENCE_BOX)

    def test_reproduces_committed_reference_csv(self, refs):
        # the fixture searches the [reference] box of the production disk
        # config, whose roots are committed next to its spectrum
        config = parse_config(REPO_ROOT / "configs" / "disk.cfg")
        assert (config.ref_box, config.ref_max_order) == (REFERENCE_BOX, 6)
        committed = read_reference_csv(REPO_ROOT / "out" / "disk" / "reference.csv")
        assert [(r.order, r.index) for r in refs] == \
            [(c.order, c.index) for c in committed]
        for ref, com in zip(refs, committed):
            assert abs(ref.root - com.root) <= 1e-12 * abs(com.root)
            assert ref.residual < 1e-10

    def test_each_distinct_argument_evaluated_once(self, monkeypatch):
        # every Newton sweep evaluates only its distinct iterates, and
        # every contour level of the count is a single evaluation
        stack, evaluations, levels = ["search"], [], []
        evaluate = analytic._hankel_with_two_derivs

        def spy(n, z):
            evaluations.append((stack[-1], z))
            return evaluate(n, z)

        def enter(name, calls):
            inner = getattr(analytic, name)

            def wrapped(*args):
                calls.append(args)
                stack.append(name)
                try:
                    return inner(*args)
                finally:
                    stack.pop()
            monkeypatch.setattr(analytic, name, wrapped)

        monkeypatch.setattr(analytic, "_hankel_with_two_derivs", spy)
        enter("_newton_cluster", [])
        enter("_argument_principle_count", [])
        enter("_logderiv_count", levels)

        find_disk_neumann_references(6, REFERENCE_BOX)
        newton = [z for ctx, z in evaluations if ctx == "_newton_cluster"]
        contour = [z for ctx, z in evaluations if ctx == "_logderiv_count"]
        assert newton and levels
        assert len(newton) + len(contour) == len(evaluations)
        for z in newton:
            assert np.unique(z).size == z.size
        assert len(contour) == len(levels)
        for z, (_, _, panels) in zip(contour, levels):
            assert z.size == 4 * panels * 16

    def test_csv_round_trip(self, refs, tmp_path):
        path = tmp_path / "refs.csv"
        write_reference_csv(refs, path)
        back = read_reference_csv(path)
        assert back == refs
