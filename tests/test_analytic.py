"""Tests for cylinder functions, complex distances, kernel damping and references."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from radpml import analytic
from radpml.analytic import (
    MAX_ORDER,
    SUPPORTED_RADIUS,
    d_sigma,
    damping_rate,
    find_disk_neumann_references,
    hankel1,
    hankel1_deriv,
    read_reference_csv,
    write_reference_csv,
)
from radpml.cli import parse_config
from radpml.errors import IncompleteSearchError, ValidationError
from radpml.media import Medium, RangeBox
from radpml.scaling import AffineProfile

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

# All 44 roots of orders 0..20 in the widest supported box, keyed by
# (order, index), as a seeded Newton-grid search located them (every
# residual below 2e-14).  Orders 0 and 18..20 have none.
WIDE_BOX = RangeBox(0.1, 13.5, -6.5, 0.0)
WIDE_ROOTS = {
    (1, 1): 0.5011835086915849 - 0.6435450244768959j,
    (2, 1): 1.4344380231860914 - 0.8345461744215912j,
    (3, 1): 0.440799874727564 - 1.9816183381685752j,
    (3, 2): 2.373857446097508 - 0.9675620761326879j,
    (4, 1): 1.3225913318124716 - 2.4409343934883703j,
    (4, 2): 3.32208352855408 - 1.0727873526640475j,
    (5, 1): 0.43637037196085166 - 3.309812798220255j,
    (5, 2): 2.2119320668415634 - 2.803721160271408j,
    (5, 3): 4.276887706855142 - 1.1612492864197115j,
    (6, 1): 1.3103975995888508 - 3.839447186855396j,
    (6, 2): 3.1094434022294193 - 3.1082268012960044j,
    (6, 3): 5.236617044690811 - 1.238320508195458j,
    (7, 1): 0.43515128082378524 - 4.636428961580778j,
    (7, 2): 2.189089427470159 - 4.287127454253631j,
    (7, 3): 4.014197688801699 - 3.3730212813012006j,
    (7, 4): 6.20015511193665 - 1.3070642054519142j,
    (8, 1): 1.3064670397730542 - 5.199929876003095j,
    (8, 2): 3.0732757747106976 - 4.678396473355895j,
    (8, 3): 4.925183742733809 - 3.6087252195103625j,
    (8, 4): 7.1667293990409595 - 1.3694096765318569j,
    (9, 1): 0.43464946801673604 - 5.962537033084425j,
    (9, 2): 2.1808833844388307 - 5.694370967320289j,
    (9, 3): 3.962829632576177 - 5.027989824303489j,
    (9, 4): 5.841530634414067 - 3.822053113914111j,
    (9, 5): 8.135786069294548 - 1.4266590037568958j,
    (10, 1): 3.0591758438720715 - 6.137519804572387j,
    (10, 2): 4.857369612496846 - 5.345299787805908j,
    (10, 3): 6.7625221847141175 - 4.017551149732996j,
    (10, 4): 9.106914818768214 - 1.4797368680956307j,
    (11, 1): 5.756466569960701 - 5.636733085769165j,
    (11, 2): 7.6875733528822785 - 4.198455787277246j,
    (11, 3): 10.079802983625134 - 1.529326147625424j,
    (12, 1): 6.65970958415386 - 5.906881297975986j,
    (12, 2): 8.61620376428794 - 4.367161418443722j,
    (12, 3): 11.054206537193132 - 1.575947053266723j,
    (13, 1): 7.566725690451517 - 6.159161669413094j,
    (13, 2): 9.548015482274577 - 4.525494294538018j,
    (13, 3): 12.029931110973484 - 1.6200060107167853j,
    (14, 1): 8.477183261329484 - 6.396194456950258j,
    (14, 2): 10.482675629924914 - 4.674882309620089j,
    (14, 3): 13.00681917205623 - 1.6618272683195616j,
    (15, 1): 11.41990306483596 - 4.816465116926069j,
    (16, 1): 12.359458176153542 - 4.951168259449872j,
    (17, 1): 13.30113502743338 - 5.079754657467442j,
}

REPO_ROOT = Path(__file__).resolve().parents[1]


def sample_disk(rng, count, r_min=0.05, r_max=SUPPORTED_RADIUS):
    radii = rng.uniform(r_min, r_max, count)
    angles = rng.uniform(-np.pi, np.pi, count)
    return radii * np.exp(1j * angles)


def series_j_y(n, z):
    """J_n and Y_n of the package's one series loop, ``_bessel_j_y``."""
    (j, y), = analytic._bessel_j_y((n,), np.asarray(z, dtype=complex))
    return j, y


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
            j, y = series_j_y(n, z)
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
            j0, y0 = series_j_y(n, z)
            # derivatives via the standard recurrence C'_n = C_{n-1} - n/z C_n
            if n == 0:
                j1, y1 = (-c for c in series_j_y(1, z))
            else:
                j_prev, y_prev = series_j_y(n - 1, z)
                j1 = j_prev - (n / z) * j0
                y1 = y_prev - (n / z) * y0
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
        with pytest.raises(ValidationError, match="singular at z = 0"):
            hankel1(0, 0.0)

    def test_rejects_beyond_supported_radius(self):
        with pytest.raises(ValidationError,
                           match="exceeds the supported radius"):
            hankel1(0, SUPPORTED_RADIUS + 0.5)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValidationError,
                           match="exceeds the supported maximum"):
            hankel1(MAX_ORDER + 1, 1.0)
        with pytest.raises(ValidationError, match="non-negative integer"):
            hankel1(-1, 1.0)
        with pytest.raises(ValidationError, match="non-negative integer"):
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
    """hankel1 or hankel1_deriv composed from the oracle."""
    arr = np.asarray(z, dtype=complex)
    if name == "hankel1_deriv":
        if n == 0:
            out = -_oracle("hankel1", 1, arr)
        else:
            out = (_oracle("hankel1", n - 1, arr)
                   - (n / arr) * _oracle("hankel1", n, arr))
    else:
        j, y, _ = _oracle_j_y(n, arr)
        out = j + 1j * y
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

    FUNCTIONS = ("hankel1", "hankel1_deriv")

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
                for got, want in zip(series_j_y(n, z), _oracle_j_y(n, z)):
                    assert got.tobytes() == want.tobytes(), n
                for name in self.FUNCTIONS:
                    got = getattr(analytic, name)(n, z)
                    assert got.tobytes() == _oracle(name, n, z).tobytes(), (name, n)

    def test_scalars_bitwise_equal_to_per_point_test(self):
        rng = np.random.default_rng(23)
        points = [complex(z) for z in sample_disk(rng, 4, r_min=1e-4)]
        points += [SUPPORTED_RADIUS, 1e-6j, 2.5 - 1.0j]
        for n in range(MAX_ORDER + 1):
            for z in points:
                arr = np.asarray(z, dtype=complex)
                for got, want in zip(series_j_y(n, arr), _oracle_j_y(n, arr)):
                    assert got == want, (n, z)
                for name in self.FUNCTIONS:
                    got = getattr(analytic, name)(n, z)
                    assert isinstance(got, complex)
                    assert got == _oracle(name, n, z), (name, n, z)

    def test_two_derivs_of_empty_array(self):
        empty = np.array([], dtype=complex)
        table = analytic._hankel_table((3,), empty)
        d1, d2 = analytic._derivs(3, empty, table)
        assert table[3].shape == d1.shape == d2.shape == (0,)
        assert all(c.shape == (0,) for c in series_j_y(3, empty))
        for name in self.FUNCTIONS:
            out = getattr(analytic, name)(3, empty)
            assert isinstance(out, np.ndarray) and out.shape == (0,), name


class TestComplexDistance:
    MED = Medium(np.eye(2))
    ANISO = Medium(np.diag([0.25, 1.0]))
    PROF = AffineProfile(r1=2.0, gamma=0.5 + 1.0j)

    def test_coincident_points_vanish(self):
        x = np.array([0.3, -0.4])
        assert d_sigma(x, x, self.PROF, self.MED) == 0.0

    def test_real_inside_onset(self):
        x = np.array([0.8, 0.3])
        y = np.array([-0.2, 0.5])
        val = d_sigma(x, y, self.PROF, self.MED)
        assert val.imag == 0.0
        assert val.real == pytest.approx(np.linalg.norm(x - y), rel=1e-14)

    def test_anisotropic_metric_inside(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 0.0])
        # sqrt(x^T sigma^{-1} x) with sigma_xx = 0.25 gives 1/sqrt(0.25) = 2
        val = d_sigma(x, y, AffineProfile(r1=3.0, gamma=1j), self.ANISO)
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
                val = d_sigma(xs[k], ys[k], prof, med)
                assert val == pytest.approx(complex(roots[k]), abs=1e-13 * (1 + abs(roots[k])))

    def test_separation_precondition(self):
        y = np.array([2.5, 0.0])
        separation = r"must exceed \(sigma_max/sigma_min\) \* \|y\|"
        with pytest.raises(ValidationError, match=separation):
            d_sigma(np.array([3.0, 0.0]), y, self.PROF, self.MED)
        # anisotropic: ratio 4 shrinks the admissible ball
        with pytest.raises(ValidationError, match=separation):
            d_sigma(np.array([3.0, 0.0]), np.array([0.6, 0.0]),
                    self.PROF, self.ANISO)


class TestDampingRate:
    def test_isotropic_bound_is_eight(self):
        """gamma = 8i, omega = 1: bound -Re(i omega d0)|d_inf|/sigma_max = 8."""
        med = Medium(np.eye(2))
        prof = AffineProfile(r1=1.5, gamma=8j)
        measured, bound = damping_rate(1.0, prof, med, np.array([1.0, 1.0]))
        assert bound == pytest.approx(8.0, rel=1e-12)
        assert measured >= 0.95 * bound

    def test_anisotropic_rays(self):
        med = Medium(np.diag([0.25, 1.0]))
        prof = AffineProfile(r1=1.5, gamma=8j)
        for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([1.0, -1.0])):
            measured, bound = damping_rate(1.0, prof, med, direction)
            assert measured >= 0.95 * bound

    def test_rejects_wrong_sign_frequency(self):
        med = Medium(np.eye(2))
        prof = AffineProfile(r1=1.5, gamma=8j)
        with pytest.raises(ValidationError,
                           match="the scaled kernel need not decay"):
            damping_rate(-1.0, prof, med, np.array([1.0, 0.0]))


def _oracle_logderiv_count(n, box, panels):
    """The contour integral of one order, as counted one order per level."""
    corners = np.array([
        box.re_lo + 1j * box.im_lo, box.re_hi + 1j * box.im_lo,
        box.re_hi + 1j * box.im_hi, box.re_lo + 1j * box.im_hi,
        box.re_lo + 1j * box.im_lo])
    a, b = corners[:-1, None, None], corners[1:, None, None]
    length = (b - a) / panels
    t0 = (np.arange(panels) / panels)[:, None]
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    z = (a + (b - a) * t0) + (0.5 * (gl_x + 1.0)) * length
    nodes = z.ravel()
    d1, d2 = analytic._derivs(n, nodes, analytic._hankel_table((n,), nodes))
    terms = (0.5 / (2.0j * np.pi)) * length * gl_w * (d2 / d1).reshape(z.shape)
    return terms.sum(), z.ravel(), terms.ravel()


def _oracle_argument_principle_count(n, box):
    """Count, nodes and terms of one order, its levels run on their own;
    None where the count does not stabilize."""
    panels = 4
    prev = None
    while panels <= 256:
        val, nodes, terms = _oracle_logderiv_count(n, box, panels)
        rounded = int(np.rint(val.real))
        if (abs(val - rounded) < 1e-3 and prev == rounded):
            return rounded, nodes, terms
        prev = rounded
        panels *= 2
    return None


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
        with pytest.raises(IncompleteSearchError,
                           match="order 1 did not stabilize"):
            find_disk_neumann_references(1, bad)

    def test_box_validation(self):
        with pytest.raises(ValidationError,
                           match="strictly in the right half-plane"):
            find_disk_neumann_references(2, RangeBox(-1.0, 3.0, -2.0, 0.0))
        with pytest.raises(ValidationError,
                           match="exceeds the supported series radius"):
            find_disk_neumann_references(2, RangeBox(0.1, 20.0, -2.0, 0.0))
        with pytest.raises(ValidationError, match="n_max must lie in"):
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

    def test_matches_wide_golden_set(self):
        wide = find_disk_neumann_references(MAX_ORDER, WIDE_BOX)
        assert [(r.order, r.index) for r in wide] == list(WIDE_ROOTS)
        for ref in wide:
            golden = WIDE_ROOTS[(ref.order, ref.index)]
            assert abs(ref.root - golden) <= 1e-12 * abs(golden)
            assert ref.residual < 1e-10

    def test_evaluation_budget(self, monkeypatch):
        # each contour level is one series evaluation of 64 * panels nodes
        # that covers every order still uncounted, the moments evaluate
        # nothing, each Newton sweep evaluates the N counted roots of its
        # order and one more evaluation measures their residuals, the
        # search reports those residuals without evaluating anything, and
        # an order with N = 0 is not polished
        context, series, evaluations, levels, seeds = ["search"], [], [], [], []
        counted, polished = [], {}
        hankel = analytic._hankel1_orders
        derivs = analytic._derivs

        def spy_series(orders, z):
            series.append((context[-1], tuple(orders), z.size))
            return hankel(orders, z)

        def spy(n, z, table):
            result = derivs(n, z, table)
            if context[-1] == "_polish":
                evaluations.append((n, z, *result))
            return result

        def enter(name, record=lambda args, result: None):
            inner = getattr(analytic, name)

            def wrapped(*args):
                context.append(name)
                try:
                    result = inner(*args)
                finally:
                    context.pop()
                record(args, result)
                return result
            monkeypatch.setattr(analytic, name, wrapped)

        monkeypatch.setattr(analytic, "_hankel1_orders", spy_series)
        monkeypatch.setattr(analytic, "_derivs", spy)
        enter("_argument_principle_counts",
              lambda args, result: counted.extend(result))
        enter("_logderiv_counts",
              lambda args, _: levels.append((list(args[0]), args[2])))
        enter("_moment_seeds",
              lambda args, result: seeds.append((args[1], result.size)))
        enter("_polish", lambda args, result: polished.update({args[0]: result}))

        refs = find_disk_neumann_references(MAX_ORDER, WIDE_BOX)
        assert len(counted) == MAX_ORDER + 1
        counts = {n: count for n, (count, _, _) in enumerate(counted)}
        last = {n: nodes.size // 64 for n, (_, nodes, _) in enumerate(counted)}
        assert min(last.values()) >= 8  # two consecutive levels at least
        assert [panels for _, panels in levels] == \
            [4 * 2**k for k in range(len(levels))]
        for orders, panels in levels:
            assert orders == [n for n in range(MAX_ORDER + 1)
                              if last[n] >= panels]
        contour = [(orders, size) for ctx, orders, size in series
                   if ctx == "_logderiv_counts"]
        assert contour == [
            (tuple(sorted({k for n in orders for k in (max(n - 1, 0),
                                                        max(n, 1))})),
             64 * panels)
            for orders, panels in levels]
        assert {ctx for ctx, _, _ in series} == {"_logderiv_counts", "_polish"}
        assert seeds == [(count, count) for count in counts.values() if count]
        # one series evaluation of orders n - 1 and n per polish evaluation
        assert [(orders, size) for ctx, orders, size in series
                if ctx == "_polish"] == \
            [((max(n - 1, 0), max(n, 1)), z.size) for n, z, _, _ in evaluations]
        for n, count in counts.items():
            calls = [(z, d1, d2) for m, z, d1, d2 in evaluations if m == n]
            if not count:
                assert not calls and n not in polished
                continue
            assert [z.size for z, _, _ in calls] == [count] * len(calls)
            # each sweep steps from the last, up to the first sweep whose
            # steps all converge; then one evaluation at the polished roots
            sweeps = len(calls) - 1
            assert 1 <= sweeps <= analytic._POLISH_SWEEPS
            for k, ((z, d1, d2), (following, _, _)) in enumerate(
                    zip(calls, calls[1:]), start=1):
                assert following.tobytes() == (z - d1 / d2).tobytes()
                done = np.all(np.abs(d1 / d2) < 1e-14 * (1.0 + np.abs(following)))
                assert done == (k == sweeps) or k == analytic._POLISH_SWEEPS
            z, d1, _ = calls[-1]
            measured = dict(zip(z, np.abs(d1)))
            roots, residuals = polished[n]
            assert [measured[root] for root in roots] == list(residuals)
        # each reported residual is the one the polish measured and gated
        for ref in refs:
            roots, residuals = polished[ref.order]
            assert ref.residual == residuals[list(roots).index(ref.root)]
            assert ref.residual < 1e-10

    @pytest.mark.parametrize("box, unstable", [
        (WIDE_BOX, []), (REFERENCE_BOX, []),
        (RangeBox(0.1, GOLDEN_ROOTS[(1, 1)].real, -3.0, 0.0), [1]),
    ], ids=["wide", "reference", "boundary_root"])
    def test_shared_levels_match_per_order_count(self, box, unstable):
        """Counting every order on shared levels gives each order the
        count, nodes and terms of its own levels, bit for bit, and leaves
        uncounted the orders whose own levels do not stabilize."""
        counted = analytic._argument_principle_counts(MAX_ORDER, box)
        assert len(counted) == MAX_ORDER + 1
        assert [n for n, got in enumerate(counted) if got is None] == unstable
        for n, got in enumerate(counted):
            want = _oracle_argument_principle_count(n, box)
            if want is None:
                assert got is None, n
                continue
            assert got[0] == want[0], n
            assert got[1].tobytes() == want[1].tobytes(), n
            assert got[2].tobytes() == want[2].tobytes(), n

    def test_seeds_match_qz_oracle(self):
        """The numpy solve of the moment pencil gives the generalized
        eigenvalues that QZ gives on the same pencil."""
        box = WIDE_BOX
        centre = 0.5 * (box.re_lo + box.re_hi) + 0.5j * (box.im_lo + box.im_hi)
        radius = 0.5 * math.hypot(box.re_hi - box.re_lo, box.im_hi - box.im_lo)
        checked = 0
        counted = analytic._argument_principle_counts(MAX_ORDER, box)
        for n, (count, nodes, terms) in enumerate(counted):
            if count == 0:
                continue
            seeds = analytic._moment_seeds(box, count, nodes, terms, n)
            zeta = (nodes - centre) / radius
            moments = zeta ** np.arange(2 * count)[:, None] @ terms
            hankel = np.add.outer(np.arange(count), np.arange(count))
            oracle = centre + radius * scipy.linalg.eigvals(
                moments[hankel + 1], moments[hankel])
            gap = np.abs(seeds[:, None] - oracle[None, :])
            assert seeds.shape == oracle.shape == (count,)
            assert gap.min(axis=0).max() <= 1e-10 * radius, n
            assert gap.min(axis=1).max() <= 1e-10 * radius, n
            checked += 1
        assert checked == len({order for order, _ in WIDE_ROOTS})

    def test_singular_moment_pencil_is_incomplete_search(self):
        """The moments of one root of multiplicity two make H0 exactly
        singular; the search reports that instead of guessing."""
        box = REFERENCE_BOX
        centre = 0.5 * (box.re_lo + box.re_hi) + 0.5j * (box.im_lo + box.im_hi)
        radius = 0.5 * math.hypot(box.re_hi - box.re_lo, box.im_hi - box.im_lo)
        # one node at zeta = 1/2 with weight 2: s_p = 2 (1/2)^p
        nodes = np.array([centre + 0.5 * radius])
        terms = np.array([2.0 + 0.0j])
        with pytest.raises(IncompleteSearchError, match="order 3: .*singular"):
            analytic._moment_seeds(box, 2, nodes, terms, 3)

    def test_csv_round_trip(self, refs, tmp_path):
        path = tmp_path / "refs.csv"
        write_reference_csv(refs, path)
        back = read_reference_csv(path)
        assert back == refs

    @pytest.mark.parametrize("row", ["1,1", "1,1,0.5,-0.6,x", "1,1,0.5,-0.6,0,7"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "refs.csv"
        path.write_text(f"n,k,re,im,residual\n1,1,0.5,-0.6,1e-16\n\n{row}\n",
                        encoding="ascii")
        with pytest.raises(ValidationError, match=f"refs.csv: line 4: .*{row!r}"):
            read_reference_csv(path)
