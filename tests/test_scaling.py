"""Tests for scaling profiles, asymptotics and admissibility."""

import re

import numpy as np
import pytest

from radpml import (
    AffineProfile,
    Medium,
    RampProfile,
    SmoothedPolynomialProfile,
    ValidationError,
    admissible,
    gamma_of_omega,
    min_stabilizing_c,
)

from radpml.scaling import PROFILE_KINDS

ISO = Medium(np.eye(2))
PAPER_MEDIUM = Medium(np.diag([0.25, 1.0]))
PSI_FLAG = "psi_star is the argument of a number with non-positive real part"


def profiles():
    return [
        AffineProfile(r1=1.5, gamma=8j),
        RampProfile(r1=1.5, gamma=8j, width=1.0),
        SmoothedPolynomialProfile(r1=1.5, gamma=8j, exponent=2.0),
    ]


class TestEval:
    @pytest.mark.parametrize("profile", profiles(), ids=lambda p: p.kind)
    def test_identity_below_onset(self, profile):
        for r in (0.0, profile.r1 / 2, profile.r1):
            assert profile.alpha_tilde(r) == 0.0
            assert profile.alpha(r) == 0.0
            assert profile.d_tilde(r) == 1.0 + 0.0j
            assert profile.d(r) == 1.0 + 0.0j
            assert profile.r_tilde(r) == r

    def test_affine_constant_stretch(self):
        p = AffineProfile(r1=1.5, gamma=8j)
        for r in (1.6, 2.0, 7.3, 480.0):
            assert p.alpha(r) == pytest.approx(1.0, abs=1e-14)
            assert p.d(r) == pytest.approx(1.0 + 8.0j, abs=1e-13)

    def test_affine_direct_substitution(self):
        p = AffineProfile(r1=1.5, gamma=8j)
        assert p.alpha_tilde(3.0) == pytest.approx(0.5, abs=1e-15)
        assert p.d_tilde(3.0) == pytest.approx(1.0 + 4.0j, abs=1e-14)
        assert p.d(3.0) == pytest.approx(1.0 + 8.0j, abs=1e-13)
        assert p.r_tilde(3.0) == pytest.approx(3.0 + 12.0j, abs=1e-13)

    def test_affine_is_bitwise_its_own_formula(self):
        """The family's (r1/r)**1.0 and r**2.0 must round as r1/r and
        r**2 do, or every affine artifact would move in its last bits."""
        p = AffineProfile(r1=1.5, gamma=8j)
        r = np.geomspace(1.5001, 1500.0, 10_001)
        assert np.array_equal(p.alpha_tilde(r), 1.0 - 1.5 / r)
        assert np.array_equal(p.dalpha_tilde(r), 1.5 / r**2)

    def test_array_evaluation(self):
        p = RampProfile(r1=1.0, gamma=1j, width=0.5)
        r = np.linspace(0.0, 3.0, 64)
        d = p.d(r)
        assert d.shape == r.shape
        assert np.all(p.alpha_tilde(r)[r <= 1.0] == 0.0)
        # constant beyond the ramp
        tail = r > 1.5
        assert np.allclose(d[tail], p.d_tilde(r)[tail])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError,
                           match="radius must be finite and non-negative"):
            AffineProfile(r1=1.0, gamma=1j).alpha_tilde(-0.5)


class TestValidation:
    def test_gamma_half_plane(self):
        with pytest.raises(ValidationError):
            AffineProfile(r1=1.0, gamma=1.0)  # Im = 0
        with pytest.raises(ValidationError):
            AffineProfile(r1=1.0, gamma=-0.1 + 1j)  # Re < 0

    def test_onset_radius(self):
        with pytest.raises(ValidationError):
            AffineProfile(r1=0.0, gamma=1j)

    def test_kind_parameters(self):
        with pytest.raises(ValidationError):
            RampProfile(r1=1.0, gamma=1j, width=0.0)
        with pytest.raises(ValidationError):
            SmoothedPolynomialProfile(r1=1.0, gamma=1j, exponent=0.5)
        with pytest.raises(ValidationError):
            RampProfile(r1=1.0, gamma=1j, width=1.0, amax=-1.0)
        # amax is checked before it enters amax*m*r1^m, whose overflow
        # (r1 > 1) or underflow (r1 < 1) rejects the exponent
        with pytest.raises(ValidationError, match="amax must be positive"):
            SmoothedPolynomialProfile(r1=1.5, gamma=1j, exponent=1751.0,
                                      amax=float("nan"))
        for r1, exponent in [(1.5, 1733.0), (1e-3, 200.0)]:
            with pytest.raises(ValidationError, match="too large"):
                SmoothedPolynomialProfile(r1=r1, gamma=1j, exponent=exponent)
        # r1^2 out of range is r1's fault, whatever the exponent
        for r1 in (1.4e154, 1e-162):
            with pytest.raises(ValidationError,
                               match=re.escape(f"r1 = {r1:g} is out of range")):
                AffineProfile(r1=r1, gamma=1j)
        AffineProfile(r1=1e154, gamma=1j)
        # the guard admits m = 1732 on r1 = 1.5, a continuous profile
        # whose onset slope is 1155 (see TestSteepProfiles)
        steep = SmoothedPolynomialProfile(r1=1.5, gamma=1j, exponent=1732.0)
        assert steep.dalpha_tilde(1.5 * (1.0 + 1e-12)) == \
            pytest.approx(1732.0 / 1.5, rel=1e-8)


class TestSteepProfiles:
    """A profile is valid by its parameters: a steep ramp or polynomial
    builds as long as its formula is representable in double precision."""

    @pytest.mark.parametrize("width", [1e-4, 1e-5, 1e-9])
    def test_narrow_ramp_builds(self, width):
        ramp = RampProfile(r1=1.5, gamma=1j, width=width)
        assert ramp.alpha_tilde(1.5 + width) == 1.0
        assert 0.0 < ramp.tau_star < np.pi / 2

    @pytest.mark.parametrize("exponent, amax",
                             [(1000.0, 1.0), (500.0, 2.0), (1732.0, 1.0)])
    def test_steep_polynomial_builds(self, exponent, amax):
        steep = SmoothedPolynomialProfile(r1=1.5, gamma=1j,
                                          exponent=exponent, amax=amax)
        assert steep.phase_gain == exponent * amax

    def test_slope_where_the_power_overflows(self):
        """At m = 1732, r^(m+1) overflows from r = 1.5076 on, where the
        slope is still 0.18; it must match the central difference of
        alpha_tilde, not read 0."""
        steep = SmoothedPolynomialProfile(r1=1.5, gamma=1j, exponent=1732.0)
        for r in (1.508, 1.51, 1.512):
            h = 1e-7
            fd = (steep.alpha_tilde(r + h) - steep.alpha_tilde(r - h)) / (2 * h)
            assert fd > 1e-3
            assert steep.dalpha_tilde(r) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("width", [1e-13, 1e-15])
    def test_ramp_spanning_few_doubles_builds(self, width):
        """r1 + width rounds above r1 = 1.5 (by about 450 and 5 doubles),
        so the ramp is continuous as evaluated and builds."""
        ramp = RampProfile(r1=1.5, gamma=1j, width=width)
        assert ramp.alpha_tilde(1.5 + 2.0 * width) == 1.0
        assert 0.0 < ramp.tau_star < np.pi / 2

    def test_ramp_strength_is_bounded(self):
        """Beyond |gamma| amax = 1e15 the ramp's |tau| peaks too close to
        r1 for the roots behind tau* to keep their digits."""
        assert RampProfile(r1=1.5, gamma=1e5j, width=1.0, amax=1e10).tau_star
        with pytest.raises(ValidationError,
                           match=r"^\|gamma\| \* amax = 2e\+15 exceeds 1e15$"):
            RampProfile(r1=1.5, gamma=2j, width=1.0, amax=1e15)

    def test_ramp_narrower_than_a_double_step_is_a_jump(self):
        """On r1 = 1.5, r1 + 1e-17 rounds to r1: as evaluated, the ramp
        jumps from 0 to amax between two adjacent doubles."""
        with pytest.raises(ValidationError, match=(
                "^ramp width 1e-17 is below the spacing of doubles at "
                "r1 = 1.5$")):
            RampProfile(r1=1.5, gamma=1j, width=1e-17)

    def test_small_amax_does_not_hide_a_jump(self):
        """A jump of amax = 1e-10 is still a jump: the rule is on the
        width alone."""
        with pytest.raises(ValidationError, match="below the spacing"):
            RampProfile(r1=1.5, gamma=1j, width=1e-17, amax=1e-10)


def kind_grid():
    """Every shipped kind over a parameter grid with steep members: ramps
    of width 1e-13 r1, 1e-9 and 1e5, exponents up to 1732 (the largest
    the slope guard admits on r1 = 1.5)."""
    for r1 in (1e-3, 1.5, 1e3):
        yield AffineProfile(r1=r1, gamma=8j)
        for width in (1e-13 * r1, 1e-9, 1.0, 1e5):
            for amax in (1e-10, 1.0, 1e10):
                yield RampProfile(r1=r1, gamma=8j, width=width, amax=amax)
        steep = ((1000.0, (0.8,)), (1732.0, (1.0,))) if r1 == 1.5 else ()
        for exponent, amaxes in ((2.0, (1e-10, 0.8, 1e10)),
                                 (97.0, (1e-10, 0.8)), *steep):
            for amax in amaxes:
                yield SmoothedPolynomialProfile(r1=r1, gamma=8j,
                                                exponent=exponent, amax=amax)


class TestShippedKindsMeetAssumptions:
    """Validation no longer samples a profile, so each shipped kind must
    meet the scaling assumptions by its formula for valid parameters."""

    @pytest.mark.parametrize("profile", list(kind_grid()), ids=repr)
    def test_alpha_tilde_vanishes_rises_and_is_bounded(self, profile):
        r1, amax = profile.r1, profile.amax
        # the transition scale: the ramp's width, or r1/m for the family
        scale = profile.width if isinstance(profile, RampProfile) \
            else r1 / profile.exponent
        assert np.all(profile.alpha_tilde(np.linspace(0.0, r1, 65)) == 0.0)
        r = np.unique(np.concatenate([
            r1 + scale * np.linspace(0.0, 2.0, 4001),
            r1 * np.geomspace(1.0, 1e3, 4001)]))
        at = profile.alpha_tilde(r)
        # to rounding: the ramp's smoothstep reads 1 + 6 ulp just below t = 1
        assert np.all(np.diff(at) >= -1e-14 * amax)
        assert np.all(at <= amax * (1.0 + 1e-14))
        # dalpha_tilde against a central difference over the step actually
        # taken, where that step resolves the transition
        h = 1e-4 * scale
        lo, hi = r - h, r + h
        keep = (lo > r1) & (hi - lo > 0.0) & (hi - lo < 1e-3 * scale)
        if not np.any(keep):
            return
        lo, hi, mid = lo[keep], hi[keep], r[keep]
        fd = (profile.alpha_tilde(hi) - profile.alpha_tilde(lo)) / (hi - lo)
        slope = profile.dalpha_tilde(mid)
        assert np.max(np.abs(fd - slope)) <= 1e-6 * np.max(np.abs(slope))


def far_field_probe(profile):
    """|tau| at 1e3 times the end of the profile's transition (r1, or
    r1 + width for a ramp), and the unit-stretch slope |d/dr arg d_tilde|
    at 10 and 1e3 times it; a probe radius beyond the largest double is
    taken at it, which still lies beyond the end."""
    end = profile.r1 + (profile.width if isinstance(profile, RampProfile)
                        else 0.0)
    radii = np.array([min(f * end, np.finfo(float).max) for f in (10.0, 1e3)])
    slope = (profile.gamma.imag * np.abs(profile.dalpha_tilde(radii))
             / np.abs(profile.d_tilde(radii)) ** 2)
    return abs(profile.tau(radii[1])), slope[0], slope[1]


class TestParameterSweep:
    """Every parameter set either raises ``ValidationError`` or builds a
    profile whose tau* is finite, whose admissibility report raises no
    numpy warning (a RuntimeWarning fails the test), and whose tau and
    unit-stretch slope decay in the far field, as the report's
    ``far_field_ok`` states without sampling them."""

    def test_valid_or_rejected(self):
        built = 0
        for r1 in (1e-3, 1.5, 1e13):
            for gamma in (1e-4j, 8j, 1000 + 1000j):
                candidates = [(AffineProfile, {})] + [
                    (RampProfile, {"width": width, "amax": amax})
                    for width in (1e-17, 1e-13, 1e-9, 1.0, 1e5, 1e11, 1e306)
                    for amax in (1e-300, 1e-10, 1.0, 1e100, 1e300)] + [
                    (SmoothedPolynomialProfile, {"exponent": m, "amax": amax})
                    for m in (1.0, 2.0, 97.0, 1732.0)
                    for amax in (1e-300, 1e-10, 1.0, 1e100, 1e300)]
                assert {cls.kind for cls, _ in candidates} == set(PROFILE_KINDS)
                for cls, options in candidates:
                    try:
                        profile = cls(r1=r1, gamma=gamma, **options)
                    except ValidationError:
                        continue
                    built += 1
                    assert 0.0 <= profile.tau_star <= np.pi / 2
                    tau_far, slope_mid, slope_far = far_field_probe(profile)
                    assert tau_far < 1e-3, profile
                    assert slope_far < max(1e-12, 0.2 * slope_mid), profile
                    for medium in (ISO, PAPER_MEDIUM):
                        assert admissible(profile, medium,
                                          r0=0.5 * r1).far_field_ok
        assert built > 200


class TestDerivativeIdentity:
    """d must be the radial derivative of r_tilde (piecewise)."""

    def fd_error(self, profile, r, h):
        fd = (profile.r_tilde(r + h) - profile.r_tilde(r - h)) / (2.0 * h)
        return abs(fd - profile.d(r))

    def test_affine_exact(self):
        p = AffineProfile(r1=1.5, gamma=8j)
        # r_tilde is piecewise linear: the central difference is exact
        for r in (0.7, 2.5, 9.0):
            assert self.fd_error(p, r, 1e-4) < 1e-10

    @pytest.mark.parametrize(
        "profile,r",
        [
            (RampProfile(r1=1.5, gamma=8j, width=1.0), 2.0),
            (SmoothedPolynomialProfile(r1=1.5, gamma=2j, exponent=3.0), 2.4),
        ],
        ids=["ramp", "smoothed"],
    )
    def test_second_order_convergence(self, profile, r):
        errs = np.array([self.fd_error(profile, r, h) for h in (1e-2, 5e-3, 2.5e-3)])
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(orders > 1.9)


class TestLimits:
    def test_affine_tau_star_is_arg_of_d_inf(self):
        profile = AffineProfile(r1=1.5, gamma=8j)
        assert abs(profile.tau_star - np.arctan(8.0)) < 1e-12

    def test_affine_d_inf_and_d0(self):
        profile = AffineProfile(r1=1.5, gamma=8j)
        assert profile.d_inf == 1.0 + 8.0j
        assert abs(abs(profile.d_inf) - np.sqrt(65.0)) < 1e-14
        assert abs(profile.d0 - (1.0 + 8.0j) / np.sqrt(65.0)) < 1e-15

    @pytest.mark.parametrize("exponent,amax", [(1.0, 1.0), (2.0, 1.0),
                                               (3.0, 0.8), (1.5, 2.5)])
    def test_polynomial_tau_star_is_onset_limit(self, exponent, amax):
        """tau_star = |arg(1 + gamma amax m)|: the sup of |tau|, reached
        as r -> r1+."""
        p = SmoothedPolynomialProfile(r1=1.5, gamma=0.5 + 2j,
                                      exponent=exponent, amax=amax)
        assert abs(p.tau_star
                   - abs(np.angle(1.0 + p.gamma * amax * exponent))) < 1e-15
        r = np.geomspace(1.5 * (1 + 1e-12), 1500.0, 20_001)
        taus = np.abs(p.tau(r))
        assert np.all(taus <= p.tau_star + 1e-15)
        assert taus[0] > p.tau_star - 1e-10

    @pytest.mark.parametrize("r1,gamma,width,amax", [
        (1.5, 8j, 1e-6, 1.0),
        (2.0, 70 + 1000j, 1.5e-6, 0.25),
        (1.5, 1000 + 1000j, 1e-6, 1.0),
        (1.5, 8j, 1.0, 1.0),
        (0.35, 300 + 360j, 2.5e-4, 1.8),
        (1.5, 8j, 1e5, 1.0),
        (1.5, 1e-4j, 1.0, 1.0),
    ])
    def test_ramp_tau_star_is_exact(self, r1, gamma, width, amax):
        """The ramp's tau_star equals a brute-force maximum of |tau| over
        the ramp: 20,001 points, refined four times around the argmax."""
        p = RampProfile(r1=r1, gamma=gamma, width=width, amax=amax)
        lo, hi = 0.0, 1.0
        for _ in range(4):
            t = np.linspace(lo, hi, 20_001)
            taus = np.abs(p.tau(r1 + width * t))
            i = int(np.argmax(taus))
            step = t[1] - t[0]
            lo, hi = max(t[i] - 2 * step, 0.0), min(t[i] + 2 * step, 1.0)
        assert abs(p.tau_star - taus[i]) < 1e-15

    @pytest.mark.parametrize("r1, gamma, width, amax", [
        (1e13, 8j, 1.0, 1.0),
        (1.5, 1j, 1e-13, 1.0),
        (1e3, 1000 + 1000j, 1e-9, 1e10),
        (1.5, 0.5 + 2j, 1.0, 2e14),
    ])
    def test_steep_ramp_tau_star_is_the_sup_in_t(self, r1, gamma, width,
                                                  amax):
        """Where the ramp spans few doubles, or |gamma| amax is large,
        |tau| peaks within one double of r1 (t below 1e-3): tau* is the
        sup over t = (r - r1)/width, taken at t itself, not at the radius
        it rounds to (which would read tau = 0 on r1)."""
        p = RampProfile(r1=r1, gamma=gamma, width=width, amax=amax)
        t = np.geomspace(1e-12, 1.0, 200_001)
        at = amax * t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
        a = at + amax * 30.0 * t**2 * (1.0 - t) ** 2 * (r1 / width + t)
        taus = np.abs(np.angle((1.0 + gamma * at) / (1.0 + gamma * a)))
        assert np.max(taus) <= p.tau_star + 1e-12
        assert p.tau_star - np.max(taus) < 1e-8

    def test_isotropic_psi_star_equals_tau_star(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=1j), ISO, r0=1.0)
        assert abs(rep.psi_star - rep.tau_star) < 1e-12
        assert PSI_FLAG not in rep.messages
        # isotropic threshold is tau_star < pi/2
        assert rep.tau_star < np.pi / 2

    def test_ramp_asymptotics(self):
        p = RampProfile(r1=2.0, gamma=0.5 + 2j, width=0.75, amax=1.5)
        assert p.d_inf == pytest.approx(1.0 + 1.5 * (0.5 + 2j), abs=1e-14)
        # sup property of tau_star
        r = np.geomspace(2.0 * (1 + 1e-7), 2000.0, 4000)
        taus = np.abs(p.tau(r))
        assert np.all(taus <= p.tau_star + 1e-10)
        # densify around the grid's argmax: the sup must be attained there
        peak = r[np.argmax(taus)]
        local = np.abs(p.tau(np.linspace(0.99 * peak, 1.01 * peak, 20_001)))
        assert np.max(local) > p.tau_star - 1e-9
        assert np.all(local <= p.tau_star + 1e-10)

    def test_paper_medium_flags_psi(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=8j), PAPER_MEDIUM, r0=1.2)
        # cos(arctan 8) ~ 0.124 < 0.75: psi loses its positive real part
        assert PSI_FLAG in rep.messages
        assert rep.psi_star > np.pi / 2

    @pytest.mark.parametrize("cls", PROFILE_KINDS.values(),
                             ids=PROFILE_KINDS.keys())
    def test_every_kind_has_closed_form_limit(self, cls):
        """d_inf is formed from alpha_tilde_limit alone, so every kind
        must define it."""
        profile = cls(r1=1.5, gamma=0.5 + 2j)
        assert np.isfinite(profile.alpha_tilde_limit())
        assert profile.d_inf == \
            1.0 + profile.gamma * profile.alpha_tilde_limit()


class TestModuli:
    def test_stretches_never_contract(self):
        rng = np.random.default_rng(11)
        r = rng.uniform(0.0, 50.0, 100_000)
        for profile in profiles():
            assert np.min(np.abs(profile.d_tilde(r))) >= 1.0 - 1e-12
            assert np.min(np.abs(profile.d(r))) >= 1.0 - 1e-12

    def test_tau_bounded_by_tau_star_and_decays(self):
        p = AffineProfile(r1=1.5, gamma=8j)
        r = np.geomspace(1.5 * (1 + 1e-9), 1500.0, 2048)
        taus = np.abs(p.tau(r))
        assert np.all(taus <= p.tau_star + 1e-12)
        # sup approached at the onset, decay in the far field
        assert taus[0] > p.tau_star - 1e-6
        assert abs(p.tau(1500.0)) < 1e-3


class TestGammaOfOmega:
    def test_values(self):
        assert gamma_of_omega(1.0, 0.0) == 1.0 + 0.0j
        assert gamma_of_omega(1.0, 1.0) == pytest.approx(0.5 + 0.5j, abs=1e-15)
        assert gamma_of_omega(2.0, 3.0) == pytest.approx((2.0 + 3.0j) / 13.0, abs=1e-15)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValidationError, match="c must be positive"):
            gamma_of_omega(0.0, 1.0)
        with pytest.raises(ValidationError, match="c must be positive"):
            gamma_of_omega(-1.0, 1.0)

    def test_phase_bound_uniform_in_omega(self):
        rng = np.random.default_rng(23)
        for c in (0.1, 0.5, 2.0):
            cap = np.arctan(1.0 / (2.0 * np.sqrt(c * c + c)))
            omega = rng.uniform(-1e3, 1e3, 10_000)
            g = 1.0 / (c - 1j * omega)
            assert np.all(np.angle(1.0 + g) <= cap + 1e-12)

    def test_half_plane(self):
        rng = np.random.default_rng(24)
        omega = rng.uniform(0.0, 100.0, 1000)
        g = gamma_of_omega(0.3, 1.0)
        assert g.real >= 0 and g.imag > 0
        gs = 1.0 / (0.3 - 1j * omega[omega > 0])
        assert np.all(gs.real >= 0) and np.all(gs.imag > 0)


class TestMinStabilizingC:
    def test_isotropic_zero(self):
        assert min_stabilizing_c(ISO) == 0.0

    def test_paper_medium_quadratic_root(self):
        c = min_stabilizing_c(PAPER_MEDIUM)
        assert abs(c - 0.5 * (-1.0 + np.sqrt(16.0 / 7.0))) < 1e-14
        assert c == pytest.approx(0.2559, abs=5e-5)
        # the inequality holds just above the root and fails below it
        for eps, ok in ((1e-6, True), (-1e-3, False)):
            cc = c + eps
            lhs = 1.0 / np.sqrt(1.0 + 1.0 / (4.0 * (cc * cc + cc)))
            assert (lhs > 0.75) == ok

    def test_polynomial_family_bound_is_sharp(self):
        """With tau* = |arg(1 + gamma k)| and gamma = 1/(c - i omega), the
        minimal c is k times the affine one: 0.1% below it some omega
        breaks cos tau* > 0.75, 0.1% above it none does."""
        omega = np.geomspace(1e-4, 1e4, 100_001)
        for k in (0.3, 1.0, 2.4):
            c = min_stabilizing_c(PAPER_MEDIUM, k)
            assert c == pytest.approx(k * min_stabilizing_c(PAPER_MEDIUM),
                                      rel=1e-15)
            for factor, ok in ((0.999, False), (1.001, True)):
                gamma = 1.0 / (factor * c - 1j * omega)
                assert (np.min(np.cos(np.angle(1.0 + gamma * k))) > 0.75) \
                    == ok

    def test_monotone_in_anisotropy(self):
        ratios = np.linspace(0.05, 0.999, 40)
        cs = [min_stabilizing_c(Medium(np.diag([r, 1.0]))) for r in ratios]
        assert np.all(np.diff(cs) < 0.0)
        assert cs[-1] < 1e-3


class TestAdmissible:
    def test_reference_anisotropic_configuration(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=8j), PAPER_MEDIUM, r0=1.2)
        assert not rep.separation_ok       # 1.5 <= 4 * 1.2
        assert not rep.coercivity_ok       # cos(arctan 8) ~ 0.124 <= 0.75
        assert rep.cos_tau_star == pytest.approx(0.12403, abs=1e-5)
        assert rep.threshold == 0.75
        assert rep.far_field_ok
        assert not rep.all_ok
        # each failing flag is reported once: no message repeats it
        assert rep.messages == (PSI_FLAG,)

    def test_gentle_isotropic_configuration(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=0.2 + 0.2j), ISO, r0=1.0)
        assert rep.all_ok
        assert rep.cos_tau_star > 0.0
        assert rep.threshold == 0.0
        assert rep.min_c == 0.0

    def test_min_c_follows_the_profile_kind(self):
        """The polynomial family scales the affine c by amax m, the ramp
        has no known bound on an anisotropic medium, and an isotropic
        medium needs none for any kind."""
        affine_c = min_stabilizing_c(PAPER_MEDIUM)
        steep = SmoothedPolynomialProfile(r1=1.5, gamma=8j, exponent=3.0,
                                          amax=0.8)
        assert admissible(steep, PAPER_MEDIUM, r0=1.2).min_c == \
            pytest.approx(2.4 * affine_c, rel=1e-15)
        assert admissible(AffineProfile(r1=1.5, gamma=8j), PAPER_MEDIUM,
                          r0=1.2).min_c == affine_c
        assert admissible(RampProfile(r1=1.5, gamma=8j), PAPER_MEDIUM,
                          r0=1.2).min_c is None
        for profile in profiles():
            assert admissible(profile, ISO, r0=1.0).min_c == 0.0

    @pytest.mark.parametrize("width", [1.0, 1500.0, 3000.0, 1e5, 1e306])
    def test_wide_ramp_decays_beyond_its_end(self, width):
        """tau and the unit-stretch slope vanish beyond r1 + width,
        however wide the ramp: r1 + width = 1e306, whose 1e3 multiple
        overflows, builds too."""
        profile = RampProfile(r1=1.5, gamma=8j, width=width)
        rep = admissible(profile, ISO, r0=1.0)
        assert rep.far_field_ok
        assert rep.messages == ()
        assert far_field_probe(profile) == (0.0, 0.0, 0.0)

    def test_ramp_configuration(self):
        rep = admissible(RampProfile(r1=2.0, gamma=1j, width=1.0), ISO, r0=1.0)
        assert rep.separation_ok and rep.far_field_ok
        assert rep.coercivity_ok  # isotropic: any tau_star < pi/2 passes
