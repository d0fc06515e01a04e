"""Tests for scaling profiles, asymptotics and admissibility."""

import numpy as np
import pytest

from radpml import (
    AffineProfile,
    DomainError,
    Medium,
    RampProfile,
    SmoothedPolynomialProfile,
    ValidationError,
    admissible,
    gamma_of_omega,
    limits,
    min_stabilizing_c,
)

ISO = Medium.isotropic(2)
PAPER_MEDIUM = Medium.diagonal([0.25, 1.0])


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
        with pytest.raises(DomainError):
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
    def test_affine_tau_star_closed_form(self):
        lim = limits(AffineProfile(r1=1.5, gamma=8j), ISO)
        assert abs(lim.tau_star - np.arctan(8.0)) < 1e-12

    def test_affine_d_limits(self):
        lim = limits(AffineProfile(r1=1.5, gamma=8j), ISO)
        assert lim.d_inf == 1.0 + 8.0j
        assert abs(abs(lim.d_inf) - np.sqrt(65.0)) < 1e-14
        assert abs(lim.d0 - (1.0 + 8.0j) / np.sqrt(65.0)) < 1e-15

    def test_sampled_route_matches_closed_form(self):
        # exponent-1 smoothed profile is the affine profile in disguise;
        # its tau_star goes through the sampling/refinement path
        smooth = SmoothedPolynomialProfile(r1=1.5, gamma=8j, exponent=1.0)
        lim = limits(smooth, ISO)
        assert abs(lim.tau_star - np.arctan(8.0)) < 1e-8

    def test_isotropic_psi_star_equals_tau_star(self):
        lim = limits(AffineProfile(r1=1.5, gamma=1j), ISO)
        assert abs(lim.psi_star - lim.tau_star) < 1e-12
        assert not lim.psi_flagged
        # isotropic threshold is tau_star < pi/2
        assert lim.tau_star < np.pi / 2

    def test_ramp_limits(self):
        p = RampProfile(r1=2.0, gamma=0.5 + 2j, width=0.75, amax=1.5)
        lim = limits(p, ISO)
        assert lim.d_inf == pytest.approx(1.0 + 1.5 * (0.5 + 2j), abs=1e-14)
        # sup property of the sampled tau_star
        r = np.geomspace(2.0 * (1 + 1e-7), 2000.0, 4000)
        taus = np.abs(p.tau(r))
        assert np.all(taus <= lim.tau_star + 1e-10)
        # densify around the sampled argmax: the sup must be attained there
        peak = r[np.argmax(taus)]
        local = np.abs(p.tau(np.linspace(0.99 * peak, 1.01 * peak, 20_001)))
        assert np.max(local) > lim.tau_star - 1e-9
        assert np.all(local <= lim.tau_star + 1e-10)

    def test_paper_medium_flags_psi(self):
        lim = limits(AffineProfile(r1=1.5, gamma=8j), PAPER_MEDIUM)
        # cos(arctan 8) ~ 0.124 < 0.75: psi loses its positive real part
        assert lim.psi_flagged
        assert lim.psi_star > np.pi / 2

    def test_rejects_decreasing_profile(self):
        class Decreasing(SmoothedPolynomialProfile):
            def _tail_alpha_tilde(self, r):
                return 1.0 + np.exp(-(r - self.r1)) - 1e-3 * (r - self.r1)

            def _tail_dalpha_tilde(self, r):
                return -np.exp(-(r - self.r1)) - 1e-3

        with pytest.raises(ValidationError):
            limits(Decreasing(r1=1.0, gamma=1j), ISO)


class TestModuli:
    def test_stretches_never_contract(self):
        rng = np.random.default_rng(11)
        r = rng.uniform(0.0, 50.0, 100_000)
        for profile in profiles():
            assert np.min(np.abs(profile.d_tilde(r))) >= 1.0 - 1e-12
            assert np.min(np.abs(profile.d(r))) >= 1.0 - 1e-12

    def test_tau_bounded_by_tau_star_and_decays(self):
        p = AffineProfile(r1=1.5, gamma=8j)
        lim = limits(p, ISO)
        r = np.geomspace(1.5 * (1 + 1e-9), 1500.0, 2048)
        taus = np.abs(p.tau(r))
        assert np.all(taus <= lim.tau_star + 1e-12)
        # sup approached at the onset, decay in the far field
        assert taus[0] > lim.tau_star - 1e-6
        assert abs(p.tau(1500.0)) < 1e-3


class TestGammaOfOmega:
    def test_values(self):
        assert gamma_of_omega(1.0, 0.0) == 1.0 + 0.0j
        assert gamma_of_omega(1.0, 1.0) == pytest.approx(0.5 + 0.5j, abs=1e-15)
        assert gamma_of_omega(2.0, 3.0) == pytest.approx((2.0 + 3.0j) / 13.0, abs=1e-15)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(DomainError):
            gamma_of_omega(0.0, 1.0)
        with pytest.raises(DomainError):
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

    def test_monotone_in_anisotropy(self):
        ratios = np.linspace(0.05, 0.999, 40)
        cs = [min_stabilizing_c(Medium.diagonal([r, 1.0])) for r in ratios]
        assert np.all(np.diff(cs) < 0.0)
        assert cs[-1] < 1e-3


class TestAdmissible:
    def test_reference_anisotropic_configuration(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=8j), PAPER_MEDIUM, r0=1.2)
        assert rep.profile_ok
        assert not rep.separation_ok       # 1.5 <= 4 * 1.2
        assert not rep.coercivity_ok       # cos(arctan 8) ~ 0.124 <= 0.75
        assert rep.cos_tau_star == pytest.approx(0.12403, abs=1e-5)
        assert rep.threshold == 0.75
        assert rep.far_field_ok
        assert not rep.all_ok
        assert any("coercivity" in m for m in rep.messages)

    def test_gentle_isotropic_configuration(self):
        rep = admissible(AffineProfile(r1=1.5, gamma=0.2 + 0.2j), ISO, r0=1.0)
        assert rep.all_ok
        assert rep.cos_tau_star > 0.0
        assert rep.threshold == 0.0
        assert rep.min_c == 0.0

    def test_decreasing_profile_flags_assumptions(self):
        class Decreasing(SmoothedPolynomialProfile):
            def _tail_alpha_tilde(self, r):
                return np.exp(-(r - self.r1))

            def _tail_dalpha_tilde(self, r):
                return -np.exp(-(r - self.r1))

        rep = admissible(Decreasing(r1=1.0, gamma=1j), ISO, r0=0.5)
        assert not rep.profile_ok
        assert not rep.all_ok

    def test_ramp_configuration(self):
        rep = admissible(RampProfile(r1=2.0, gamma=1j, width=1.0), ISO, r0=1.0)
        assert rep.profile_ok and rep.separation_ok and rep.far_field_ok
        assert rep.coercivity_ok  # isotropic: any tau_star < pi/2 passes
