"""Radial complex-scaling profiles and their asymptotic data.

A profile is built from a scalar function ``alpha_tilde(r)`` that
vanishes up to the onset radius ``r1`` and grows (boundedly) beyond it.
With a complex strength ``gamma`` (Re >= 0, Im > 0) the scaled radius and
its derivatives are

    r_tilde(r) = (1 + gamma * alpha_tilde(r)) * r
    d_tilde(r) = 1 + gamma * alpha_tilde(r)
    alpha(r)   = r * alpha_tilde'(r) + alpha_tilde(r)
    d(r)       = 1 + gamma * alpha(r)        (= dr_tilde/dr)

understood piecewise across r1.  The phase lag between the two
stretches, ``tau(r) = arg(d_tilde/d)``, and its supremum ``tau_star``
drive every admissibility condition downstream: with an SPD medium of
eigenvalue extremes ``s_min <= s_max`` the sufficient coercivity test is

    cos(tau_star) > 1 - s_min/s_max .

All profile evaluation methods accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError, ValidationError
from .media import Medium, anisotropy_degree

__all__ = [
    "ScalingProfile",
    "AffineProfile",
    "RampProfile",
    "SmoothedPolynomialProfile",
    "ScalingLimits",
    "AdmissibilityReport",
    "limits",
    "admissible",
    "gamma_of_omega",
    "min_stabilizing_c",
]

#: number of sample points for supremum searches over (r1, 1e3*r1]
_SUP_SAMPLES = 2048


def _as_radius_array(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("radius must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class ScalingProfile:
    """Base class for radial scaling profiles.

    Parameters
    ----------
    r1 : float
        Scaling onset radius, positive.
    gamma : complex
        Scaling strength with Re(gamma) >= 0 and Im(gamma) > 0.
    """

    r1: float
    gamma: complex

    kind: ClassVar[str] = "abstract"

    def __post_init__(self):
        if not (np.isfinite(self.r1) and self.r1 > 0.0):
            raise ValidationError(f"r1 must be positive and finite, got {self.r1!r}")
        g = complex(self.gamma)
        if not (np.isfinite(g.real) and np.isfinite(g.imag)):
            raise ValidationError("gamma must be finite")
        if g.real < 0.0 or g.imag <= 0.0:
            raise ValidationError(
                f"gamma must satisfy Re >= 0 and Im > 0, got {g!r}")
        object.__setattr__(self, "gamma", g)

    # -- hooks implemented by concrete kinds (r strictly beyond r1) ------

    def _tail_alpha_tilde(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_dalpha_tilde(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def alpha_tilde_limit(self) -> float:
        """Limit of alpha_tilde at infinity (bounded by Assumption 1)."""
        raise NotImplementedError

    def tau_star_closed(self):
        """Closed-form sup |arg(d_tilde/d)| if the kind admits one."""
        return None

    def _extra_sample_points(self) -> np.ndarray:
        """Kind-specific radii that a geometric grid may undersample."""
        return np.empty(0)

    # -- pointwise quantities -------------------------------------------

    def alpha_tilde(self, r):
        arr = _as_radius_array(r)
        out = np.zeros(arr.shape)
        mask = arr > self.r1
        if np.any(mask):
            out[mask] = self._tail_alpha_tilde(arr[mask])
        return out if out.ndim else float(out)

    def dalpha_tilde(self, r):
        arr = _as_radius_array(r)
        out = np.zeros(arr.shape)
        mask = arr > self.r1
        if np.any(mask):
            out[mask] = self._tail_dalpha_tilde(arr[mask])
        return out if out.ndim else float(out)

    def alpha(self, r):
        arr = _as_radius_array(r)
        out = arr * self.dalpha_tilde(arr) + self.alpha_tilde(arr)
        return out if np.ndim(r) else float(out)

    def d_tilde(self, r):
        out = 1.0 + self.gamma * self.alpha_tilde(r)
        return out if np.ndim(r) else complex(out)

    def d(self, r):
        out = 1.0 + self.gamma * self.alpha(r)
        return out if np.ndim(r) else complex(out)

    def r_tilde(self, r):
        arr = _as_radius_array(r)
        out = self.d_tilde(arr) * arr
        return out if np.ndim(r) else complex(out)

    def tau(self, r):
        """Phase lag arg(d_tilde / d); non-positive, magnitude < pi/2."""
        out = np.angle(np.asarray(self.d_tilde(r)) / np.asarray(self.d(r)))
        return out if np.ndim(r) else float(out)


@dataclass(frozen=True)
class AffineProfile(ScalingProfile):
    """alpha_tilde(r) = 1 - r1/r, so r_tilde = r + gamma (r - r1).

    Beyond r1 this gives alpha = 1 and d = 1 + gamma exactly; the phase
    sup is attained in the limit r -> r1+ and equals arg(1 + gamma).
    """

    kind: ClassVar[str] = "affine"

    def _tail_alpha_tilde(self, r):
        return 1.0 - self.r1 / r

    def _tail_dalpha_tilde(self, r):
        return self.r1 / r**2

    def alpha_tilde_limit(self):
        return 1.0

    def tau_star_closed(self):
        return float(np.angle(1.0 + self.gamma))


@dataclass(frozen=True)
class RampProfile(ScalingProfile):
    """Quintic C^2 ramp from 0 to ``amax`` on [r1, r1 + width], constant after.

    The smoothstep 6t^5 - 15t^4 + 10t^3 has vanishing first and second
    derivatives at both ends, so alpha (and hence d) is continuous across
    r1 and the scaling becomes exactly constant beyond the ramp.
    """

    width: float = 1.0
    amax: float = 1.0

    kind: ClassVar[str] = "constant-after-ramp"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValidationError(f"ramp width must be positive, got {self.width!r}")
        if not (np.isfinite(self.amax) and self.amax > 0.0):
            raise ValidationError(f"amax must be positive, got {self.amax!r}")

    def _ramp_t(self, r):
        return np.clip((r - self.r1) / self.width, 0.0, 1.0)

    def _tail_alpha_tilde(self, r):
        t = self._ramp_t(r)
        return self.amax * t**3 * (10.0 + t * (-15.0 + 6.0 * t))

    def _tail_dalpha_tilde(self, r):
        t = self._ramp_t(r)
        ds = 30.0 * t**2 * (1.0 - t) ** 2 / self.width
        return np.where(r < self.r1 + self.width, self.amax * ds, 0.0)

    def alpha_tilde_limit(self):
        return self.amax

    def _extra_sample_points(self):
        return self.r1 + self.width * np.linspace(1.0e-6, 1.0, 512)


@dataclass(frozen=True)
class SmoothedPolynomialProfile(ScalingProfile):
    """alpha_tilde(r) = amax (1 - (r1/r)^m); generalizes the affine kind.

    ``m = 1, amax = 1`` recovers the affine profile; larger exponents
    steepen the onset (alpha jumps to m*amax at r1+) while keeping both
    alpha_tilde and alpha bounded.
    """

    exponent: float = 2.0
    amax: float = 1.0

    kind: ClassVar[str] = "smoothed-polynomial"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ValidationError(f"exponent must be >= 1, got {self.exponent!r}")
        if not (np.isfinite(self.amax) and self.amax > 0.0):
            raise ValidationError(f"amax must be positive, got {self.amax!r}")

    def _tail_alpha_tilde(self, r):
        return self.amax * (1.0 - (self.r1 / r) ** self.exponent)

    def _tail_dalpha_tilde(self, r):
        m = self.exponent
        return self.amax * m * self.r1**m / r ** (m + 1.0)

    def alpha_tilde_limit(self):
        return self.amax


PROFILE_KINDS = {
    "affine": AffineProfile,
    "constant-after-ramp": RampProfile,
    "smoothed-polynomial": SmoothedPolynomialProfile,
}


# ---------------------------------------------------------------------------
# asymptotic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingLimits:
    """Asymptotic data of a profile/medium pair.

    ``psi_flagged`` is True when the Theorem-type coercivity condition
    fails, i.e. psi is the argument of a number with non-positive real
    part; psi_star is still reported in that case.
    """

    d0: complex
    d_inf: complex
    tau_star: float
    psi_star: float
    psi_flagged: bool


def _assumption1_violations(profile: ScalingProfile) -> list:
    """Sampled checks of the profile assumptions; empty list if clean."""
    r1 = profile.r1
    bad = []
    below = np.linspace(0.0, r1, 33)
    if np.max(np.abs(profile.alpha_tilde(below))) > 1e-13:
        bad.append("alpha_tilde does not vanish on [0, r1]")
    if abs(profile.alpha_tilde(r1 * (1.0 + 1e-12))) > 1e-9:
        bad.append("alpha_tilde is not continuous at r1")
    grid = r1 * np.geomspace(1.0 + 1e-6, 1e3, _SUP_SAMPLES)
    extra = profile._extra_sample_points()
    if extra.size:
        grid = np.sort(np.concatenate([grid, extra]))
    at = profile.alpha_tilde(grid)
    a = profile.alpha(grid)
    if not (np.all(np.isfinite(at)) and np.all(np.isfinite(a))):
        bad.append("alpha_tilde or alpha is not finite beyond r1")
        return bad
    if np.min(at) <= 0.0:
        bad.append("alpha_tilde is not positive beyond r1")
    if np.min(np.diff(at)) < -1e-12 * max(1.0, np.max(np.abs(at))):
        bad.append("alpha_tilde is not non-decreasing")
    # analytic derivative must be consistent with the sampled slope
    # (catches subclasses whose dalpha_tilde and alpha_tilde disagree)
    mid = 0.5 * (grid[:-1] + grid[1:])
    h = 1e-6 * mid
    keep = mid - h > r1  # keep stencils clear of the onset kink
    mid, h = mid[keep], h[keep]
    fd = (profile.alpha_tilde(mid + h) - profile.alpha_tilde(mid - h)) / (2.0 * h)
    da = profile.dalpha_tilde(mid)
    scale = np.max(np.abs(da)) + 1.0
    if np.max(np.abs(fd - da)) > 1e-4 * scale:
        bad.append("dalpha_tilde is inconsistent with alpha_tilde")
    try:
        lim = profile.alpha_tilde_limit()
        if np.max(at) > lim * (1.0 + 1e-6) + 1e-12:
            bad.append("alpha_tilde exceeds its declared limit")
    except NotImplementedError:
        pass
    return bad


def _golden_max(fun, lo, hi, iters=80):
    """Golden-section maximizer of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
        if b - a < 1e-13 * max(1.0, abs(a)):
            break
    return max(fc, fd)


def _sup_abs_tau(profile: ScalingProfile) -> float:
    """sup over r > r1 of |arg(d_tilde/d)| by sampling plus refinement."""
    closed = profile.tau_star_closed()
    if closed is not None:
        return abs(closed)
    r1 = profile.r1
    grid = r1 * np.geomspace(1.0 + 1e-9, 1e3, _SUP_SAMPLES)
    extra = profile._extra_sample_points()
    if extra.size:
        grid = np.sort(np.concatenate([grid, extra]))
    vals = np.abs(profile.tau(grid))
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    refined = _golden_max(lambda r: abs(profile.tau(r)), lo, hi)
    return float(max(vals[i], refined))


def limits(profile: ScalingProfile, medium: Medium) -> ScalingLimits:
    """Asymptotic scaling data: d0, d_inf, tau_star and psi_star.

    d_inf comes from the profile's closed-form alpha_tilde limit when
    available, otherwise from evaluation at 1e6*r1 confirmed at 1e7*r1.
    tau_star uses the affine closed form or dense geometric sampling with
    golden-section refinement.  psi follows from tau_star because
    |sin tau(r)| is maximized exactly where |tau| is (tau has one sign).

    Raises
    ------
    ValidationError
        If the profile fails the sampled profile-assumption checks, or
        the numeric d_inf evaluation has not converged.
    """
    bad = _assumption1_violations(profile)
    if bad:
        raise ValidationError("profile violates scaling assumptions: " + "; ".join(bad))
    try:
        d_inf = 1.0 + profile.gamma * profile.alpha_tilde_limit()
    except NotImplementedError:
        v1 = complex(profile.d_tilde(1e6 * profile.r1))
        v2 = complex(profile.d_tilde(1e7 * profile.r1))
        if abs(v1 - v2) > 1e-8 * max(1.0, abs(v2)):
            raise ValidationError(
                "d_tilde has not converged by r = 1e7*r1; cannot form limits")
        d_inf = v2
    d0 = d_inf / abs(d_inf)
    tau_star = _sup_abs_tau(profile)
    a = medium.sigma_min - (1.0 - np.cos(tau_star)) * medium.sigma_max
    psi_star = float(np.arctan2(medium.sigma_max * np.sin(tau_star), a))
    return ScalingLimits(
        d0=complex(d0),
        d_inf=complex(d_inf),
        tau_star=float(tau_star),
        psi_star=psi_star,
        psi_flagged=bool(a <= 0.0),
    )


# ---------------------------------------------------------------------------
# admissibility reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the sufficient-condition checks for a configuration.

    Violations are reported, never raised: the coercivity condition is
    sufficient only, and configurations that fail it are still solvable.
    """

    profile_ok: bool                    # (a) sampled profile assumptions
    separation_ok: bool                 # (b) r1 > (s_max/s_min) * r0
    coercivity_ok: bool                 # (c) cos tau_star > 1 - s_min/s_max
    far_field_ok: bool                  # tau and symbol derivative decay
    tau_star: float
    psi_star: float
    cos_tau_star: float
    threshold: float                    # anisotropy degree 1 - s_min/s_max
    min_c: float
    messages: tuple = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return (self.profile_ok and self.separation_ok
                and self.coercivity_ok and self.far_field_ok)


def admissible(profile: ScalingProfile, medium: Medium, r0: float) -> AdmissibilityReport:
    """Check every sufficient condition for the scaled resonance problem.

    Parameters
    ----------
    profile : ScalingProfile
    medium : Medium
    r0 : float
        Radius of a ball (centered at the origin) containing the obstacle.

    Returns
    -------
    AdmissibilityReport
        Flags (a) profile assumptions, (b) obstacle/onset separation
        r1 > (s_max/s_min)*r0, (c) coercivity cos tau_star > threshold,
        and the far-field decay checks, plus the numbers behind them.
    """
    msgs = []
    bad = _assumption1_violations(profile)
    profile_ok = not bad
    msgs.extend(bad)

    ratio = medium.sigma_max / medium.sigma_min
    separation_ok = profile.r1 > ratio * r0
    if not separation_ok:
        msgs.append(
            f"separation fails: r1 = {profile.r1:g} <= (s_max/s_min)*r0 = {ratio * r0:g}")

    tau_star = _sup_abs_tau(profile)
    threshold = anisotropy_degree(medium)
    cos_tau_star = float(np.cos(tau_star))
    coercivity_ok = cos_tau_star > threshold
    if not coercivity_ok:
        msgs.append(
            f"coercivity condition fails: cos(tau_star) = {cos_tau_star:.5f} "
            f"<= 1 - s_min/s_max = {threshold:.5f} (sufficient condition only)")

    # far-field behaviour: the phase lag and the radial derivative of the
    # normalized stretch must decay
    r_far = 1e3 * profile.r1
    r_mid = 10.0 * profile.r1
    tau_far = abs(profile.tau(r_far))

    def unit_slope(rr):
        h = 1e-6 * rr
        lo = profile.d_tilde(rr - h)
        hi = profile.d_tilde(rr + h)
        return abs(hi / abs(hi) - lo / abs(lo)) / (2.0 * h)

    s_mid, s_far = unit_slope(r_mid), unit_slope(r_far)
    far_field_ok = tau_far < 1e-3 and (s_far < 1e-12 or s_far < 0.2 * s_mid)
    if not far_field_ok:
        msgs.append(
            f"far-field decay not observed: |tau({r_far:g})| = {tau_far:.2e}, "
            f"unit-stretch slope {s_mid:.2e} -> {s_far:.2e}")

    a = medium.sigma_min - (1.0 - cos_tau_star) * medium.sigma_max
    psi_star = float(np.arctan2(medium.sigma_max * np.sin(tau_star), a))
    if a <= 0.0:
        msgs.append("psi_star is the argument of a number with non-positive real part")

    return AdmissibilityReport(
        profile_ok=profile_ok,
        separation_ok=bool(separation_ok),
        coercivity_ok=bool(coercivity_ok),
        far_field_ok=bool(far_field_ok),
        tau_star=float(tau_star),
        psi_star=psi_star,
        cos_tau_star=cos_tau_star,
        threshold=float(threshold),
        min_c=min_stabilizing_c(medium),
        messages=tuple(msgs),
    )


# ---------------------------------------------------------------------------
# frequency-dependent scaling strength
# ---------------------------------------------------------------------------

def gamma_of_omega(c: float, omega: float) -> complex:
    """Scaling strength gamma(omega) = 1/(c - i*omega) for real omega.

    Re >= 0 and Im >= 0 always (Im > 0 for omega > 0); the resulting
    affine-profile phase obeys arg(1 + gamma(omega)) <= arctan(1/(2*sqrt(c^2+c)))
    uniformly in omega.

    Raises
    ------
    DomainError
        If c <= 0.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise DomainError(f"c must be positive, got {c!r}")
    return 1.0 / (c - 1j * float(omega))


def min_stabilizing_c(medium: Medium) -> float:
    """Smallest c >= 0 making the frequency-uniform phase bound coercive.

    The affine profile with gamma(omega) = 1/(c - i*omega) satisfies
    cos(tau_star) >= 1/sqrt(1 + 1/(4(c^2+c))); this returns the infimum
    of c for which that lower bound exceeds 1 - s_min/s_max.  Isotropic
    media return 0 (any positive c works).
    """
    q = anisotropy_degree(medium)
    if q <= 0.0:
        return 0.0
    # 1/sqrt(1 + 1/(4(c^2+c))) > q  <=>  c^2 + c > q^2 / (4 (1 - q^2))
    t = q * q / (4.0 * (1.0 - q * q))
    return float(0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * t)))
