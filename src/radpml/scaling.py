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

A constructor checks the kind's parameters in closed form and raises
``ValidationError`` if one is invalid; each kind's formula vanishes up to
r1, is non-decreasing and bounded for valid parameters, so every profile
object is valid, and its tau and unit-stretch slope decay in the far field.
``d_inf``, ``d0`` and the exact ``tau_star`` depend on the scaling alone
and are computed once per profile object; ``admissible`` combines them
with the medium in closed form, sampling nothing.  All profile evaluation
methods accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import ValidationError
from .media import Medium, anisotropy_degree

__all__ = [
    "ScalingProfile",
    "AffineProfile",
    "RampProfile",
    "SmoothedPolynomialProfile",
    "AdmissibilityReport",
    "admissible",
    "gamma_of_omega",
    "min_stabilizing_c",
]

def _as_radius_array(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("radius must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class ScalingProfile:
    """Base class for radial scaling profiles; construction raises
    ``ValidationError`` unless the kind's parameters are valid.

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
        self._check_parameters()

    # -- hooks implemented by concrete kinds (r strictly beyond r1) ------

    def _tail_alpha_tilde(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_dalpha_tilde(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def alpha_tilde_limit(self) -> float:
        """Limit of alpha_tilde at infinity (bounded by Assumption 1);
        every kind defines it, and ``d_inf`` is formed from it."""
        raise NotImplementedError

    def _check_parameters(self):
        """The kind's closed-form parameter checks, the profile's only ones."""

    #: k with tau_star = |arg(1 + gamma k)| for all gamma; None if no such k
    phase_gain = None

    # -- asymptotic data, computed once per profile ----------------------
    # (each kind defines tau_star = sup over r > r1 of |tau(r)| exactly)

    @cached_property
    def d_inf(self) -> complex:
        """d_inf = 1 + gamma * alpha_tilde(inf), from the closed-form limit."""
        return complex(1.0 + self.gamma * self.alpha_tilde_limit())

    @cached_property
    def d0(self) -> complex:
        """Asymptotic direction d_inf/|d_inf|: discrete eigenvalues are
        valid in the region Lambda_d0 it bounds."""
        return complex(self.d_inf / abs(self.d_inf))

    # -- pointwise quantities -------------------------------------------

    def _beyond_onset(self, tail, r):
        """``tail`` beyond r1, zero up to it."""
        arr = _as_radius_array(r)
        out = np.zeros(arr.shape)
        mask = arr > self.r1
        if np.any(mask):
            out[mask] = tail(arr[mask])
        return out if out.ndim else float(out)

    def alpha_tilde(self, r):
        return self._beyond_onset(self._tail_alpha_tilde, r)

    def dalpha_tilde(self, r):
        return self._beyond_onset(self._tail_dalpha_tilde, r)

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
class RampProfile(ScalingProfile):
    """Quintic C^2 ramp from 0 to ``amax`` on [r1, r1 + width], constant after.

    The smoothstep 6t^5 - 15t^4 + 10t^3 has vanishing first and second
    derivatives at both ends, so alpha (and hence d) is continuous across
    r1 and the scaling becomes exactly constant beyond the ramp.  It rises
    from 0 to 1, so valid parameters meet the assumptions.  |gamma| amax
    is at most 1e15: beyond, |tau| peaks so close to r1 that the roots
    behind ``tau_star`` lose their digits.
    """

    width: float = 1.0
    amax: float = 1.0

    kind: ClassVar[str] = "constant-after-ramp"

    def _check_parameters(self):
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValidationError(f"ramp width must be positive, got {self.width!r}")
        if not (np.isfinite(self.amax) and self.amax > 0.0):
            raise ValidationError(f"amax must be positive, got {self.amax!r}")
        end = float(self.r1) + float(self.width)
        if not end > self.r1:
            raise ValidationError(f"ramp width {self.width:g} is below the "
                                  f"spacing of doubles at r1 = {self.r1:g}")
        size = abs(self.gamma) * float(self.amax)
        if not size <= 1e15:
            raise ValidationError(f"|gamma| * amax = {size:g} exceeds 1e15")

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

    @cached_property
    def tau_star(self) -> float:
        """max |tau| over the ramp, beyond which tau vanishes.  With
        x1 = alpha_tilde/amax and x2 = alpha/amax polynomials in
        t = (r - r1)/width and g = gamma amax, tau' = Im(g) (x1'/|1 + g x1|^2
        - x2'/|1 + g x2|^2), so |tau| peaks at a real root in (0, 1) of the
        degree-14 numerator, trimmed of top coefficients that move no root
        in [0, 1].  Every root's real part is tried, clipped to [0, 1]: no
        point of the ramp overestimates the maximum."""
        poly = np.polynomial.Polynomial
        x1 = poly([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
        x2 = poly([self.r1 / self.width, 1.0]) * x1.deriv() + x1
        g = self.gamma * self.amax
        mod1, mod2 = (1.0 + 2.0 * g.real * x + abs(g) ** 2 * x * x
                      for x in (x1, x2))
        numer = x1.deriv() * mod2 - x2.deriv() * mod1
        roots = numer.trim(1e-16 * np.max(np.abs(numer.coef))).roots()
        t = np.clip(roots.real, 0.0, 1.0)  # at t, not the radius it rounds to
        at = self.amax * t**3 * (10.0 + t * (-15.0 + 6.0 * t))
        a = at + self.amax * 30.0 * t**2 * (1.0 - t) ** 2 * (
            self.r1 / self.width + t)
        return float(np.max(np.abs(np.angle((1.0 + self.gamma * at)
                                            / (1.0 + self.gamma * a)))))


@dataclass(frozen=True)
class SmoothedPolynomialProfile(ScalingProfile):
    """alpha_tilde(r) = amax (1 - (r1/r)^m); generalizes the affine kind.

    ``m = 1, amax = 1`` is the affine profile; larger exponents steepen
    the onset (alpha jumps to m*amax at r1+) while keeping both
    alpha_tilde and alpha bounded.  The slope is evaluated as
    amax m r1^m / r^(m+1); an r1 whose square overflows or underflows
    is rejected, then an exponent for which the slope does so at r1, and
    beyond r1, where r^(m+1) overflows, it is evaluated as
    amax m (r1/r)^m / r.  (r1/r)^m falls from 1 to 0 for m >= 1, so valid
    parameters meet the assumptions.
    """

    exponent: float = 2.0
    amax: float = 1.0

    kind: ClassVar[str] = "smoothed-polynomial"

    def _check_parameters(self):
        if not (np.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ValidationError(f"exponent must be >= 1, got {self.exponent!r}")
        if not (np.isfinite(self.amax) and self.amax > 0.0):
            raise ValidationError(f"amax must be positive, got {self.amax!r}")
        square = float(self.r1) * float(self.r1)  # r1^(m+1) for m = 1
        if not 0.0 < square < np.inf:
            raise ValidationError(f"r1 = {self.r1:g} is out of range: r1^2 "
                                  f"= {square:g} in double precision")
        r1, m = np.float64(self.r1), self.exponent
        with np.errstate(all="ignore"):  # the family's own formula at r1
            onset_slope = self.amax * m * r1 ** m / r1 ** (m + 1.0)
        if not (np.isfinite(onset_slope) and onset_slope > 0.0):
            raise ValidationError(
                f"exponent {self.exponent:g} is too large for r1 = "
                f"{self.r1:g}: amax*m*r1^m / r1^(m+1) is not representable "
                f"in double precision")
        with np.errstate(over="ignore"):  # |d|^2 in ``admissible``
            size = abs(self.gamma) * np.float64(self.phase_gain)
            overflows = not np.isfinite(size * size)
        if overflows:
            raise ValidationError(f"|gamma| * amax * m = {size:g} is too "
                                  "large: its square overflows")

    def _tail_alpha_tilde(self, r):
        return self.amax * (1.0 - (self.r1 / r) ** self.exponent)

    def _tail_dalpha_tilde(self, r):
        m = self.exponent
        # where r^(m+1) overflows, the slope is (r1/r)^m / r times amax m
        with np.errstate(over="ignore"):
            power = r ** (m + 1.0)
            return np.where(np.isfinite(power),
                            self.amax * m * np.float64(self.r1) ** m / power,
                            self.amax * m * (self.r1 / r) ** m / r)

    def alpha_tilde_limit(self):
        return self.amax

    @property
    def phase_gain(self) -> float:
        """amax m, the limit of alpha as r -> r1+."""
        return self.amax * self.exponent

    @cached_property
    def tau_star(self) -> float:
        """Closed form arg(1 + gamma amax m): arg(1 + gamma x) increases
        with x >= 0, and as r -> r1+ alpha_tilde >= 0 is smallest (0) and
        alpha = amax (1 + (m - 1)(r1/r)^m) largest (amax m)."""
        return abs(float(np.angle(1.0 + self.gamma * self.phase_gain)))


@dataclass(frozen=True)
class AffineProfile(SmoothedPolynomialProfile):
    """alpha_tilde(r) = 1 - r1/r, so r_tilde = r + gamma (r - r1): the
    ``m = 1, amax = 1`` member of the smoothed-polynomial family.

    Beyond r1 this gives alpha = 1 and d = 1 + gamma, in floating point
    only to one ulp: r (r1/r^2) + (1 - r1/r) is off by up to 2.2e-16 at
    about 2% of the radii.  tau_star is arg(1 + gamma).
    """

    exponent: float = field(default=1.0, init=False)
    amax: float = field(default=1.0, init=False)

    kind: ClassVar[str] = "affine"


PROFILE_KINDS = {cls.kind: cls for cls in (
    AffineProfile, RampProfile, SmoothedPolynomialProfile)}


# ---------------------------------------------------------------------------
# admissibility reporting
# ---------------------------------------------------------------------------

def _separation(r1: float, medium: Medium, r0: float):
    """(holds, bound) of the separation rule r1 > bound = (s_max/s_min) * r0."""
    bound = medium.sigma_max / medium.sigma_min * r0
    return r1 > bound, bound


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the sufficient-condition checks for a configuration.

    Violations are reported, never raised: the coercivity condition is
    sufficient only, and configurations that fail it are still solvable.
    ``far_field_ok`` holds for every profile: the decay follows from its
    kind.
    """

    separation_ok: bool                 # (b) r1 > (s_max/s_min) * r0
    coercivity_ok: bool                 # (c) cos tau_star > 1 - s_min/s_max
    far_field_ok: bool                  # tau and unit-stretch slope decay
    separation_bound: float             # (s_max/s_min) * r0
    tau_star: float
    psi_star: float
    cos_tau_star: float
    threshold: float                    # anisotropy degree 1 - s_min/s_max
    min_c: float | None                 # None: no bound known
    messages: tuple = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return self.separation_ok and self.coercivity_ok and self.far_field_ok


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
        Flags (b) obstacle/onset separation r1 > (s_max/s_min)*r0 and
        (c) coercivity cos tau_star > threshold, plus the numbers behind
        them; (a), the profile assumptions, and the far-field decay hold
        for every profile object by its kind, so nothing is sampled.
        psi_star follows from tau_star because |sin tau(r)| is maximized
        exactly where |tau| is (tau has one sign).  The one message says
        what no flag does: a psi_star beyond pi/2.
    """
    msgs = []
    separation_ok, bound = _separation(profile.r1, medium, r0)
    tau_star = profile.tau_star
    threshold = anisotropy_degree(medium)
    cos_tau_star = float(np.cos(tau_star))
    coercivity_ok = cos_tau_star > threshold

    # psi_star is still reported when a <= 0, where the coercivity
    # condition of the theorem fails
    a = medium.sigma_min - (1.0 - np.cos(tau_star)) * medium.sigma_max
    if a <= 0.0:
        msgs.append("psi_star is the argument of a number with non-positive real part")

    return AdmissibilityReport(
        separation_ok=bool(separation_ok),
        coercivity_ok=bool(coercivity_ok),
        # tau and the unit-stretch slope decay by each kind's closed form:
        # a ramp's are 0 beyond r1 + width, and for the polynomial family
        # at r = 1e3 r1 |tan tau| <= (m 10^-3m / 2)/(1 - m 10^-3m) <= 5.01e-4
        # and the slope is at most 10^-2(m+1) <= 1e-4 of its value at 10 r1
        far_field_ok=True,
        separation_bound=float(bound),
        tau_star=tau_star,
        psi_star=float(np.arctan2(medium.sigma_max * np.sin(tau_star), a)),
        cos_tau_star=cos_tau_star,
        threshold=float(threshold),
        min_c=min_stabilizing_c(medium, profile.phase_gain),
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
    ValidationError
        If c <= 0.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise ValidationError(f"c must be positive, got {c!r}")
    return 1.0 / (c - 1j * float(omega))


def min_stabilizing_c(medium: Medium, k: float | None = 1.0) -> float | None:
    """Smallest c >= 0 making the frequency-uniform phase bound coercive.

    With gamma(omega) = 1/(c - i*omega), a profile with tau_star =
    |arg(1 + gamma k)| (its ``phase_gain``; k = 1 is affine) satisfies
    cos(tau_star) >= 1/sqrt(1 + k^2/(4c(c+k))); this returns k times the
    affine infimum of c for which that bound exceeds 1 - s_min/s_max.
    Isotropic media return 0 (any positive c works, for every profile);
    otherwise ``k = None`` (no such closed form) returns None.
    """
    q = anisotropy_degree(medium)
    if q <= 0.0:
        return 0.0
    if k is None:
        return None
    # 1/sqrt(1 + 1/(4(c^2+c))) > q  <=>  c^2 + c > q^2 / (4 (1 - q^2))
    t = q * q / (4.0 * (1.0 - q * q))
    return float(k * 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * t)))
