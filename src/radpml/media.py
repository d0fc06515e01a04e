"""Anisotropic media and numerical-range bounds for phased SPD matrices.

The wave equation coefficient is a constant symmetric positive definite
2x2 matrix ``sigma`` (``Medium``).  ``spd_extremes``, ``b_tau`` and
``numerical_range_bounds`` also take 3x3 matrices, since the paper's
bound below holds in both dimensions.  Radial complex scaling multiplies
the radial and tangential parts of ``sigma`` by unimodular phases; the
key quantity controlling coercivity is the numerical range of the
"phased" matrix

    B_tau = E B E,   E = diag(e^{i tau/2}, e^{-i tau/2}, ..., e^{-i tau/2}),

i.e. the (1,1) entry picks up ``e^{i tau}``, the trailing block picks up
``e^{-i tau}`` and the mixed entries keep their phase.  For SPD ``B``
with eigenvalue extremes ``lam_min <= lam_max`` and ``|tau| < pi/2`` the
numerical range ``{x^* B_tau x : |x| = 1}`` lies in the rectangle

    Re in [lam_min - (1-cos tau) lam_max,  lam_max - (1-cos tau) lam_min]
    |Im| <= lam_max |sin tau|

whose left edge is positive exactly when ``cos tau > 1 - lam_min/lam_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "Medium",
    "RangeBox",
    "spd_extremes",
    "anisotropy_degree",
    "b_tau",
    "numerical_range_bounds",
]

#: relative tolerance for symmetry checks
SYMMETRY_RTOL = 1.0e-12


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] not in (2, 3):
        raise ValidationError(f"only 2x2 and 3x3 media are supported, got {mat.shape[0]}x{mat.shape[0]}")
    scale = np.max(np.abs(mat))
    if scale == 0.0 or not np.all(np.isfinite(mat)):
        raise ValidationError("matrix entries must be finite and not all zero")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * scale:
        raise ValidationError("matrix is not symmetric")
    return 0.5 * (mat + mat.T)


def spd_extremes(mat: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric 2x2 or 3x3 matrix.

    One LAPACK symmetric eigenvalue call (``numpy.linalg.eigvalsh``) on
    the symmetrised matrix serves both dimensions.

    Parameters
    ----------
    mat : (d, d) array_like, d in {2, 3}
        Symmetric matrix.

    Returns
    -------
    (lam_min, lam_max) : tuple of float

    Raises
    ------
    ValidationError
        If the matrix is not square, not 2x2/3x3, or not symmetric.
    """
    lams = np.linalg.eigvalsh(_check_symmetric(mat))
    return float(lams[0]), float(lams[-1])


@dataclass(frozen=True)
class Medium:
    """Constant SPD material tensor of the 2-D exterior problem.

    Parameters
    ----------
    sigma : (2, 2) array_like
        Symmetric positive definite matrix.

    Raises
    ------
    ValidationError
        Input that is not 2x2, not symmetric or not positive definite.
    """

    sigma: np.ndarray
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)

    def __post_init__(self):
        if np.shape(self.sigma) != (2, 2):
            raise ValidationError(
                f"sigma must be a 2x2 tensor, got shape {np.shape(self.sigma)}")
        mat = _check_symmetric(self.sigma)
        lam_min, lam_max = spd_extremes(mat)
        if lam_min <= 0.0:
            raise ValidationError(f"sigma is not positive definite (lambda_min = {lam_min:g})")
        mat.flags.writeable = False
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "sigma_min", lam_min)
        object.__setattr__(self, "sigma_max", lam_max)

    @property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.sigma)


def anisotropy_degree(medium: Medium) -> float:
    """Relative eigenvalue spread ``1 - sigma_min / sigma_max`` in [0, 1).

    Zero exactly for isotropic media; the coercivity condition on the
    scaling phase reads ``cos tau_star > anisotropy_degree(medium)``.
    """
    return 1.0 - medium.sigma_min / medium.sigma_max


def b_tau(mat: np.ndarray, tau: float) -> np.ndarray:
    """Apply the radial/tangential phase split to a symmetric matrix.

    Entry (1,1) is multiplied by ``e^{i tau}``, the trailing
    (d-1)x(d-1) block by ``e^{-i tau}``; mixed first-row/column entries
    are returned bitwise unchanged.

    Parameters
    ----------
    mat : (d, d) array_like, symmetric
    tau : float
        Phase angle, ``|tau| < pi/2``.

    Returns
    -------
    (d, d) complex ndarray
    """
    mat = _check_symmetric(mat)
    if not np.isfinite(tau) or abs(tau) >= 0.5 * np.pi:
        raise ValidationError(f"phase angle must satisfy |tau| < pi/2, got {tau!r}")
    out = np.array(mat, dtype=complex)
    out[0, 0] *= np.exp(1j * tau)
    out[1:, 1:] *= np.exp(-1j * tau)
    return out


def numerical_range_bounds(mat: np.ndarray, tau: float) -> "RangeBox":
    """Rectangle enclosing the numerical range of ``b_tau(mat, tau)``.

    Parameters
    ----------
    mat : (d, d) array_like
        Symmetric positive definite matrix.
    tau : float
        Phase angle, ``|tau| < pi/2``.

    Returns
    -------
    RangeBox
        With ``lam_min <= lam_max`` the extremes of ``mat``:
        ``re_lo = lam_min - (1-cos tau) lam_max``,
        ``re_hi = lam_max - (1-cos tau) lam_min``,
        ``im_hi = -im_lo = lam_max |sin tau|``.

    Raises
    ------
    ValidationError
        If ``mat`` is not symmetric positive definite, or
        ``|tau| >= pi/2``.
    """
    lam_min, lam_max = spd_extremes(mat)
    if lam_min <= 0.0:
        raise ValidationError(f"matrix is not positive definite (lambda_min = {lam_min:g})")
    if not np.isfinite(tau) or abs(tau) >= 0.5 * np.pi:
        raise ValidationError(f"phase angle must satisfy |tau| < pi/2, got {tau!r}")
    one_minus_cos = 1.0 - np.cos(tau)
    return RangeBox(
        re_lo=lam_min - one_minus_cos * lam_max,
        re_hi=lam_max - one_minus_cos * lam_min,
        im_lo=-lam_max * abs(np.sin(tau)),
        im_hi=lam_max * abs(np.sin(tau)),
    )


@dataclass(frozen=True)
class RangeBox:
    """Axis-aligned rectangle in the complex plane.

    ``re_lo > 0`` puts the whole box strictly in the right half plane,
    which is the sufficient coercivity test.
    """

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.re_lo, self.re_hi,
                                   self.im_lo, self.im_hi])):
            raise ValidationError("range box bounds must be finite")
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValidationError("empty range box (lo > hi)")

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        z = complex(z)
        return (
            self.re_lo - slack <= z.real <= self.re_hi + slack
            and self.im_lo - slack <= z.imag <= self.im_hi + slack
        )
