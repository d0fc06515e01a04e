"""Cylinder functions, complex distances, kernel damping and reference roots.

Everything here backs the semi-analytic side of the resonance
computation:

* cylinder functions ``J_n``, ``Y_n`` (hence ``H_n^{(1)} = J_n + i Y_n``)
  for complex argument by their ascending series, accurate to ~1e-10
  relative to the component magnitudes on a disk of moderate radius (see
  ``SUPPORTED_RADIUS``), deliberately *not* extended by asymptotic
  expansions.  Deep in the upper half-plane H^{(1)} is exponentially
  smaller than J and Y separately, so the sum loses relative accuracy
  there regardless of how well the components are computed; resonances
  and damped kernels live on or below the real axis, where the
  representation is well conditioned;
* the complex distance ``d_sigma`` induced by radial scaling, on the
  square-root branch with non-negative imaginary part;
* the measured vs guaranteed damping rate of the scaled plane kernel
  e^{i omega d_sigma};
* the exterior Neumann references for the unit disk: roots of
  ``(H_n^{(1)})'`` located by an argument-principle count plus Newton
  iteration.  Each contour level and each Newton sweep is one series
  evaluation of orders n - 1 and n together, and a sweep evaluates only
  its distinct iterates.  The series is elementwise and runs a term
  count fixed by the largest |z| of its arguments, so dropping repeats
  leaves every root and residual bit-for-bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IncompleteSearchError,
    PreconditionError,
)
from .media import Medium, RangeBox
from .scaling import ScalingProfile, limits

__all__ = [
    "SUPPORTED_RADIUS",
    "MAX_ORDER",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "hankel1_deriv",
    "ComplexDistance",
    "d_sigma",
    "damping_rate",
    "ResonanceReference",
    "find_disk_neumann_references",
    "write_reference_csv",
    "read_reference_csv",
]

#: Euler-Mascheroni constant
_EULER_GAMMA = 0.5772156649015328606065121

#: largest |z| for which the ascending series keeps ~1e-10 relative accuracy
#: in double precision (the alternating terms grow to ~(|z|/2)^{2m}/(m!)^2
#: before decaying, so cancellation eats ~5 digits by |z| ~ 30; measured
#: worst-case error passes 1e-10 just above radius 15)
SUPPORTED_RADIUS = 15.0

#: largest supported cylinder-function order
MAX_ORDER = 20

_SERIES_MAX_TERMS = 400


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

def _check_cylinder_args(n, z):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"order must be a non-negative integer, got {n!r}")
    if n > MAX_ORDER:
        raise DomainError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    arr = np.asarray(z, dtype=complex)
    if np.any(arr == 0.0):
        raise DomainError("cylinder functions are singular at z = 0")
    if arr.size and np.max(np.abs(arr)) > SUPPORTED_RADIUS:
        raise DomainError(
            f"|z| exceeds the supported radius {SUPPORTED_RADIUS:g}; "
            "no asymptotic fallback is provided")
    return arr


def _series_terms(n: int, radius: float) -> int:
    """Terms after the first that the order-n series runs at |z| <= radius.

    The series stops once a term is below 1e-18 of the largest term so
    far, weighted by the Y companion's harmonic sum.  A term's magnitude
    (|z|/2)^{n+2m} / (m! (m+n)!) depends on |z| alone, and its ratio to
    every earlier term grows with |z|, so the argument of largest modulus
    is the last to pass.  This runs that test by the same recurrence, in
    real arithmetic, at ``radius``.
    """
    half = 0.5 * radius
    q = half * half
    term = half**n / math.factorial(n)
    h_m = 0.0
    h_nm = sum(1.0 / k for k in range(1, n + 1))
    scale = term
    for m in range(1, _SERIES_MAX_TERMS):
        term = term * q / (m * (m + n))
        h_m += 1.0 / m
        h_nm += 1.0 / (m + n)
        scale = max(scale, term)
        if term * (h_m + h_nm + 1.0) <= 1e-18 * max(scale, 1e-300):
            return m
    return _SERIES_MAX_TERMS - 1


def _bessel_j_y(orders, z: np.ndarray):
    """J_n and Y_n of each order in ``orders`` by the ascending series.

    The harmonic-number weighted companion series for Y_n shares the term
    recurrence of the J_n series, so both are accumulated in one sweep,
    and one loop over the term index serves every order.  The orders
    share z/2, (z/2)^2 and log(z/2); each runs its own term count
    (``_series_terms``), fixed by the largest |z| of the array.

    Returns a list of (J_n, Y_n) pairs, one per order.
    """
    half = 0.5 * z
    q = half * half
    radius = float(np.max(np.abs(z))) if z.size else 0.0
    counts = [_series_terms(n, radius) for n in orders]
    terms, j_sums, y_sums, h_nms = [], [], [], []
    for n in orders:
        term = half**n / math.factorial(n)
        h_nm = sum(1.0 / k for k in range(1, n + 1))
        terms.append(term)
        j_sums.append(term.copy())
        y_sums.append(h_nm * term)
        h_nms.append(h_nm)
    h_m = 0.0
    for m in range(1, max(counts) + 1):
        h_m += 1.0 / m
        for i, n in enumerate(orders):
            if m > counts[i]:
                continue
            h_nms[i] += 1.0 / (m + n)
            # in place for arrays, rebound for the numpy scalars of a 0-d
            # argument.  numpy divides a complex by a real c as the
            # product with 1/c, so this is -term * q / (m (m + n)) bitwise.
            terms[i] *= q
            terms[i] *= -1.0 / (m * (m + n))
            j_sums[i] += terms[i]
            y_sums[i] += (h_m + h_nms[i]) * terms[i]
    del terms  # spent: free them before the finite parts
    log_part = (2.0 / np.pi) * (np.log(half) + _EULER_GAMMA)
    out = []
    for n, j_sum, y_sum in zip(orders, j_sums, y_sums):
        # Y_n = (2/pi)(log(z/2) + gamma) J_n - finite/pi - y_sum/pi; since
        # a - b is a + (-b) exactly, Y_n can take over y_sum's storage
        finite = _finite_part(n, half, q)
        finite /= np.pi
        y_sum /= -np.pi
        y_sum += log_part * j_sum - finite
        out.append((j_sum, y_sum))
    return out


def _finite_part(n: int, half, q):
    """sum_{k<n} (n-k-1)!/k! (z/2)^{2k-n}, the finite sum in Y_n."""
    finite = np.zeros_like(half)
    if n > 0:
        coeff = float(math.factorial(n - 1))
        pw = half ** (-n)
        for k in range(n):
            finite += coeff * pw
            if k < n - 1:
                coeff /= float((n - k - 1) * (k + 1))
                pw *= q
    return finite


def _hankel1_orders(orders, z: np.ndarray):
    """H^{(1)} = J + iY of each order in ``orders``, from one series loop."""
    return [j + 1j * y for j, y in _bessel_j_y(orders, z)]


def bessel_j(n: int, z):
    """Bessel function of the first kind, ascending series."""
    arr = _check_cylinder_args(n, z)
    (j, _), = _bessel_j_y((n,), arr)
    return j if np.ndim(z) else complex(j)


def bessel_y(n: int, z):
    """Bessel function of the second kind, log-plus-series form."""
    arr = _check_cylinder_args(n, z)
    (_, y), = _bessel_j_y((n,), arr)
    return y if np.ndim(z) else complex(y)


def hankel1(n: int, z):
    """Hankel function of the first kind H_n^{(1)} = J_n + i Y_n.

    Parameters
    ----------
    n : int
        Order, 0 <= n <= MAX_ORDER.
    z : complex scalar or array
        Argument with 0 < |z| <= SUPPORTED_RADIUS.

    Raises
    ------
    DomainError
        For z = 0, |z| beyond the supported radius, or unsupported order.
    """
    arr = _check_cylinder_args(n, z)
    out, = _hankel1_orders((n,), arr)
    return out if np.ndim(z) else complex(out)


def _hankel_deriv(n: int, z: np.ndarray):
    """H_n and H_n' from one series loop over orders n - 1 and n.

    Uses H'_n = H_{n-1} - (n/z) H_n, and H'_0 = -H_1.
    """
    if n == 0:
        h_n, h_1 = _hankel1_orders((0, 1), z)
        return h_n, -h_1
    h_prev, h_n = _hankel1_orders((n - 1, n), z)
    return h_n, h_prev - (n / z) * h_n


def hankel1_deriv(n: int, z):
    """First derivative of H_n^{(1)}; uses H'_n = H_{n-1} - (n/z) H_n."""
    arr = _check_cylinder_args(n, z)
    _, out = _hankel_deriv(n, arr)
    return out if np.ndim(z) else complex(out)


def _hankel_with_two_derivs(n: int, z: np.ndarray):
    """H_n, H_n' and H_n'' in one sweep (the ODE supplies the second)."""
    h_n, d1 = _hankel_deriv(n, z)
    d2 = ((n * n - z * z) * h_n - z * d1) / (z * z)
    return h_n, d1, d2


# ---------------------------------------------------------------------------
# complex distance and kernel damping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexDistance:
    """Scaled anisotropic distance on the branch with Im >= 0."""

    value: complex

    def __post_init__(self):
        if self.value.imag < 0.0:
            raise ValueError("complex distance constructed off its branch")


def _check_separation(profile: ScalingProfile, medium: Medium, r0: float):
    ratio = medium.sigma_max / medium.sigma_min
    if not profile.r1 > ratio * r0:
        raise PreconditionError(
            f"onset radius r1 = {profile.r1:g} must exceed "
            f"(sigma_max/sigma_min) * |y| = {ratio * r0:g}")


def d_sigma(x, y, profile: ScalingProfile, medium: Medium) -> ComplexDistance:
    """Complex distance sqrt((dt(|x|) x - y)^T sigma^{-1} (dt(|x|) x - y)).

    ``dt`` is the scaled-radius stretch, so the first argument is the
    complex-scaled image of x while y stays physical (|y| below the
    scaling onset by the separation condition, enforced here).  The
    square root is taken on the branch with non-negative imaginary part;
    ties (a real square) keep the non-negative real root.

    Raises
    ------
    PreconditionError
        If r1 <= (sigma_max/sigma_min) * |y|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (medium.dim,) or y.shape != (medium.dim,):
        raise PreconditionError(
            f"points must be {medium.dim}-vectors matching the medium")
    r0 = float(np.linalg.norm(y))
    _check_separation(profile, medium, r0)
    scaled_x = profile.d_tilde(float(np.linalg.norm(x))) * x
    diff = scaled_x - y
    quad = diff @ medium.inv @ diff
    root = np.sqrt(complex(quad))
    if root.imag < 0.0:
        root = -root
    return ComplexDistance(complex(root))


def damping_rate(omega, profile: ScalingProfile, medium: Medium, direction,
                 r0: float | None = None, samples: int = 48):
    """Measured vs guaranteed decay rate of the scaled plane kernel.

    Fits the slope of -log|e^{i omega d_sigma(x, y)}| = Im(omega d_sigma)
    for x = r*direction, r in [10 r1, 20 r1], y fixed on the sphere of
    radius r0 (default: 90% of the largest radius the separation
    condition allows).

    Returns
    -------
    (measured_rate, bound) : tuple of float
        ``bound = -Re(i omega d0) |d_inf| / sigma_max``.

    Raises
    ------
    PreconditionError
        If Re(i omega d0) >= 0 (no damping guaranteed).
    """
    lim = limits(profile, medium)
    omega = complex(omega)
    re_iwd0 = (1j * omega * lim.d0).real
    if re_iwd0 >= 0.0:
        raise PreconditionError(
            f"Re(i omega d0) = {re_iwd0:g} >= 0: the scaled kernel need not decay")
    direction = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0 or direction.shape != (medium.dim,):
        raise PreconditionError("direction must be a nonzero vector of the medium dimension")
    direction = direction / nrm
    if r0 is None:
        r0 = 0.9 * profile.r1 * medium.sigma_min / medium.sigma_max
    y = np.zeros(medium.dim)
    y[0] = r0
    rs = np.linspace(10.0 * profile.r1, 20.0 * profile.r1, samples)
    log_decay = np.array([
        (omega * d_sigma(r * direction, y, profile, medium).value).imag
        for r in rs
    ])
    measured = float(np.polyfit(rs, log_decay, 1)[0])
    bound = -re_iwd0 * abs(lim.d_inf) / medium.sigma_max
    return measured, bound


# ---------------------------------------------------------------------------
# reference resonances of the Neumann disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceReference:
    """One root of (H_n^{(1)})' inside the search box."""

    order: int          # angular order n
    index: int          # k-th root of that order, sorted by |Re|
    root: complex
    residual: float     # |(H_n^{(1)})'(root)|


def _logderiv_count(n: int, box: RangeBox, panels: int) -> complex:
    """Contour integral (1/2 pi i) oint H''/H' dz over the box boundary.

    The 16-point Gauss panels of all four sides are one evaluation over
    64 * ``panels`` nodes, and the panel sums are added in order round
    the contour, as one evaluation per panel would add them.  The series
    runs the term count of the node of largest |z|, so other nodes may
    gain terms below their rounding level; that moves the value in its
    last bits, far inside the 1e-3 to which the integer count is read.
    """
    corners = np.array([
        box.re_lo + 1j * box.im_lo, box.re_hi + 1j * box.im_lo,
        box.re_hi + 1j * box.im_hi, box.re_lo + 1j * box.im_hi,
        box.re_lo + 1j * box.im_lo])
    a, b = corners[:-1, None, None], corners[1:, None, None]
    length = (b - a) / panels
    t0 = (np.arange(panels) / panels)[:, None]
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    z = (a + (b - a) * t0) + (0.5 * (gl_x + 1.0)) * length
    _, d1, d2 = _hankel_with_two_derivs(n, z.ravel())
    d1, d2 = d1.reshape(z.shape), d2.reshape(z.shape)
    panel_sums = 0.5 * length[..., 0] * np.sum(gl_w * d2 / d1, axis=-1)
    total = 0.0 + 0.0j
    for part in panel_sums.ravel():
        total += part
    return total / (2.0j * np.pi)


def _argument_principle_count(n: int, box: RangeBox) -> int:
    panels = 4
    prev = None
    while panels <= 256:
        val = _logderiv_count(n, box, panels)
        rounded = int(np.rint(val.real))
        if (abs(val - rounded) < 1e-3 and prev == rounded):
            return rounded
        prev = rounded
        panels *= 2
    raise IncompleteSearchError(
        f"argument-principle contour for order {n} did not stabilize; "
        "a root may lie on or very near the box boundary")


def _newton_cluster(n: int, box: RangeBox) -> np.ndarray:
    """All distinct roots of (H_n^{(1)})' inside the box via seeded Newton.

    A sweep steps every live seed with one series evaluation over its
    distinct iterates (``np.unique``) and broadcasts the steps back.  Many
    seeds share an iterate: those reset to the box centre land on the
    same few values and run to the sweep cap together.  The series is
    elementwise and runs a term count fixed by the largest |z| of its
    arguments, which repeats do not change, so the steps, and hence the
    roots, are bit-for-bit those of stepping every seed.
    """
    nx = max(8, int(np.ceil((box.re_hi - box.re_lo) / 0.12)))
    ny = max(6, int(np.ceil((box.im_hi - box.im_lo) / 0.12)))
    re = np.linspace(box.re_lo, box.re_hi, nx + 2)[1:-1]
    im = np.linspace(box.im_lo, box.im_hi, ny + 2)[1:-1]
    z = (re[:, None] + 1j * im[None, :]).ravel()
    alive = np.ones(z.size, dtype=bool)
    for _ in range(60):
        if not np.any(alive):
            break
        za = z[alive]
        # keep iterates in the series' supported disk
        za = np.where(np.abs(za) > 0.95 * SUPPORTED_RADIUS,
                      0.5 * (box.re_lo + box.re_hi) + 0.5j * (box.im_lo + box.im_hi), za)
        distinct, inverse = np.unique(za, return_inverse=True)
        _, d1, d2 = _hankel_with_two_derivs(n, distinct)
        step = (d1 / d2)[inverse]
        za = za - step
        z[alive] = za
        conv = np.abs(step) < 1e-14 * (1.0 + np.abs(za))
        idx = np.where(alive)[0]
        alive[idx[conv]] = False
    pad = 1e-9
    converged = ~alive
    inside = ((z.real > box.re_lo + pad) & (z.real < box.re_hi - pad)
              & (z.imag > box.im_lo + pad) & (z.imag < box.im_hi - pad)
              & (np.abs(z) <= SUPPORTED_RADIUS))
    z = z[inside & converged]
    if z.size == 0:
        return z
    resid = np.abs(hankel1_deriv(n, z))
    z = z[resid < 1e-10]
    # dedupe
    z = z[np.lexsort((z.imag, z.real))]
    keep = []
    for zi in z:
        if not keep or abs(zi - keep[-1]) > 1e-8:
            keep.append(zi)
    return np.asarray(keep)


def find_disk_neumann_references(n_max: int, box: RangeBox):
    """Roots of (H_n^{(1)})' in ``box`` for all orders n <= n_max.

    These are the resonances of the exterior Neumann problem on the unit
    disk.  Each order is counted by the argument principle and located by
    Newton iteration from a seed grid; the two must agree.

    Returns
    -------
    list of ResonanceReference, sorted by (order, |Re root|).

    Raises
    ------
    DomainError
        If the box touches the left half-plane (the series branch cut and
        the singularity at 0 live there) or n_max exceeds MAX_ORDER.
    IncompleteSearchError
        If the located roots do not match the certified count.
    """
    if n_max > MAX_ORDER or n_max < 0:
        raise DomainError(f"n_max must lie in [0, {MAX_ORDER}]")
    if box.re_lo <= 0.0:
        raise DomainError("search box must lie strictly in the right half-plane")
    if np.hypot(max(abs(box.re_lo), abs(box.re_hi)),
                max(abs(box.im_lo), abs(box.im_hi))) > SUPPORTED_RADIUS:
        raise DomainError("search box exceeds the supported series radius")
    refs = []
    for n in range(n_max + 1):
        count = _argument_principle_count(n, box)
        roots = _newton_cluster(n, box)
        if roots.size != count:
            raise IncompleteSearchError(
                f"order {n}: argument principle certifies {count} roots, "
                f"Newton located {roots.size}; shrink or shift the box")
        roots = sorted(roots, key=lambda zz: abs(zz.real))
        for k, root in enumerate(roots, start=1):
            refs.append(ResonanceReference(
                order=n, index=k, root=complex(root),
                residual=float(abs(hankel1_deriv(n, complex(root))))))
    return refs


def write_reference_csv(refs, path):
    """Write references as CSV rows (n, k, re, im, residual), 17 digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("n,k,re,im,residual\n")
        for ref in refs:
            fh.write(f"{ref.order},{ref.index},{ref.root.real:.17g},"
                     f"{ref.root.imag:.17g},{ref.residual:.17g}\n")


def read_reference_csv(path):
    refs = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != ["n", "k", "re", "im", "residual"]:
            raise ValueError(f"unexpected reference CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            n, k, re, im, resid = line.strip().split(",")
            refs.append(ResonanceReference(
                order=int(n), index=int(k),
                root=complex(float(re), float(im)), residual=float(resid)))
    return refs
