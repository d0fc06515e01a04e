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
  ``(H_n^{(1)})'`` counted by the argument principle, recovered from the
  moments of that contour integral (no further series evaluation) and
  polished by a few Newton sweeps.  The orders share their contour
  levels: each level is one series evaluation of every order not yet
  counted, and each sweep one of orders n - 1 and n together; one more
  measures each polished root's residual, the value the gate checks and
  the search reports.  The moment pencil is solved with numpy alone: the
  seeds are only starting points, and every root is certified after
  Newton, so the reference search runs without loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteSearchError, ValidationError
from .media import Medium, RangeBox
from .scaling import ScalingProfile, _separation

__all__ = [
    "SUPPORTED_RADIUS",
    "MAX_ORDER",
    "hankel1",
    "hankel1_deriv",
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

#: Newton sweeps that polish the moment seeds of one order at most
_POLISH_SWEEPS = 20


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

def _check_cylinder_args(n, z):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"order must be a non-negative integer, got {n!r}")
    if n > MAX_ORDER:
        raise ValidationError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    arr = np.asarray(z, dtype=complex)
    if np.any(arr == 0.0):
        raise ValidationError("cylinder functions are singular at z = 0")
    if arr.size and np.max(np.abs(arr)) > SUPPORTED_RADIUS:
        raise ValidationError(
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
    ValidationError
        For z = 0, |z| beyond the supported radius, or unsupported order.
    """
    arr = _check_cylinder_args(n, z)
    out, = _hankel1_orders((n,), arr)
    return out if np.ndim(z) else complex(out)


def _hankel_table(orders, z: np.ndarray):
    """H^{(1)} on z of orders n - 1 and n (0 and 1 for n = 0), for each n
    in ``orders``, keyed by order, from one series loop."""
    needed = sorted({k for n in orders for k in (max(n - 1, 0), max(n, 1))})
    return dict(zip(needed, _hankel1_orders(needed, z)))


def _derivs(n: int, z: np.ndarray, table):
    """H_n' and H_n'' from a ``_hankel_table``: H'_n = H_{n-1} - (n/z) H_n
    (H'_0 = -H_1), and H_n'' by Bessel's equation."""
    h_n = table[n]
    d1 = -table[1] if n == 0 else table[n - 1] - (n / z) * h_n
    return d1, ((n * n - z * z) * h_n - z * d1) / (z * z)


def hankel1_deriv(n: int, z):
    """First derivative of H_n^{(1)}; uses H'_n = H_{n-1} - (n/z) H_n."""
    arr = _check_cylinder_args(n, z)
    out, _ = _derivs(n, arr, _hankel_table((n,), arr))
    return out if np.ndim(z) else complex(out)


# ---------------------------------------------------------------------------
# complex distance and kernel damping
# ---------------------------------------------------------------------------

def d_sigma(x, y, profile: ScalingProfile, medium: Medium) -> complex:
    """Complex distance sqrt((dt(|x|) x - y)^T sigma^{-1} (dt(|x|) x - y)).

    ``dt`` is the scaled-radius stretch, so the first argument is the
    complex-scaled image of x while y stays physical (|y| below the
    scaling onset by the separation condition, enforced here).  The
    square root is taken on the branch with non-negative imaginary part;
    ties (a real square) keep the non-negative real root.

    Raises
    ------
    ValidationError
        If r1 <= (sigma_max/sigma_min) * |y|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise ValidationError("points must have 2 coordinates, as the medium")
    separated, bound = _separation(profile.r1, medium, float(np.linalg.norm(y)))
    if not separated:
        raise ValidationError(
            f"onset radius r1 = {profile.r1:g} must exceed "
            f"(sigma_max/sigma_min) * |y| = {bound:g}")
    scaled_x = profile.d_tilde(float(np.linalg.norm(x))) * x
    diff = scaled_x - y
    quad = diff @ medium.inv @ diff
    root = np.sqrt(complex(quad))
    if root.imag < 0.0:
        root = -root
    return complex(root)


def damping_rate(omega, profile: ScalingProfile, medium: Medium, direction):
    """Measured vs guaranteed decay rate of the scaled plane kernel.

    Fits the slope of -log|e^{i omega d_sigma(x, y)}| = Im(omega d_sigma)
    at 48 radii x = r*direction, r in [10 r1, 20 r1], with y fixed on the
    circle of radius r0 = 0.9 r1 sigma_min/sigma_max, 90% of the largest
    radius the separation condition allows.

    Returns
    -------
    (measured_rate, bound) : tuple of float
        ``bound = -Re(i omega d0) |d_inf| / sigma_max``.

    Raises
    ------
    ValidationError
        If Re(i omega d0) >= 0 (no damping guaranteed), or if a sample or
        the fit is not finite (the scaled distance overflows).
    """
    omega = complex(omega)
    re_iwd0 = (1j * omega * profile.d0).real
    if re_iwd0 >= 0.0:
        raise ValidationError(
            f"Re(i omega d0) = {re_iwd0:g} >= 0: the scaled kernel need not decay")
    direction = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0 or direction.shape != (2,):
        raise ValidationError("direction must be a nonzero vector of the medium dimension")
    direction = direction / nrm
    y = np.array([0.9 * profile.r1 * medium.sigma_min / medium.sigma_max, 0.0])
    rs = np.linspace(10.0 * profile.r1, 20.0 * profile.r1, 48)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite rate
        log_decay = np.array([(omega * d_sigma(r * direction, y, profile,
                                               medium)).imag for r in rs])
        finite = np.all(np.isfinite(log_decay))
        measured = float(np.polyfit(rs, log_decay, 1)[0]) if finite else np.nan
    if not np.isfinite(measured):
        raise ValidationError("Im(omega d_sigma) is not finite on the ray: "
                              "the scaled distance overflows double precision")
    bound = -re_iwd0 * abs(profile.d_inf) / medium.sigma_max
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


def _logderiv_counts(orders, box: RangeBox, panels: int, rule):
    """Contour integrals (1/2 pi i) oint H_n''/H_n' dz over the box boundary
    for each order n in ``orders``.

    The 16-point Gauss panels (``rule``, from ``leggauss(16)``) of all four
    sides are one series evaluation over 64 * ``panels`` nodes, which
    serves every order.  Returns the nodes and, per order, the integral
    and its quadrature terms, whose sum is the integral.
    """
    corners = np.array([
        box.re_lo + 1j * box.im_lo, box.re_hi + 1j * box.im_lo,
        box.re_hi + 1j * box.im_hi, box.re_lo + 1j * box.im_hi,
        box.re_lo + 1j * box.im_lo])
    a, b = corners[:-1, None, None], corners[1:, None, None]
    length = (b - a) / panels
    t0 = (np.arange(panels) / panels)[:, None]
    gl_x, gl_w = rule
    z = (a + (b - a) * t0) + (0.5 * (gl_x + 1.0)) * length
    weight = (0.5 / (2.0j * np.pi)) * length * gl_w
    nodes = z.ravel()
    table = _hankel_table(orders, nodes)
    integrals = []
    for n in orders:
        d1, d2 = _derivs(n, nodes, table)
        terms = weight * (d2 / d1).reshape(z.shape)
        integrals.append((terms.sum(), terms.ravel()))
    return nodes, integrals


def _argument_principle_counts(n_max: int, box: RangeBox):
    """Certified counts of roots of H_n' in the box for n = 0..n_max.

    Contour levels of 4, 8, ..., 256 panels are shared: each is one
    series evaluation of every order not yet counted.  An order is
    counted when two consecutive levels round to the same integer and the
    second lies within 1e-3 of it.  Returns, per order, the count with the
    nodes and quadrature terms of the level that certified it, or None
    for an order whose count did not stabilize.
    """
    rule = np.polynomial.legendre.leggauss(16)
    counted = [None] * (n_max + 1)
    pending = dict.fromkeys(range(n_max + 1))  # order -> previous rounding
    panels = 4
    while pending and panels <= 256:
        orders = list(pending)
        nodes, integrals = _logderiv_counts(orders, box, panels, rule)
        for n, (val, terms) in zip(orders, integrals):
            rounded = int(np.rint(val.real))
            if abs(val - rounded) < 1e-3 and pending[n] == rounded:
                counted[n] = (rounded, nodes, terms)
                del pending[n]
            else:
                pending[n] = rounded
        del integrals  # one level's terms at a time
        panels *= 2
    return counted


def _moment_seeds(box: RangeBox, count: int, nodes, terms,
                  n: int) -> np.ndarray:
    """The ``count`` roots of order ``n`` inside the contour, from its moments.

    For zeta = (z - c) / r, c the box centre and r its half-diagonal, the
    moments s_p = (1/2 pi i) oint zeta^p H''/H' dz are power sums of the
    scaled roots (Delves & Lyness 1967): the eigenvalues of the Hankel
    pencil (s_{i+j+1}, s_{i+j}) (Kravanja & Van Barel 2000).  H0 is
    regular for distinct roots, so these are the eigenvalues of
    H0^{-1} H1, found by numpy without a QZ solve.  They are only
    Newton's starting points: the polish, the residual gate, the box
    test and the count check certify the roots.  An exactly singular H0
    (a repeated root) is an incomplete search.
    """
    centre = 0.5 * (box.re_lo + box.re_hi) + 0.5j * (box.im_lo + box.im_hi)
    radius = 0.5 * math.hypot(box.re_hi - box.re_lo, box.im_hi - box.im_lo)
    zeta = (nodes - centre) / radius
    moments = zeta ** np.arange(2 * count)[:, None] @ terms
    hankel = np.add.outer(np.arange(count), np.arange(count))
    try:
        scaled = np.linalg.eigvals(
            np.linalg.solve(moments[hankel], moments[hankel + 1]))
    except np.linalg.LinAlgError as exc:
        raise IncompleteSearchError(
            f"order {n}: the moment pencil of {count} roots is singular "
            f"({exc}); a root may be repeated, shrink or shift the box"
        ) from None
    return centre + radius * scaled


def _polish(n: int, box: RangeBox, z: np.ndarray):
    """Distinct roots of (H_n^{(1)})' inside the box, by Newton from seeds,
    sorted, with the residual |H_n'| of each.

    Each sweep steps every seed with one series evaluation, and one more
    measures the residuals of the polished roots.  An iterate that leaves
    the series' supported disk, fails to converge, leaves the box or keeps
    a residual of 1e-10 or more is not located.
    """
    converged = np.zeros(z.size, dtype=bool)
    for _ in range(_POLISH_SWEEPS):
        if not np.all(np.abs(z) <= SUPPORTED_RADIUS):  # also NaN
            break
        d1, d2 = _derivs(n, z, _hankel_table((n,), z))
        step = d1 / d2
        z = z - step
        converged = np.abs(step) < 1e-14 * (1.0 + np.abs(z))
        if converged.all():
            break
    pad = 1e-9  # the caller checks that the box lies in the supported disk
    inside = ((z.real > box.re_lo + pad) & (z.real < box.re_hi - pad)
              & (z.imag > box.im_lo + pad) & (z.imag < box.im_hi - pad))
    z = z[inside & converged]
    residual = np.abs(_derivs(n, z, _hankel_table((n,), z))[0])
    z, residual = z[residual < 1e-10], residual[residual < 1e-10]
    order = np.argsort(z)  # sort_complex's order: by Re, then Im
    z, residual = z[order], residual[order]
    keep = np.abs(np.diff(z, prepend=np.inf)) > 1e-8  # dedupe
    return z[keep], residual[keep]


def find_disk_neumann_references(n_max: int, box: RangeBox):
    """Roots of (H_n^{(1)})' in ``box`` for all orders n <= n_max.

    These are the resonances of the exterior Neumann problem on the unit
    disk.  Every order is counted by the argument principle, all on
    shared contour levels; the moments of an order's contour integral
    give one seed per counted root, which Newton polishes.  The located
    roots must match the count.

    Returns
    -------
    list of ResonanceReference, sorted by (order, |Re root|).

    Raises
    ------
    ValidationError
        If the box touches the left half-plane (the series branch cut and
        the singularity at 0 live there) or n_max exceeds MAX_ORDER.
    IncompleteSearchError
        If an order's count does not stabilize, the located roots do not
        match the certified count, or the moments of an order form a
        singular pencil; the lowest order at fault is reported.
    """
    if n_max > MAX_ORDER or n_max < 0:
        raise ValidationError(f"n_max must lie in [0, {MAX_ORDER}]")
    if box.re_lo <= 0.0:
        raise ValidationError("search box must lie strictly in the right half-plane")
    if np.hypot(max(abs(box.re_lo), abs(box.re_hi)),
                max(abs(box.im_lo), abs(box.im_hi))) > SUPPORTED_RADIUS:
        raise ValidationError("search box exceeds the supported series radius")
    refs = []
    for n, counted in enumerate(_argument_principle_counts(n_max, box)):
        if counted is None:
            raise IncompleteSearchError(
                f"argument-principle contour for order {n} did not "
                "stabilize; a root may lie on or very near the box boundary")
        count, nodes, terms = counted
        if count == 0:
            continue
        roots, residuals = _polish(
            n, box, _moment_seeds(box, count, nodes, terms, n))
        if roots.size != count:
            raise IncompleteSearchError(
                f"order {n}: argument principle certifies {count} roots, "
                f"Newton located {roots.size}; shrink or shift the box")
        located = sorted(zip(roots, residuals),
                         key=lambda pair: abs(pair[0].real))
        for k, (root, residual) in enumerate(located, start=1):
            refs.append(ResonanceReference(
                order=n, index=k, root=complex(root), residual=float(residual)))
    return refs


def write_reference_csv(refs, path):
    """Write references as CSV rows (n, k, re, im, residual), 17 digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("n,k,re,im,residual\n")
        for ref in refs:
            fh.write(f"{ref.order},{ref.index},{ref.root.real:.17g},"
                     f"{ref.root.imag:.17g},{ref.residual:.17g}\n")


def read_reference_csv(path):
    """References from a ``write_reference_csv`` file; a malformed row
    is a ValidationError naming the file and line."""
    refs = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != ["n", "k", "re", "im", "residual"]:
            raise ValidationError(
                f"{path}: unexpected reference CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                n, k, re, im, resid = line.strip().split(",")
                refs.append(ResonanceReference(
                    order=int(n), index=int(k),
                    root=complex(float(re), float(im)), residual=float(resid)))
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: expected five numeric fields, "
                    f"got {line.strip()!r}") from None
    return refs
