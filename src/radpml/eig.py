"""Shift-invert eigensolver for the complex-symmetric pencil (K, M).

The truncated resonance problem K u = omega^2 M u is affine in omega^2,
so a single linear shift-invert in the omega^2 plane suffices: Arnoldi
iterates v -> (K - sigma_sq M)^{-1} M v with full reorthogonalization,
and a Ritz value theta maps back through omega^2 = sigma_sq + 1/theta.
The pencil, the shift and the inverse all come from one factored
``fem.CondensedShiftSolver``, whose ``factor`` calls ``sparse_lu`` below.
Physical resonances sit in the lower half plane, so omega is reported on
the Im(omega) <= 0 branch of the square root.

The Krylov basis is one (m + 1) x n complex array in memory: full
reorthogonalization reads every row written so far twice per step.  An
invariant Krylov subspace (breakdown) ends the basis early; the basis
reached is used as it stands and its size is recorded.  A fresh random
start vector would reach the same dimension, the degree of the
operator's minimal polynomial, so there is nothing to restart.

Every returned eigenvalue carries the relative residual of its Ritz
vector on the full pencil (``rayleigh_residual``); pairs worse than 1e-6
are dropped and counted in ``provenance["dropped"]`` (Ritz clutter near
the shift is expected, not an error).  The Arnoldi relation gives every
pair's residual from one product with the next basis vector, so a pair
whose estimate exceeds ten times that gate is dropped without forming
its Ritz vector; the others are formed only to measure the residual and
are not kept.  Validity against the scaled-resolvent region is flagged
per eigenvalue: in_lambda_d0 is False exactly when |Re(i omega d0)| <=
1e-10 for the asymptotic direction d0 that the solver took from its own
profile.

Spurious-mode detection compares the spectrum with that of the same
problem with the damping layer widened by a stretch factor, matching the
two by nearest neighbor: genuine resonances are insensitive to the
layer, discretization artifacts either lose their partner or travel
far.  A match whose runner-up candidate lies within twice the nearest
distance is flagged ambiguous instead of spurious.

Every factorization goes through SuperLU with its minimum-degree
ordering on A^T + A, in symmetric mode with diagonal pivoting.  A solve
probe checks the factor, and one whose residual exceeds 1e-9 is redone
with threshold partial pivoting.

scipy is imported inside the functions that factor and solve, so the
commands that solve nothing import this module on numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularMatrixError, ValidationError

__all__ = [
    "sparse_lu",
    "rayleigh_residual",
    "Spectrum",
    "shift_invert_arnoldi",
    "spurious_filter",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_spectrum_json",
]

#: residual level beyond which a Ritz pair is considered unconverged
RESIDUAL_DROP = 1e-6

#: a pair whose Arnoldi residual estimate exceeds this multiple of
#: RESIDUAL_DROP is dropped without forming its Ritz vector
SCREEN_FACTOR = 10.0

#: margin of the in_lambda_d0 flag: |Re(i omega d0)| <= margin is "outside"
LAMBDA_MARGIN = 1e-10

#: spurious filter: a base eigenvalue with no stretched partner inside
#: this radius is spurious
MATCH_RADIUS = 0.5

#: spurious filter: movement flag threshold in units of the median movement
MOVE_FACTOR = 10.0

#: spurious filter: the threshold never drops below this fraction of the
#: match radius
FLOOR_FRAC = 1.0e-3


class _SuperLU:
    """SuperLU with its own fill-reducing ordering and diagonal pivots.

    The pencils are complex symmetric, so the columns are ordered by
    minimum degree on the pattern of A^T + A and factored in symmetric
    mode with pure diagonal pivoting: rows follow the column order, and
    the fill is that of the ordering.  A solve probe guards the missing
    pivoting: if its relative residual (``probe_residual``; inf when the
    diagonal factorization fails outright) exceeds 1e-9, the matrix is
    refactored with threshold partial pivoting and ``fallback`` is True.
    ``fill`` counts the entries SuperLU stores for L and U.
    """

    method = "sparse"

    def __init__(self, mat):
        import scipy.sparse.linalg

        self.n = mat.shape[0]
        empty_cols = np.where(np.diff(mat.indptr) == 0)[0]
        if empty_cols.size:
            raise SingularMatrixError(
                f"zero pivot at index {int(empty_cols[0])} (empty column)")
        self.probe_residual = math.inf
        try:
            self._lu = scipy.sparse.linalg.splu(
                mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
        except RuntimeError:
            self._lu = None
        if self._lu is not None:
            probe = mat @ (np.cos(np.arange(self.n)) + 0.0j)
            err = np.linalg.norm(mat @ self._lu.solve(probe) - probe)
            self.probe_residual = float(
                err / max(np.linalg.norm(probe), 1e-300))
        self.fallback = not self.probe_residual <= 1e-9
        if self.fallback:
            self._lu = None
            try:
                self._lu = scipy.sparse.linalg.splu(
                    mat, permc_spec="MMD_ATA", diag_pivot_thresh=0.1)
            except RuntimeError as exc:
                raise SingularMatrixError(
                    f"factorization failed: {exc}") from exc
        self.path = "sparse-fallback" if self.fallback else "sparse"
        self.fill = int(self._lu.nnz)

    def solve(self, b):
        return self._lu.solve(np.asarray(b, dtype=complex))


def sparse_lu(mat):
    """SuperLU factorization of a square sparse or dense matrix, with a
    ``solve`` method.

    Raises
    ------
    SingularMatrixError
        On an empty column (its index is reported) or when both the
        diagonal and the threshold-pivoting factorization fail.
    """
    import scipy.sparse

    mat = scipy.sparse.csc_matrix(mat, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError("matrix must be square")
    return _SuperLU(mat)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of one shift-invert run, sorted by |omega - shift|.

    ``residuals[i]`` is the relative residual of the Ritz vector of
    ``omegas[i]``; the Ritz vector itself is not kept.  ``ambiguous`` marks
    eigenvalues whose spurious classification could not be decided (two
    match candidates); such entries are never marked spurious.
    """

    omegas: np.ndarray        # (k,) complex, Im <= 0
    residuals: np.ndarray     # (k,) float
    in_lambda_d0: np.ndarray  # (k,) bool
    spurious: np.ndarray      # (k,) bool
    ambiguous: np.ndarray     # (k,) bool
    provenance: dict

    def __post_init__(self):
        for name in ("omegas", "residuals", "in_lambda_d0", "spurious",
                     "ambiguous"):
            getattr(self, name).setflags(write=False)

    def __len__(self):
        return self.omegas.shape[0]


def _lower_branch_sqrt(z: complex) -> complex:
    """Square root on the branch with non-positive imaginary part.

    Values whose imaginary part is at roundoff level relative to the real
    part are treated as real first, so a physically real eigenvalue is
    reported on the standard branch (positive real axis) instead of having
    its sign decided by 1e-19 arithmetic noise.
    """
    z = complex(z)
    if abs(z.imag) <= 8.0 * np.finfo(float).eps * abs(z.real):
        if z.real >= 0.0:
            return complex(math.sqrt(z.real))
        return complex(0.0, -math.sqrt(-z.real))
    w = complex(np.sqrt(z))
    return -w if w.imag > 0.0 else w


def _arnoldi(apply_op, n, m, rng):
    """Arnoldi basis (rows of v) and Hessenberg h, fully reorthogonalized
    twice per step; returns the basis size reached (< m on breakdown)."""
    v = np.empty((m + 1, n), dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[0] = start / np.linalg.norm(start)
    for j in range(m):
        w = apply_op(v[j])
        for _ in range(2):
            # conj(v @ conj(w)) equals conj(v) @ w without copying the basis
            coeffs = (v[:j + 1] @ w.conj()).conj()
            w = w - v[:j + 1].T @ coeffs
            h[:j + 1, j] += coeffs
        norm_w = np.linalg.norm(w)
        scale = np.linalg.norm(h[:j + 2, :j + 1])
        if norm_w <= 1e-13 * max(scale, 1e-300):
            return v, h, j + 1
        h[j + 1, j] = norm_w
        v[j + 1] = w / norm_w
    return v, h, m


def rayleigh_residual(pencil, omega: complex, u: np.ndarray) -> float:
    """|| K u - omega^2 M u || / (||u|| (||K||_F + |omega^2| ||M||_F))
    on a ``fem.AssembledPencil``."""
    u = np.asarray(u)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValidationError("eigenvector must be nonzero")
    omega_sq = complex(omega) ** 2
    resid = np.linalg.norm(pencil.stiffness @ u - omega_sq * (pencil.mass @ u))
    k_norm, m_norm = pencil.frobenius_norms
    return float(resid / (nrm * (k_norm + abs(omega_sq) * m_norm)))


def _ritz_estimates(solver, v, h, mb, theta, y):
    """Relative residual of every Ritz pair, read off the Arnoldi relation.

    With A = K - shift_sq*M and T = A^{-1} M, the relation
    T V = V H + beta v+ e_m^T gives, for u = V y and omega^2 =
    shift_sq + 1/theta,  K u - omega^2 M u = -(beta y_m / theta) A v+,
    so one product with the next basis vector v+ prices every candidate.
    After a breakdown (mb below the requested size) the basis is
    invariant, the remainder is zero and v+ was never written.
    """
    if mb < h.shape[1]:
        return np.zeros(theta.shape)
    pencil = solver.pencil
    tail = v[mb]
    remainder = abs(h[mb, mb - 1]) * np.linalg.norm(
        pencil.stiffness @ tail - solver.shift_sq * (pencil.mass @ tail))
    k_norm, m_norm = pencil.frobenius_norms
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_sq = solver.shift_sq + 1.0 / theta
        return (remainder * np.abs(y[-1])
                / (np.abs(theta) * np.linalg.norm(y, axis=0)
                   * (k_norm + np.abs(omega_sq) * m_norm)))


def shift_invert_arnoldi(solver, k: int, krylov_dim: int | None = None,
                         seed: int = 0) -> Spectrum:
    """Up to k eigenvalues of K u = omega^2 M u nearest the solver's shift.

    Parameters
    ----------
    solver : a factored ``fem.CondensedShiftSolver``.  Its ``pencil`` is
        (K, M), ``shift_sq`` the shift in the omega^2 plane, ``solve``
        applies (K - shift_sq*M)^{-1}, ``lu`` is the skeleton factor
        whose path, fill and size go into the provenance, and ``d0`` is
        the asymptotic scaling direction of the profile the pencil was
        built from, which the in_lambda_d0 flags test.  Residuals are
        measured against the full pencil, so a wrong solve cannot
        smuggle in bad pairs.
    k : number of requested pairs.
    krylov_dim : basis size, >= 2k+10 (default 2k+20, capped at n).
    seed : start-vector seed; identical inputs and seed reproduce the
        spectrum bitwise.
    """
    import scipy.linalg

    if k < 1:
        raise ValidationError("at least one eigenpair must be requested")
    pencil = solver.pencil
    n = pencil.size
    if krylov_dim is None:
        krylov_dim = 2 * k + 20
    elif krylov_dim < 2 * k + 10:
        raise ValidationError("krylov_dim must be at least 2k + 10")
    m = min(krylov_dim, n)
    shift_sq = solver.shift_sq
    mass = pencil.mass

    def apply_op(vec):
        return solver.solve(mass @ vec)

    v, h, mb = _arnoldi(apply_op, n, m, np.random.default_rng(seed))
    theta, y = scipy.linalg.eig(h[:mb, :mb])
    order = np.argsort(-np.abs(theta), kind="stable")
    estimates = _ritz_estimates(solver, v, h, mb, theta, y)

    shift = _lower_branch_sqrt(shift_sq)
    kept_omega = []
    kept_res = []
    dropped = 0
    for idx in order:
        if len(kept_omega) == k:
            break
        th = theta[idx]
        if abs(th) < 1e-300:
            continue
        if estimates[idx] > SCREEN_FACTOR * RESIDUAL_DROP:
            dropped += 1
            continue
        omega = _lower_branch_sqrt(shift_sq + 1.0 / th)
        res = rayleigh_residual(pencil, omega, v[:mb].T @ y[:, idx])
        if res > RESIDUAL_DROP:
            dropped += 1
            continue
        kept_omega.append(omega)
        kept_res.append(res)

    omegas = np.array(kept_omega, dtype=complex)
    residuals = np.array(kept_res, dtype=float)
    sort = np.argsort(np.abs(omegas - shift), kind="stable")
    omegas = omegas[sort]
    residuals = residuals[sort]
    in_lambda = np.abs((1j * omegas * solver.d0).real) > LAMBDA_MARGIN

    provenance = {
        "shift_sq": shift_sq, "shift": shift, "k": k, "krylov_dim": m,
        "basis_size": mb, "seed": seed, "dropped": dropped,
        "d0": complex(solver.d0), "solver": "condensed",
        "factor_path": solver.lu.path, "factor_fill": solver.lu.fill,
        "skeleton_size": solver.lu.n,
    }
    flags = np.zeros(len(omegas), dtype=bool)
    return Spectrum(omegas=omegas, residuals=residuals,
                    in_lambda_d0=in_lambda, spurious=flags,
                    ambiguous=flags.copy(), provenance=provenance)


def spurious_filter(base: Spectrum, stretched: Spectrum,
                    stretch: float) -> Spectrum:
    """Flag spurious eigenvalues of ``base`` against a stretched layer.

    ``stretched`` is the Spectrum of the same problem with the
    damping-layer width multiplied by ``stretch`` and everything else
    fixed.  Base eigenvalues without a partner inside ``MATCH_RADIUS``,
    or whose movement exceeds the flag threshold ``max(MOVE_FACTOR *
    median matched movement, FLOOR_FRAC * MATCH_RADIUS)``, are flagged
    spurious.  The floor keeps the threshold meaningful when every
    matched mode is converged down to the truncation level: the
    median is then pure reproducibility noise, and without the floor a
    weakly damped (but perfectly physical) mode whose truncation error
    is merely larger than its neighbours' would be flagged.  The median
    itself is taken over the partner movements at or below the floor —
    the demonstrably stretch-stable population — so a window where
    drifting artifacts outnumber physical modes cannot inflate the
    threshold and mask them; when no movement is that small, every
    partnered movement enters.  A match is ambiguous — flagged as such, never
    spurious — when the runner-up candidate is essentially as close as
    the nearest one (within a factor of two), so the assignment itself
    is uncertain; a partner at the eigenvalue's exact position is never
    ambiguous, which makes the identity stretch a guaranteed no-flag run.
    """
    if not stretch >= 1.0:
        raise ValidationError("layer stretch must be >= 1")
    n = len(base)
    spurious = np.zeros(n, dtype=bool)
    ambiguous = np.zeros(n, dtype=bool)
    matched = np.zeros(n, dtype=bool)
    movement = np.full(n, np.nan)
    dist = np.abs(base.omegas[:, None] - stretched.omegas[None, :])
    for i in range(n):
        inside = np.sort(dist[i][dist[i] < MATCH_RADIUS])
        if inside.size == 0:
            spurious[i] = True
            continue
        movement[i] = inside[0]
        if inside.size >= 2 and inside[1] <= 2.0 * inside[0]:
            ambiguous[i] = True
        else:
            matched[i] = True
    threshold = np.nan
    median = None
    floor = FLOOR_FRAC * MATCH_RADIUS
    has_partner = matched | ambiguous
    if np.any(has_partner):
        # The median estimates the reproducibility scale of physical
        # resonances, so it is taken over the movements that are already
        # at noise level (at or below the floor); otherwise a window
        # dominated by drifting artifacts would inflate the threshold
        # past its own members.  Ambiguous matches contribute to the
        # median (the tie is about identity, not distance) but only
        # unambiguous matches can be flagged by it.
        stable = has_partner & (movement <= floor)
        pool = movement[stable if np.any(stable) else has_partner]
        median = float(np.median(pool))
        threshold = max(MOVE_FACTOR * median, floor)
        spurious[matched & (movement > threshold)] = True
    provenance = dict(base.provenance)
    provenance.update({
        "stretch": float(stretch), "match_radius": MATCH_RADIUS,
        "move_factor": MOVE_FACTOR, "move_threshold": threshold,
        "move_floor": float(floor),
        "matched": int(np.count_nonzero(matched)),
        "median_movement": median,
        "movements": [float(m) if np.isfinite(m) else None
                      for m in movement],
    })
    return replace(base, spurious=spurious, ambiguous=ambiguous,
                   provenance=provenance)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_spectrum_csv(spectrum: Spectrum, path):
    """Five-column CSV; flags as 0/1, floats at 17 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re_omega,im_omega,residual,in_lambda_d0,spurious\n")
        for i, omega in enumerate(spectrum.omegas):
            fh.write(f"{omega.real:.17g},{omega.imag:.17g},"
                     f"{spectrum.residuals[i]:.17g},"
                     f"{int(spectrum.in_lambda_d0[i])},"
                     f"{int(spectrum.spurious[i])}\n")


def read_spectrum_csv(path):
    """Arrays (omegas, residuals, in_lambda_d0, spurious) from the CSV,
    typed complex, float, bool and bool even when there are no rows.
    A flag is 0 or 1, as the writer writes it."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "re_omega,im_omega,residual,in_lambda_d0,spurious":
            raise ValidationError(
                f"{path}: not a spectrum CSV (unexpected header {header!r})")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                re, im, res, in_lambda, spurious = line.strip().split(",")
                omega, residual = complex(float(re), float(im)), float(res)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: expected five numeric fields, "
                    f"got {line.strip()!r}") from None
            if not {in_lambda, spurious} <= {"0", "1"}:
                raise ValidationError(
                    f"{path}: line {lineno}: flags must be 0 or 1, "
                    f"got {line.strip()!r}")
            rows.append((omega, residual, in_lambda == "1", spurious == "1"))
    columns = list(zip(*rows)) or [()] * 4
    return tuple(np.array(col, dtype=dtype)
                 for col, dtype in zip(columns, (complex, float, bool, bool)))


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def write_spectrum_json(spectrum: Spectrum, path, extra: dict | None = None):
    """JSON document with per-eigenvalue records and full provenance."""
    doc = {
        "provenance": {k: _jsonable(v) for k, v in spectrum.provenance.items()},
        "eigenvalues": [
            {
                "re_omega": spectrum.omegas[i].real,
                "im_omega": spectrum.omegas[i].imag,
                "residual": float(spectrum.residuals[i]),
                "in_lambda_d0": bool(spectrum.in_lambda_d0[i]),
                "spurious": bool(spectrum.spurious[i]),
                "ambiguous": bool(spectrum.ambiguous[i]),
            }
            for i in range(len(spectrum))
        ],
    }
    if extra:
        doc.update({k: _jsonable(v) for k, v in extra.items()})
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
