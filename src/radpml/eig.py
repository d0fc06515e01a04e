"""Shift-invert eigensolver for the complex-symmetric pencil (K, M).

The truncated resonance problem K u = omega^2 M u is affine in omega^2,
so a single linear shift-invert in the omega^2 plane suffices: Arnoldi
iterates v -> (K - sigma_sq M)^{-1} M v with full reorthogonalization,
and a Ritz value theta maps back through omega^2 = sigma_sq + 1/theta.
Physical resonances sit in the lower half plane, so omega is reported on
the Im(omega) <= 0 branch of the square root.

Every returned pair carries its relative residual; pairs worse than
1e-6 are dropped with a warning (Ritz clutter near the shift is
expected, not an error).  Validity against the scaled-resolvent region
is flagged per eigenvalue: in_lambda_d0 is False exactly when
|Re(i omega d0)| <= 1e-10 for the profile's asymptotic direction d0.

Spurious-mode detection re-solves with the damping layer widened by a
stretch factor and matches the two spectra by nearest neighbor:
genuine resonances are insensitive to the layer, discretization
artifacts either lose their partner or travel far.  Matches with two
candidates inside the search radius are flagged ambiguous instead of
spurious.

Factorizations go through SuperLU with its minimum-degree ordering on
A^T + A, in symmetric mode with diagonal pivoting.  A solve probe checks
the factor, and one whose residual exceeds 1e-9 is redone with threshold
partial pivoting.  Small systems (n < 3000) use a dense LU instead, which
also reports the exact pivot index when the matrix is singular.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AccuracyWarning,
    ShiftRejectedError,
    SingularMatrixError,
    ValidationError,
)
from .fem import AssembledPencil, rayleigh_residual

__all__ = [
    "sparse_lu",
    "Spectrum",
    "shift_invert_arnoldi",
    "spurious_filter",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_spectrum_json",
]

#: below this dimension the dense factorization is faster and gives
#: exact pivot diagnostics
DENSE_CUTOFF = 3000

#: residual level beyond which a Ritz pair is considered unconverged
RESIDUAL_DROP = 1e-6

#: margin of the in_lambda_d0 flag: |Re(i omega d0)| <= margin is "outside"
LAMBDA_MARGIN = 1e-10


class _DenseLU:
    method = path = "dense"

    def __init__(self, mat):
        self.n = mat.shape[0]
        self.fill = self.n * self.n
        with warnings.catch_warnings():
            # the exact-zero pivot is re-reported as SingularMatrixError
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
        diag = np.abs(np.diag(lu))
        if np.any(diag == 0.0):
            raise SingularMatrixError(
                f"zero pivot at index {int(np.argmin(diag))}")
        self._lu = (lu, piv)

    def solve(self, b):
        return scipy.linalg.lu_solve(self._lu, b, check_finite=False)


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


def sparse_lu(mat, method: str = "auto"):
    """LU factorization with a ``solve`` method.

    ``method`` is "auto" (dense below ``DENSE_CUTOFF``), "dense", or
    "sparse".

    Raises
    ------
    SingularMatrixError
        On an exactly singular pivot (the dense path and the structural
        check report the offending index).
    """
    if scipy.sparse.issparse(mat):
        mat = mat.tocsc()
    else:
        mat = np.asarray(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError("matrix must be square")
    if method == "auto":
        method = "dense" if mat.shape[0] < DENSE_CUTOFF else "sparse"
    if method == "dense":
        dense = mat.toarray() if scipy.sparse.issparse(mat) else mat
        return _DenseLU(np.asarray(dense, dtype=complex))
    if method == "sparse":
        return _SuperLU(scipy.sparse.csc_matrix(mat, dtype=complex))
    raise ValidationError(f"unknown factorization method {method!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of one shift-invert run, sorted by |omega - shift|.

    ``vectors[:, i]`` is the unit eigenvector of ``omegas[i]`` with its
    largest entry rotated to the positive real axis, which makes repeat
    runs bitwise comparable.  ``ambiguous`` marks eigenvalues whose
    spurious classification could not be decided (two match candidates);
    such entries are never marked spurious.
    """

    omegas: np.ndarray        # (k,) complex, Im <= 0
    vectors: np.ndarray       # (n, k) complex, unit columns
    residuals: np.ndarray     # (k,) float
    in_lambda_d0: np.ndarray  # (k,) bool
    spurious: np.ndarray      # (k,) bool
    ambiguous: np.ndarray     # (k,) bool
    provenance: dict

    def __post_init__(self):
        for name in ("omegas", "vectors", "residuals", "in_lambda_d0",
                     "spurious", "ambiguous"):
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


# Basis matrices beyond this size are backed by a disk file so the kernel
# can evict cold rows under memory pressure instead of the OOM killer
# ending the run; results are bitwise identical either way.
BASIS_MEMMAP_BYTES = 256 * 2**20


def _basis_matrix(m, n):
    if (m + 1) * n * 16 <= BASIS_MEMMAP_BYTES:
        return np.empty((m + 1, n), dtype=complex)
    handle = tempfile.TemporaryFile(prefix="radpml-basis-")
    return np.memmap(handle, dtype=complex, mode="w+", shape=(m + 1, n))


def _arnoldi(apply_op, n, m, rng):
    """Arnoldi basis (rows of v) and Hessenberg h, fully reorthogonalized
    twice per step; returns the basis size reached (< m on breakdown)."""
    v = _basis_matrix(m, n)
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


def shift_invert_arnoldi(pencil: AssembledPencil, shift_sq: complex, k: int,
                         krylov_dim: int | None = None,
                         d0: complex = 1.0 + 0.0j, seed: int = 0,
                         inner=None) -> Spectrum:
    """Up to k eigenpairs of K u = omega^2 M u nearest the shift.

    Parameters
    ----------
    shift_sq : the shift in the omega^2 plane (must not be an eigenvalue).
    k : number of requested pairs.
    krylov_dim : basis size, >= 2k+10 (default 2k+20, capped at n).
    d0 : asymptotic scaling direction used for the in_lambda_d0 flags
        (1 means the flag tests Im(omega) != 0).
    seed : start-vector seed; identical inputs and seed reproduce the
        spectrum bitwise.
    inner : optional prebuilt solver for K - shift_sq*M exposing
        ``solve(b)``, ``method`` and the factor it applies as ``lu``
        (for example a condensed solver); by default the shifted pencil
        is factored here.  Residuals are always measured against the
        full pencil, so a wrong inner solver cannot smuggle in bad pairs.

    Raises
    ------
    ShiftRejectedError
        If K - shift_sq * M is singular (the shift is an eigenvalue).
    """
    if k < 1:
        raise ValidationError("at least one eigenpair must be requested")
    n = pencil.size
    if krylov_dim is None:
        krylov_dim = 2 * k + 20
    elif krylov_dim < 2 * k + 10:
        raise ValidationError("krylov_dim must be at least 2k + 10")
    m = min(krylov_dim, n)
    shift_sq = complex(shift_sq)

    if inner is None:
        try:
            lu = sparse_lu(pencil.stiffness - shift_sq * pencil.mass)
        except SingularMatrixError as exc:
            raise ShiftRejectedError(
                f"shifted pencil is singular ({exc}); move the shift") from exc
    else:
        lu = inner
    mass = pencil.mass

    def apply_op(vec):
        return lu.solve(mass @ vec)

    basis = None
    for attempt in range(4):  # initial run plus up to 3 perturbed restarts
        v, h, mb = _arnoldi(apply_op, n, m, np.random.default_rng(seed + attempt))
        if mb >= min(2 * k, n) or mb == n:
            basis = (v, h, mb)
            break
        basis = (v, h, mb)
    v, h, mb = basis
    restarts = attempt

    theta, y = scipy.linalg.eig(h[:mb, :mb])
    order = np.argsort(-np.abs(theta), kind="stable")

    shift = _lower_branch_sqrt(shift_sq)
    kept_omega = []
    kept_vec = []
    kept_res = []
    dropped = 0
    for idx in order:
        if len(kept_omega) == k:
            break
        th = theta[idx]
        if abs(th) < 1e-300:
            continue
        omega_sq = shift_sq + 1.0 / th
        omega = _lower_branch_sqrt(omega_sq)
        vec = v[:mb].T @ y[:, idx]
        vec = vec / np.linalg.norm(vec)
        top = int(np.argmax(np.abs(vec)))
        vec = vec * (np.conj(vec[top]) / np.abs(vec[top]))
        res = rayleigh_residual(pencil, omega, vec)
        if res > RESIDUAL_DROP:
            dropped += 1
            continue
        kept_omega.append(omega)
        kept_vec.append(vec)
        kept_res.append(res)
    if dropped:
        warnings.warn(
            f"dropped {dropped} Ritz pair(s) with residual > {RESIDUAL_DROP:g}",
            AccuracyWarning, stacklevel=2)

    omegas = np.array(kept_omega, dtype=complex)
    vectors = (np.stack(kept_vec, axis=1) if kept_omega
               else np.zeros((n, 0), dtype=complex))
    residuals = np.array(kept_res, dtype=float)
    sort = np.argsort(np.abs(omegas - shift), kind="stable")
    omegas = omegas[sort]
    vectors = vectors[:, sort]
    residuals = residuals[sort]
    in_lambda = np.abs((1j * omegas * complex(d0)).real) > LAMBDA_MARGIN

    factor = getattr(lu, "lu", lu)  # a condensed solver factors its skeleton
    provenance = {
        "shift_sq": shift_sq, "shift": shift, "k": k, "krylov_dim": m,
        "basis_size": mb, "seed": seed, "restarts": restarts,
        "dropped": dropped, "d0": complex(d0), "solver": lu.method,
        "factor_path": factor.path, "factor_fill": factor.fill,
        "skeleton_size": factor.n,
    }
    flags = np.zeros(len(omegas), dtype=bool)
    return Spectrum(omegas=omegas, vectors=vectors, residuals=residuals,
                    in_lambda_d0=in_lambda, spurious=flags,
                    ambiguous=flags.copy(), provenance=provenance)


def spurious_filter(solve_at_stretch, base: Spectrum, stretch: float,
                    radius: float = 0.5, move_factor: float = 10.0,
                    floor_frac: float = 1.0e-3) -> Spectrum:
    """Flag spurious eigenvalues by re-solving with a stretched layer.

    ``solve_at_stretch(stretch)`` must return the Spectrum of the same
    problem with the damping-layer width multiplied by ``stretch`` and
    everything else fixed.  Base eigenvalues without a partner inside
    ``radius``, or whose movement exceeds the flag threshold
    ``max(move_factor * median matched movement, floor_frac * radius)``,
    are flagged spurious.  The floor keeps the threshold meaningful when
    every matched mode is converged down to the truncation level: the
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
    other = solve_at_stretch(stretch)
    n = len(base)
    spurious = np.zeros(n, dtype=bool)
    ambiguous = np.zeros(n, dtype=bool)
    matched = np.zeros(n, dtype=bool)
    movement = np.full(n, np.nan)
    if len(other):
        dist = np.abs(base.omegas[:, None] - other.omegas[None, :])
        for i in range(n):
            inside = np.sort(dist[i][dist[i] < radius])
            if inside.size == 0:
                spurious[i] = True
                continue
            movement[i] = inside[0]
            if inside.size >= 2 and inside[1] <= 2.0 * inside[0]:
                ambiguous[i] = True
            else:
                matched[i] = True
    else:
        spurious[:] = True
    threshold = np.nan
    median = None
    floor = floor_frac * radius
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
        threshold = max(move_factor * median, floor)
        spurious[matched & (movement > threshold)] = True
    provenance = dict(base.provenance)
    provenance.update({
        "stretch": float(stretch), "match_radius": float(radius),
        "move_factor": float(move_factor), "move_threshold": threshold,
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
    """Arrays (omegas, residuals, in_lambda_d0, spurious) from the CSV."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "re_omega,im_omega,residual,in_lambda_d0,spurious":
            raise ValidationError("not a spectrum CSV (unexpected header)")
        rows = [line.split(",") for line in fh if line.strip()]
    omegas = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    residuals = np.array([float(r[2]) for r in rows])
    in_lambda = np.array([bool(int(r[3])) for r in rows])
    spurious = np.array([bool(int(r[4])) for r in rows])
    return omegas, residuals, in_lambda, spurious


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
