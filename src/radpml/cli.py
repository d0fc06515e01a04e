"""Batch front end: configuration files, five commands, artifact emission.

Commands
--------
``check``      sufficient-condition verdicts for a configuration
``reference``  semi-analytic reference roots (exterior disk, Neumann)
``solve``      mesh -> assembly -> eigensolver pipeline, spurious filter,
               CSV + JSON + SVG artifacts
``compare``    nearest-neighbor match of a computed spectrum against a
               reference table
``damping``    measured far-field decay rates along rays vs the
               guaranteed bound

Exit codes: 0 success; 1 pipeline failure (``solve`` names the failing
stage on stderr: mesh, assembly, factorization, eigensolve or
spurious-filter); 2 condition or hypothesis violation; 3 incomplete root
search; 4 unmatched comparison; 64 configuration error (also used for
command-line usage errors and for an output path that cannot be made or
written).

Configuration files are flat INI text with decimal numbers only, and a
key that no setting reads is a configuration error.  The
scaling strength is a single complex literal ``gamma`` such as
``1+0.5i`` (``8i`` is accepted for ``0+8i``), or ``c`` for the
frequency-dependent strength 1/(c - i omega), which is evaluated at the
solver shift's real part (at ``--omega`` for the damping command).  Every
command is deterministic given a configuration and, for ``solve``, the
``--seed`` of the Arnoldi start vector; JSON artifacts embed the SHA-256
hash of the exact configuration bytes.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analytic import (
    MAX_ORDER,
    damping_rate,
    find_disk_neumann_references,
    read_reference_csv,
    write_reference_csv,
)
from .eig import (
    RESIDUAL_DROP,
    Spectrum,
    read_spectrum_csv,
    shift_invert_arnoldi,
    spurious_filter,
    write_spectrum_csv,
    write_spectrum_json,
)
from .errors import (
    ConfigError,
    IncompleteSearchError,
    SingularMatrixError,
    ValidationError,
)
from .fem import CondensedShiftSolver, FunctionSpace
from .media import Medium, RangeBox
from .mesh import DiskObstacle, EllipseObstacle, Geometry, generate
from .scaling import PROFILE_KINDS, ScalingProfile, admissible, gamma_of_omega

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_INCOMPLETE = 3
EXIT_UNMATCHED = 4
EXIT_FAILURE = 1
EXIT_CONFIG = 64

#: layer-width factor of the comparison solve behind the spurious filter
STRETCH = 1.5

_PIPELINE_ERRORS = (ValidationError, SingularMatrixError)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_complex_literal(text: str) -> complex:
    """Complex literal ``a``, ``bi``, or ``a+bi`` (``j`` also accepted)."""
    s = str(text).strip().replace(" ", "")
    try:
        return complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ConfigError(
            f"invalid complex literal {text!r} (expected forms: 1.5, 8i, 1+0.5i)"
        ) from None


_REQUIRED = object()


class _Reader:
    """configparser wrapper that turns every failure into ConfigError
    with section/key diagnostics, and records every (section, key) that
    ``get`` or ``has`` looks up."""

    def __init__(self, path):
        self.path = str(path)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read configuration {path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed configuration: {exc}") from None
        self.parser = parser
        self.looked_up = set()

    def get(self, section, key, cast, default=_REQUIRED):
        self.looked_up.add((section, key))
        raw = self.parser.get(section, key, fallback=None) \
            if self.parser.has_section(section) else None
        if raw is None:
            if default is _REQUIRED:
                if not self.parser.has_section(section):
                    raise ConfigError(
                        f"{self.path}: missing section [{section}]")
                raise ConfigError(
                    f"{self.path}: [{section}] is missing required key {key!r}")
            return default
        try:
            return cast(raw)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        except (TypeError, ValueError):
            raise ConfigError(
                f"[{section}] {key} = {raw!r}: not a valid "
                f"{getattr(cast, '__name__', 'value')}") from None

    def has(self, section, key):
        self.looked_up.add((section, key))
        return self.parser.has_section(section) and self.parser.has_option(section, key)

    def unread(self):
        """``[section] key`` of every key in the file that no lookup asked
        for; a [DEFAULT] key counts as read if any section's lookup read it."""
        defaults = self.parser.defaults()
        read = {key for _, key in self.looked_up}
        names = [f"[{self.parser.default_section}] {key}"
                 for key in defaults if key not in read]
        return names + [f"[{section}] {key}" for section in self.parser.sections()
                        for key in self.parser.options(section)
                        if key not in defaults
                        and (section, key) not in self.looked_up]


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, its scaling profile built once.  Every
    constraint is checked at parse time, before any computation starts,
    the profile's closed-form parameter checks included."""

    sha256: str
    geometry: Geometry
    medium: Medium
    profile: ScalingProfile
    c: float | None
    hmax: float
    p: int
    q: int
    shift: complex
    k: int
    krylov_dim: int | None
    out_dir: str
    reference_csv: str | None
    ref_box: RangeBox
    ref_max_order: int

    def build_profile(self, omega_hint=None):
        """``profile``, whose ``c`` strength is taken at the shift's real
        part; with an ``omega_hint``, a copy with it taken there."""
        if self.c is None or omega_hint is None:
            return self.profile
        return replace(self.profile,
                       gamma=gamma_of_omega(self.c, float(omega_hint)))


def parse_config(path) -> RunConfig:
    """Read and fully validate a configuration file."""
    reader = _Reader(path)
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()

    kind = reader.get("geometry", "obstacle", str).strip().lower()
    try:
        if kind == "disk":
            obstacle = DiskObstacle(reader.get("geometry", "radius", float))
        elif kind == "ellipse":
            obstacle = EllipseObstacle(
                reader.get("geometry", "semi_axis_x", float),
                reader.get("geometry", "semi_axis_y", float))
        else:
            raise ConfigError(
                f"[geometry] obstacle must be 'disk' or 'ellipse', got {kind!r}")
        geometry = Geometry(obstacle,
                            reader.get("geometry", "r1", float),
                            reader.get("geometry", "layer_width", float))
    except ValidationError as exc:
        raise ConfigError(f"[geometry] {exc}") from None

    sigma = np.array(
        [[reader.get("medium", "sigma_xx", float),
          reader.get("medium", "sigma_xy", float, default=0.0)],
         [reader.get("medium", "sigma_xy", float, default=0.0),
          reader.get("medium", "sigma_yy", float)]])
    try:
        medium = Medium(sigma)
    except ValidationError as exc:
        raise ConfigError(f"[medium] {exc}") from None

    profile_kind = reader.get("scaling", "profile", str).strip().lower()
    if profile_kind not in PROFILE_KINDS:
        raise ConfigError(
            f"[scaling] profile must be one of {sorted(PROFILE_KINDS)}, "
            f"got {profile_kind!r}")
    has_gamma = reader.has("scaling", "gamma")
    has_c = reader.has("scaling", "c")
    if has_gamma == has_c:
        raise ConfigError(
            "[scaling] exactly one of 'gamma' and 'c' must be given")
    gamma = reader.get("scaling", "gamma", parse_complex_literal) \
        if has_gamma else None
    c = reader.get("scaling", "c", float) if has_c else None

    profile_cls = PROFILE_KINDS[profile_kind]
    options = {f.name: reader.get("scaling", f.name, float, default=f.default)
               for f in fields(profile_cls)
               if f.init and f.name not in ("r1", "gamma")}

    hmax = reader.get("discretization", "hmax", float)
    if not 0.0 < hmax < np.inf:
        raise ConfigError(
            f"[discretization] hmax must be positive and finite, got {hmax:g}")
    p = reader.get("discretization", "p", int)
    if not 1 <= p <= 6:
        raise ConfigError(f"[discretization] p must lie in [1, 6], got {p}")
    q = reader.get("discretization", "q", int, default=p)
    if not 1 <= q <= 6:
        raise ConfigError(f"[discretization] q must lie in [1, 6], got {q}")

    shift = complex(reader.get("solver", "shift_re", float),
                    reader.get("solver", "shift_im", float))
    for key, part in (("shift_re", shift.real), ("shift_im", shift.imag)):
        if not np.isfinite(part):
            raise ConfigError(f"[solver] {key} must be finite, got {part:g}")
    k = reader.get("solver", "k", int)
    if k < 1:
        raise ConfigError(f"[solver] k must be at least 1, got {k}")
    krylov_dim = reader.get("solver", "krylov_dim", int, default=None)
    if krylov_dim is not None and krylov_dim < 2 * k + 10:
        raise ConfigError(
            f"[solver] krylov_dim must be at least 2k+10 = {2 * k + 10}, "
            f"got {krylov_dim}")

    out_dir = reader.get("output", "directory", str, default="out").strip()
    reference_csv = reader.get("output", "reference", str, default=None)

    try:
        ref_box = RangeBox(reader.get("reference", "re_lo", float, default=0.1),
                           reader.get("reference", "re_hi", float, default=8.0),
                           reader.get("reference", "im_lo", float, default=-3.0),
                           reader.get("reference", "im_hi", float, default=0.0))
    except ValidationError as exc:
        raise ConfigError(f"[reference] {exc}") from None
    ref_max_order = reader.get("reference", "max_order", int, default=6)
    if not 0 <= ref_max_order <= MAX_ORDER:
        raise ConfigError(f"[reference] max_order must lie in "
                          f"[0, {MAX_ORDER}], got {ref_max_order}")
    unread = reader.unread()
    if unread:
        raise ConfigError(
            f"{reader.path}: unknown key(s) {', '.join(unread)} (misspelt, "
            f"or not used by this obstacle or profile kind)")

    try:
        if c is not None:
            gamma = gamma_of_omega(c, shift.real)
        profile = profile_cls(r1=geometry.r1, gamma=gamma, **options)
    except ValidationError as exc:
        raise ConfigError(f"[scaling] {exc}") from None
    return RunConfig(
        sha256=digest, geometry=geometry, medium=medium, profile=profile,
        c=c, hmax=hmax, p=p, q=q, shift=shift, k=k, krylov_dim=krylov_dim,
        out_dir=out_dir, reference_csv=reference_csv, ref_box=ref_box,
        ref_max_order=ref_max_order)


# ---------------------------------------------------------------------------
# SVG scatter
# ---------------------------------------------------------------------------

def _marker(shape, x, y):
    """SVG elements of one scatter marker centred at (x, y): a filled
    "disk", a "cross", an "open" circle or a "plus"."""
    if shape == "disk":
        return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#1f6fb2"/>']
    if shape == "open":
        return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.5" '
                f'fill="none" stroke="#8e6bbf" stroke-width="1.6"/>']
    if shape == "cross":
        return [f'<line x1="{x - 4:.2f}" y1="{y - 4:.2f}" '
                f'x2="{x + 4:.2f}" y2="{y + 4:.2f}" '
                f'stroke="#c0392b" stroke-width="1.8"/>',
                f'<line x1="{x - 4:.2f}" y1="{y + 4:.2f}" '
                f'x2="{x + 4:.2f}" y2="{y - 4:.2f}" '
                f'stroke="#c0392b" stroke-width="1.8"/>']
    return [f'<line x1="{x - 5:.2f}" y1="{y:.2f}" x2="{x + 5:.2f}" '
            f'y2="{y:.2f}" stroke="#2c8a4b" stroke-width="1.6"/>',
            f'<line x1="{x:.2f}" y1="{y - 5:.2f}" x2="{x:.2f}" '
            f'y2="{y + 5:.2f}" stroke="#2c8a4b" stroke-width="1.6"/>']


def render_spectrum_svg(spectrum: Spectrum, references=(),
                        title="computed spectrum") -> str:
    """Standalone SVG scatter of eigenvalues in the complex plane.

    Non-spurious eigenvalues are filled disks, spurious ones crosses,
    ambiguous matches open circles; reference roots overlay as plus
    markers.  No plotting library is involved, so the byte stream is a
    pure function of the inputs.
    """
    width, height = 720.0, 540.0
    left, right, top, bottom = 70.0, 18.0, 40.0, 52.0

    points = [complex(w) for w in spectrum.omegas]
    points.extend(complex(z) for z in references)
    if points:
        re_lo = min(z.real for z in points)
        re_hi = max(z.real for z in points)
        im_lo = min(z.imag for z in points)
        im_hi = max(z.imag for z in points)
    else:
        re_lo, re_hi, im_lo, im_hi = -1.0, 1.0, -1.0, 1.0
    pad_re = 0.08 * ((re_hi - re_lo) or 1.0)
    pad_im = 0.08 * ((im_hi - im_lo) or 1.0)
    re_lo, re_hi = re_lo - pad_re, re_hi + pad_re
    im_lo, im_hi = im_lo - pad_im, im_hi + pad_im

    def sx(value):
        return left + (value - re_lo) / (re_hi - re_lo) * (width - left - right)

    def sy(value):
        return height - bottom - (value - im_lo) / (im_hi - im_lo) \
            * (height - top - bottom)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<text x="{left:.2f}" y="24" font-family="monospace" '
        f'font-size="14" fill="#222222">{title}</text>',
    ]
    for value in np.linspace(re_lo, re_hi, 6):
        x = sx(value)
        out.append(f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" '
                   f'y2="{height - bottom:.2f}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{height - bottom + 18:.2f}" '
                   f'font-family="monospace" font-size="11" fill="#444444" '
                   f'text-anchor="middle">{value:.3g}</text>')
    for value in np.linspace(im_lo, im_hi, 6):
        y = sy(value)
        out.append(f'<line x1="{left:.2f}" y1="{y:.2f}" '
                   f'x2="{width - right:.2f}" y2="{y:.2f}" '
                   f'stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" '
                   f'font-family="monospace" font-size="11" fill="#444444" '
                   f'text-anchor="end">{value:.3g}</text>')
    out.append(f'<rect x="{left:.2f}" y="{top:.2f}" '
               f'width="{width - left - right:.2f}" '
               f'height="{height - top - bottom:.2f}" fill="none" '
               f'stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{(left + width - right) / 2:.2f}" '
               f'y="{height - 10:.2f}" font-family="monospace" font-size="13" '
               f'fill="#222222" text-anchor="middle">Re(omega)</text>')
    out.append(f'<text x="16" y="{(top + height - bottom) / 2:.2f}" '
               f'font-family="monospace" font-size="13" fill="#222222" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(top + height - bottom) / 2:.2f})">Im(omega)</text>')

    for z in references:
        out.extend(_marker("plus", sx(z.real), sy(z.imag)))
    for i, w in enumerate(spectrum.omegas):
        shape = ("cross" if spectrum.spurious[i]
                 else "open" if spectrum.ambiguous[i] else "disk")
        out.extend(_marker(shape, sx(w.real), sy(w.imag)))

    legend = [("resonance", "disk"), ("spurious", "cross"),
              ("ambiguous", "open")]
    if len(references):
        legend.append(("reference", "plus"))
    ly = top + 14.0
    lx = width - right - 128.0
    for label, shape in legend:
        out.extend(_marker(shape, lx + 8.0, ly - 4.0))
        out.append(f'<text x="{lx + 20:.2f}" y="{ly:.2f}" '
                   f'font-family="monospace" font-size="12" '
                   f'fill="#222222">{label}</text>')
        ly += 18.0
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _outputs(config: RunConfig, args, names) -> list[Path]:
    """Paths of the named artifacts in the output directory, made here.

    A directory that cannot be made, or an artifact path that is a
    directory, is a config error naming the path, raised before the
    command computes anything.
    """
    out = Path(getattr(args, "out", None) or config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: "
                          f"{exc.strerror or exc}") from None
    paths = [out / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write {str(path)!r}: it is a directory")
    return paths


@contextmanager
def _writing(path: Path):
    """An artifact that cannot be written is a config error naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _write_json(path: Path, document: dict):
    with _writing(path):
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="ascii")


def cmd_check(args) -> int:
    config = parse_config(args.config)
    path, = _outputs(config, args, ["check.json"])
    r0 = config.geometry.obstacle.extent
    report = admissible(config.profile, config.medium, r0)
    flags = [
        ("separation", report.separation_ok,
         f"(r1 = {config.geometry.r1:g}, "
         f"required > {report.separation_bound:g})"),
        ("coercivity", report.coercivity_ok,
         f"(cos(tau*) = {report.cos_tau_star:.6g}, threshold = {report.threshold:.6g})"),
        ("far-field-decay", report.far_field_ok, ""),
    ]
    for name, ok, detail in flags:
        verdict = "PASS" if ok else "FAIL"
        print(f"check: {name}: {verdict} {detail}".rstrip())
    min_c = "none known" if report.min_c is None else f"{report.min_c:.9g}"
    print(f"check: tau* = {report.tau_star:.9g}, psi* = {report.psi_star:.9g}, "
          f"min stabilizing c = {min_c}")
    for message in report.messages:
        print(f"check: note: {message}")
    _write_json(path, {
        "command": "check",
        "config_sha256": config.sha256,
        "flags": {name: bool(ok) for name, ok, _ in flags},
        "tau_star": report.tau_star,
        "psi_star": report.psi_star,
        "cos_tau_star": report.cos_tau_star,
        "threshold": report.threshold,
        "min_stabilizing_c": report.min_c,
        "all_ok": report.all_ok,
    })
    if report.all_ok:
        print("check: PASS")
        return EXIT_OK
    print("check: FAIL (sufficient conditions are not all met; "
          "the problem may still be solvable)")
    return EXIT_CONDITION


def cmd_reference(args) -> int:
    config = parse_config(args.config)
    path, json_path = _outputs(config, args, ["reference.csv", "reference.json"])
    try:
        refs = find_disk_neumann_references(config.ref_max_order, config.ref_box)
    except IncompleteSearchError as exc:
        print(f"reference: incomplete search: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except ValidationError as exc:
        raise ConfigError(f"[reference] {exc}") from None
    with _writing(path):
        write_reference_csv(refs, path)
    _write_json(json_path, {
        "command": "reference",
        "config_sha256": config.sha256,
        "count": len(refs),
        "max_order": config.ref_max_order,
        "box": {"re_lo": config.ref_box.re_lo, "re_hi": config.ref_box.re_hi,
                "im_lo": config.ref_box.im_lo, "im_hi": config.ref_box.im_hi},
    })
    print(f"reference: wrote {len(refs)} roots to {path}")
    return EXIT_OK


@contextmanager
def _stage(name):
    """Tag a pipeline error raised in the block with the stage it came
    from; the innermost tag wins."""
    try:
        yield
    except _PIPELINE_ERRORS as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def _solve_once(config: RunConfig, seed: int, layer_scale: float = 1.0):
    with _stage("mesh"):
        base = config.geometry
        geometry = Geometry(base.obstacle, base.r1,
                            base.layer_width * layer_scale)
        mesh = generate(geometry, config.hmax, config.q)
    with _stage("assembly"):
        space = FunctionSpace(mesh, config.p)
        # one element pass assembles the pencil and condenses the bubbles
        solver = CondensedShiftSolver(space, config.profile, config.medium,
                                      config.shift ** 2)
    with _stage("factorization"):
        solver.factor()
    with _stage("eigensolve"):
        spectrum = shift_invert_arnoldi(
            solver, config.k, krylov_dim=config.krylov_dim, seed=seed)
    dropped = spectrum.provenance["dropped"]
    if dropped:
        print(f"solve: dropped {dropped} Ritz pair(s) with residual > "
              f"{RESIDUAL_DROP:g}", file=sys.stderr)
    return spectrum, mesh, solver.pencil


def cmd_solve(args) -> int:
    config = parse_config(args.config)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    references = []
    if config.reference_csv:
        try:
            references = [ref.root for ref in read_reference_csv(config.reference_csv)]
        except OSError as exc:
            raise ConfigError(
                f"[output] reference = {config.reference_csv!r}: {exc.strerror} "
                f"(a relative path is taken from the working directory)") from None
        except ValueError as exc:
            raise ConfigError(f"[output] reference: {exc}") from None
    csv_path, json_path, svg_path = _outputs(
        config, args, ["spectrum.csv", "spectrum.json", "spectrum.svg"])
    # The solver's scipy modules are loaded before the first mesh.  Loaded
    # later, between the element pass and the eigensolve, their many small
    # objects split the freed element-pass blocks that the Krylov basis
    # would otherwise reuse: the peak RSS of the p = 6 ellipse at
    # hmax = 0.3 rose from about 466 MB to 556 MB.
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    try:
        # The stretched comparison runs first: it is the larger of the
        # two problems, and solving it before the base pencil exists
        # keeps the peak footprint to one factorization at a time; only
        # its eigenvalues are kept.
        stretched = _solve_once(config, args.seed, layer_scale=STRETCH)[0]
        gc.collect()
        spectrum, mesh, pencil = _solve_once(config, args.seed)
        print(f"solve: {mesh.num_triangles} triangles (q={config.q}), "
              f"{pencil.size} dofs, {len(spectrum)} eigenvalues near "
              f"shift {config.shift:g}")
        with _stage("spurious-filter"):
            spectrum = spurious_filter(spectrum, stretched, STRETCH)
    except _PIPELINE_ERRORS as exc:
        print(f"solve: error at stage {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    n_spurious = int(np.count_nonzero(spectrum.spurious))
    n_ambiguous = int(np.count_nonzero(spectrum.ambiguous))
    print(f"solve: spurious filter at stretch {STRETCH:g}: "
          f"{n_spurious} spurious, {n_ambiguous} ambiguous")

    with _writing(csv_path):
        write_spectrum_csv(spectrum, csv_path)
    with _writing(json_path):
        write_spectrum_json(spectrum, json_path, extra={
            "command": "solve",
            "config_sha256": config.sha256,
            "triangles": int(mesh.num_triangles),
            "dofs": int(pencil.size),
            "layer_stretch": STRETCH,
        })
    title = (f"spectrum near shift {config.shift:g} "
             f"({config.profile.kind} scaling)")
    with _writing(svg_path):
        svg_path.write_text(
            render_spectrum_svg(spectrum, references, title=title),
            encoding="ascii")
    print(f"solve: wrote {csv_path} {json_path} {svg_path}")
    return EXIT_OK


def _read_points_any(path):
    """Complex values from either CSV dialect (spectrum or reference);
    spurious-flagged spectrum rows are excluded."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
        if header.startswith("re_omega"):
            omegas, _, _, spurious = read_spectrum_csv(path)
            return [complex(w) for w in omegas[~spurious]]
        return [ref.root for ref in read_reference_csv(path)]
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_compare(args) -> int:
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(
            f"--tolerance must be finite and >= 0, got {args.tolerance:g}")
    if args.count is not None and args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    computed = _read_points_any(args.computed)
    references = sorted(_read_points_any(args.reference), key=abs)
    count = len(references) if args.count is None else args.count
    count = min(count, len(references))
    tolerance = args.tolerance
    all_ok = True
    matched = 0
    for z in references[:count]:
        if computed:
            nearest = min(computed, key=lambda w: abs(w - z))
            rel = abs(nearest - z) / max(abs(z), 1e-300)
            ok = rel <= tolerance
            status = "OK" if ok else "FAR"
            print(f"compare: ref {z.real:+.9g}{z.imag:+.9g}i  nearest "
                  f"{nearest.real:+.9g}{nearest.imag:+.9g}i  rel_err {rel:.3e}  {status}")
        else:
            ok = False
            print(f"compare: ref {z.real:+.9g}{z.imag:+.9g}i  UNMATCHED "
                  "(no non-spurious computed values)")
        matched += ok
        all_ok &= ok
    print(f"compare: {matched}/{count} references matched within "
          f"{tolerance:g} relative")
    return EXIT_OK if all_ok else EXIT_UNMATCHED


def cmd_damping(args) -> int:
    config = parse_config(args.config)
    omega = args.omega
    if not np.isfinite(omega):
        raise ConfigError(f"--omega must be finite, got {omega:g}")
    rays = args.rays
    if rays < 0:
        raise ConfigError(f"--rays must be >= 0, got {rays}")
    path, = _outputs(config, args, ["damping.json"])
    rows = []
    try:
        profile = config.build_profile(omega_hint=omega)
        for i in range(rays):
            angle = 2.0 * np.pi * i / rays
            direction = (float(np.cos(angle)), float(np.sin(angle)))
            measured, bound = damping_rate(omega, profile, config.medium,
                                           direction)
            rows.append({"angle": angle, "measured": measured, "bound": bound})
            print(f"damping: angle {np.degrees(angle):7.2f} deg  "
                  f"measured {measured:.6f}  bound {bound:.6f}")
    except ValidationError as exc:
        print(f"damping: hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    _write_json(path, {
        "command": "damping",
        "config_sha256": config.sha256,
        "omega": omega,
        "rays": rows,
    })
    print(f"damping: {len(rows)} rays evaluated at omega = {omega:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config-error exit code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radpml",
                     description="resonances of scaled exterior problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="sufficient-condition report")
    p_check.add_argument("config")
    p_check.add_argument("--out", help="output directory override")
    p_check.set_defaults(func=cmd_check)

    p_ref = sub.add_parser("reference", help="semi-analytic reference roots")
    p_ref.add_argument("config")
    p_ref.add_argument("--out", help="output directory override")
    p_ref.set_defaults(func=cmd_reference)

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", help="output directory override")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed of the Arnoldi start vector (default 0)")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="match computed vs reference CSV")
    p_cmp.add_argument("computed")
    p_cmp.add_argument("reference")
    p_cmp.add_argument("--tolerance", type=float, default=1e-2)
    p_cmp.add_argument("--count", type=int, default=None,
                       help="number of leading references that must match "
                            "(default: all)")
    p_cmp.set_defaults(func=cmd_compare)

    p_damp = sub.add_parser("damping", help="ray-wise decay rates vs bound")
    p_damp.add_argument("config")
    p_damp.add_argument("--omega", type=float, default=1.0)
    p_damp.add_argument("--rays", type=int, default=8)
    p_damp.add_argument("--out", help="output directory override")
    p_damp.set_defaults(func=cmd_damping)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
