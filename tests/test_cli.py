"""Command-line front end: configuration parsing, the five commands,
artifact determinism, and exit codes."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import radpml
from radpml.analytic import read_reference_csv
from radpml.cli import (
    EXIT_CONDITION,
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_UNMATCHED,
    main,
    parse_complex_literal,
    parse_config,
    render_spectrum_svg,
)
from radpml.eig import Spectrum, read_spectrum_csv
from radpml.errors import ConfigError, SingularMatrixError, ValidationError
from radpml.fem import CondensedShiftSolver

REPO = Path(__file__).resolve().parent.parent

DEFAULTS = {
    "geometry": {"obstacle": "disk", "radius": "1.0", "r1": "1.5",
                 "layer_width": "2.0"},
    "medium": {"sigma_xx": "1.0", "sigma_xy": "0.0", "sigma_yy": "1.0"},
    "scaling": {"profile": "affine", "gamma": "8i"},
    "discretization": {"hmax": "0.5", "p": "3", "q": "2"},
    "solver": {"shift_re": "1.5", "shift_im": "-1.0", "k": "6"},
    "output": {"directory": ""},
}


def write_config(tmp_path, name="run.cfg", drop=(), **overrides):
    """Config file from DEFAULTS with {section: {key: value}} overrides;
    ``drop`` removes ("section", "key") pairs or whole ("section",) tuples."""
    sections = {s: dict(kv) for s, kv in DEFAULTS.items()}
    sections["output"]["directory"] = str(tmp_path / "out")
    for section, kv in overrides.items():
        sections.setdefault(section, {}).update(
            {k: str(v) for k, v in kv.items()})
    for entry in drop:
        if len(entry) == 1:
            sections.pop(entry[0], None)
        else:
            sections.get(entry[0], {}).pop(entry[1], None)
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in kv.items())
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def make_spectrum(omegas, spurious=None, ambiguous=None):
    omegas = np.asarray(omegas, dtype=complex)
    n = len(omegas)
    false = np.zeros(n, dtype=bool)
    return Spectrum(
        omegas=omegas,
        residuals=np.full(n, 1e-12),
        in_lambda_d0=np.ones(n, dtype=bool),
        spurious=false.copy() if spurious is None else np.asarray(spurious),
        ambiguous=false.copy() if ambiguous is None else np.asarray(ambiguous),
        provenance={"seed": 0},
    )


def write_reference_file(path, roots):
    lines = ["n,k,re,im,residual"]
    for i, z in enumerate(roots):
        lines.append(f"{i},1,{z.real!r},{z.imag!r},1e-12")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


class TestComplexLiteral:
    @pytest.mark.parametrize("text,value", [
        ("8i", 8j),
        ("8j", 8j),
        ("1+0.5i", 1 + 0.5j),
        ("1-0.5j", 1 - 0.5j),
        ("-i", -1j),
        ("+i", 1j),
        ("1e-3i", 1e-3j),
        ("2.5", 2.5 + 0j),
        ("-3", -3 + 0j),
        (" 1 + 2i ", 1 + 2j),
    ])
    def test_valid_forms(self, text, value):
        assert parse_complex_literal(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "1..2i", "i+i", "++i"])
    def test_invalid_forms_raise(self, text):
        with pytest.raises(ConfigError):
            parse_complex_literal(text)


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        path = write_config(tmp_path)
        config = parse_config(path)
        assert config.profile.gamma == 8j
        assert config.p == 3 and config.q == 2
        assert config.shift == 1.5 - 1.0j
        assert config.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path, drop=[("medium",)])
        with pytest.raises(ConfigError, match=r"\[medium\]"):
            parse_config(path)

    def test_missing_key(self, tmp_path):
        path = write_config(tmp_path, drop=[("discretization", "hmax")])
        with pytest.raises(ConfigError, match="hmax"):
            parse_config(path)

    def test_order_out_of_range(self, tmp_path):
        path = write_config(tmp_path, discretization={"p": "7"})
        with pytest.raises(ConfigError, match=r"p must lie in \[1, 6\]"):
            parse_config(path)

    def test_unknown_obstacle(self, tmp_path):
        path = write_config(tmp_path, geometry={"obstacle": "square"})
        with pytest.raises(ConfigError, match="disk.*ellipse"):
            parse_config(path)

    def test_gamma_and_c_are_exclusive(self, tmp_path):
        path = write_config(tmp_path, scaling={"c": "0.5"})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(path)

    def test_omega_dependent_profile_built_at_shift(self, tmp_path):
        path = write_config(tmp_path, drop=[("scaling", "gamma")],
                            scaling={"c": "0.5"})
        config = parse_config(path)
        profile = config.build_profile()
        assert profile.gamma == pytest.approx(1.0 / (0.5 - 1.5j))
        profile_at_two = config.build_profile(omega_hint=2.0)
        assert profile_at_two.gamma == pytest.approx(1.0 / (0.5 - 2.0j))

    def test_small_krylov_rejected(self, tmp_path):
        path = write_config(tmp_path, solver={"krylov_dim": "12"})
        with pytest.raises(ConfigError, match="2k\\+10"):
            parse_config(path)

    @pytest.mark.parametrize("section,key,value,message", [
        ("discretization", "hmax", "0", "hmax must be positive and finite"),
        ("discretization", "hmax", "inf", "hmax must be positive and finite"),
        ("discretization", "hmax", "nan", "hmax must be positive and finite"),
        ("geometry", "layer_width", "inf", "layer width must be positive and finite"),
        ("geometry", "layer_width", "nan", "layer width must be positive and finite"),
        ("geometry", "r1", "inf", "[geometry] r1 must be finite"),
        ("solver", "shift_re", "nan", "[solver] shift_re must be finite"),
        ("solver", "shift_im", "-inf", "[solver] shift_im must be finite"),
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, section,
                                              key, value, message):
        """``layer_width = inf`` used to end in an OverflowError traceback
        from the mesh generator, ``hmax = inf`` meshed at the 8-sector
        floor, a non-finite shift failed at stage ``factorization``
        as a singular shifted pencil, and ``r1 = inf`` was reported
        under ``[scaling]``."""
        path = write_config(tmp_path, **{section: {key: value}})
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "reference", "solve",
                                         "damping"])
    @pytest.mark.parametrize("geometry, message", [
        ({"radius": "-1"}, "disk radius must be positive"),
        ({"radius": "0"}, "disk radius must be positive"),
        ({"radius": "nan"}, "disk radius must be positive"),
        ({"obstacle": "ellipse", "semi_axis_x": "-1", "semi_axis_y": "1"},
         "ellipse semi-axes must be positive"),
        ({"obstacle": "ellipse", "semi_axis_x": "0.5", "semi_axis_y": "nan"},
         "ellipse semi-axes must be positive"),
    ], ids=["radius-negative", "radius-zero", "radius-nan",
            "semi-axis-x-negative", "semi-axis-y-nan"])
    def test_bad_obstacle_size_is_config_error(self, tmp_path, capsys,
                                               command, geometry, message):
        """The obstacle used to be built outside the ``[geometry]``
        conversion, so each of these ended every command in a
        traceback (exit 1)."""
        drop = [("geometry", "radius")] if "obstacle" in geometry else []
        path = write_config(tmp_path, drop=drop, geometry=geometry)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert f"config error: [geometry] {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "reference", "solve",
                                         "damping"])
    def test_max_order_above_supported_is_config_error(self, tmp_path,
                                                       capsys, command):
        """``max_order = 25`` used to pass parsing: ``reference`` then
        reported it as the API's ``n_max``, and the other commands
        accepted the file."""
        path = write_config(tmp_path, reference={"max_order": "25"})
        assert main([command, str(path)]) == EXIT_CONFIG
        assert "config error: [reference] max_order must lie in [0, 20], " \
            "got 25" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        """A byte that is not UTF-8 used to end ``check`` in a
        UnicodeDecodeError traceback (exit 1)."""
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8")):
            parse_config(path)
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert f"{path}: not UTF-8" in capsys.readouterr().err

    def test_misspelt_key_rejected(self, tmp_path, capsys):
        """``krylov_dm`` used to parse, and the run silently took the
        default basis of 2k+20.  ``refinements`` is no longer a key:
        ``hmax`` alone sets the mesh size.  Nor are ``omega_dependent``
        (``c`` alone selects the frequency-dependent strength),
        ``formats`` (``solve`` writes all three artifacts), ``seed``
        (``solve --seed``) or ``stretch`` (a constant of the filter)."""
        for section, key, value in [("solver", "krylov_dm", "80"),
                                    ("discretization", "refinements", "1"),
                                    ("scaling", "omega_dependent", "false"),
                                    ("output", "formats", "csv,json,svg"),
                                    ("solver", "seed", "0"),
                                    ("solver", "stretch", "1.5")]:
            path = write_config(tmp_path, **{section: {key: value}})
            name = f"[{section}] {key}"
            with pytest.raises(ConfigError, match=re.escape(name)):
                parse_config(path)
            assert main(["check", str(path)]) == EXIT_CONFIG
            assert name in capsys.readouterr().err

    def test_key_of_another_profile_kind_rejected(self, tmp_path):
        """The affine profile fixes the family's ``exponent`` and
        ``amax``, so, like the ramp's ``width``, they are unknown keys."""
        for key, value in [("width", "0.7"), ("exponent", "1.0"),
                           ("amax", "1.0")]:
            path = write_config(tmp_path, scaling={key: value})
            with pytest.raises(ConfigError, match=rf"\[scaling\] {key}"):
                parse_config(path)

    def test_default_section_key_counts_as_read_anywhere(self, tmp_path):
        path = write_config(tmp_path, DEFAULT={"krylov_dim": "40"})
        assert parse_config(path).krylov_dim == 40
        path = write_config(tmp_path, DEFAULT={"colour": "red"})
        with pytest.raises(ConfigError, match=r"\[DEFAULT\] colour"):
            parse_config(path)

    @pytest.mark.parametrize("name", ["disk.cfg", "ellipse.cfg"])
    def test_shipped_configs_parse(self, name):
        parse_config(REPO / "configs" / name)


class TestCheckCommand:
    def test_isotropic_disk_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["check", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "check: PASS" in out
        assert "coercivity: PASS" in out
        document = json.loads((tmp_path / "out" / "check.json").read_text())
        assert document["all_ok"] is True
        assert document["config_sha256"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()

    def test_anisotropic_ellipse_fails_conditions(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            drop=[("geometry", "radius")],
            geometry={"obstacle": "ellipse", "semi_axis_x": "0.5",
                      "semi_axis_y": "1.0", "r1": "1.5", "layer_width": "2.0"},
            medium={"sigma_xx": "0.25", "sigma_xy": "0.0", "sigma_yy": "1.0"})
        assert main(["check", str(path)]) == EXIT_CONDITION
        out = capsys.readouterr().out
        assert "coercivity: FAIL" in out
        assert "min stabilizing c" in out
        document = json.loads((tmp_path / "out" / "check.json").read_text())
        assert document["all_ok"] is False

    def test_paper_medium_numbers(self, tmp_path, capsys):
        """``configs/ellipse.cfg`` (affine 8i, sigma = diag(0.25, 1), r0 = 1)
        against closed forms: tau* = arctan 8, threshold 1 - 0.25/1,
        psi* = atan2(sin tau*, cos tau* - 0.75), and the c that makes
        1/sqrt(1 + 1/(4(c^2 + c))) reach 0.75."""
        code = main(["check", str(REPO / "configs" / "ellipse.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONDITION
        assert "separation: FAIL (r1 = 1.5, required > 4)" in \
            capsys.readouterr().out
        document = json.loads((tmp_path / "check.json").read_text())
        sin_tau, cos_tau = 8.0 / np.sqrt(65.0), 1.0 / np.sqrt(65.0)
        assert document["tau_star"] == pytest.approx(np.arctan(8.0),
                                                     rel=1e-15)
        assert document["cos_tau_star"] == pytest.approx(cos_tau, rel=1e-14)
        assert document["threshold"] == 0.75
        assert document["psi_star"] == pytest.approx(
            np.arctan2(sin_tau, cos_tau - 0.75), rel=1e-14)
        assert document["min_stabilizing_c"] == pytest.approx(
            (np.sqrt(16.0 / 7.0) - 1.0) / 2.0, rel=1e-14)

    def test_each_failing_condition_reported_once(self, tmp_path, capsys):
        """A failing flag line is the one report of its condition; the
        notes add only what no flag line says."""
        code = main(["check", str(REPO / "configs" / "ellipse.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONDITION
        assert capsys.readouterr().out == (
            "check: separation: FAIL (r1 = 1.5, required > 4)\n"
            "check: coercivity: FAIL (cos(tau*) = 0.124035, "
            "threshold = 0.75)\n"
            "check: far-field-decay: PASS\n"
            "check: tau* = 1.44644133, psi* = 2.13358179, "
            "min stabilizing c = 0.255928946\n"
            "check: note: psi_star is the argument of a number with "
            "non-positive real part\n"
            "check: FAIL (sufficient conditions are not all met; the "
            "problem may still be solvable)\n")
        document = json.loads((tmp_path / "check.json").read_text())
        assert set(document["flags"]) == {"separation", "coercivity",
                                          "far-field-decay"}

    @pytest.mark.parametrize("scaling, printed, value", [
        ({"profile": "smoothed-polynomial", "exponent": "3", "amax": "0.8"},
         "0.61422947", 2.4 * (np.sqrt(16.0 / 7.0) - 1.0) / 2.0),
        ({"profile": "constant-after-ramp"}, "none known", None)],
        ids=["smoothed", "ramp"])
    def test_min_stabilizing_c_follows_the_profile_kind(
            self, tmp_path, capsys, scaling, printed, value):
        """On configs/ellipse.cfg's medium the polynomial family's c is
        amax m times the affine one, and the ramp has no known bound; an
        isotropic medium needs none for any kind."""
        path = write_config(
            tmp_path, scaling=scaling,
            medium={"sigma_xx": "0.25", "sigma_xy": "0.0", "sigma_yy": "1.0"})
        assert main(["check", str(path)]) == EXIT_CONDITION
        assert f"min stabilizing c = {printed}\n" in capsys.readouterr().out
        document = json.loads((tmp_path / "out" / "check.json").read_text())
        assert document["min_stabilizing_c"] == (
            None if value is None else pytest.approx(value, rel=1e-15))
        isotropic = write_config(tmp_path, name="iso.cfg", scaling=scaling)
        assert main(["check", str(isotropic)]) == EXIT_OK
        assert "min stabilizing c = 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("width", ["3000", "1e5", "1e306"])
    def test_wide_ramp_passes_far_field_decay(self, tmp_path, capsys, width):
        """A ramp is constant beyond its end, however far that lies: even
        r1 + width = 1e306, whose 1e3 multiple overflows, builds and
        passes."""
        path = write_config(tmp_path, scaling={
            "profile": "constant-after-ramp", "width": width})
        assert main(["check", str(path)]) == EXIT_OK
        assert "check: far-field-decay: PASS\n" in capsys.readouterr().out


class TestReferenceCommand:
    def test_writes_roots(self, tmp_path, capsys):
        path = write_config(tmp_path, reference={"max_order": "2"})
        assert main(["reference", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "reference.csv").read_text().splitlines()
        assert lines[0] == "n,k,re,im,residual"
        assert len(lines) > 1
        document = json.loads((tmp_path / "out" / "reference.json").read_text())
        assert document["count"] == len(lines) - 1

    def test_bad_box_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, reference={"re_lo": "-0.5"})
        assert main(["reference", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [reference] search box must lie strictly in the "
            "right half-plane\n")

    @pytest.mark.parametrize("key, value", [("re_lo", "nan"),
                                            ("im_lo", "-inf")])
    def test_non_finite_box_is_config_error(self, tmp_path, capsys, key,
                                            value):
        """``re_lo = nan`` used to pass the box check and end in a
        ValueError traceback from the argument-principle count."""
        path = write_config(tmp_path, reference={key: value})
        assert main(["reference", str(path)]) == EXIT_CONFIG
        assert "config error: [reference] range box bounds must be finite" \
            in capsys.readouterr().err

    def test_non_numeric_box_names_its_section_once(self, tmp_path, capsys):
        """The range-box conversion used to catch the reader's own
        ConfigError and prefix ``[reference]`` a second time."""
        path = write_config(tmp_path, reference={"re_lo": "x"})
        assert main(["reference", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: [reference] re_lo = 'x': not a valid float\n"

    def test_out_override(self, tmp_path):
        path = write_config(tmp_path, reference={"max_order": "0"})
        override = tmp_path / "elsewhere"
        assert main(["reference", str(path), "--out", str(override)]) == EXIT_OK
        assert (override / "reference.csv").exists()


class TestSolveCommand:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        out_dir = tmp_path / "out"
        assert (out_dir / "spectrum.csv").exists()
        assert (out_dir / "spectrum.svg").exists()
        printed = capsys.readouterr().out
        assert "spurious filter at stretch 1.5" in printed
        document = json.loads((out_dir / "spectrum.json").read_text())
        assert document["command"] == "solve"
        assert document["config_sha256"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()
        assert document["dofs"] > 0 and document["triangles"] > 0
        provenance = document["provenance"]
        assert provenance["solver"] == "condensed"
        # p = 3 leaves one bubble per triangle off the skeleton, which
        # factors without the pivoting fallback
        assert provenance["skeleton_size"] == \
            document["dofs"] - document["triangles"]
        assert provenance["factor_path"] == "sparse"
        assert provenance["factor_fill"] >= provenance["skeleton_size"]
        for record in document["eigenvalues"]:
            assert set(record) == {"re_omega", "im_omega", "residual",
                                   "in_lambda_d0", "spurious", "ambiguous"}
            assert record["residual"] < 1e-6

    def test_dropped_pairs_reported_without_source_location(self, tmp_path):
        """Each solve that drops Ritz pairs says so in one ``solve:`` line,
        not as a Python warning that carries the install path and a line
        number, so identical runs from two checkouts print the same."""
        path = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "radpml.cli", "solve", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert result.returncode == EXIT_OK
        lines = result.stderr.splitlines()
        document = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        dropped = document["provenance"]["dropped"]
        assert dropped > 0
        assert f"solve: dropped {dropped} Ritz pair(s) with residual > 1e-06" \
            in lines
        assert not [line for line in lines
                    if ".py:" in line or "AccuracyWarning" in line]

    def test_rerun_is_bitwise_identical(self, tmp_path):
        path = write_config(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["solve", str(path), "--out", str(first)]) == EXIT_OK
        assert main(["solve", str(path), "--out", str(second)]) == EXIT_OK
        assert (first / "spectrum.csv").read_bytes() == \
            (second / "spectrum.csv").read_bytes()
        assert (first / "spectrum.svg").read_bytes() == \
            (second / "spectrum.svg").read_bytes()

    def test_pipeline_error_names_stage(self, tmp_path, capsys, monkeypatch):
        import radpml.cli as cli_module
        path = write_config(tmp_path)

        def broken(*args, **kwargs):
            raise ValidationError("synthetic mesh failure")

        monkeypatch.setattr(cli_module, "generate", broken)
        assert main(["solve", str(path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "error at stage mesh" in err
        assert "synthetic mesh failure" in err

    def test_folding_mesh_fails_at_stage_mesh(self, tmp_path, capsys):
        """A nearly circular ellipse just inside r1, meshed this coarsely
        with q = 1, folds its inner annulus; no monkeypatching."""
        path = write_config(
            tmp_path, drop=[("geometry", "radius")],
            geometry={"obstacle": "ellipse", "semi_axis_x": "0.9",
                      "semi_axis_y": "1.0", "r1": "1.001",
                      "layer_width": "1.0"},
            discretization={"hmax": "2", "p": "1", "q": "1"})
        assert main(["solve", str(path)]) == EXIT_FAILURE
        assert "solve: error at stage mesh: inverted mapped element 4" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "spectrum.csv").exists()

    @pytest.mark.parametrize("owner, name, stage", [
        ("cli", "FunctionSpace", "assembly"),
        ("solver", "factor", "factorization"),
        ("cli", "shift_invert_arnoldi", "eigensolve"),
        ("cli", "spurious_filter", "spurious-filter"),
    ])
    def test_later_stages_named(self, tmp_path, capsys, monkeypatch,
                                owner, name, stage):
        import radpml.cli as cli_module

        def broken(*args, **kwargs):
            raise SingularMatrixError(f"synthetic {stage} failure")

        target = cli_module if owner == "cli" else CondensedShiftSolver
        monkeypatch.setattr(target, name, broken)
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert f"error at stage {stage}: synthetic {stage} failure" in err

    def test_missing_reference_table_is_config_error(self, tmp_path, capsys,
                                                     monkeypatch):
        import radpml.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("solve started despite a bad config")

        monkeypatch.setattr(cli_module, "generate", never)
        path = write_config(tmp_path,
                            output={"reference": "no/such/reference.csv"})
        assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: [output] reference" in err
        assert "no/such/reference.csv" in err

    def test_malformed_reference_table_is_config_error(self, tmp_path, capsys,
                                                       monkeypatch):
        import radpml.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("solve started despite a bad reference table")

        monkeypatch.setattr(cli_module, "generate", never)
        table = tmp_path / "reference.csv"
        table.write_text("n,k,re,im,residual\n1,1\n", encoding="ascii")
        path = write_config(tmp_path, output={"reference": str(table)})
        assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: [output] reference" in err
        assert "line 2" in err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, discretization={"p": "7"})
        assert main(["solve", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag", [["--seed=-3"]], ids=["flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys,
                                           monkeypatch, flag):
        import radpml.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("solve started despite a negative seed")

        monkeypatch.setattr(cli_module, "generate", never)
        path = write_config(tmp_path)
        assert main(["solve", str(path)] + flag) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_singular_skeleton_rejects_shift(self, tmp_path, capsys,
                                             monkeypatch):
        import radpml.eig as eig_module

        def singular(*args, **kwargs):
            raise SingularMatrixError("zero pivot at index 0 (empty column)")

        monkeypatch.setattr(eig_module, "sparse_lu", singular)
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "error at stage factorization" in err
        assert "move the shift" in err


class TestCompareCommand:
    def test_identical_points_match(self, tmp_path, capsys):
        roots = [0.5 - 0.6j, 1.4 - 0.8j, 2.4 - 1.0j]
        ref = write_reference_file(tmp_path / "ref.csv", roots)
        with open(tmp_path / "spectrum.csv", "w", encoding="ascii") as fh:
            fh.write("re_omega,im_omega,residual,in_lambda_d0,spurious\n")
            for z in roots:
                fh.write(f"{z.real},{z.imag},1e-12,1,0\n")
        assert main(["compare", str(tmp_path / "spectrum.csv"), str(ref)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3/3 references matched" in out

    def test_far_point_fails(self, tmp_path, capsys):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j, 2.0 - 1.0j])
        with open(tmp_path / "spectrum.csv", "w", encoding="ascii") as fh:
            fh.write("re_omega,im_omega,residual,in_lambda_d0,spurious\n")
            fh.write("0.5,-0.6,1e-12,1,0\n")
            fh.write("2.2,-1.0,1e-12,1,0\n")  # 10% off the second root
        code = main(["compare", str(tmp_path / "spectrum.csv"), str(ref)])
        assert code == EXIT_UNMATCHED
        assert "FAR" in capsys.readouterr().out

    def test_count_limits_comparison(self, tmp_path):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j, 2.0 - 1.0j])
        with open(tmp_path / "spectrum.csv", "w", encoding="ascii") as fh:
            fh.write("re_omega,im_omega,residual,in_lambda_d0,spurious\n")
            fh.write("0.5,-0.6,1e-12,1,0\n")
            fh.write("2.2,-1.0,1e-12,1,0\n")
        assert main(["compare", str(tmp_path / "spectrum.csv"), str(ref),
                     "--count", "1"]) == EXIT_OK
        assert main(["compare", str(tmp_path / "spectrum.csv"), str(ref),
                     "--tolerance", "0.2"]) == EXIT_OK

    def test_negative_count_is_config_error(self, tmp_path, capsys):
        """A negative count used to compare nothing and pass."""
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        assert main(["compare", str(ref), str(ref), "--count=-3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--count must be >= 0, got -3" in captured.err
        assert "matched" not in captured.out

    def test_spurious_rows_are_excluded(self, tmp_path, capsys):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        with open(tmp_path / "spectrum.csv", "w", encoding="ascii") as fh:
            fh.write("re_omega,im_omega,residual,in_lambda_d0,spurious\n")
            fh.write("0.5,-0.6,1e-3,1,1\n")   # only candidate is spurious
        code = main(["compare", str(tmp_path / "spectrum.csv"), str(ref)])
        assert code == EXIT_UNMATCHED
        assert "UNMATCHED" in capsys.readouterr().out

    def test_reference_vs_itself(self, tmp_path):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j, 2.0 - 1.0j])
        assert main(["compare", str(ref), str(ref)]) == EXIT_OK

    def test_empty_spectrum_is_unmatched(self, tmp_path, capsys):
        """``solve`` writes a header-only CSV when every Ritz pair is
        dropped; its arrays keep their types and nothing matches."""
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j, 2.0 - 1.0j])
        path = tmp_path / "spectrum.csv"
        path.write_text("re_omega,im_omega,residual,in_lambda_d0,spurious\n",
                        encoding="ascii")
        arrays = read_spectrum_csv(path)
        assert [a.dtype for a in arrays] == [complex, float, bool, bool]
        assert all(a.shape == (0,) for a in arrays)
        assert main(["compare", str(path), str(ref)]) == EXIT_UNMATCHED
        out = capsys.readouterr().out
        assert out.count("UNMATCHED") == 2
        assert "0/2 references matched" in out

    def test_short_row_is_config_error(self, tmp_path, capsys):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        path = tmp_path / "spectrum.csv"
        path.write_text("re_omega,im_omega,residual,in_lambda_d0,spurious\n"
                        "0.5,-0.6,1e-12,1,0\n"
                        "0.7,-0.6\n", encoding="ascii")
        assert main(["compare", str(path), str(ref)]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err
        with open(ref, "a", encoding="ascii") as fh:
            fh.write("1,1\n")
        assert main(["compare", str(ref), str(ref)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ref.csv: line 3" in err

    @pytest.mark.parametrize("flags", ["1,7", "2,0", "1,-1"])
    def test_flag_other_than_0_or_1_is_config_error(self, tmp_path, capsys,
                                                     flags):
        """The writer writes each flag as 0 or 1.  Any other value used to
        be read as its truth value, so ``spurious = 7`` dropped the row
        silently; it is an error that names the file and line."""
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        path = tmp_path / "spectrum.csv"
        path.write_text("re_omega,im_omega,residual,in_lambda_d0,spurious\n"
                        "0.7,-0.6,1e-12,1,0\n"
                        f"0.5,-0.6,1e-12,{flags}\n", encoding="ascii")
        assert main(["compare", str(path), str(ref)]) == EXIT_CONFIG
        assert f"{path}: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("position", [0, 1])
    def test_non_ascii_header_is_config_error(self, tmp_path, capsys,
                                              position):
        """A non-ASCII first line used to end ``compare`` in a
        UnicodeDecodeError traceback (exit 1), in either position."""
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        bad = tmp_path / "bad.csv"
        bad.write_bytes("re_ω,im_ω\n".encode("utf-8"))
        files = [str(ref), str(ref)]
        files[position] = str(bad)
        assert main(["compare", *files]) == EXIT_CONFIG
        assert f"{bad}: not ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["re_omega,im", "n,k,re"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_bad_header_names_its_file(self, tmp_path, capsys, position,
                                       header):
        """A wrong header in the spectrum dialect (``re_omega...``) or the
        reference dialect used to be reported without saying which of
        the two files it was in."""
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n0.5,-0.6\n", encoding="ascii")
        files = [str(ref), str(ref)]
        files[position] = str(bad)
        assert main(["compare", *files]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{bad}: " in err and "header" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_bad_tolerance_is_config_error(self, tmp_path, capsys, tolerance):
        ref = write_reference_file(tmp_path / "ref.csv", [0.5 - 0.6j])
        code = main(["compare", str(ref), str(ref), f"--tolerance={tolerance}"])
        assert code == EXIT_CONFIG
        assert "--tolerance must be finite and >= 0" in capsys.readouterr().err


class TestDampingCommand:
    def test_isotropic_bound_met(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["damping", str(path), "--omega", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bound 8.000000" in out
        document = json.loads((tmp_path / "out" / "damping.json").read_text())
        assert len(document["rays"]) == 8
        for row in document["rays"]:
            assert row["measured"] >= 0.95 * row["bound"]

    def test_wrong_halfplane_is_hypothesis_violation(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["damping", str(path), "--omega", "-1.0"])
        assert code == EXIT_CONDITION
        assert "hypothesis violation" in capsys.readouterr().err

    @pytest.mark.parametrize("omega, gamma", [("-1", "(0.4-0.8j)"),
                                              ("0", "(2+0j)")])
    def test_frequency_dependent_wrong_halfplane(self, tmp_path, capsys,
                                                 omega, gamma):
        """gamma(omega) = 1/(c - i omega) has Im <= 0 for omega <= 0; the
        profile built from it used to end ``damping`` in a traceback."""
        path = write_config(tmp_path, drop=[("scaling", "gamma")],
                            scaling={"c": "0.5"})
        assert main(["damping", str(path), f"--omega={omega}"]) == \
            EXIT_CONDITION
        assert "damping: hypothesis violation: gamma must satisfy Re >= 0 " \
            f"and Im > 0, got {gamma}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "damping.json").exists()

    def test_zero_rays(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["damping", str(path), "--rays", "0"]) == EXIT_OK
        assert "0 rays evaluated" in capsys.readouterr().out

    def test_overflowing_distance_is_hypothesis_violation(self, tmp_path,
                                                          capsys):
        """With gamma = 1e150i the scaled distance at 10 r1 = 1e9
        overflows; ``damping`` used to write ``measured nan`` rows and
        exit 0."""
        path = write_config(tmp_path, geometry={"r1": "1e8"},
                            scaling={"gamma": "1e150i"})
        assert main(["damping", str(path)]) == EXIT_CONDITION
        assert capsys.readouterr().err == (
            "damping: hypothesis violation: Im(omega d_sigma) is not finite "
            "on the ray: the scaled distance overflows double precision\n")
        assert not (tmp_path / "out" / "damping.json").exists()

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
    def test_non_finite_omega_is_config_error(self, tmp_path, capsys, omega):
        path = write_config(tmp_path)
        assert main(["damping", str(path), f"--omega={omega}"]) == EXIT_CONFIG
        assert "--omega must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "damping.json").exists()


class TestFailingProfile:
    """A profile with invalid parameters cannot be built, so every
    command that reads the config rejects it as a ``[scaling]`` config
    error before it computes or writes anything.  Each ramp is narrower
    than the spacing of doubles at its onset (1.5e-8 at r1 = 1e8, 2e-3 at
    r1 = 1e13): as evaluated, it would jump from 0 to amax at r1."""

    @pytest.mark.parametrize("width, r1, reason", [
        ("1e-9", "1e8", "ramp width 1e-09 is below the spacing of doubles "
                        "at r1 = 1e+08"),
        ("1e-4", "1e13", "ramp width 0.0001 is below the spacing of doubles "
                         "at r1 = 1e+13")],
        ids=["1e-9", "1e-4"])
    @pytest.mark.parametrize("command",
                             ["check", "damping", "reference", "solve"])
    def test_is_config_error_before_any_work(self, tmp_path, capsys,
                                             monkeypatch, command, width,
                                             r1, reason):
        import radpml.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("a command ran despite a bad profile")

        for name in ("admissible", "damping_rate",
                     "find_disk_neumann_references", "generate"):
            monkeypatch.setattr(cli_module, name, never)
        path = write_config(tmp_path, geometry={"r1": r1}, scaling={
            "profile": "constant-after-ramp", "width": width})
        assert main([command, str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: [scaling] {reason}\n"
        assert not (tmp_path / "out").exists()


class TestLargeExponent:
    """On r1 = 1.5, exponent 97 overflows r^(m+1) on the sampled radii,
    and exponent 1751 overflows r1^m itself: every command runs the
    first without a numpy warning and rejects the second as a
    ``[scaling]`` config error instead of an OverflowError traceback."""

    @pytest.mark.parametrize("command", ["check", "damping", "solve"])
    def test_overflowing_power_is_silent(self, tmp_path, command):
        path = write_config(tmp_path, scaling={
            "profile": "smoothed-polynomial", "exponent": "97"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["check", "damping", "solve"])
    def test_unrepresentable_slope_is_config_error(self, tmp_path, capsys,
                                                   command):
        path = write_config(tmp_path, scaling={
            "profile": "smoothed-polynomial", "exponent": "1751"})
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [scaling] exponent 1751 is too large for r1 = "
            "1.5: amax*m*r1^m / r1^(m+1) is not representable in double "
            "precision\n")

    def test_overflowing_onset_names_r1(self, tmp_path, capsys):
        """The affine profile has no exponent key: when r1^2 alone
        overflows, the error names r1."""
        path = write_config(tmp_path, geometry={"r1": "1e306"})
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [scaling] r1 = 1e+306 is out of range: r1^2 = inf "
            "in double precision\n")


class TestOutputPaths:
    """An output directory or artifact path that cannot be made or written
    is a config error naming the path, raised before any computation."""

    ARTIFACTS = {"check": "check.json", "reference": "reference.csv",
                 "damping": "damping.json", "solve": "spectrum.svg"}

    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file",
                                      "artifact-is-dir"])
    @pytest.mark.parametrize("command", list(ARTIFACTS))
    def test_unusable_path_is_config_error(self, tmp_path, capsys,
                                           monkeypatch, command, case):
        import radpml.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("computation started despite a bad output")

        for name in ("admissible", "find_disk_neumann_references",
                     "damping_rate", "generate"):
            monkeypatch.setattr(cli_module, name, never)
        path = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="ascii")
        if case == "artifact-is-dir":
            out = tmp_path / "out"
            named = out / self.ARTIFACTS[command]
            named.mkdir(parents=True)
        else:
            named = out = blocker if case == "out-is-file" else blocker / "sub"
        assert main([command, str(path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: cannot " in captured.err
        assert repr(str(named)) in captured.err
        assert not captured.out

    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch):
        import radpml.cli as cli_module

        def denied(refs, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli_module, "write_reference_csv", denied)
        path = write_config(tmp_path, reference={"max_order": "0"})
        assert main(["reference", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot write {str(tmp_path / 'out' / 'reference.csv')!r}: " \
            "Permission denied" in err


class TestSvgRendering:
    def test_marker_classes_and_axes(self):
        spectrum = make_spectrum([1.0 - 0.5j, 2.0 - 1.0j, 3.0 - 0.2j],
                                 spurious=[False, True, False],
                                 ambiguous=[False, False, True])
        svg = render_spectrum_svg(spectrum, references=[1.01 - 0.5j])
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'fill="#1f6fb2"' in svg        # physical resonance marker
        assert 'stroke="#c0392b"' in svg      # spurious cross
        assert 'stroke="#8e6bbf"' in svg      # ambiguous open circle
        assert 'stroke="#2c8a4b"' in svg      # reference plus
        assert "Re(omega)" in svg and "Im(omega)" in svg

    def test_empty_spectrum_renders(self):
        svg = render_spectrum_svg(make_spectrum([]))
        assert "<svg" in svg and "</svg>" in svg

    def test_deterministic_bytes(self):
        spectrum = make_spectrum([0.3 - 0.1j, 1.7 - 0.9j])
        assert render_spectrum_svg(spectrum) == render_spectrum_svg(spectrum)

    @pytest.mark.parametrize("case", ["disk", "ellipse"])
    def test_committed_plot_reproduced(self, case):
        """Re-rendering the committed run from its JSON record gives the
        committed SVG byte for byte (the out/ files are only read)."""
        out = REPO / "out" / case
        records = json.loads((out / "spectrum.json").read_text())["eigenvalues"]
        spectrum = Spectrum(
            omegas=np.array([complex(r["re_omega"], r["im_omega"])
                             for r in records]),
            residuals=np.array([r["residual"] for r in records]),
            in_lambda_d0=np.array([r["in_lambda_d0"] for r in records]),
            spurious=np.array([r["spurious"] for r in records]),
            ambiguous=np.array([r["ambiguous"] for r in records]),
            provenance={})
        references = [ref.root for ref in
                      read_reference_csv(REPO / "out" / "disk" / "reference.csv")]
        svg = render_spectrum_svg(
            spectrum, references,
            title="spectrum near shift 1.5-1j (affine scaling)")
        assert svg == (out / "spectrum.svg").read_text(encoding="ascii")


class TestEntryPoint:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_CONFIG

    def test_missing_argument_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["solve"])
        assert info.value.code == EXIT_CONFIG

    def test_config_error_maps_to_exit_code(self, tmp_path):
        path = write_config(tmp_path, scaling={"gamma": "nonsense"})
        assert main(["check", str(path)]) == EXIT_CONFIG


SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def run_python(code, *args):
    """stdout of ``code`` run in a fresh interpreter on the source tree."""
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    return result.stdout.strip()


class TestImportBudget:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """No command uses ``scipy.optimize``: loading it with the CLI
        would add about 0.2 s to every command's start-up."""
        code = ("import sys, radpml.cli; "
                "print('scipy.optimize' in sys.modules)")
        assert run_python(code) == "False"

    @pytest.mark.parametrize("module", ["radpml", "radpml.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        """Only the functions that factor, solve or build sparse matrices
        import scipy, so importing the package loads numpy alone."""
        assert run_python(f"import sys, {module}; print({SCIPY_MODULES})") \
            == "[]"

    @pytest.mark.parametrize("command", ["reference", "check",
                                         "check-smoothed", "check-ramp",
                                         "damping", "damping-ramp",
                                         "compare"])
    def test_commands_other_than_solve_leave_scipy_unloaded(self, tmp_path,
                                                            command):
        # every kind's tau* is exact, the ramp's from numpy's polynomial
        # roots, so check needs no scipy.optimize
        config = write_config(tmp_path)
        smoothed = write_config(tmp_path, name="smoothed.cfg",
                                scaling={"profile": "smoothed-polynomial",
                                         "exponent": "3", "amax": "0.8"})
        ramp = write_config(tmp_path, name="ramp.cfg",
                            scaling={"profile": "constant-after-ramp"})
        out = ["--out", tmp_path / "out"]
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("re_omega,im_omega,residual,in_lambda_d0,spurious\n"
                            "0.5,-0.6,1e-12,1,0\n", encoding="ascii")
        argv = {
            "reference": ["reference", REPO / "configs" / "disk.cfg", *out],
            "check": ["check", config, *out],
            "check-smoothed": ["check", smoothed, *out],
            "check-ramp": ["check", ramp, *out],
            "damping": ["damping", config, *out],
            "damping-ramp": ["damping", ramp, *out],
            "compare": ["compare", spectrum,
                        write_reference_file(tmp_path / "ref.csv",
                                             [0.5 - 0.6j])],
        }[command]
        script = ("import sys; from radpml.cli import main; "
                  f"code = main(sys.argv[1:]); print(code, {SCIPY_MODULES})")
        assert run_python(script, *argv).splitlines()[-1] == f"{EXIT_OK} []"

    @pytest.mark.parametrize("argv", [["damping", "--rays", "8"], ["solve"]],
                             ids=["damping", "solve"])
    def test_profile_is_checked_once_per_command(self, tmp_path, monkeypatch,
                                                 argv):
        """One profile serves every ray of ``damping`` and both solves of
        ``solve``, so its parameter checks run once."""
        from radpml.scaling import RampProfile

        calls = []
        checks = RampProfile._check_parameters

        def counting(profile):
            calls.append(profile)
            return checks(profile)

        monkeypatch.setattr(RampProfile, "_check_parameters", counting)
        config = write_config(tmp_path, discretization={"hmax": "0.8"},
                              scaling={"profile": "constant-after-ramp"})
        assert main([argv[0], str(config), *argv[1:]]) == EXIT_OK
        assert len(calls) == 1

    def test_solve_loads_solver_modules_before_the_mesh(self, tmp_path):
        """Loaded mid-solve, scipy's objects split the freed element-pass
        blocks that the Krylov basis reuses, and the peak RSS rises."""
        script = (
            "import sys, radpml.cli as cli\n"
            "def generate(*args, **kwargs):\n"
            "    print({'scipy.linalg', 'scipy.sparse.linalg'}"
            " <= set(sys.modules))\n"
            "    raise SystemExit(0)\n"
            "cli.generate = generate\n"
            "cli.main(sys.argv[1:])\n")
        path = write_config(tmp_path)
        assert run_python(script, "solve", path) == "True"


class TestReadme:
    def test_python_example_runs(self, capsys):
        """The README's Python API example runs as written."""
        text = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert len(blocks) == 1
        namespace = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)
        spectrum = namespace["spectrum"]
        assert isinstance(spectrum, Spectrum) and len(spectrum) > 0
        assert capsys.readouterr().out.strip()


class TestPublicNames:
    def test_four_error_types(self):
        """One type per outcome; ``ConfigError`` stands outside the
        ``ValidationError`` tree, so a section's conversion never
        re-prefixes the reader's own errors."""
        import radpml.cli as cli_module
        import radpml.errors as errors
        names = sorted(name for name, value in vars(errors).items()
                       if isinstance(value, type)
                       and issubclass(value, Exception))
        assert names == ["ConfigError", "IncompleteSearchError",
                         "SingularMatrixError", "ValidationError"]
        assert issubclass(ConfigError, ValueError)
        assert not issubclass(ConfigError, ValidationError)
        assert cli_module._PIPELINE_ERRORS == (ValidationError,
                                               SingularMatrixError)

    def test_exports_resolve(self):
        """Every name in a module's ``__all__`` exists, and every name the
        package re-exports is the submodule's object and listed in its
        ``__all__``, so a deletion that leaves an export behind fails
        here rather than at ``import *``."""
        for info in pkgutil.iter_modules(radpml.__path__):
            module = importlib.import_module(f"radpml.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"radpml.{info.name}.{name}"
        with open(radpml.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imports = [node for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        assert imports
        for node in imports:
            module = importlib.import_module(f"radpml.{node.module}")
            public = getattr(module, "__all__", None)
            for alias in node.names:
                assert getattr(radpml, alias.name) is getattr(module, alias.name)
                assert public is None or alias.name in public, alias.name
