"""Command-line front end: configuration parsing, the five commands,
artifact determinism, and exit codes."""

import ast
import hashlib
import importlib
import json
import pkgutil

import numpy as np
import pytest

import radpml
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
from radpml.eig import Spectrum
from radpml.errors import ConfigError, GenerationError, SingularMatrixError
from radpml.fem import CondensedShiftSolver


DEFAULTS = {
    "geometry": {"obstacle": "disk", "radius": "1.0", "r1": "1.5",
                 "layer_width": "2.0"},
    "medium": {"sigma_xx": "1.0", "sigma_xy": "0.0", "sigma_yy": "1.0"},
    "scaling": {"profile": "affine", "gamma": "8i"},
    "discretization": {"hmax": "0.5", "p": "3", "q": "2"},
    "solver": {"shift_re": "1.5", "shift_im": "-1.0", "k": "6",
               "stretch": "1.5", "seed": "0"},
    "output": {"directory": "", "formats": "csv,json,svg"},
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
        vectors=np.eye(max(n, 1), dtype=complex)[:, :n],
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
        assert config.gamma == 8j
        assert config.p == 3 and config.q == 2
        assert config.shift == 1.5 - 1.0j
        assert config.stretch == 1.5
        assert config.formats == ("csv", "json", "svg")
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
        path = write_config(
            tmp_path, scaling={"c": "0.5", "omega_dependent": "true"})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(path)

    def test_c_requires_omega_dependent(self, tmp_path):
        path = write_config(tmp_path, drop=[("scaling", "gamma")],
                            scaling={"c": "0.5"})
        with pytest.raises(ConfigError, match="omega_dependent"):
            parse_config(path)

    def test_omega_dependent_profile_built_at_shift(self, tmp_path):
        path = write_config(tmp_path, drop=[("scaling", "gamma")],
                            scaling={"c": "0.5", "omega_dependent": "true"})
        config = parse_config(path)
        profile = config.build_profile()
        assert profile.gamma == pytest.approx(1.0 / (0.5 - 1.5j))
        profile_at_two = config.build_profile(omega_hint=2.0)
        assert profile_at_two.gamma == pytest.approx(1.0 / (0.5 - 2.0j))

    def test_small_krylov_rejected(self, tmp_path):
        path = write_config(tmp_path, solver={"krylov_dim": "12"})
        with pytest.raises(ConfigError, match="2k\\+10"):
            parse_config(path)

    def test_shrinking_stretch_rejected(self, tmp_path):
        path = write_config(tmp_path, solver={"stretch": "0.9"})
        with pytest.raises(ConfigError, match="stretch"):
            parse_config(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = write_config(tmp_path, output={"formats": "csv,pdf"})
        with pytest.raises(ConfigError, match="pdf"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")


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
            geometry={"obstacle": "ellipse", "semi_axis_x": "0.5",
                      "semi_axis_y": "1.0", "r1": "1.5", "layer_width": "2.0"},
            medium={"sigma_xx": "0.25", "sigma_xy": "0.0", "sigma_yy": "1.0"})
        assert main(["check", str(path)]) == EXIT_CONDITION
        out = capsys.readouterr().out
        assert "coercivity: FAIL" in out
        assert "min stabilizing c" in out
        document = json.loads((tmp_path / "out" / "check.json").read_text())
        assert document["all_ok"] is False


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
        assert "config error" in capsys.readouterr().err

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
        # p = 3 leaves one bubble per triangle off the skeleton, which is
        # past the dense cutoff and factors without the pivoting fallback
        assert provenance["skeleton_size"] == \
            document["dofs"] - document["triangles"]
        assert provenance["factor_path"] == "sparse"
        assert provenance["factor_fill"] >= provenance["skeleton_size"]
        for record in document["eigenvalues"]:
            assert set(record) == {"re_omega", "im_omega", "residual",
                                   "in_lambda_d0", "spurious", "ambiguous"}
            assert record["residual"] < 1e-6

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
            raise GenerationError("synthetic mesh failure")

        monkeypatch.setattr(cli_module, "generate", broken)
        assert main(["solve", str(path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "error at stage mesh" in err
        assert "synthetic mesh failure" in err

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

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, discretization={"p": "7"})
        assert main(["solve", str(path)]) == EXIT_CONFIG


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

    def test_zero_rays(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["damping", str(path), "--rays", "0"]) == EXIT_OK
        assert "0 rays evaluated" in capsys.readouterr().out


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


class TestPublicNames:
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
