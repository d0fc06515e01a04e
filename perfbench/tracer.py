"""Traced in-process run of the radpml CLI, for the per-layer metrics.

Run as a child process of ``run.py``, with the package on ``PYTHONPATH``:

    python3 perfbench/tracer.py REPORT.json solve CONFIG --out DIR --seed N
    python3 perfbench/tracer.py REPORT.json reference CONFIG --out DIR

It installs pass-through timing wrappers on the names the CLI and the
modules look up, calls ``radpml.cli.main`` with the arguments after
REPORT.json, then (for ``solve``) makes one probe pass of the public
``radpml.fem.element_matrices`` over the base mesh.  Spans stay in memory
and are written to REPORT.json at the end.  A wrapped name that no longer
exists is recorded as absent, not as a failure.

``summarize`` turns such a report into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: element chunk of the probe pass; the same chunk the assembly uses
PROBE_CHUNK = 512


def vm_hwm_mb():
    """Peak resident set of this process so far (VmHWM), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Tracer:
    """Spans (name, start, end, parent index) and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.absent = []
        self.notes = defaultdict(list)
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def traced(self, function, name, after=None):
        """``function`` inside a span; ``after(result)`` runs once it returns."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def wrap(self, module, attr, name, after=None):
        function = getattr(module, attr, None)
        if function is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.traced(function, name, after))


def install(tracer, state):
    """Wrap the names ``radpml.cli.main`` reaches, at the module where the
    caller looks them up."""
    import numpy as np
    import radpml.cli as cli
    import radpml.eig as eig
    import radpml.fem as fem

    c = tracer.counters

    def on_config(config):
        state["config"] = config

    def on_mesh(mesh):
        c["mesh.triangles"] += mesh.num_triangles

    def on_space(space):
        c["fem.dofs"] += space.num_dofs
        state["space"] = space

    def on_condense(solver):
        c["fem.skeleton_dofs"] += solver.skeleton_size
        c["fem.condense_hwm_mb"] = max(c["fem.condense_hwm_mb"], vm_hwm_mb())
        solver.solve = tracer.traced(solver.solve, "eig.op_solve")

    def on_assemble(pencil):
        c["fem.pencil_nnz"] += pencil.stiffness.nnz
        c["fem.assemble_hwm_mb"] = max(c["fem.assemble_hwm_mb"], vm_hwm_mb())

    def on_factor(lu):
        # Fill and the probe fallback are private to the factor object;
        # they are read where reachable and noted as absent otherwise.
        method = getattr(lu, "method", "unknown")
        tracer.notes["factor_method"].append(method)
        inner = getattr(lu, "_lu", None)
        if method == "sparse":
            if inner is None or not hasattr(inner, "nnz"):
                tracer.absent.append("factor fill (SuperLU.nnz)")
            else:
                c["eig.factor_nnz"] += inner.nnz
            perm = getattr(lu, "_perm", None)
            if perm is None:
                tracer.absent.append("factor probe fallback")
            else:
                c["eig.factor_fallbacks"] += bool(
                    np.array_equal(perm, np.arange(len(perm))))

    def on_arnoldi(spectrum):
        c["eig.kept"] += len(spectrum)
        c["eig.basis_size"] += spectrum.provenance.get("basis_size", 0)
        c["eig.restarts"] += spectrum.provenance.get("restarts", 0)

    def on_filter(spectrum):
        c["eig.spurious"] += int(spectrum.spurious.sum())
        c["eig.ambiguous"] += int(spectrum.ambiguous.sum())
        c["eig.matched"] += spectrum.provenance.get("matched", 0)

    def on_references(refs):
        c["analytic.roots"] += len(refs)

    tracer.wrap(cli, "parse_config", "cli.parse", on_config)
    tracer.wrap(cli, "generate", "mesh.generate", on_mesh)
    tracer.wrap(cli, "FunctionSpace", "fem.space", on_space)
    tracer.wrap(cli, "CondensedShiftSolver", "fem.condense", on_condense)
    tracer.wrap(cli, "assemble", "fem.assemble", on_assemble)
    tracer.wrap(cli, "shift_invert_arnoldi", "eig.arnoldi", on_arnoldi)
    tracer.wrap(cli, "spurious_filter", "eig.filter", on_filter)
    tracer.wrap(cli, "find_disk_neumann_references", "analytic.reference",
                on_references)
    tracer.wrap(cli, "read_reference_csv", "cli.read_reference")
    for writer in ("write_spectrum_csv", "write_spectrum_json",
                   "render_spectrum_svg", "write_reference_csv"):
        tracer.wrap(cli, writer, "cli.export")
    tracer.wrap(eig, "sparse_lu", "eig.factor", on_factor)
    tracer.wrap(eig, "rayleigh_residual", "eig.residual")
    tracer.wrap(fem, "reference_basis", "basis")
    tracer.wrap(fem, "lagrange_geometry_basis", "basis")


def probe_element_pass(tracer, state):
    """One pass of ``fem.element_matrices`` over the last (base) mesh."""
    import numpy as np
    import radpml.fem as fem

    space, config = state.get("space"), state.get("config")
    if space is None or config is None:
        return
    if not hasattr(fem, "element_matrices"):
        tracer.absent.append("radpml.fem.element_matrices")
        return
    profile = config.build_profile()
    nt = space.mesh.num_triangles
    with tracer.span("fem.element_pass"):
        for start in range(0, nt, PROBE_CHUNK):
            ids = np.arange(start, min(start + PROBE_CHUNK, nt))
            fem.element_matrices(space, profile, config.medium, ids)


def main(argv):
    report_path, cli_args = argv[0], argv[1:]
    import radpml.cli

    tracer = Tracer()
    state = {}
    install(tracer, state)
    code = radpml.cli.main(cli_args)
    main_spans = len(tracer.spans)
    if code == 0:
        probe_element_pass(tracer, state)
    with open(report_path, "w", encoding="ascii") as fh:
        json.dump({"exit": code, "main_spans": main_spans, "spans": tracer.spans,
                   "counters": dict(tracer.counters),
                   "absent": tracer.absent, "notes": dict(tracer.notes)},
                  fh)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from a report
# ---------------------------------------------------------------------------

#: per-layer metric -> unit; every traced run emits all of them
LAYER_UNITS = {
    "mesh.generate_s": "s", "mesh.triangles": "count",
    "fem.space_s": "s", "fem.dofs": "count",
    "basis.calls": "count", "basis.s": "s",
    "fem.element_pass_s": "s",
    "fem.condense_s": "s", "fem.condense_self_s": "s",
    "fem.skeleton_dofs": "count",
    "fem.assemble_s": "s", "fem.pencil_nnz": "count",
    "fem.condense_hwm_mb": "MB", "fem.assemble_hwm_mb": "MB",
    "eig.factor_s": "s", "eig.factor_calls": "count",
    "eig.factor_nnz": "count",
    "eig.factor_fallbacks": "count",
    "eig.arnoldi_s": "s", "eig.op_solves": "count", "eig.op_solve_s": "s",
    "eig.ortho_self_s": "s", "eig.basis_size": "count",
    "eig.restarts": "count",
    "eig.residual_calls": "count", "eig.residual_s": "s",
    "eig.kept": "count", "eig.kept_ratio": "ratio",
    "eig.filter_s": "s", "eig.spurious": "count", "eig.ambiguous": "count",
    "eig.matched": "count",
    "cli.parse_s": "s", "cli.export_s": "s",
    "analytic.reference_s": "s", "analytic.roots": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
    "trace.absent": "count",
}


def summarize(report, traced_wall, untraced_wall, setup_s):
    """Per-layer metrics (name -> value) of one traced report.

    ``traced_wall`` and ``untraced_wall`` are spawn-to-exit times of the
    two children.  The probe pass runs only in the traced one, so its span
    is taken off the traced time: ``trace.wall_s`` and ``trace.overhead_s``
    then compare the same work, interpreter start-up and teardown included.
    Times are summed over every call, which for ``solve`` means over the
    stretched and the base solve.  ``trace.coverage`` is the sum of the
    layer self-times over ``trace.wall_s`` minus ``setup_s``.
    """
    spans = report["spans"]
    main = spans[:report["main_spans"]]
    duration = [s["end"] - s["start"] for s in spans]
    total = defaultdict(float)
    calls = defaultdict(int)
    under = defaultdict(float)       # (parent name, child name) -> time
    child_time = defaultdict(float)  # parent index -> direct children
    for i, s in enumerate(main):
        total[s["name"]] += duration[i]
        calls[s["name"]] += 1
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[i]
            under[main[s["parent"]]["name"], s["name"]] += duration[i]
    self_sum = sum(duration[i] - child_time[i] for i in range(len(main)))
    probe = sum(duration[i] for i, s in enumerate(spans)
                if s["name"] == "fem.element_pass")
    c = defaultdict(float, report["counters"])
    traced_wall -= probe
    measured = traced_wall - setup_s
    metrics = {
        "mesh.generate_s": total["mesh.generate"],
        "mesh.triangles": c["mesh.triangles"],
        "fem.space_s": total["fem.space"],
        "fem.dofs": c["fem.dofs"],
        "basis.calls": calls["basis"],
        "basis.s": total["basis"],
        "fem.element_pass_s": probe,
        "fem.condense_s": total["fem.condense"],
        "fem.condense_self_s": (total["fem.condense"]
                                - under["fem.condense", "eig.factor"]),
        "fem.skeleton_dofs": c["fem.skeleton_dofs"],
        "fem.assemble_s": total["fem.assemble"],
        "fem.pencil_nnz": c["fem.pencil_nnz"],
        "fem.condense_hwm_mb": c["fem.condense_hwm_mb"],
        "fem.assemble_hwm_mb": c["fem.assemble_hwm_mb"],
        "eig.factor_s": total["eig.factor"],
        "eig.factor_calls": calls["eig.factor"],
        "eig.factor_nnz": c["eig.factor_nnz"],
        "eig.factor_fallbacks": c["eig.factor_fallbacks"],
        "eig.arnoldi_s": total["eig.arnoldi"],
        "eig.op_solves": calls["eig.op_solve"],
        "eig.op_solve_s": total["eig.op_solve"],
        "eig.ortho_self_s": (total["eig.arnoldi"]
                             - under["eig.arnoldi", "eig.op_solve"]
                             - under["eig.arnoldi", "eig.residual"]
                             - under["eig.arnoldi", "eig.factor"]),
        "eig.basis_size": c["eig.basis_size"],
        "eig.restarts": c["eig.restarts"],
        "eig.residual_calls": calls["eig.residual"],
        "eig.residual_s": total["eig.residual"],
        "eig.kept": c["eig.kept"],
        "eig.kept_ratio": (c["eig.kept"] / calls["eig.residual"]
                           if calls["eig.residual"] else 0.0),
        "eig.filter_s": total["eig.filter"],
        "eig.spurious": c["eig.spurious"],
        "eig.ambiguous": c["eig.ambiguous"],
        "eig.matched": c["eig.matched"],
        "cli.parse_s": total["cli.parse"],
        "cli.export_s": total["cli.export"],
        "analytic.reference_s": total["analytic.reference"],
        "analytic.roots": c["analytic.roots"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": self_sum / measured if measured > 0 else 0.0,
        "trace.absent": len(report["absent"]),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
