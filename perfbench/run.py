"""radpml benchmark: the real CLI end to end, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ellipse-p6 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Each run writes its generated config and artifacts into a temporary
directory under ``.perfbench-work/`` and removes it at the end.  The
package is taken from ``src/`` through ``PYTHONPATH``; the committed
reference roots ``out/disk/reference.csv`` score every run.

``--trace 0`` times the CLI in child processes (closed loop: one client,
one run at a time, repeated until ``--seconds`` have passed) and prints
the end-to-end metrics.  ``--trace 1`` runs the CLI once untraced and once
under ``tracer.py`` for the same seed, checks that both write the same
artifact bytes, and prints the per-layer metrics.  The last line of
standard output is the result object; the lines before it are a
human-readable table and a JSON record with the environment.

``--smoke`` runs every workload's code path on tiny configs, traced and
untraced, and checks that every metric name is emitted with a unit.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
REFERENCE_CSV = ROOT / "out" / "disk" / "reference.csv"

#: BLAS threads of every child.  One thread leaves the other core to the
#: benchmark and the system: with two threads on a two-core machine the
#: wall time of a solve varied about twice as much between runs.
BLAS_THREADS = 1
#: spawns of the set-up probe per run, after one warm-up; the least is
#: reported, on the same grounds as for ``wall_s``
SETUP_SAMPLES = 10
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: acceptance rule for a computed eigenvalue (tests/test_acceptance.py)
GRADE_RESIDUAL = 1e-8
FIRST = 5
#: a reference root counts as matched within this relative distance,
#: the ``radpml compare`` default
MATCH_REL = 1e-2
#: certified roots must reproduce the committed table to this distance
CERTIFY_REL = 1e-12
CERTIFY_RESIDUAL = 1e-10
#: relative distances below this are under what a comparison of two
#: doubles resolves (a few ulp) and read as this value, so the accuracy
#: metric is never 0 and does not move with the last bit
ERR_RESOLUTION = 1e-15

E2E_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "first5_rel_err": "ratio",
    "refs_matched": "count",
    "converged_pairs": "count",
}


@dataclass(frozen=True)
class Workload:
    command: str        # "solve" or "reference"
    base: str           # committed config the workload derives from
    overrides: tuple    # ((section, key, value), ...)
    dofs: int | None    # expected base-pencil size of a solve workload


WORKLOADS = {
    # Headline anisotropic case at production order, coarsened so one
    # solve takes well under a minute; condensation removes 10 bubbles
    # per element and the element kernels take about half the time.
    "ellipse-p6": Workload("solve", "configs/ellipse.cfg",
                           (("discretization", "hmax", "0.3"),), 56160),
    # Low order at the production mesh size: no bubbles, so the skeleton
    # is every dof and ordering, LU and Arnoldi solves dominate.
    "disk-p2": Workload("solve", "configs/disk.cfg",
                        (("discretization", "p", "2"),
                         ("discretization", "q", "2")), 46176),
    # Certified root search alone, over the widest box the series
    # supports (corner radius just under 15, orders up to 20), so the
    # search outweighs the noisy interpreter start-up.
    "reference": Workload("reference", "configs/disk.cfg",
                          (("reference", "re_hi", "13.5"),
                           ("reference", "im_lo", "-6.5"),
                           ("reference", "max_order", "20")), None),
}

SMOKE = {
    "ellipse-p6": Workload("solve", "configs/ellipse.cfg",
                           (("discretization", "hmax", "1.0"),), None),
    "disk-p2": Workload("solve", "configs/disk.cfg",
                        (("discretization", "hmax", "1.0"),
                         ("discretization", "p", "2"),
                         ("discretization", "q", "2")), None),
    "reference": Workload("reference", "configs/disk.cfg", (), None),
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# inputs and environment
# ---------------------------------------------------------------------------

def _read_ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def make_config(workload, run_dir):
    """Write the workload's config into ``run_dir``; returns its path."""
    parser = _read_ini(ROOT / workload.base)
    for section, key, value in workload.overrides:
        parser.set(section, key, value)
    # children run in run_dir, so the configured directory lands there
    parser.set("output", "directory", "out")
    parser.set("output", "reference", str(REFERENCE_CSV))
    path = run_dir / "workload.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def child_env(run_dir):
    threads = str(BLAS_THREADS)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(run_dir),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


def environment(seed, config_path):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
    }


def tree_snapshot():
    """(path, size, mtime) of every file of the checkout, apart from the
    benchmark's own work directory, bytecode caches and ``.git``.

    A run must leave this unchanged.  It is taken from ``stat`` rather
    than ``git status``, because the checkout a benchmark runs in need not
    be a git repository; it covers untracked files as well.
    """
    skip = {WORK.name, "__pycache__", ".git"}
    snapshot = set()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in skip]
        for name in files:
            st = os.stat(os.path.join(top, name))
            snapshot.add((os.path.relpath(os.path.join(top, name), ROOT),
                          st.st_size, st.st_mtime_ns))
    return snapshot


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def spawn(argv, log_dir, tag):
    """Run ``argv`` to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_dir / f"{tag}.stdout", "wb") as out, \
            open(log_dir / f"{tag}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=log_dir, env=child_env(log_dir),
                                stdout=out, stderr=err)
        reaped = {}

        def reap():
            # wait4 reaps the child and reports its own peak RSS (KiB)
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(CHILD_TIMEOUT_S)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        _, status, usage = reaped["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, reaped["end"] - t0, usage.ru_maxrss / 1024.0


def measure_setup(config_path, run_dir):
    """Least spawn -> ``import radpml.cli`` + ``parse_config`` -> exit."""
    argv = [sys.executable, "-c",
            "import sys, radpml.cli; radpml.cli.parse_config(sys.argv[1])",
            str(config_path)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):   # the first one warms the caches
        code, wall, _ = spawn(argv, run_dir, f"setup{i}")
        if code != 0:
            return None
        samples.append(wall)
    return min(samples[1:])


def cli_argv(workload, config_path, out_dir, seed):
    args = [workload.command, str(config_path), "--out", str(out_dir)]
    if workload.command == "solve":
        args += ["--seed", str(seed)]
    return args


# ---------------------------------------------------------------------------
# correctness and accuracy
# ---------------------------------------------------------------------------

def read_references(path):
    rows = []
    with open(path, encoding="ascii") as fh:
        if fh.readline().strip() != "n,k,re,im,residual":
            raise ValueError(f"{path}: not a reference CSV")
        for line in fh:
            if line.strip():
                n, k, re, im, residual = line.strip().split(",")
                rows.append((int(n), complex(float(re), float(im)),
                             float(residual)))
    return rows


def nearest_rel(z, candidates):
    return min(abs(w - z) for w in candidates) / abs(z)


def score_solve(workload, out_dir, references):
    """Accuracy of one solve; raises ValueError on a malformed artifact."""
    with open(out_dir / "spectrum.json", encoding="ascii") as fh:
        doc = json.load(fh)
    rows = []
    with open(out_dir / "spectrum.csv", encoding="ascii") as fh:
        if fh.readline().strip() != \
                "re_omega,im_omega,residual,in_lambda_d0,spurious":
            raise ValueError("spectrum.csv: unexpected header")
        for line in fh:
            if line.strip():
                re, im, residual, _, spurious = line.strip().split(",")
                rows.append((complex(float(re), float(im)), float(residual),
                             spurious == "1"))
    eigen = [(complex(e["re_omega"], e["im_omega"]), e["residual"],
              e["spurious"]) for e in doc["eigenvalues"]]
    if rows != eigen:
        raise ValueError("spectrum.csv and spectrum.json disagree")
    if workload.dofs is not None and doc["dofs"] != workload.dofs:
        raise ValueError(f"{doc['dofs']} dofs, expected {workload.dofs}")
    unflagged = [w for w, _, spurious in eigen if not spurious]
    graded = sorted((w for w, residual, spurious in eigen
                     if not spurious and residual < GRADE_RESIDUAL), key=abs)
    if len(graded) < FIRST:
        raise ValueError(f"only {len(graded)} acceptance-grade eigenvalues")
    roots = [root for _, root, _ in references]
    return {
        "first5_rel_err": max(ERR_RESOLUTION, max(
            nearest_rel(w, roots) for w in graded[:FIRST])),
        "refs_matched": sum(1 for z in roots
                            if nearest_rel(z, unflagged) <= MATCH_REL),
        "converged_pairs": len(eigen),
    }


def production_box():
    section = _read_ini(ROOT / "configs" / "disk.cfg")["reference"]
    return (float(section["re_lo"]), float(section["re_hi"]),
            float(section["im_lo"]), float(section["im_hi"]),
            int(section["max_order"]))


def score_reference(out_dir, references):
    """Certification check of one ``reference`` run; raises ValueError."""
    found = read_references(out_dir / "reference.csv")
    if not found:
        raise ValueError("no certified roots")
    worst = max(residual for _, _, residual in found)
    if not worst < CERTIFY_RESIDUAL:
        raise ValueError(f"certified residual {worst:.2e}")
    re_lo, re_hi, im_lo, im_hi, max_order = production_box()
    inside = [z for n, z, _ in found if n <= max_order
              and re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi]
    committed = sorted((z for _, z, _ in references), key=abs)
    if len(inside) != len(committed):
        raise ValueError(f"{len(inside)} roots in the production box, "
                         f"committed table has {len(committed)}")
    errors = [nearest_rel(z, inside) for z in committed]
    if not max(errors) <= CERTIFY_REL:
        raise ValueError(f"production roots differ by {max(errors):.2e}")
    return {
        "first5_rel_err": max(ERR_RESOLUTION, max(errors[:FIRST])),
        "refs_matched": sum(1 for e in errors if e <= CERTIFY_REL),
        "converged_pairs": len(found),
    }


def artifact(workload):
    return "spectrum.csv" if workload.command == "solve" else "reference.csv"


def invoke(workload, config_path, run_dir, seed, tag, references,
           traced=False):
    """One CLI run in a child; returns a record with ``ok`` and scores."""
    out_dir = run_dir / tag
    args = cli_argv(workload, config_path, out_dir, seed)
    if traced:
        report = run_dir / f"{tag}.trace.json"
        argv = [sys.executable, str(HERE / "tracer.py"), str(report)] + args
    else:
        # what the installed ``radpml`` console script runs
        argv = [sys.executable, "-c",
                "from radpml.cli import console_main; console_main()"] + args
    code, wall, rss = spawn(argv, run_dir, tag)
    record = {"tag": tag, "exit": code, "wall_s": wall, "peak_rss_mb": rss,
              "ok": False}
    if code != 0:
        record["error"] = f"exit code {code}"
        return record
    try:
        if workload.command == "solve":
            record.update(score_solve(workload, out_dir, references))
        else:
            record.update(score_reference(out_dir, references))
        if traced:
            with open(report, encoding="ascii") as fh:
                record["report"] = json.load(fh)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["artifact"] = (out_dir / artifact(workload)).read_bytes()
    record["ok"] = True
    return record


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    beyond = 10
    if n <= beyond:
        return None
    pct = 100.0 * (n - beyond) / n
    return pct, sorted(values)[n - beyond - 1]


def run_untraced(workload, config_path, run_dir, seed, seconds, references):
    records = []
    t0 = time.perf_counter()
    while not records or time.perf_counter() - t0 < seconds:
        records.append(invoke(workload, config_path, run_dir, seed,
                              f"run{len(records)}", references))
    good = [r for r in records if r["ok"]]
    metrics = {}
    if good:
        # The least over the repetitions: the program is deterministic and
        # the other tenants of a shared machine only ever add to it.  The
        # median and the high percentile are printed with the table.
        metrics = {
            "wall_s": min(r["wall_s"] for r in good),
            "peak_rss_mb": min(r["peak_rss_mb"] for r in good),
            "first5_rel_err": max(r["first5_rel_err"] for r in good),
            "refs_matched": min(r["refs_matched"] for r in good),
            "converged_pairs": min(r["converged_pairs"] for r in good),
        }
    # Same config and seed: every repetition must write the same bytes.
    consistent = len({r["artifact"] for r in good}) <= 1
    return records, metrics, consistent


def run_traced(workload, config_path, run_dir, seed, references):
    plain = invoke(workload, config_path, run_dir, seed, "plain", references)
    traced = invoke(workload, config_path, run_dir, seed, "traced",
                    references, traced=True)
    records = [plain, traced]
    same = plain["ok"] and traced["ok"] and \
        plain["artifact"] == traced["artifact"]
    return records, same


def run(name, workload, seed, seconds, trace):
    references = read_references(REFERENCE_CSV)
    WORK.mkdir(exist_ok=True)
    before = tree_snapshot()
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        config_path = make_config(workload, run_dir)
        env = environment(seed, config_path)
        setup_s = measure_setup(config_path, run_dir)
        units = tracer.LAYER_UNITS if trace else E2E_UNITS
        if setup_s is None:
            records, metrics, consistent = [{
                "tag": "setup", "ok": False,
                "error": "set-up probe failed"}], {}, False
        elif trace:
            records, consistent = run_traced(workload, config_path, run_dir,
                                             seed, references)
            plain, traced = records
            metrics = {}
            if consistent:
                metrics = tracer.summarize(traced["report"], traced["wall_s"],
                                           plain["wall_s"], setup_s)
        else:
            records, metrics, consistent = run_untraced(
                workload, config_path, run_dir, seed, seconds, references)
            if metrics:
                metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    hermetic = tree_snapshot() == before
    failed = sum(1 for r in records if not r["ok"])
    correct = failed == 0 and consistent and hermetic and \
        set(metrics) == set(units)
    for r in records:
        r.pop("artifact", None)
        if "report" in r:
            r["factor_method"] = r.pop("report")["notes"].get("factor_method")
    return {
        "workload": name, "trace": trace, "environment": env,
        "setup_s": setup_s, "invocations": records,
        "same_bytes": consistent, "hermetic": hermetic,
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }


def print_table(record):
    print(f"workload {record['workload']} (trace {record['trace']}): "
          f"{record['attempted']} runs, {record['failed']} failed, "
          f"fail_rate {record['failed'] / record['attempted']:.3f}, "
          f"same bytes {record['same_bytes']}, hermetic {record['hermetic']}")
    for name, m in record["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    walls = [r["wall_s"] for r in record["invocations"] if "wall_s" in r]
    if walls:
        high = high_percentile(walls)
        print(f"  wall samples {len(walls)}: median "
              f"{statistics.median(walls):.4f} s, "
              + ("high percentile n/a (needs > 10 samples)" if high is None
                 else f"p{high[0]:.0f} {high[1]:.4f} s"))
    for r in record["invocations"]:
        if not r["ok"]:
            print(f"  {r['tag']}: FAILED: {r.get('error')}")


def result_line(record):
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def check_checkout():
    for path in (ROOT / "src" / "radpml" / "cli.py", REFERENCE_CSV,
                 ROOT / "configs" / "disk.cfg",
                 ROOT / "configs" / "ellipse.cfg"):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from "
                             "a checkout of the radpml repository")


def smoke():
    """Every workload's code path on tiny inputs, traced and untraced."""
    problems = []
    for name, workload in SMOKE.items():
        for trace in (0, 1):
            record = run(name, workload, seed=0, seconds=0, trace=trace)
            print_table(record)
            units = tracer.LAYER_UNITS if trace else E2E_UNITS
            missing = [k for k in units if k not in record["metrics"]
                       or not record["metrics"][k]["unit"]]
            if missing or not record["correct"]:
                problems.append(f"{name} trace {trace}: correct "
                                f"{record['correct']}, missing {missing}")
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, args.trace)
    print_table(record)
    print(json.dumps({"record": record}))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
