"""Repeat the benchmark over seeds, twice, and record medians, quartiles,
spreads and the drift between the two sets.

Run from the repository root, for example:

    python3 perfbench/baseline.py --runs 10 --first-seed 100 --out perfbench/baseline.json

It makes two sets of runs, the second with the ``--runs`` seeds after
those of the first.  In each set, for every workload, it makes ``--runs``
untraced runs of ``run.py``, each with its own seed and the
``run_seconds`` of ``BENCHMARK.json``, then one traced run on the set's
first seed.  Per set, workload and end-to-end metric it writes every
value, the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them), the sample count and the spread (quartile distance over the
median), plus the traced run's overhead and layer metrics.  It then
compares the two sets against the bounds of ``BENCHMARK.json``: each
spread (``setup_s`` apart) must be within its bound, and the second
median must not be worse than the first by more than the bound.  The file
is rewritten after every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def bench_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "values": values}


def measure(document, name, seeds):
    values, failed, attempted = {}, 0, 0
    for seed in seeds:
        record, result = bench_once(name, seed, 0)
        document.setdefault("machine", {
            k: v for k, v in record["environment"].items()
            if k not in ("seed", "config_sha256")})
        attempted += result["attempted"]
        failed += result["failed"] + (not result["correct"])
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    _, result = bench_once(name, seeds[0], 1)
    failed += not result["correct"]
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"{name} traced: overhead {layers['trace.overhead_s']:.3f} s, "
          f"coverage {layers['trace.coverage']:.3f}", flush=True)
    return {
        "seeds": seeds, "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted if attempted else None,
        "metrics": {k: dict(describe(v), unit=bench.E2E_UNITS[k])
                    for k, v in values.items()},
        "trace": {"seed": seeds[0],
                  "overhead_s": layers["trace.overhead_s"],
                  "coverage": layers["trace.coverage"],
                  "layers": layers},
    }


def compare(first, second):
    """Per metric: both spreads, the drift of the second median (positive
    is worse) and whether each is within the metric's bound."""
    table = {}
    for spec in SPEC["end_to_end"]:
        a = first["metrics"][spec["name"]]
        b = second["metrics"][spec["name"]]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        drift = sign * (b["median"] - a["median"]) / a["median"]
        spreads_ok = spec["name"] == "setup_s" or \
            max(a["spread"], b["spread"]) <= spec["bound"]
        table[spec["name"]] = {
            "bound": spec["bound"], "spreads": [a["spread"], b["spread"]],
            "drift": drift, "within": spreads_ok and drift <= spec["bound"],
            "steady": max(a["spread"], b["spread"]) < spec["bound"] / 3,
        }
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", nargs="*",
                        default=list(bench.WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    document = {"run_seconds": SPEC["run_seconds"], "sets": [{}, {}],
                "comparison": {}}

    def save():
        with open(out, "w", encoding="ascii") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for number, workloads in enumerate(document["sets"]):
        first = args.first_seed + number * args.runs
        for name in args.workloads:
            workloads[name] = measure(document, name,
                                      list(range(first, first + args.runs)))
            save()
    for name in args.workloads:
        document["comparison"][name] = compare(
            *(workloads[name] for workloads in document["sets"]))
    save()
    for name, table in document["comparison"].items():
        for metric, c in table.items():
            print(f"{name:11s} {metric:16s} spreads "
                  f"{c['spreads'][0]:.4f} {c['spreads'][1]:.4f}  drift "
                  f"{c['drift']:+.4f}  bound {c['bound']}  within "
                  f"{c['within']}  steady {c['steady']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
