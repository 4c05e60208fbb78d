"""Run the benchmark over a set of seeds and write a BENCH_*.json summary.

Usage (from the repository root)::

    python3 bench/collect.py --out bench/BENCH_baseline.json --runs 10

Each run is ``bench/run.py`` in its own process, one after another.  For
every workload and metric the summary keeps the value of each run, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  Exit code 1 if any run fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    seconds = str(SPEC["run_seconds"])
    summary: dict = {"run_seconds": SPEC["run_seconds"], "trace": args.trace,
                     "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                     "workloads": {}}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        meta = None
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", seconds, "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
                continue
            record = ROOT / ".bench_work" / "results" / f"{name}-seed{seed}-trace{args.trace}.json"
            meta = json.loads(record.read_text())["meta"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        metrics = {metric: summarize(v) for metric, v in values.items()}
        for metric, s in metrics.items():
            s["bound"] = bounds.get(metric)
            if "spread" in s and s["bound"] is not None:
                print(f"{name:16s} {metric:16s} median {s['median']:.6g}  "
                      f"spread {s['spread']:.4f}  bound {s['bound']}")
        summary["workloads"][name] = {"meta": meta, "metrics": metrics}
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
