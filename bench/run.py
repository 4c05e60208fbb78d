"""anaprop benchmark: one closed-loop client driving the package in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload cv-monk --seed 1 --seconds 32 --trace 0

A single thread sends each operation only after the previous one has
finished.  Operations are the user-facing commands, called through
``anaprop.cli.main`` in the same process, plus the public
``classify.analogical_suitability``, which has no command.  Inputs are
generated from ``--seed`` during set-up and written as CSV files under
``.bench_work/``; every output is checked, and repeated operations must
give byte-identical output.

``--trace 0`` reports the end-to-end metrics: set-up time, peak RSS and
the round time normalized to a nominal host speed by the probes of
``hostspeed.py``, which run on a timer during each operation and are
left out of its time.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from the spans
recorded around the package's public callables (see ``tracing.py``), the
per-operation times of the untraced rounds, and the tracing overhead.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the program could not be
set up (for instance, ``src/anaprop`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
#: Work directory, relative to the repository root, which is the working
#: directory during a run; the input paths appear in the outputs.
WORK = Path(".bench_work")
DIGESTS = BENCH / "digests.json"
#: The seed whose canonical outputs are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Set-ups timed after each untraced operation, so that ``setup_s`` samples
#: the whole run rather than one moment of it.
SETUPS_PER_GAP = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_norm_s": "norm_s",
    "peak_rss_mib": "MiB",
}
#: Per-operation breakdown of the untraced rounds of a traced run; 0 where
#: the workload has no such operation.
OP_UNITS = {
    "table2_s": "s/round",
    "table3_s": "s/round",
    "suitability_s": "s/round",
    "cv_predictions_per_s": "1/s",
    "explain_p50_s": "s/explanation",
    "explanations_per_s": "1/s",
    "deps_random_s": "s/round",
    "deps_product_s": "s/round",
    "dep_checks_per_s": "1/s",
}
PER_LAYER_UNITS = {**OP_UNITS, **tracing.LAYER_UNITS, "trace_overhead_frac": "ratio"}


class SetupError(Exception):
    """The program under test cannot be imported or run."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package() -> SimpleNamespace:
    """Import ``anaprop`` from ``src`` afresh (dropping any earlier import)."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "anaprop" / "__init__.py").is_file():
        raise SetupError(f"no anaprop package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "anaprop" or m.startswith("anaprop.")]:
        del sys.modules[name]
    try:
        return SimpleNamespace(**{
            m: importlib.import_module(f"anaprop.{m}")
            for m in ("cli", "data", "classify", "explain", "relational")
        })
    except ImportError as exc:
        raise SetupError(f"cannot import anaprop: {exc}") from exc


def set_up(workload: str, size: str, seed: int):
    """Import the package and write the seeded inputs; return the package,
    the workload and the time it took."""
    started = time.perf_counter()
    pkg = import_package()
    work = WORK / "inputs" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.MAKERS[workload](work, workloads.SIZES[size], seed)
    return pkg, wl, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Rounds and checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks each operation's first output and demands byte-identical
    output from every later run of the same operation."""

    def __init__(self, workload: str, digests: dict[str, str]):
        self.workload = workload
        self.digests = digests
        self.first: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op: workloads.Op, code: int, text: str) -> None:
        self.attempted += 1
        if op.label not in self.first:
            self.first[op.label] = text
            try:
                problems = op.check(code, text)
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                problems = [f"malformed output ({type(exc).__name__}: {exc})"]
            pinned = self.digests.get(f"{self.workload}/{op.label}")
            if pinned is not None and pinned != digest(text):
                problems.append("canonical output differs from the pinned digest")
            self.problems[op.label] = problems
        elif text != self.first[op.label]:
            self.problems[op.label].append("output differs between runs")
        if self.problems[op.label]:
            self.failed += 1

    def error(self, op: workloads.Op, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.setdefault(op.label, []).append(
            f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_round(wl: workloads.Workload, pkg, checker: Checker,
              tracer: tracing.Tracer | None = None,
              between: Callable[[], None] | None = None,
              probe: bool = False) -> tuple[float, list, float]:
    """Run every operation once; return the round's wall time, the
    (op, seconds) samples and the round's normalized time (0 unless
    ``probe``, see ``hostspeed.py``).  Checks, and ``between`` after each
    operation, run outside the timed region; so do the probes."""
    samples = []
    normalized = 0.0
    started = time.perf_counter()
    for op in wl.ops:
        span = None
        if tracer is not None:
            tracer.op_id += 1
            span = tracer.begin(f"bench.op.{op.group}")
        probes = hostspeed.Probe() if probe else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with probes:
                code, text = op.run(pkg)
        except Exception as exc:  # one failing operation must not stop the run
            checker.error(op, exc)
            continue
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        pause = time.perf_counter()
        if probe:
            elapsed -= probes.probe_s
            started += probes.probe_s
            normalized += elapsed * probes.scale
        samples.append((op, elapsed))
        checker.record(op, code, text)
        if between is not None:
            between()
        started += time.perf_counter() - pause  # keep this out of the round time
    return time.perf_counter() - started, samples, normalized


def keep_going(elapsed: float, round_walls: list[float], seconds: float) -> bool:
    """Start another round if it should end by about half a round past
    the measuring time."""
    return elapsed + 0.5 * statistics.median(round_walls) <= seconds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def op_metrics(rounds: list[list]) -> dict[str, float]:
    """Per-operation breakdown of untraced rounds: the median over rounds
    of each group's time, and work rates over the summed time."""
    out = dict.fromkeys(OP_UNITS, 0.0)
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for samples in rounds:
        per_round: dict[str, float] = {}
        for op, seconds in samples:
            per_round[op.group] = per_round.get(op.group, 0.0) + seconds
            work[op.group] = work.get(op.group, 0) + op.work
        for group, seconds in per_round.items():
            times.setdefault(group, []).append(seconds)
    for group in times:
        if group in out:
            out[group] = statistics.median(times[group])

    def rate(groups):
        present = [g for g in groups if g in times]
        if present:
            return sum(work[g] for g in present) / sum(sum(times[g]) for g in present)
        return 0.0

    out["cv_predictions_per_s"] = rate(("table2_s", "table3_s"))
    out["dep_checks_per_s"] = rate(("deps_random_s", "deps_product_s"))
    if "explain" in times:
        out["explain_p50_s"] = statistics.median(
            seconds for samples in rounds for op, seconds in samples)
        out["explanations_per_s"] = rate(("explain",))
    return out


def metadata(args, rounds: int, traced_rounds: int, setups: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_rounds": rounds,
        "traced_rounds": traced_rounds,
        "setup_samples": setups,
    }


def git_revision() -> str:
    """HEAD's commit id read from ``.git`` directly; "unavailable" in a
    checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anaprop").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"pin this run's outputs in {DIGESTS.name} "
                             f"(seed {DEFAULT_SEED}, full size only)")
    return parser.parse_args(argv)


def measure(args) -> dict:
    """Set up, run the rounds and return the result record."""
    pinned = {}
    if args.seed == DEFAULT_SEED and args.size == "full" and not args.record_digests:
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pkg, wl, took = set_up(args.workload, args.size, args.seed)
    setup_times = [took]

    def time_setups():
        # Set up again from scratch (fresh import, same inputs); the
        # operations keep using the first import.  Collecting the dropped
        # imports keeps them out of peak_rss_mib.
        for _ in range(SETUPS_PER_GAP):
            setup_times.append(set_up(args.workload, args.size, args.seed)[2])
            gc.collect()
    checker = Checker(args.workload, pinned)
    walls, rounds, normalized = [], [], []
    traced_walls, layer_rounds = [], []
    tracer = tracing.Tracer(vars(pkg)) if args.trace else None
    started = time.perf_counter()
    while True:
        # Host-speed probes only in untraced runs: in a traced run they
        # would land in the spans.
        wall, samples, norm = run_round(wl, pkg, checker,
                                        between=None if tracer else time_setups,
                                        probe=tracer is None)
        walls.append(wall)
        rounds.append(samples)
        normalized.append(norm)
        if tracer is not None:
            mark = tracer.mark()
            tracer.install()
            try:
                wall, _, _ = run_round(wl, pkg, checker, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_rounds.append(tracer.layer_metrics(mark))
        per_pass = [a + b for a, b in zip(walls, traced_walls)] if tracer else walls
        if not keep_going(time.perf_counter() - started, per_pass, args.seconds):
            break

    breakdown = {}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_norm_s": statistics.median(normalized),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = op_metrics(rounds)
        for name in tracing.LAYER_UNITS:
            metrics[name] = statistics.median(r[name] for r in layer_rounds)
        metrics["trace_overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(walls) - 1)
        units = PER_LAYER_UNITS
        breakdown = tracer.op_breakdown()
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")

    return {
        "meta": metadata(args, len(walls), len(traced_walls), len(setup_times)),
        "work_unit": wl.work_unit,
        "ops": [op.label for op in wl.ops],
        "setup_samples_s": setup_times,
        "round_samples_s": walls,
        "round_norm_samples_s": normalized if tracer is None else [],
        "traced_round_samples_s": traced_walls,
        "error_rate": checker.failed / checker.attempted if checker.attempted else 0.0,
        "problems": {k: v for k, v in checker.problems.items() if v},
        "outputs": {label: digest(text) for label, text in checker.first.items()},
        "traced_span_seconds": breakdown,
        "result": {
            "correct": checker.failed == 0 and checker.attempted > 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def report(record: dict) -> None:
    """Human-readable lines before the final JSON line."""
    meta = record["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} size={meta['size']} "
          f"python={meta['python']} nproc={meta['nproc']} rev={meta['git_revision']}")
    print(f"# ops per round: {', '.join(record['ops'])}")
    print(f"# rounds: {meta['untraced_rounds']} untraced, {meta['traced_rounds']} traced; "
          f"set-ups timed: {meta['setup_samples']}; work unit: {record['work_unit']}")
    print(f"# error_rate {record['error_rate']} "
          f"({record['result']['failed']} of {record['result']['attempted']} operations)")
    if record["round_norm_samples_s"]:
        print(f"# round wall time {statistics.median(record['round_samples_s']):.3f} s, "
              f"normalized {statistics.median(record['round_norm_samples_s']):.3f} norm_s "
              "(median over rounds, probes excluded)")
    for label, problems in record["problems"].items():
        for problem in problems:
            print(f"# FAILED {label}: {problem}")
    for group, spans in record["traced_span_seconds"].items():
        top = [f"{name} {seconds:.3f}s" for name, seconds in list(spans.items())[:4]]
        print(f"# traced self time, {group}: {', '.join(top)}")
    for name, m in record["result"]["metrics"].items():
        print(f"# {name} = {m['value']} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        try:
            record = measure(args)
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(record, indent=2) + "\n")
        if args.record_digests:
            if args.seed != DEFAULT_SEED or args.size != "full" or record["problems"]:
                print("bench: digests are pinned from a correct full-size run "
                      f"with seed {DEFAULT_SEED}", file=sys.stderr)
                return 1
            pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            pinned.update({f"{args.workload}/{k}": v for k, v in record["outputs"].items()})
            DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        report(record)
        print(json.dumps(record["result"]))
        return 0
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(main())
