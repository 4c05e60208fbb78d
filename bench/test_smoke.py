"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1])


def _package_modules() -> dict:
    return {name: sys.modules[f"anaprop.{name}"]
            for name in ("cli", "data", "classify", "explain", "relational")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert not tracing.installed_wrappers(_package_modules())
    else:  # the host-speed probes' timer is stopped and its handler removed
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_tracer_installs_and_removes_every_wrapper():
    pkg = run.import_package()
    tracer = tracing.Tracer(vars(pkg))
    tracer.install()
    try:
        assert len(tracing.installed_wrappers(vars(pkg))) == len(tracing.TRACED)
    finally:
        tracer.uninstall()
    assert not tracing.installed_wrappers(vars(pkg))


def _tamper_evaluate(text):
    payload = json.loads(text)
    payload["report"]["per_fold"][0]["test_size"] += 1
    return json.dumps(payload)


def _tamper_explain(text):
    payload = json.loads(text)
    payload["supporting_pairs"] += 1
    return json.dumps(payload)


def _tamper_deps(text):
    payload = json.loads(text)
    payload["findings"] = [f for f in payload["findings"] if f["trivial"]]
    return json.dumps(payload)


@pytest.mark.parametrize("workload, tamper", [
    ("cv-monk", _tamper_evaluate),
    ("explain-monk", _tamper_explain),
    ("deps-discovery", _tamper_deps),
])
def test_output_checks_catch_tampering(workload, tamper):
    pkg = run.import_package()
    work = run.ROOT / run.WORK / "smoke" / workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.MAKERS[workload](work, workloads.SIZES["tiny"], 3)
    op = wl.ops[-1] if workload == "deps-discovery" else wl.ops[0]
    code, text = op.run(pkg)
    assert op.check(code, text) == []
    assert op.check(code, tamper(text)) != []


def test_inputs_follow_the_seed():
    rows = workloads.stratified_sample(workloads.monk_space(2), 50, random.Random(5))
    again = workloads.stratified_sample(workloads.monk_space(2), 50, random.Random(5))
    other = workloads.stratified_sample(workloads.monk_space(2), 50, random.Random(6))
    assert rows == again and rows != other and len(rows) == 50
