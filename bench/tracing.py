"""Span recording around the package's layer boundaries.

The benchmark traces from the outside: ``Tracer.install`` replaces the
public callables of ``cli``, ``data``, ``classify``, ``explain`` and
``relational`` with wrappers that record a span (name, start, end,
parent, operation id) and a few counters, and ``Tracer.uninstall`` puts
the originals back.  No package code changes.  ``core`` is left alone:
``hamming`` and ``diff`` run millions of times per operation, so a wrapper
there would mostly time itself; their cost shows inside the classify
build and query spans.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: Marker attribute set on every installed wrapper.
WRAPPER_MARK = "__bench_span__"

# (module, owner inside the module or None, attribute, span name)
TRACED = (
    ("cli", None, "main", "cli.main"),
    ("data", None, "load_dataset", "data.load_dataset"),
    ("data", None, "load_relation", "data.load_relation"),
    ("classify", None, "cross_validate", "classify.cross_validate"),
    ("classify", None, "cross_validate_grid", "classify.cross_validate_grid"),
    ("classify", None, "analogical_suitability", "classify.analogical_suitability"),
    ("classify", None, "extract_competent_pairs", "classify.extract_competent_pairs"),
    ("classify", "BruteForceModel", "__init__", "classify.build.baseline"),
    ("classify", "BongardModel", "__init__", "classify.build.bongard"),
    ("classify", "BruteForceModel", "classify", "classify.query.baseline"),
    ("classify", "SelectedTripletModel", "classify", "classify.query.selected"),
    ("classify", "BongardModel", "classify", "classify.query.bongard"),
    ("classify", "KnnModel", "classify", "classify.query.knn"),
    ("explain", None, "contrastive_explain", "explain.contrastive_explain"),
    ("explain", None, "find_adverse_examples", "explain.find_adverse_examples"),
    ("relational", None, "discover_dependencies", "relational.discover_dependencies"),
    ("relational", None, "fd_holds", "relational.fd_holds"),
    ("relational", None, "mvd_holds", "relational.mvd_holds"),
    ("relational", None, "weak_mvd_holds", "relational.weak_mvd_holds"),
    ("relational", None, "lossless_join_check", "relational.lossless_join_check"),
    ("relational", None, "ap_witness", "relational.ap_witness"),
)

#: Per-layer metric -> unit, in the order they are reported.  Times are the
#: seconds a layer was busy in one traced round (0 where the workload does
#: not reach the layer), counts are per round too.
LAYER_UNITS = {
    "cli.self_s": "s/round",
    "data.load_s": "s/round",
    "data.rows_loaded": "count",
    "classify.index_build_s": "s/round",
    "classify.index_builds": "count",
    # Sum of train-size squared at each build: computed here, not counted
    # by the program.
    "classify.index_pairs": "count-computed",
    "classify.mining_s": "s/round",
    "classify.competent_pairs": "count",
    "classify.baseline_query_s": "s/round",
    "classify.selected_query_s": "s/round",
    "classify.bongard_query_s": "s/round",
    "classify.knn_query_s": "s/round",
    "classify.queries": "count",
    "classify.triplets_examined": "count",
    "classify.abstentions": "count",
    "classify.fallback_queries": "count",
    "classify.cv_self_s": "s/round",
    "explain.explain_s": "s/round",
    "explain.adverse_s": "s/round",
    "explain.pair_count_s": "s/round",
    "explain.adverse_examples": "count",
    "explain.supporting_pairs": "count",
    "explain.exception_pairs": "count",
    "relational.fd_s": "s/round",
    "relational.mvd_s": "s/round",
    "relational.weak_mvd_s": "s/round",
    "relational.lossless_join_s": "s/round",
    "relational.ap_witness_s": "s/round",
    "relational.discover_self_s": "s/round",
    "relational.checks": "count",
    "relational.mvd_holding": "count",
    "relational.mvd_nontrivial": "count",
    "relational.ap_witness_calls": "count",
    "relational.ap_witness_found": "count",
}

# Layer time metric -> (span names, "total" or "self").
_TIME_METRICS = {
    "cli.self_s": (("cli.main",), "self"),
    "data.load_s": (("data.load_dataset", "data.load_relation"), "total"),
    "classify.index_build_s": (("classify.build.baseline", "classify.build.bongard"), "total"),
    "classify.mining_s": (("classify.extract_competent_pairs",), "total"),
    "classify.baseline_query_s": (("classify.query.baseline",), "total"),
    "classify.selected_query_s": (("classify.query.selected",), "total"),
    "classify.bongard_query_s": (("classify.query.bongard",), "total"),
    "classify.knn_query_s": (("classify.query.knn",), "total"),
    "classify.cv_self_s": (("classify.cross_validate", "classify.cross_validate_grid"), "self"),
    "explain.explain_s": (("explain.contrastive_explain",), "total"),
    "explain.adverse_s": (("explain.find_adverse_examples",), "total"),
    "explain.pair_count_s": (("explain.contrastive_explain",), "self"),
    "relational.fd_s": (("relational.fd_holds",), "total"),
    "relational.mvd_s": (("relational.mvd_holds",), "total"),
    "relational.weak_mvd_s": (("relational.weak_mvd_holds",), "total"),
    "relational.lossless_join_s": (("relational.lossless_join_check",), "total"),
    "relational.ap_witness_s": (("relational.ap_witness",), "total"),
    "relational.discover_self_s": (("relational.discover_dependencies",), "self"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


@dataclass
class Tracer:
    """Records spans while installed; one instance per traced run."""

    modules: dict  # short module name -> module object
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op_id: int = -1
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _last_abstained: tuple = (None, None)

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer._count(name, args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, WRAPPER_MARK, original)
        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name.startswith("data.load_"):
            c["data.rows_loaded"] += len(result)
        elif name.startswith("classify.build."):
            n = len(args[1])  # (self, train, ...)
            c["classify.index_builds"] += 1
            c["classify.index_pairs"] += n * n
        elif name.startswith("classify.query."):
            model, query = args[0], args[1]
            c["classify.queries"] += 1
            c["classify.triplets_examined"] += result.triplets_examined
            # The harness asks the fallback model about the same query right
            # after the strategy model abstained on it.
            last_model, last_query = self._last_abstained
            if last_model is not None and last_model is not model and last_query == query:
                c["classify.fallback_queries"] += 1
                self._last_abstained = (None, None)
            elif result.abstained:
                c["classify.abstentions"] += 1
                self._last_abstained = (model, query)
        elif name == "classify.extract_competent_pairs":
            c["classify.competent_pairs"] += len(result)
        elif name == "explain.find_adverse_examples":
            c["explain.adverse_examples"] += len(result)
        elif name == "explain.contrastive_explain":
            c["explain.supporting_pairs"] += result.supporting_pairs
            c["explain.exception_pairs"] += result.exception_pairs
        elif name == "relational.fd_holds":
            c["relational.checks"] += 1
        elif name == "relational.ap_witness":
            c["relational.ap_witness_calls"] += 1
            c["relational.ap_witness_found"] += result is not None
        elif name == "relational.discover_dependencies":
            c["relational.mvd_holding"] += sum(f.mvd for f in result)
            c["relational.mvd_nontrivial"] += sum(f.mvd and not f.trivial for f in result)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, owner_name, attr, span_name in TRACED:
                owner = self.modules[module_name]
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(span_name, original))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._last_abstained = (None, None)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (one thread, so children never overlap)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def mark(self) -> tuple[int, Counter]:
        """A point to measure from with ``layer_metrics``."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer times and counts recorded after the ``since`` mark."""
        first_span, counts_before = since
        own = self.self_times()
        totals: Counter = Counter()
        selfs: Counter = Counter()
        for i in range(first_span, len(self.spans)):
            s = self.spans[i]
            totals[s.name] += s.end - s.start
            selfs[s.name] += own[i]
        out: dict[str, float] = {}
        for metric, (names, kind) in _TIME_METRICS.items():
            source = selfs if kind == "self" else totals
            out[metric] = sum(source[n] for n in names)
        for metric in LAYER_UNITS:
            if metric not in out:
                out[metric] = self.counts[metric] - counts_before[metric]
        return {metric: out[metric] for metric in LAYER_UNITS}

    def op_breakdown(self) -> dict[str, dict[str, float]]:
        """Self time per span name under each benchmark operation group
        (root spans are named ``bench.op.<group>``), largest first."""
        own = self.self_times()
        group: list[str] = []
        out: dict[str, Counter] = {}
        for i, s in enumerate(self.spans):  # a parent always precedes its children
            g = group[s.parent] if s.parent >= 0 else s.name.removeprefix("bench.op.")
            group.append(g)
            if s.parent >= 0:
                out.setdefault(g, Counter())[s.name] += own[i]
        return {g: dict(c.most_common()) for g, c in out.items()}

    def write(self, path: Path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def installed_wrappers(modules: dict) -> list[str]:
    """Names of traced callables that are still wrappers."""
    left = []
    for module_name, owner_name, attr, span_name in TRACED:
        owner = modules[module_name]
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        if hasattr(getattr(owner, attr), WRAPPER_MARK):
            left.append(span_name)
    return left
