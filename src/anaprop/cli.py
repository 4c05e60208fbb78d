"""Command-line front end.

Commands: ``ap`` (proportion check / equation solve), ``evaluate``
(cross-validated classifier studies), ``explain`` (contrastive
explanations), ``deps`` (dependency analysis of a relation) and
``generate`` (synthetic datasets).  Output goes to stdout as human text
or canonical JSON (sorted keys, two-space indent); diagnostics such as
wall time go to stderr so JSON reruns are byte-identical.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 a no-solution / abstention / unsupported-explanation outcome.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from . import classify, data, explain, relational
from .core import SchemaError, ap_holds, solve
from .data import DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_SOLUTION = 3

PROFILES = {
    # Reproduction profiles bundle the published experimental settings.
    "table2": {"strategy": "selected", "folds": 10, "radius": 2,
               "subsample": 0.5, "seed": 7},
    "table3": {"strategy": "bongard", "folds": 10, "seed": 7,
               "grid": "1,3,5,7,9,11"},
}


#: The top-level keys a ``generate --spec`` file may hold, per kind, with
#: the JSON type of each key's value: only what no option can say.
SPEC_KEYS = {"affine": {},
             "planted-rule": {"rules": "array"},
             "random-relation": {"attributes": "array"},
             "monk1": {}, "monk2": {}, "monk3": {}}
#: The options of ``generate`` that only some kinds read, per kind: the
#: ones it reads.  Passing any other of them is a usage error.
KIND_OPTIONS = {"affine": ("n", "coeffs", "seed"),
                "planted-rule": (),
                "random-relation": ("tuples", "seed"),
                "monk1": (), "monk2": (), "monk3": ()}
#: The exact types json.load gives for each JSON type named here.
_JSON_TYPES = {"number": (int, float), "array": (list,),
               "string": (str,), "string or null": (str, type(None))}
#: The fields of each item of a spec array, as (required, optional) maps
#: of field to JSON type: a planted rule's are those of
#: ``data.PlantedRule``, required where it has no default.  A count may
#: be any number and a domain (None) any value: ``data.PlantedRule`` and
#: ``data.Attribute`` reject a fractional count and a domain other than
#: a list of strings as data errors.
SPEC_ITEMS = {
    "rules": ({"pairs": "number"},
              {"exceptions": "number", "label_from": "string",
               "label_to": "string or null", "alt_label": "string"}),
    "attributes": ({"name": "string", "domain": None}, {}),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _emit(payload: dict, fmt: str, human: str) -> None:
    if fmt == "json":
        print(data.canonical_json(payload))
    else:
        print(human)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


# ---------------------------------------------------------------------------
# ap
# ---------------------------------------------------------------------------

def _cmd_ap(args) -> int:
    domain = args.domain.split(",") if args.domain is not None else None
    if args.action == "check":
        if len(args.values) != 4:
            raise _UsageError("ap check needs exactly 4 values")
        a, b, c, d = args.values
        holds = ap_holds(a, b, c, d, domain)
        _emit({"command": "ap-check", "values": args.values, "holds": holds},
              args.format, "true" if holds else "false")
        return EXIT_OK
    if len(args.values) != 3:
        raise _UsageError("ap solve needs exactly 3 values")
    a, b, c = args.values
    x = solve(a, b, c, domain)
    payload = {"command": "ap-solve", "values": args.values, "solution": x}
    if x is None:
        _emit(payload, args.format, "NO-SOLUTION")
        return EXIT_NO_SOLUTION
    _emit(payload, args.format, x)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _apply_profile(args) -> None:
    for key, value in PROFILES.get(args.profile, {}).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _cmd_evaluate(args) -> int:
    given_grid = args.grid  # None when only a profile sets the grid
    _apply_profile(args)
    if args.seed is None:
        raise _UsageError("evaluate is seeded; pass --seed (or a profile that sets it)")

    # An option left unset takes its CvConfig default.
    options = {f.name: getattr(args, f.name) for f in fields(classify.CvConfig)}
    try:  # config problems are usage errors, found before any work starts
        config = classify.CvConfig(**{name: value for name, value in options.items()
                                      if value is not None})
    except DataError as exc:
        raise _UsageError(str(exc)) from exc
    if args.grid is not None:
        origin = "" if given_grid is not None else f" (set by --profile {args.profile})"
        param = classify.GRID_PARAMETERS.get(config.strategy)
        if param is None:
            raise _UsageError(f"--grid{origin} applies to the bongard and knn strategies")
        if options[param] is not None:
            raise _UsageError(f"--grid{origin} and --{param.replace('_', '-')} "
                              f"both set {param}; pass one of them")
        grid = _parse_int_list(args.grid)
        if min(grid) < 1:
            raise _UsageError(f"--grid needs values of at least 1, got {args.grid!r}")
    dataset = data.load_dataset(args.data, delimiter=args.delimiter,
                                class_column=args.class_column,
                                schema_file=args.schema)
    started = time.perf_counter()
    payload: dict = {"command": "evaluate", "data": str(args.data)}
    if args.grid is not None:
        best, reports = classify.cross_validate_grid(dataset, config, grid)
        payload["grid"] = grid
        payload["grid_parameter"] = classify.GRID_PARAMETERS[config.strategy]
        payload["reports"] = [r.canonical() for r in reports]
        payload["best"] = best.canonical()
        headline = best
    else:
        report = classify.cross_validate(dataset, config)
        payload["report"] = report.canonical()
        headline = report
    elapsed = time.perf_counter() - started
    print(f"[evaluate] {args.data}: strategy={config.strategy} "
          f"wall_time={elapsed:.2f}s", file=sys.stderr)
    if not headline.stratified:
        print(f"[evaluate] some class has fewer than {config.folds} members; "
              f"used non-stratified folds", file=sys.stderr)
    if config.strategy == "knn":
        # kNN caps k at each training fold's size; the report echoes the
        # requested k, so say which k ran.
        smallest = headline.dataset_rows - max(map(len, headline.fold_indices))
        for k in dict.fromkeys(grid if args.grid is not None else [config.k]):
            if k > smallest:
                print(f"[evaluate] k={k} exceeds the smallest training fold "
                      f"({smallest} rows); each fold ran with k capped at its "
                      f"training size, k={smallest} there", file=sys.stderr)
    human = (f"{config.strategy} on {args.data}: "
             f"{headline.mean_accuracy:.2f} +/- {headline.std_accuracy:.2f} "
             f"({config.folds}-fold, seed {config.seed}, "
             f"abstention {100 * headline.abstention_rate:.2f}%)")
    if args.grid is not None:
        param = payload["grid_parameter"]
        human += (f" [best {param}={getattr(headline.config, param)} "
                  f"of grid {payload['grid']}]")
    _emit(payload, args.format, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def _parse_query(rel: data.Relation, args) -> tuple[str, ...]:
    if (args.query is None) == (args.query_index is None):
        raise _UsageError("pass exactly one of --query or --query-index")
    if args.query_index is not None:
        if not 0 <= args.query_index < len(rel):
            raise DataError(f"query index {args.query_index} out of range "
                            f"[0, {len(rel) - 1}]")
        return rel.tuples[args.query_index]
    row = tuple(v.strip() for v in args.query.split(","))
    rel.schema.validate_item(row)
    return row


def _adverse_payload(rel: data.Relation, ae: explain.AdverseExample) -> dict:
    names = rel.schema.names
    return {
        "row_index": ae.row_index,
        "row": list(ae.row),
        "change": [
            {"attribute": names[j], "adverse_value": fr, "query_value": to}
            for j, fr, to in ae.change
        ],
    }


def _load_relation(args) -> data.Relation:
    """The relation ``--data`` names; dropped duplicate rows are reported
    on stderr under the command's name."""
    rel = data.load_relation(args.data, delimiter=args.delimiter,
                             schema_file=args.schema)
    if rel.duplicates_dropped:
        print(f"[{args.command}] dropped {rel.duplicates_dropped} duplicate rows",
              file=sys.stderr)
    return rel


def _cmd_explain(args) -> int:
    rel = _load_relation(args)
    query = _parse_query(rel, args)
    if (args.why is None) == (args.why_not is None):
        raise _UsageError("pass exactly one of --why or --why-not")
    if args.why is not None:
        result_attr, target = args.why, None
    else:
        if "=" not in args.why_not:
            raise _UsageError("--why-not takes ATTRIBUTE=VALUE")
        result_attr, target = args.why_not.split("=", 1)
    exp = explain.contrastive_explain(rel, query, result_attr, target)
    payload = {
        "command": "explain",
        "data": str(args.data),
        "question": exp.question,
        "result_attribute": exp.result_attribute,
        "target": exp.target,
        "actual": exp.actual,
        "supported": exp.supported,
        "adverse_example": (_adverse_payload(rel, exp.adverse)
                            if exp.adverse else None),
        "alternatives": [_adverse_payload(rel, ae) for ae in exp.alternatives],
        "change_attributes": ([
            rel.schema.names[j] for j, _, _ in exp.adverse.change
        ] if exp.adverse else []),
        "supporting_pairs": exp.supporting_pairs,
        "exception_pairs": exp.exception_pairs,
        "strength": exp.strength,
        "sentence": exp.sentence,
    }
    _emit(payload, args.format, exp.sentence)
    return EXIT_OK if exp.supported else EXIT_NO_SOLUTION


# ---------------------------------------------------------------------------
# deps
# ---------------------------------------------------------------------------

def _cmd_deps(args) -> int:
    # --x and --y ask for one check; neither asks for discovery.
    single = args.x is not None or args.y is not None
    if single and not (args.x and args.y):
        raise _UsageError("a single check needs both --x and --y attribute lists")
    rel = _load_relation(args)
    payload: dict = {
        "command": "deps",
        "data": str(args.data),
        "attributes": list(rel.schema.names),
        "rows": len(rel),
        "mode": "single" if single else "exhaustive",
    }
    if single:
        f = relational.decide_dependency(rel, args.x.split(","), args.y.split(","))
        mvd_w = None if f.mvd else relational.mvd_witness(rel, f.x, f.y)
        weak_w = None if f.weak_mvd else relational.weak_mvd_witness(rel, f.x, f.y)
        payload["finding"] = {**vars(f), "mvd_witness": mvd_w,
                              "weak_mvd_witness": weak_w}
        human = (f"X={','.join(f.x)} Y={','.join(f.y)}: FD={f.fd} MVD={f.mvd} "
                 f"weak-MVD={f.weak_mvd} trivial={f.trivial} "
                 f"lossless-join={f.lossless_join}")
        if mvd_w is not None:
            human += (f"\n  MVD fails: exchanging {list(mvd_w[0])} and "
                      f"{list(mvd_w[1])} needs missing {list(mvd_w[2])}")
        _emit(payload, args.format, human)
        return EXIT_OK
    findings = relational.discover_dependencies(rel)
    # A finding's fields are its payload; JSON writes the tuples as lists.
    payload["findings"] = [vars(f) for f in findings]
    lines = []
    for f in findings:
        if f.mvd and not f.trivial:
            lines.append(f"{{{','.join(f.x)}}} ->> {{{','.join(f.y)}}}"
                         f" (FD={f.fd}, lossless join={f.lossless_join})")
    human = "\n".join(lines) if lines else "no non-trivial multivalued dependencies"
    _emit(payload, args.format, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _load_spec(args) -> dict:
    if not args.spec:
        return {}
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read spec {args.spec}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and bad UTF-8
        raise _UsageError(f"spec {args.spec} is not valid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise _UsageError(f"spec {args.spec} must be a JSON object")
    for key, value in spec.items():
        expected = SPEC_KEYS[args.kind].get(key)
        if expected is None:
            raise _UsageError(f"spec {args.spec} has unknown key {key!r} "
                              f"for --kind {args.kind}")
        if type(value) not in _JSON_TYPES[expected]:
            raise _UsageError(f"spec {args.spec} key {key!r} must be a JSON {expected}")
        if key in SPEC_ITEMS:
            _check_items(args.spec, key, value)
    return spec


def _check_items(path: str, key: str, items: list) -> None:
    """A usage error naming the first item of the spec array ``key`` that
    is not an object with the fields ``SPEC_ITEMS`` gives it, or the
    first of its fields whose value is not of that field's JSON type."""
    required, optional = SPEC_ITEMS[key]
    types = {**required, **optional}
    shape = "an object with " + " and ".join(map(repr, required))
    if optional:
        shape += " and optionally " + ", ".join(map(repr, optional))
    for index, item in enumerate(items):
        where = f"malformed spec {path}: {key!r} item {index}"
        if not isinstance(item, dict):
            raise _UsageError(f"{where} is not an object; expected {shape}")
        missing = [name for name in required if name not in item]
        unknown = [name for name in item if name not in types]
        if missing or unknown:
            problem = (f"lacks {missing[0]!r}" if missing
                       else f"has unknown field {unknown[0]!r}")
            raise _UsageError(f"{where} {problem}; expected {shape}")
        for name, value in item.items():
            expected = types[name]
            if expected is not None and type(value) not in _JSON_TYPES[expected]:
                raise _UsageError(f"{where} field {name!r} must be a JSON {expected}")


def _generate(args, spec: dict):
    """The dataset or relation a generate request describes."""
    kind = args.kind
    if kind in ("monk1", "monk2", "monk3"):
        return data.generate_monk(int(kind[-1]))
    if kind == "affine":
        if args.n is None:
            raise _UsageError("affine generation needs --n")
        coeffs = _parse_int_list(args.coeffs) if args.coeffs is not None else None
        return data.generate_affine(args.n, coeffs, args.seed)
    if kind == "planted-rule":
        raw_rules = spec.get("rules")
        if not raw_rules:
            raise _UsageError("planted-rule generation needs --spec with a 'rules' list")
        rules = [data.PlantedRule(**r) for r in raw_rules]
        return data.generate_planted_rules(rules)[0]
    # argparse restricts --kind to SPEC_KEYS, so what is left is random-relation.
    attrs = spec.get("attributes")
    if not attrs:
        raise _UsageError("random-relation generation needs --spec with 'attributes'")
    if args.seed is None:
        raise _UsageError("random-relation generation is seeded; pass --seed")
    schema = data.Schema(tuple(data.Attribute(a["name"], a["domain"]) for a in attrs))
    if args.tuples is None:
        raise _UsageError("random-relation generation needs --tuples")
    return data.generate_random_relation(schema, args.tuples, args.seed)


def _cmd_generate(args) -> int:
    for option in ("n", "coeffs", "tuples", "seed"):
        if getattr(args, option) is not None and option not in KIND_OPTIONS[args.kind]:
            raise _UsageError(f"--{option} does not apply to --kind {args.kind}")
    if args.coeffs is not None and args.seed is not None:
        raise _UsageError("--coeffs and --seed both set the affine coefficients; "
                          "pass one of them")
    spec = _load_spec(args)
    made = _generate(args, spec)
    rows = len(made)
    if isinstance(made, data.Relation):  # every column is an attribute
        write, schema, class_name = data.write_relation, made.schema, None
    else:  # a dataset's class column is its table's last
        write, schema, class_name = data.write_dataset, made.table, made.class_attr.name
    out = Path(args.out)
    try:
        write(made, out)
        if args.emit_schema:
            try:
                data.write_sidecar_schema(schema, out.with_suffix(".schema.json"),
                                          class_name=class_name)
            except OSError:
                out.unlink()  # leave no table without its schema
                raise
    except OSError as exc:  # a missing directory, a directory as --out, ...
        raise _UsageError(f"cannot write {exc.filename or args.out}: "
                          f"{exc.strerror or exc}") from exc
    payload = {"command": "generate", "kind": args.kind, "out": str(args.out),
               "rows": rows}
    _emit(payload, args.format, f"wrote {rows} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _one_character(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def _add_input(parser) -> None:
    parser.add_argument("--data", required=True)
    parser.add_argument("--schema", help="JSON sidecar schema file")
    parser.add_argument("--delimiter", default=",", type=_one_character,
                        help="cell delimiter, exactly one character (default "
                             "comma; use $'\\t' for tab)")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="output format on stdout")


@functools.cache  # one parser per process: parsing writes only to its Namespace
def build_parser() -> _Parser:
    parser = _Parser(prog="anaprop",
                     description="Analogical-proportion reasoning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ap = sub.add_parser("ap", help="check a proportion or solve its equation")
    p_ap.add_argument("action", choices=("check", "solve"))
    p_ap.add_argument("values", nargs="+",
                      help="4 values for check, 3 for solve")
    p_ap.add_argument("--domain", help="comma-separated domain to validate against")
    _add_format(p_ap)
    p_ap.set_defaults(func=_cmd_ap)

    p_ev = sub.add_parser("evaluate", help="cross-validated classifier study")
    _add_input(p_ev)
    p_ev.add_argument("--class-column")
    p_ev.add_argument("--strategy", choices=classify.STRATEGIES)
    p_ev.add_argument("--profile", choices=sorted(PROFILES),
                      help="named bundle of published experimental settings")
    p_ev.add_argument("--folds", type=int)
    p_ev.add_argument("--seed", type=int)
    p_ev.add_argument("--radius", type=int,
                      help="Hamming bound on c around the query (selected)")
    p_ev.add_argument("--neighbor-budget", type=int,
                      help="voting neighbors per query (bongard)")
    p_ev.add_argument("--max-literals", type=int,
                      help="separation conjunction size bound (bongard)")
    p_ev.add_argument("--k", type=int, help="neighbor count (knn)")
    p_ev.add_argument("--min-support", type=int)
    p_ev.add_argument("--min-confidence", type=float)
    p_ev.add_argument("--subsample", type=float,
                      help="pair-mining fraction of each training fold")
    p_ev.add_argument("--fallback", choices=classify.FALLBACKS,
                      help="classifier for abstained queries (default knn1)")
    p_ev.add_argument("--grid",
                      help="comma-separated neighbor grid (bongard/knn)")
    _add_format(p_ev)
    p_ev.set_defaults(func=_cmd_evaluate)

    p_ex = sub.add_parser("explain", help="contrastive explanation for a row")
    _add_input(p_ex)
    p_ex.add_argument("--query", help="comma-separated full row")
    p_ex.add_argument("--query-index", type=int, help="0-based row number")
    p_ex.add_argument("--why", metavar="ATTRIBUTE",
                      help="explain the query's value of this attribute")
    p_ex.add_argument("--why-not", metavar="ATTRIBUTE=VALUE",
                      help="explain why the attribute does not take this value")
    _add_format(p_ex)
    p_ex.set_defaults(func=_cmd_explain)

    p_dep = sub.add_parser("deps", help="dependency analysis of a relation")
    _add_input(p_dep)
    p_dep.add_argument("--x", help="comma-separated attribute names; with --y, "
                                   "check this one (X, Y) instead of discovering all")
    p_dep.add_argument("--y", help="comma-separated attribute names")
    _add_format(p_dep)
    p_dep.set_defaults(func=_cmd_deps)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--kind", required=True, choices=tuple(SPEC_KEYS))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n", type=int, help="attribute count (affine)")
    p_gen.add_argument("--coeffs", help="comma-separated 0/1 coefficients (affine)")
    p_gen.add_argument("--tuples", type=int, help="tuple count (random-relation)")
    p_gen.add_argument("--seed", type=int,
                       help="random seed (affine without --coeffs, random-relation)")
    p_gen.add_argument("--spec", help="JSON generator spec file")
    p_gen.add_argument("--emit-schema", action="store_true",
                       help="also write a sidecar schema next to the output")
    _add_format(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
