"""Nominal tabular data: loading, validation, writing, synthetic corpora.

Datasets are labeled examples (descriptive attributes plus one class
column); relations are plain sets of tuples used by the dependency
checks.  Both come from delimited text files with a header row, read by
one reader into a schema over all the columns, with domains either
inferred from the observed values (and then closed: unseen values are
errors) or declared in a JSON sidecar schema; a dataset then splits off
its class column.  Column names must be unique in either case.

``canonical_json`` is the one writer of the package's JSON: the CLI's
payloads and the sidecar schemas.

Generators cover the test corpora: full truth tables of affine Boolean
functions, datasets with planted change-to-class rules and known
support/confidence ground truth, uniform random relations, and the three
Monk benchmark problems (the full 432-row attribute space labeled by the
standard concept definitions).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field, replace
from itertools import product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import Attribute, Diff, Item, Schema

#: The cell that marks a missing value in a table file.
MISSING = "?"


class DataError(ValueError):
    """Malformed input data or an unsatisfiable generator request."""


@dataclass(frozen=True)
class Dataset:
    """Labeled nominal examples over a fixed schema.

    Row order is preserved from the source; duplicate items (even with
    conflicting labels) are kept.  ``table`` is the schema of its table:
    the attributes, then the class, which may not share an attribute's name.
    """

    schema: Schema
    class_attr: Attribute
    items: tuple[Item, ...]
    labels: tuple[str, ...]
    table: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table",
                           Schema(self.schema.attributes + (self.class_attr,)))
        if len(self.items) != len(self.labels):
            raise DataError("items and labels differ in length")
        for item in self.items:
            self.schema.validate_item(item)
        for label in self.labels:
            self.class_attr.check(label)

    def __len__(self) -> int:
        return len(self.items)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """The rows at ``indices``, in that order."""
        return replace(self, items=tuple(self.items[i] for i in indices),
                       labels=tuple(self.labels[i] for i in indices))


@dataclass(frozen=True)
class Relation:
    """A finite set of tuples over a schema (set semantics, no duplicates)."""

    schema: Schema
    tuples: tuple[Item, ...]
    duplicates_dropped: int = 0

    def __post_init__(self) -> None:
        for t in self.tuples:
            self.schema.validate_item(t)
        if len(set(self.tuples)) != len(self.tuples):
            raise DataError("relation tuples must be unique; use from_rows()")

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[str]]) -> "Relation":
        """Build a relation, silently deduplicating but counting duplicates."""
        seen: dict[Item, None] = {}
        dropped = 0
        for row in rows:
            t = tuple(row)
            if t in seen:
                dropped += 1
            else:
                seen[t] = None
        return cls(schema, tuple(seen), dropped)

    def __len__(self) -> int:
        return len(self.tuples)

    def as_set(self) -> frozenset[Item]:
        return frozenset(self.tuples)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_LITERALS = {True: "true", False: "false", None: "null"}


def canonical_json(payload, _indent: str = "\n") -> str:
    """``payload`` as canonical JSON: the text of ``json.dumps(payload,
    indent=2, sort_keys=True)``, built by one walk that joins strings.

    With ``indent`` set, CPython 3.11's ``json.dumps`` runs its pure-Python
    encoder; this walk encodes strings with the same C escaper and is
    faster.  It takes only the exact types JSON has (str, int, float,
    bool, None, list, tuple, and dict with str keys): any other type, or
    a key that is not a str, raises TypeError.  ``_indent`` is the line
    break and indent of the enclosing level, passed down the recursion.
    """
    kind = type(payload)
    if kind is str:
        return encode_basestring_ascii(payload)
    if kind is dict:
        if not payload:
            return "{}"
        inner = _indent + "  "
        for key in payload:
            if type(key) is not str:
                raise TypeError(f"canonical JSON keys are str, got {key!r}")
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + canonical_json(payload[key], inner)
            for key in sorted(payload)]) + _indent + "}")
    if kind is list or kind is tuple:
        if not payload:
            return "[]"
        inner = _indent + "  "
        return ("[" + inner + ("," + inner).join([
            canonical_json(item, inner) for item in payload]) + _indent + "]")
    if kind is int:
        return int.__repr__(payload)
    if kind is float:  # json.dumps spells NaN and the infinities
        return float.__repr__(payload) if math.isfinite(payload) else json.dumps(payload)
    if kind is bool or payload is None:
        return _LITERALS[payload]
    raise TypeError(f"canonical JSON has no {kind.__name__} values")


def _read_table(path: str | Path, delimiter: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
        raise DataError(f"{path}: unreadable CSV ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, *body = rows
    if not body:
        raise DataError(f"{path}: no data rows below the header")
    width = len(header)
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise DataError(
                f"{path}: ragged row at line {lineno} "
                f"({len(row)} cells, expected {width})"
            )
        if MISSING in row:
            raise DataError(f"{path}: missing value at line {lineno}; "
                            f"methods here need complete tuples")
    return header, body


def _load_sidecar_schema(path: str | Path, table: str | Path,
                         header: list[str]) -> tuple[Schema, Optional[str]]:
    """Read a JSON sidecar: attribute domains plus an optional class column.
    Its attribute names must be ``header``, the header of ``table``."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and bad UTF-8
        raise DataError(f"{path}: schema sidecar is not valid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise DataError(f"{path}: schema sidecar must be a JSON object")
    try:
        schema = Schema(tuple(
            Attribute(entry["name"], entry["domain"])
            for entry in spec["attributes"]
        ))
    except (KeyError, TypeError) as exc:  # also unhashable attribute names
        raise DataError(f"{path}: malformed schema sidecar ({exc})") from exc
    if list(schema.names) != header:
        raise DataError(
            f"{table}: header {header} does not match sidecar attributes "
            f"{list(schema.names)}"
        )
    return schema, spec.get("class")


def write_sidecar_schema(schema: Schema, path: str | Path,
                         class_name: Optional[str] = None) -> None:
    payload: dict = {
        "attributes": [
            {"name": a.name, "domain": list(a.domain)} for a in schema.attributes
        ]
    }
    if class_name is not None:
        payload["class"] = class_name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload) + "\n")


def _check_column(attr: Attribute, column: Iterable[str], path) -> None:
    for v in set(column):
        if v not in attr.domain:
            raise DataError(
                f"{path}: value {v!r} in column {attr.name!r} is outside the "
                f"declared domain {list(attr.domain)}"
            )


def _infer_attribute(name: str, column: Iterable[str]) -> Attribute:
    values = sorted(set(column))
    if len(values) < 2:
        raise DataError(
            f"column {name!r} is constant ({values!r}); declare its full domain "
            f"in a sidecar schema file"
        )
    return Attribute(name, tuple(values))


def _read_columns(path: str | Path, delimiter: str,
                  schema_file: Optional[str | Path]
                  ) -> tuple[Schema, Optional[str], list[list[str]]]:
    """A table's schema over all its columns, the class column its sidecar
    names (if any) and its data rows.  With a sidecar, the schema is the
    sidecar's and every column is checked against it; otherwise each
    column's domain is inferred from its values, in header order."""
    header, body = _read_table(path, delimiter)
    columns = list(zip(*body))
    if schema_file is None:
        schema = Schema(tuple(_infer_attribute(name, column)
                              for name, column in zip(header, columns)))
        return schema, None, body
    schema, declared_class = _load_sidecar_schema(schema_file, path, header)
    for attr, column in zip(schema.attributes, columns):
        _check_column(attr, column, path)
    return schema, declared_class, body


def load_dataset(path: str | Path, *, delimiter: str = ",",
                 class_column: Optional[str] = None,
                 schema_file: Optional[str | Path] = None) -> Dataset:
    """Load a labeled dataset; the class column defaults to the last one."""
    schema, declared_class, body = _read_columns(path, delimiter, schema_file)
    names = list(schema.names)
    class_name = class_column or declared_class or names[-1]
    if class_name not in names:
        raise DataError(f"{path}: class column {class_name!r} not in header {names}")
    pos = names.index(class_name)
    attrs = schema.attributes
    items = tuple(tuple(row[:pos] + row[pos + 1:]) for row in body)
    labels = tuple(row[pos] for row in body)
    return Dataset(Schema(attrs[:pos] + attrs[pos + 1:]), attrs[pos], items, labels)


def load_relation(path: str | Path, *, delimiter: str = ",",
                  schema_file: Optional[str | Path] = None) -> Relation:
    """Load a relation (all columns are attributes; duplicate rows dropped)."""
    schema, _, body = _read_columns(path, delimiter, schema_file)
    return Relation.from_rows(schema, body)


def _write_table(path: str | Path, header: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as one table, class column last, every row kept."""
    _write_table(path, ds.table.names,
                 ((*item, label) for item, label in zip(ds.items, ds.labels)))


def write_relation(rel: Relation, path: str | Path) -> None:
    _write_table(path, rel.schema.names, rel.tuples)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_affine(n: int, coefficients: Optional[Sequence[int]] = None,
                    seed: Optional[int] = None) -> Dataset:
    """Full truth table of f(x) = c0 xor c1*x1 xor ... xor cn*xn.

    ``coefficients`` is (c0, ..., cn) over {0,1}; when omitted they are
    drawn from ``seed``.  Rows are in lexicographic order, so the output
    is a pure function of (n, coefficients).
    """
    if n < 1 or n > 20:
        raise DataError(f"affine generator supports 1 <= n <= 20, got {n}")
    if coefficients is None:
        if seed is None:
            raise DataError("affine generator needs coefficients or a seed")
        rng = random.Random(seed)
        coefficients = tuple(rng.randint(0, 1) for _ in range(n + 1))
    # 1.0 and True compare equal to 1, so the type is checked as well.
    if len(coefficients) != n + 1 or any(
            type(c) is not int or c not in (0, 1) for c in coefficients):
        raise DataError(f"need n+1 coefficients in {{0,1}}, got {tuple(coefficients)!r}")
    schema = Schema.from_pairs((f"x{i}", ("0", "1")) for i in range(1, n + 1))
    class_attr = Attribute("f", ("0", "1"))
    items = []
    labels = []
    for bits in product("01", repeat=n):
        value = coefficients[0]
        for c, b in zip(coefficients[1:], bits):
            value ^= c & int(b)
        items.append(bits)
        labels.append(str(value))
    return Dataset(schema, class_attr, tuple(items), tuple(labels))


@dataclass(frozen=True)
class PlantedRule:
    """One change-to-class rule to plant in a synthetic dataset.

    ``pairs`` instances of the rule's difference vector are generated, of
    which ``exceptions`` deviate from the stated behavior.  A tilting rule
    flips the label from ``label_from`` to ``label_to``; a same-label rule
    (``label_to is None``) keeps ``label_from`` on both sides, and its
    exceptions tilt to ``alt_label``.
    """

    pairs: int
    exceptions: int = 0
    label_from: str = "c0"
    label_to: Optional[str] = "c1"
    alt_label: str = "c1"

    def __post_init__(self) -> None:
        # A fractional count would be reported but not planted.
        if not all(type(n) is int for n in (self.pairs, self.exceptions)):
            raise DataError("a planted rule's pairs and exceptions must be integers")
        if self.pairs < 1:
            raise DataError("a planted rule needs at least one pair")
        if not 0 <= self.exceptions < self.pairs:
            raise DataError("exceptions must be fewer than the rule's pairs")
        # Either would plant pairs that keep label_from, against the rule.
        if self.label_to == self.label_from:
            raise DataError("a tilting rule needs label_to to differ from label_from")
        if self.label_to is None and self.exceptions and self.alt_label == self.label_from:
            raise DataError("the exceptions of a same-label rule need alt_label "
                            "to differ from label_from")

    @property
    def confidence(self) -> float:
        return (self.pairs - self.exceptions) / self.pairs


@dataclass(frozen=True)
class PlantedGroundTruth:
    change: Diff
    tilt: Optional[tuple[str, str]]  # None for a same-label rule
    support: int
    confidence: float


def generate_planted_rules(
    rules: Sequence[PlantedRule],
) -> tuple[Dataset, tuple[PlantedGroundTruth, ...]]:
    """Dataset in which each rule's difference vector appears exactly
    ``pairs`` times, with the stated number of exceptions.

    Every pair gets a unique context value, so no accidental pair shares a
    planted difference vector; the mirrored (b,a) pairs form separate
    groups.  Returns the dataset plus the ground-truth rule list.
    """
    if not rules:
        raise DataError("need at least one planted rule")
    total_pairs = sum(r.pairs for r in rules)
    if total_pairs < 2:
        raise DataError("need at least two pair instances overall")
    k = len(rules)
    ctx_domain = tuple(f"ctx{i:03d}" for i in range(total_pairs))
    change_domain = ("hi", "lo", "off")
    attrs = [Attribute("ctx", ctx_domain)]
    attrs += [Attribute(f"d{r}", change_domain) for r in range(k)]
    schema = Schema(tuple(attrs))

    label_pool = {"c0", "c1"}
    for r in rules:
        label_pool.add(r.label_from)
        if r.label_to is not None:
            label_pool.add(r.label_to)
        label_pool.add(r.alt_label)
    class_attr = Attribute("label", tuple(sorted(label_pool)))

    items: list[Item] = []
    labels: list[str] = []
    truths: list[PlantedGroundTruth] = []
    ctx_counter = 0
    for r_idx, rule in enumerate(rules):
        for instance in range(rule.pairs):
            ctx = ctx_domain[ctx_counter]
            ctx_counter += 1
            base = ["off"] * k
            item_a = (ctx, *base[:r_idx], "lo", *base[r_idx + 1:])
            item_b = (ctx, *base[:r_idx], "hi", *base[r_idx + 1:])
            is_exception = instance >= rule.pairs - rule.exceptions
            if rule.label_to is not None:  # tilting rule
                if is_exception:
                    la = lb = rule.label_from
                else:
                    la, lb = rule.label_from, rule.label_to
            else:  # same-label rule
                if is_exception:
                    la, lb = rule.label_from, rule.alt_label
                else:
                    la = lb = rule.label_from
            items += [item_a, item_b]
            labels += [la, lb]
        change: Diff = tuple(
            ("lo", "hi") if pos == r_idx + 1 else None for pos in range(k + 1)
        )
        tilt = None if rule.label_to is None else (rule.label_from, rule.label_to)
        truths.append(
            PlantedGroundTruth(change, tilt, rule.pairs - rule.exceptions,
                               rule.confidence)
        )
    return Dataset(schema, class_attr, tuple(items), tuple(labels)), tuple(truths)


def generate_random_relation(schema: Schema, tuple_count: int, seed: int) -> Relation:
    """Uniform sample of distinct tuples from the schema's product space."""
    total = math.prod(len(a.domain) for a in schema.attributes)
    if not 1 <= tuple_count <= total:
        raise DataError(
            f"tuple_count must be in [1, {total}] for this schema, got {tuple_count}"
        )
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), tuple_count))
    rows = []
    for code in picks:
        row = []
        for attr in reversed(schema.attributes):
            code, r = divmod(code, len(attr.domain))
            row.append(attr.domain[r])
        rows.append(tuple(reversed(row)))
    return Relation.from_rows(schema, sorted(rows))


# Monk benchmark problems: the full 432-row space of six attributes with
# sizes (3, 3, 2, 3, 4, 2), labeled by the standard concept definitions
# (no label noise).
_MONK_SIZES = (3, 3, 2, 3, 4, 2)


def _monk_concept(which: int, v: tuple[int, ...]) -> bool:
    a1, a2, a3, a4, a5, a6 = v
    if which == 1:
        return a1 == a2 or a5 == 1
    if which == 2:
        return sum(1 for x in v if x == 1) == 2
    return (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3)


def generate_monk(which: int) -> Dataset:
    """One of the three Monk problems over its complete attribute space."""
    if which not in (1, 2, 3):
        raise DataError(f"unknown monk problem {which}; pick 1, 2 or 3")
    schema = Schema.from_pairs(
        (f"a{i+1}", tuple(str(v) for v in range(1, size + 1)))
        for i, size in enumerate(_MONK_SIZES)
    )
    class_attr = Attribute("class", ("0", "1"))
    items = []
    labels = []
    for combo in product(*(range(1, s + 1) for s in _MONK_SIZES)):
        items.append(tuple(str(v) for v in combo))
        labels.append("1" if _monk_concept(which, combo) else "0")
    return Dataset(schema, class_attr, tuple(items), tuple(labels))
