"""Command-line behavior: commands, exit codes, canonical JSON."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anaprop
from anaprop.cli import SPEC_ITEMS, build_parser, main
from anaprop.data import (PlantedRule, generate_affine, generate_monk, load_relation,
                          write_dataset)

DATA = Path(__file__).parent / "data"
COFFEE = [str(DATA / "coffee.csv"), "--schema", str(DATA / "coffee.schema.json")]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApCommand:
    def test_check_true(self, capsys):
        code, out, _ = run(capsys, ["ap", "check", "0", "0", "1", "1"])
        assert code == 0 and out.strip() == "true"

    def test_check_false(self, capsys):
        code, out, _ = run(capsys, ["ap", "check", "0", "1", "1", "0"])
        assert code == 0 and out.strip() == "false"

    def test_solve_no_solution_exit_code(self, capsys):
        code, out, _ = run(capsys, ["ap", "solve", "0", "1", "1"])
        assert code == 3 and out.strip() == "NO-SOLUTION"

    def test_solve_nominal(self, capsys):
        code, out, _ = run(capsys, ["ap", "solve", "g", "g", "h"])
        assert code == 0 and out.strip() == "h"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["ap", "check", "g", "h", "g", "h",
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out) == {
            "command": "ap-check", "values": ["g", "h", "g", "h"], "holds": True,
        }

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["ap", "check", "0", "1"])
        assert code == 1 and "4 values" in err

    def test_domain_violation_is_data_error(self, capsys):
        code, _, err = run(capsys, ["ap", "check", "0", "0", "1", "2",
                                    "--domain", "0,1"])
        assert code == 2 and "domain" in err


class TestExplainCommand:
    def test_why_milk_golden(self, capsys):
        code, out, _ = run(capsys, [
            "explain", "--data", *COFFEE[:1], "--schema", COFFEE[2],
            "--query", "sit_2,no,coffee,yes,yes", "--why", "with_milk",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["change_attributes"] == ["situation"]
        assert payload["strength"] == 1.0
        assert payload["supported"] is True

    def test_why_sugar_golden(self, capsys):
        code, out, _ = run(capsys, [
            "explain", "--data", *COFFEE[:1], "--schema", COFFEE[2],
            "--query", "sit_2,no,coffee,yes,yes", "--why", "with_sugar",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["change_attributes"] == ["contraind."]

    def test_query_by_index(self, capsys):
        code, out, _ = run(capsys, [
            "explain", "--data", *COFFEE[:1], "--schema", COFFEE[2],
            "--query-index", "1", "--why-not", "with_milk=yes",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["change_attributes"] == ["situation"]

    def test_unsupported_is_exit_three(self, capsys, tmp_path):
        # A single-row table yields an adverse example but no pair support.
        table = tmp_path / "t.csv"
        table.write_text("x,res\n0,p\n")
        sidecar = tmp_path / "t.schema.json"
        sidecar.write_text(json.dumps({"attributes": [
            {"name": "x", "domain": ["0", "1"]},
            {"name": "res", "domain": ["p", "q"]},
        ]}))
        code, out, _ = run(capsys, [
            "explain", "--data", str(table), "--schema", str(sidecar),
            "--query", "1,q", "--why", "res", "--format", "json",
        ])
        assert code == 3
        assert json.loads(out)["supported"] is False

    def test_an_adverse_row_equal_elsewhere_is_not_denied(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("a,r\n0,p\n0,q\n1,p\n")
        code, out, _ = run(capsys, ["explain", "--data", str(table), "--query-index", "0",
                                    "--why", "r", "--format", "json"])
        payload = json.loads(out)
        assert (code, payload["supported"], payload["adverse_example"]) == (3, False, None)
        assert payload["sentence"] == ("unsupported: every row with r=q agrees with "
                                       "the query on every other attribute")

    def test_needs_exactly_one_question(self, capsys):
        code, _, err = run(capsys, [
            "explain", "--data", *COFFEE[:1], "--schema", COFFEE[2],
            "--query", "sit_2,no,coffee,yes,yes",
        ])
        assert code == 1


class TestDepsCommand:
    def test_courses_exhaustive(self, capsys):
        code, out, _ = run(capsys, [
            "deps", "--data", str(DATA / "courses.csv"), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        nontrivial = {
            (tuple(f["x"]), tuple(f["y"]))
            for f in payload["findings"] if f["mvd"] and not f["trivial"]
        }
        assert (("course",), ("teacher",)) in nontrivial
        assert (("course",), ("time",)) in nontrivial

    def test_single_mode_witness_on_broken_relation(self, capsys, tmp_path):
        rows = (DATA / "courses.csv").read_text().splitlines()
        rows.remove("Maths,Paul,2pm")
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, [
            "deps", "--data", str(broken),
            "--x", "course", "--y", "teacher", "--format", "json",
        ])
        assert code == 0
        finding = json.loads(out)["finding"]
        assert finding["mvd"] is False
        assert finding["mvd_witness"][2] == ["Maths", "Paul", "2pm"]
        assert finding["lossless_join"] is False

    def test_single_tuple_relation(self, capsys, tmp_path):
        table = tmp_path / "one.csv"
        table.write_text("a,b\nx,p\n")
        sidecar = tmp_path / "one.schema.json"
        sidecar.write_text(json.dumps({"attributes": [
            {"name": "a", "domain": ["x", "y"]},
            {"name": "b", "domain": ["p", "q"]},
        ]}))
        code, out, _ = run(capsys, [
            "deps", "--data", str(table), "--schema", str(sidecar),
            "--x", "a", "--y", "b", "--format", "json",
        ])
        assert code == 0
        finding = json.loads(out)["finding"]
        assert finding["fd"] and finding["mvd"] and finding["weak_mvd"]

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, ["deps", "--data", "/nonexistent.csv"])
        assert code == 2

    def test_single_mode_echoes_canonical_attribute_lists(self, capsys):
        argv = ["deps", "--data", str(DATA / "courses.csv"),
                "--x", "course,course", "--y", "time,teacher,time"]
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        finding = json.loads(out)["finding"]
        assert finding["x"] == ["course"]
        assert finding["y"] == ["teacher", "time"]
        code, out, _ = run(capsys, argv)
        assert out.startswith("X=course Y=teacher,time: ")


class TestGenerateCommand:
    def test_monk_counts(self, capsys, tmp_path):
        out_file = tmp_path / "monk1.csv"
        code, out, _ = run(capsys, [
            "generate", "--kind", "monk1", "--out", str(out_file),
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["rows"] == 432
        assert len(out_file.read_text().splitlines()) == 433

    def test_affine_via_flags(self, capsys, tmp_path):
        out_file = tmp_path / "xor.csv"
        code, _, _ = run(capsys, [
            "generate", "--kind", "affine", "--n", "2", "--coeffs", "0,1,1",
            "--out", str(out_file),
        ])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x1,x2,f"
        assert [l.split(",")[-1] for l in lines[1:]] == ["0", "1", "1", "0"]

    def test_planted_rule_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"rules": [{"pairs": 4, "exceptions": 1}, {"pairs": 3}]}
        ))
        out_file = tmp_path / "planted.csv"
        code, out, _ = run(capsys, [
            "generate", "--kind", "planted-rule", "--spec", str(spec),
            "--out", str(out_file), "--format", "json",
        ])
        assert code == 0 and json.loads(out)["rows"] == 14

    def test_random_relation(self, capsys, tmp_path):
        spec = tmp_path / "schema.json"
        spec.write_text(json.dumps({"attributes": [
            {"name": "a", "domain": ["0", "1"]},
            {"name": "b", "domain": ["0", "1", "2"]},
        ]}))
        out_file = tmp_path / "rel.csv"
        code, out, _ = run(capsys, [
            "generate", "--kind", "random-relation", "--spec", str(spec),
            "--tuples", "4", "--seed", "5", "--out", str(out_file),
            "--format", "json",
        ])
        assert code == 0 and json.loads(out)["rows"] == 4

    def test_random_relation_sidecar_declares_the_spec_domains(self, capsys, tmp_path):
        # Seed 3 draws ('0', 'y') and ('1', 'y'): column b is constant, so
        # only a sidecar gives its domain.
        attributes = [{"name": "a", "domain": ["0", "1"]},
                      {"name": "b", "domain": ["x", "y", "z"]}]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"attributes": attributes}))
        table, sidecar = tmp_path / "rel.csv", tmp_path / "rel.schema.json"
        code, out, _ = run(capsys, [
            "generate", "--kind", "random-relation", "--spec", str(spec),
            "--tuples", "2", "--seed", "3", "--out", str(table), "--emit-schema",
        ])
        assert (code, out) == (0, f"wrote 2 rows to {table}\n")
        assert json.loads(sidecar.read_text()) == {"attributes": attributes}  # no class
        assert run(capsys, ["deps", "--data", str(table)])[0] == 2
        code, out, err = run(capsys, ["deps", "--data", str(table), "--schema",
                                      str(sidecar), "--format", "json"])
        assert (code, err) == (0, "") and json.loads(out)["rows"] == 2
        rel = load_relation(table, schema_file=sidecar)
        assert [list(a.domain) for a in rel.schema.attributes] == \
            [a["domain"] for a in attributes]
        assert {t[1] for t in rel.tuples} == {"y"}

    def test_seed_required_for_random_kind(self, capsys, tmp_path):
        spec = tmp_path / "schema.json"
        spec.write_text(json.dumps({"attributes": [
            {"name": "a", "domain": ["0", "1"]},
        ]}))
        code, _, err = run(capsys, [
            "generate", "--kind", "random-relation", "--spec", str(spec),
            "--tuples", "1", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1 and "seed" in err


def run_subprocess(argv, **env_vars):
    """Run the CLI in a fresh interpreter so an escaped exception would
    show as a traceback on stderr; ``env_vars`` are set in its
    environment."""
    env = dict(os.environ, **env_vars)
    src = str(Path(anaprop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "anaprop.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestMalformedInputsExitCleanly:
    """Malformed files map to an exit code and one line on stderr."""

    def assert_clean(self, code, err, expected_code):
        assert code == expected_code
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    # (argv, text of the spec file or None, exit code).  SPEC, OUT, MONK,
    # FOUR and ABSENT stand for that spec file, an output file, the 432-row
    # Monk-1 table, a 4-row table and a file that does not exist, all under
    # the test's tmp_path.
    GENERATE = ["generate", "--spec", "SPEC", "--out", "OUT", "--kind"]
    EXIT_PATHS = [
        pytest.param(["ap", "solve", "0", "1"], None, 1, id="ap-solve-two-values"),
        pytest.param(["explain", "--data", "MONK", "--query", "1,1,1,1,1,1,1",
                      "--query-index", "0", "--why", "class"], None, 1,
                     id="explain-query-and-query-index"),
        pytest.param(["explain", "--data", "MONK", "--query-index", "0",
                      "--why-not", "class"], None, 1, id="why-not-without-equals"),
        pytest.param(["deps", "--data", "MONK", "--x", "a1"], None, 1, id="x-without-y"),
        pytest.param(["deps", "--data", "MONK", "--y", "a1"], None, 1, id="y-without-x"),
        pytest.param(["evaluate", "--data", "MONK", "--strategy", "knn", "--seed", "1",
                      "--grid", "a,b"], None, 1, id="grid-not-integers"),
        pytest.param(["evaluate", "--data", "MONK", "--strategy", "knn", "--seed", "1",
                      "--k", "5", "--grid", "1,3"], None, 1, id="grid-and-k"),
        pytest.param(["evaluate", "--data", "MONK", "--strategy", "knn", "--seed", "1",
                      "--grid", "1,,3"], None, 1, id="grid-empty-item"),
        pytest.param(["evaluate", "--data", "MONK", "--profile", "table3",
                      "--neighbor-budget", "3"], None, 1, id="profile-grid-and-budget"),
        pytest.param(["evaluate", "--data", "MONK", "--seed", "1", "--radius", "-1"],
                     None, 1, id="negative-radius"),
        pytest.param(["evaluate", "--data", "FOUR", "--seed", "1", "--folds", "5"],
                     None, 2, id="more-folds-than-rows"),
        pytest.param(["evaluate", "--data", "MONK", "--seed", "1", "--class-column",
                      "nope"], None, 2, id="class-column-not-in-header"),
        pytest.param(["deps", "--data", "MONK", "--schema", "ABSENT"], None, 2,
                     id="missing-sidecar"),
        pytest.param(["deps", "--data", "MONK", "--schema", "SPEC"], "[]", 2,
                     id="sidecar-a-json-array"),
        pytest.param(["deps", "--data", "SPEC"], "a,b\n", 2, id="header-only-table"),
        pytest.param(["deps", "--data", "MONK", "--schema", "SPEC"],
                     '{"attributes": [{"name": "a", "domain": ["0", "1"]}]}', 2,
                     id="sidecar-names-differ-from-header"),
        pytest.param(GENERATE + ["affine", "--n", "50"], "{}", 2, id="affine-n-50"),
        pytest.param(GENERATE + ["affine", "--n", "3"], "{}", 2,
                     id="affine-without-coefficients-or-seed"),
        pytest.param(GENERATE + ["planted-rule"], '{"rules": [{"pairs": 0}]}', 2,
                     id="planted-rule-zero-pairs"),
        pytest.param(GENERATE + ["planted-rule"], '{"rules": [{"pairs": 1}]}', 2,
                     id="one-planted-pair-in-all"),
        pytest.param(GENERATE + ["planted-rule"], "{", 1, id="spec-not-json"),
        pytest.param(GENERATE + ["planted-rule"], "[]", 1, id="spec-a-json-array"),
        pytest.param(GENERATE + ["affine"], "{}", 1, id="affine-without-n"),
        pytest.param(GENERATE + ["planted-rule"], '{"rules": []}', 1,
                     id="planted-rule-without-rules"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     "{}", 1, id="random-relation-without-attributes"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1"],
                     '{"attributes": [{"name": "a", "domain": ["0", "1"]}]}', 1,
                     id="random-relation-without-tuples"),
        pytest.param(["explain", "--data", "MONK", "--query-index", "999",
                      "--why", "class"], None, 2, id="query-index-out-of-range"),
        pytest.param(GENERATE + ["planted-rule"],
                     '{"rules": [{"pairs": 3, "exceptions": 1.5}]}', 2,
                     id="planted-rule-fractional-exceptions"),
        pytest.param(GENERATE + ["affine", "--n", "2", "--coeffs", "1,2,0"], "{}", 2,
                     id="affine-coefficient-2"),
        pytest.param(GENERATE + ["affine", "--n", "3", "--coeffs", "1,,0,1"], "{}", 1,
                     id="coeffs-empty-item"),
        # An option that the kind does not read is a usage error, and so
        # are two options that set one thing.
        pytest.param(GENERATE + ["monk1", "--n", "3", "--seed", "4", "--tuples", "9",
                                 "--coeffs", "1,0"], "{}", 1, id="monk1-affine-options"),
        pytest.param(GENERATE + ["monk2", "--seed", "4"], "{}", 1, id="monk2-seed"),
        pytest.param(GENERATE + ["affine", "--n", "2", "--coeffs", "1,0,1", "--seed", "3"],
                     "{}", 1, id="affine-coeffs-and-seed"),
        pytest.param(GENERATE + ["affine", "--n", "2", "--seed", "3", "--tuples", "4"],
                     "{}", 1, id="affine-tuples"),
        pytest.param(GENERATE + ["planted-rule", "--seed", "9", "--n", "4"],
                     '{"rules": [{"pairs": 3}]}', 1, id="planted-rule-seed-and-n"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2",
                                 "--n", "5", "--coeffs", "1"],
                     '{"attributes": [{"name": "a", "domain": ["0", "1"]}]}', 1,
                     id="random-relation-n-and-coeffs"),
        # A top-level key the kind does not read is a usage error, and so
        # is a key that an option sets.
        pytest.param(GENERATE + ["planted-rule"],
                     '{"rules": [{"pairs": 3}], "rule": [{"pairs": 4}]}', 1,
                     id="planted-rule-second-list"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": [{"name": "a", "domain": ["0", "1"]}], "seed": 1}',
                     1, id="random-relation-seed-key"),
        # Each top-level value must have its key's JSON type.
        pytest.param(GENERATE + ["planted-rule"], '{"rules": {"pairs": 3}}', 1,
                     id="planted-rule-rules-an-object"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": {"name": "a", "domain": ["0", "1"]}}', 1,
                     id="random-relation-attributes-an-object"),
        # Each item of a spec array must be an object with its fields.
        pytest.param(GENERATE + ["planted-rule"], '{"rules": [3]}', 1,
                     id="planted-rule-rule-a-number"),
        pytest.param(GENERATE + ["planted-rule"], '{"rules": [{"exceptions": 1}]}', 1,
                     id="planted-rule-rule-without-pairs"),
        pytest.param(GENERATE + ["planted-rule"],
                     '{"rules": [{"pairs": 3}, {"pairs": 3, "colour": "red"}]}', 1,
                     id="planted-rule-unknown-rule-field"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": [{"nam": "a"}]}', 1,
                     id="random-relation-attribute-without-name"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": ["a"]}', 1,
                     id="random-relation-attribute-a-string"),
        # Each field of an item must have its field's JSON type.
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": [{"name": 5, "domain": ["0", "1"]}]}', 1,
                     id="random-relation-attribute-name-a-number"),
        pytest.param(GENERATE + ["planted-rule"],
                     '{"rules": [{"pairs": 3, "label_from": ["x"]}]}', 1,
                     id="planted-rule-label-from-an-array"),
        pytest.param(GENERATE + ["planted-rule"], '{"rules": [{"pairs": 3, "label_to": 5}]}',
                     1, id="planted-rule-label-to-a-number"),
        # A domain must be a list of strings, not a string's characters.
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": [{"name": "a", "domain": "yes"}]}', 2,
                     id="random-relation-string-domain"),
        pytest.param(GENERATE + ["random-relation", "--seed", "1", "--tuples", "2"],
                     '{"attributes": [{"name": "a", "domain": [0, 1]}]}', 2,
                     id="random-relation-number-domain"),
    ]

    def test_a_malformed_spec_item_is_named_with_its_shape(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"attributes": [{"name": "a", "domain": ["0"]}, {"nam": "b"}]}')
        code, out, err = run(capsys, ["generate", "--kind", "random-relation", "--seed",
                                      "1", "--tuples", "2", "--spec", str(spec), "--out",
                                      str(tmp_path / "r.csv")])
        assert (code, out) == (1, "")
        assert err == (f"error: malformed spec {spec}: 'attributes' item 1 lacks 'name'; "
                       "expected an object with 'name' and 'domain'\n")

    def test_a_spec_item_field_of_another_type_is_named(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"rules": [{"pairs": 3, "label_to": null}, '
                        '{"pairs": 3, "alt_label": 4}]}')
        code, out, err = run(capsys, ["generate", "--kind", "planted-rule", "--spec",
                                      str(spec), "--out", str(tmp_path / "p.csv")])
        assert (code, out) == (1, "")
        assert err == (f"error: malformed spec {spec}: 'rules' item 1 field 'alt_label' "
                       "must be a JSON string\n")

    @pytest.mark.parametrize("option, text", [
        ("--grid", "1,,3"), ("--grid", "1,3,"), ("--grid", ""),
        ("--coeffs", "1,,0,1"), ("--coeffs", "")])
    def test_an_empty_integer_list_item_is_quoted(self, capsys, tmp_path, option, text):
        command = (["evaluate", "--data", str(tmp_path / "absent.csv"), "--strategy",
                    "knn", "--seed", "1"] if option == "--grid" else
                   ["generate", "--kind", "affine", "--n", "3", "--out",
                    str(tmp_path / "out.csv")])
        code, out, err = run(capsys, command + [option, text])
        assert (code, out) == (1, "")
        assert err == f"error: expected a comma-separated integer list, got {text!r}\n"

    def test_spec_rule_fields_are_the_planted_rule_fields(self):
        required, optional = SPEC_ITEMS["rules"]
        assert {f.name: f.default is MISSING for f in fields(PlantedRule)} == \
            {**dict.fromkeys(required, True), **dict.fromkeys(optional, False)}

    @pytest.mark.parametrize("argv, spec, expected_code", EXIT_PATHS)
    def test_exit_path(self, capsys, tmp_path, argv, spec, expected_code):
        paths = {"SPEC": tmp_path / "spec.json", "OUT": tmp_path / "out.csv",
                 "MONK": tmp_path / "monk1.csv", "FOUR": tmp_path / "four.csv",
                 "ABSENT": tmp_path / "absent.json"}
        if spec is not None:
            paths["SPEC"].write_text(spec)
        write_dataset(generate_monk(1), paths["MONK"])
        write_dataset(generate_affine(2, (0, 1, 1)), paths["FOUR"])
        code, out, err = run(capsys, [str(paths.get(arg, arg)) for arg in argv])
        self.assert_clean(code, err, expected_code)
        assert out == ""
        assert not paths["OUT"].exists()

    @pytest.mark.parametrize("kind, options, key, value", [
        ("affine", ["--coeffs", "1,0,1"], "n", 2),
        ("affine", ["--n", "2"], "coefficients", [1, 0, 1]),
        ("random-relation", ["--seed", "1"], "tuples", 2)],
        ids=["n", "coefficients", "tuples"])
    def test_a_spec_key_that_an_option_sets_is_named(self, capsys, tmp_path, kind,
                                                      options, key, value):
        spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec.write_text(json.dumps({key: value}))
        code, stdout, err = run(capsys, ["generate", "--kind", kind, "--spec", str(spec),
                                         "--out", str(out), *options])
        assert (code, stdout) == (1, "") and not out.exists()
        assert err == f"error: spec {spec} has unknown key {key!r} for --kind {kind}\n"

    @pytest.mark.parametrize("kind, options, message", [
        ("monk1", ["--n", "3", "--seed", "4", "--tuples", "9", "--coeffs", "1,0"],
         "--n does not apply to --kind monk1"),
        ("planted-rule", ["--spec", "SPEC", "--seed", "9"],
         "--seed does not apply to --kind planted-rule"),
        ("random-relation", ["--spec", "SPEC", "--seed", "1", "--tuples", "2",
                             "--coeffs", "1"],
         "--coeffs does not apply to --kind random-relation"),
        ("affine", ["--n", "2", "--seed", "3", "--tuples", "4"],
         "--tuples does not apply to --kind affine"),
        ("affine", ["--n", "2", "--coeffs", "1,0,1", "--seed", "3"],
         "--coeffs and --seed both set the affine coefficients; pass one of them")],
        ids=["monk1", "planted-rule", "random-relation", "affine", "affine-coeffs-seed"])
    def test_an_option_its_kind_does_not_read_is_named(self, capsys, tmp_path, kind,
                                                       options, message):
        spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec.write_text('{"rules": [{"pairs": 3}]}' if kind == "planted-rule" else
                        '{"attributes": [{"name": "a", "domain": ["0", "1"]}]}')
        argv = ["generate", "--kind", kind, "--out", str(out),
                *[str(spec) if o == "SPEC" else o for o in options]]
        code, stdout, err = run(capsys, argv)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_truncated_schema_sidecar_is_data_error(self, tmp_path):
        sidecar = tmp_path / "bad.schema.json"
        sidecar.write_text('{"attributes": [')
        code, out, err = run_subprocess([
            "explain", "--data", COFFEE[0], "--schema", str(sidecar),
            "--query-index", "0", "--why", "with_milk",
        ])
        self.assert_clean(code, err, 2)
        assert out == "" and "not valid JSON" in err

    def test_missing_spec_file_is_usage_error(self, tmp_path):
        code, out, err = run_subprocess([
            "generate", "--kind", "planted-rule",
            "--spec", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "planted.csv"),
        ])
        self.assert_clean(code, err, 1)
        assert out == "" and "cannot read spec" in err
        assert not (tmp_path / "planted.csv").exists()

    def test_unknown_planted_rule_key_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rules": [{"pairs": 3, "colour": "red"}]}))
        code, out, err = run_subprocess([
            "generate", "--kind", "planted-rule", "--spec", str(spec),
            "--out", str(tmp_path / "planted.csv"),
        ])
        self.assert_clean(code, err, 1)
        assert out == "" and "colour" in err
        assert not (tmp_path / "planted.csv").exists()

    def test_planted_rule_against_its_truth_is_data_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rules": [{"pairs": 3, "label_to": "c0"}]}))
        code, out, err = run_subprocess([
            "generate", "--kind", "planted-rule", "--spec", str(spec),
            "--out", str(tmp_path / "planted.csv"),
        ])
        self.assert_clean(code, err, 2)
        assert out == "" and "label_to" in err
        assert not (tmp_path / "planted.csv").exists()

    def test_malformed_relation_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "schema.json"
        spec.write_text(json.dumps({"attributes": [{"domain": ["0", "1"]}]}))
        code, out, err = run_subprocess([
            "generate", "--kind", "random-relation", "--spec", str(spec),
            "--tuples", "1", "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ])
        self.assert_clean(code, err, 1)
        assert out == "" and "malformed spec" in err

    def test_unhashable_sidecar_name_is_data_error(self, tmp_path):
        sidecar = tmp_path / "bad.schema.json"
        sidecar.write_text(json.dumps({"attributes": [
            {"name": ["a"], "domain": ["0", "1"]},
            {"name": "b", "domain": ["0", "1"]},
        ]}))
        table = tmp_path / "t.csv"
        table.write_text("a,b\n0,1\n1,0\n")
        code, out, err = run_subprocess(["deps", "--data", str(table),
                                         "--schema", str(sidecar)])
        self.assert_clean(code, err, 2)
        assert out == "" and "malformed schema sidecar" in err

    def test_discovery_beyond_six_attributes_is_data_error(self, tmp_path):
        table = tmp_path / "wide.csv"
        table.write_text(",".join(f"a{i}" for i in range(7)) + "\n"
                         + "0,1,0,1,0,1,0\n1,0,1,0,1,0,1\n")
        code, out, err = run_subprocess(["deps", "--data", str(table)])
        self.assert_clean(code, err, 2)
        assert out == ""
        assert err == ("data error: exhaustive discovery is limited to 6 "
                       "attributes, schema has 7\n")

    def test_delimiter_of_other_than_one_character_is_usage_error(self, tmp_path):
        # Rejected while parsing the options: the data file does not exist.
        absent = str(tmp_path / "absent.csv")
        commands = [["evaluate", "--seed", "1"],
                    ["explain", "--query-index", "0", "--why", "a"],
                    ["deps"]]
        for command in commands:
            for delimiter in (";;", "", "\\t"):
                code, out, err = run_subprocess([*command, "--data", absent,
                                                 "--delimiter", delimiter])
                self.assert_clean(code, err, 1)
                assert out == ""
                assert err == (f"error: argument --delimiter: must be exactly "
                               f"one character, got {delimiter!r}\n")

    def test_repeated_header_name_is_data_error(self, tmp_path):
        # A dataset header is read like a relation's: a name used twice is
        # rejected, not resolved to one of its columns.
        table = tmp_path / "t.csv"
        table.write_text("x,y,x\n0,0,p\n1,1,q\n0,1,q\n")
        for command in (["evaluate", "--seed", "1"], ["deps"]):
            code, out, err = run_subprocess([*command, "--data", str(table)])
            self.assert_clean(code, err, 2)
            assert out == "" and "duplicate attribute names" in err

    def test_non_utf8_data_is_data_error(self, tmp_path):
        table = tmp_path / "latin1.csv"
        table.write_bytes("a,c\ncaf\u00e9,p\nthe,q\n".encode("latin-1"))
        code, out, err = run_subprocess(["evaluate", "--data", str(table),
                                         "--seed", "1"])
        self.assert_clean(code, err, 2)
        assert out == "" and "UTF-8" in err

    def test_unwritable_output_is_usage_error(self, tmp_path):
        # A missing parent directory, and an existing directory as the file.
        for out_path in (tmp_path / "absent" / "m.csv", tmp_path):
            code, out, err = run_subprocess(["generate", "--kind", "monk1",
                                             "--out", str(out_path)])
            self.assert_clean(code, err, 1)
            assert out == "" and err.startswith(f"error: cannot write {out_path}: ")

    def test_unwritable_schema_sidecar_leaves_no_table(self, tmp_path):
        (tmp_path / "m.schema.json").mkdir()
        table = tmp_path / "m.csv"
        code, out, err = run_subprocess(["generate", "--kind", "monk1",
                                         "--out", str(table), "--emit-schema"])
        self.assert_clean(code, err, 1)
        assert out == "" and err.startswith(
            f"error: cannot write {tmp_path / 'm.schema.json'}: ")
        assert not table.exists()

    def test_cell_past_the_csv_field_limit_is_data_error(self, tmp_path):
        table = tmp_path / "wide_cell.csv"
        table.write_text("a,b,c\n0," + "x" * 200_000 + ",p\n1,0,q\n0,0,q\n")
        commands = [["evaluate", "--seed", "1"],
                    ["explain", "--query-index", "0", "--why", "c"],
                    ["deps"]]
        for command in commands:
            code, out, err = run_subprocess([*command, "--data", str(table)])
            self.assert_clean(code, err, 2)
            assert out == "" and err.startswith(f"data error: {table}: ")
            assert "field limit" in err


def test_dropped_duplicate_rows_are_one_stderr_line_per_command(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("a,b\n0,p\n1,q\n0,p\n")
    code, out, err = run(capsys, ["deps", "--data", str(table)])
    assert (code, err) == (0, "[deps] dropped 1 duplicate rows\n") and out
    code, out, err = run(capsys, ["explain", "--data", str(table), "--query-index", "0",
                                  "--why", "b"])
    assert err == "[explain] dropped 1 duplicate rows\n" and out


def test_non_stratified_fallback_is_one_stderr_line(tmp_path):
    # Class q has one member, fewer than the two folds.
    table = tmp_path / "small.csv"
    table.write_text("a,b,c\n0,0,p\n0,1,p\n1,0,p\n1,1,q\n")
    code, out, err = run_subprocess(["evaluate", "--data", str(table),
                                     "--strategy", "knn", "--folds", "2",
                                     "--seed", "3"])
    assert code == 0
    assert "UserWarning" not in err and "Traceback" not in err
    fallback = [line for line in err.splitlines()
                if line.startswith("[evaluate]") and "non-stratified" in line]
    assert fallback == ["[evaluate] some class has fewer than 2 members; "
                        "used non-stratified folds"]
    assert out == (f"knn on {table}: 50.00 +/- 0.00 "
                   f"(2-fold, seed 3, abstention 0.00%)\n")


class TestExplicitOptionValues:
    """An explicit 0 is a value, not a missing option: out-of-range values
    are usage errors (exit 1), found before the data is read."""

    def table(self, tmp_path):
        table = tmp_path / "small.csv"
        table.write_text("a,b,c\n0,0,p\n0,1,p\n1,0,q\n1,1,q\n"
                         "0,0,p\n0,1,q\n1,0,q\n1,1,p\n")
        return str(table)

    def test_zero_is_a_usage_error(self, tmp_path):
        base = ["evaluate", "--data", self.table(tmp_path), "--folds", "2",
                "--seed", "1"]
        for strategy, option in (("knn", "--k"), ("bongard", "--neighbor-budget"),
                                 ("bongard", "--max-literals")):
            code, out, err = run_subprocess(base + ["--strategy", strategy,
                                                    option, "0"])
            assert (code, out) == (1, ""), option
            assert err.startswith("error: ") and "Traceback" not in err

    def test_grid_needs_a_grid_strategy_whoever_set_it(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        for strategy in ("selected", "baseline"):
            code, out, err = run(capsys, ["evaluate", "--data", missing,
                                          "--profile", "table3", "--strategy", strategy])
            assert (code, out) == (1, "")
            assert err == ("error: --grid (set by --profile table3) applies to "
                           "the bongard and knn strategies\n")
            code, out, err = run(capsys, ["evaluate", "--data", missing, "--seed", "1",
                                          "--strategy", strategy, "--grid", "1,3"])
            assert (code, out) == (1, "")
            assert err == "error: --grid applies to the bongard and knn strategies\n"

    def test_a_grid_and_its_single_value_are_one_setting(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        for argv, err_line in (
                (["--strategy", "knn", "--seed", "1", "--k", "5", "--grid", "1,3"],
                 "--grid and --k both set k"),
                (["--profile", "table3", "--neighbor-budget", "3"],
                 "--grid (set by --profile table3) and --neighbor-budget both set "
                 "neighbor_budget")):
            code, out, err = run(capsys, ["evaluate", "--data", missing, *argv])
            assert (code, out, err) == (1, "", f"error: {err_line}; pass one of them\n")

    def test_grid_value_below_one_is_a_usage_error_before_loading(self, tmp_path):
        for data in (self.table(tmp_path), str(tmp_path / "missing.csv")):
            code, out, err = run_subprocess([
                "evaluate", "--data", data, "--strategy", "bongard",
                "--folds", "2", "--seed", "1", "--grid", "0,1"])
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and "grid" in err

    def test_workers_is_no_longer_an_option(self, tmp_path):
        code, out, err = run_subprocess([
            "evaluate", "--data", self.table(tmp_path), "--strategy", "knn",
            "--folds", "2", "--seed", "1", "--workers", "1"])
        assert (code, out) == (1, "") and "Traceback" not in err
        assert err.splitlines() == ["error: unrecognized arguments: --workers 1"]


# Cells and names drawn from a small alphabet so that some tables load and
# reach the commands, with the characters that break CSV and domains.
fuzz_cell = st.sampled_from(["0", "1", "2", "a", "b", "?", "", " ", '"', ",",
                             "\u00e9", "0,1"])
fuzz_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | fuzz_cell,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["attributes", "name", "domain", "class"]),
                      inner, max_size=3),
    max_leaves=8,
)


@st.composite
def fuzz_inputs(draw):
    """CSV and sidecar contents (well-formed, garbled or raw bytes) and a
    command line for explain, deps or evaluate over them."""
    width = draw(st.integers(1, 4))
    header = draw(st.just([f"c{j}" for j in range(width)])
                  | st.lists(fuzz_cell, min_size=width, max_size=width))
    cell = draw(st.sampled_from([st.sampled_from(["0", "1", "2"]), fuzz_cell]))
    ragged = draw(st.integers(0, 3)) == 3
    body = draw(st.lists(st.lists(cell, min_size=width - ragged,
                                  max_size=width + ragged),
                        min_size=2, max_size=6))
    table = "\n".join(",".join(r) for r in [header, *body]).encode()
    if draw(st.integers(0, 3)) == 3:
        table = draw(st.binary(max_size=40))
    sidecar = None
    if draw(st.booleans()):
        domain = st.just(["0", "1", "2"]) | st.lists(fuzz_cell, max_size=3)
        names = st.lists(st.sampled_from(header) | fuzz_json,
                         min_size=width, max_size=width)
        sidecar = draw(
            st.builds(lambda v: json.dumps(v).encode(), fuzz_json)
            | st.builds(lambda ns, d: json.dumps({"attributes": [
                {"name": n, "domain": d} for n in ns]}).encode(),
                st.just(header) | names, domain)
            | st.binary(max_size=20))
    name = st.sampled_from(header) | fuzz_cell
    command = draw(st.sampled_from(["explain", "deps", "evaluate"]))
    if command == "explain":
        args = ["--query-index", str(draw(st.integers(-1, 6)))]
        if draw(st.booleans()):
            args = ["--query", ",".join(draw(st.lists(fuzz_cell, max_size=4)))]
        if draw(st.booleans()):
            args += ["--why", draw(name)]
        else:
            args += ["--why-not", f"{draw(name)}={draw(fuzz_cell)}"]
    elif command == "deps":
        args = []
        if draw(st.booleans()):
            args = ["--x", draw(name), "--y", draw(name)]
    else:
        args = ["--seed", "1", "--folds", str(draw(st.integers(2, 3))),
                "--strategy", draw(st.sampled_from(
                    ["baseline", "selected", "bongard", "knn"]))]
        args += draw(st.sampled_from([[], ["--k", "9"], ["--grid", "1,9"]]))
    return command, table, sidecar, args


class TestLoaderFuzz:
    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_inputs())
    def test_exit_code_contract(self, case):
        command, table, sidecar, args = case
        with tempfile.TemporaryDirectory() as tmp:
            data_path = Path(tmp) / "t.csv"
            data_path.write_bytes(table)
            argv = [command, "--data", str(data_path), *args]
            if sidecar is not None:
                (Path(tmp) / "t.schema.json").write_bytes(sidecar)
                argv += ["--schema", str(Path(tmp) / "t.schema.json")]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2, 3)


def test_commands_do_not_mutate_input_files(capsys, tmp_path):
    source = DATA / "coffee.csv"
    before = source.read_bytes()
    run(capsys, ["explain", "--data", str(source), "--schema", str(COFFEE[2]),
                 "--query", "sit_2,no,coffee,yes,yes", "--why", "with_milk"])
    run(capsys, ["deps", "--data", str(DATA / "courses.csv")])
    assert source.read_bytes() == before
    assert (DATA / "coffee.schema.json").exists()


class TestEvaluateCommand:
    def small_dataset(self, tmp_path):
        from anaprop.data import PlantedRule, generate_planted_rules, write_dataset
        ds, _ = generate_planted_rules(
            [PlantedRule(pairs=6), PlantedRule(pairs=6, exceptions=1)]
        )
        path = tmp_path / "small.csv"
        write_dataset(ds, path)
        return path

    def test_seed_required(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, _, err = run(capsys, ["evaluate", "--data", str(path)])
        assert code == 1 and "seed" in err

    def test_json_is_deterministic_and_time_free(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        argv = ["evaluate", "--data", str(path), "--strategy", "selected",
                "--folds", "3", "--seed", "4", "--subsample", "0.8",
                "--format", "json"]
        code1, out1, err1 = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "wall_time" in err1 and "wall_time" not in out1

    def test_profile_table2_fills_settings(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, out, _ = run(capsys, [
            "evaluate", "--data", str(path), "--profile", "table2",
            "--folds", "3", "--format", "json",
        ])
        assert code == 0
        config = json.loads(out)["report"]["config"]
        assert config["strategy"] == "selected"
        assert config["radius"] == 2
        assert config["subsample"] == 0.5
        assert config["seed"] == 7
        assert config["folds"] == 3  # explicit flag beats the profile

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["evaluate", "--seed", "1"])
        assert code == 1

    def test_profile_table3_runs_its_grid(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, out, _ = run(capsys, [
            "evaluate", "--data", str(path), "--profile", "table3",
            "--folds", "3", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == [1, 3, 5, 7, 9, 11]
        assert payload["grid_parameter"] == "neighbor_budget"
        assert payload["best"]["config"]["strategy"] == "bongard"

    def test_grid_reports_best(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, out, _ = run(capsys, [
            "evaluate", "--data", str(path), "--strategy", "knn",
            "--folds", "3", "--seed", "4", "--grid", "1,3",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == [1, 3]
        assert payload["grid_parameter"] == "k"
        assert len(payload["reports"]) == 2
        assert payload["best"] in payload["reports"]

    def test_capped_knn_k_is_reported_on_stderr(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        base = ["evaluate", "--data", str(path), "--strategy", "knn",
                "--folds", "3", "--seed", "4", "--format", "json"]
        code, out, err = run(capsys, base + ["--grid", "1,500"])
        assert code == 0
        capped = [line for line in err.splitlines() if "k=500" in line]
        assert len(capped) == 1
        rows = json.loads(out)["best"]["dataset"]["rows"]
        folds = json.loads(out)["best"]["fold_assignment"]
        smallest = rows - max(map(len, folds))
        assert f"({smallest} rows)" in capped[0]
        assert capped[0].endswith(f"k={smallest} there")
        assert "k=1 " not in err
        _, rerun, _ = run(capsys, base + ["--grid", "1,500"])
        assert rerun == out
        code, out, err = run(capsys, base + ["--k", "1"])
        assert code == 0 and "exceeds" not in err
        _, out_k500, err_k500 = run(capsys, base + ["--k", "500"])
        assert "k=500 exceeds" in err_k500
        _, rerun, _ = run(capsys, base + ["--k", "500"])
        assert rerun == out_k500

    def test_unknown_strategy_is_usage_error(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, _, _ = run(capsys, [
            "evaluate", "--data", str(path), "--strategy", "magic",
            "--seed", "1",
        ])
        assert code == 1

    def test_config_problems_are_usage_errors(self, capsys, tmp_path):
        path = self.small_dataset(tmp_path)
        code, _, err = run(capsys, [
            "evaluate", "--data", str(path), "--strategy", "knn",
            "--seed", "1", "--folds", "1",
        ])
        assert code == 1 and "folds" in err
        code, _, err = run(capsys, [
            "evaluate", "--data", str(path), "--strategy", "selected",
            "--seed", "1", "--grid", "1,3",
        ])
        assert code == 1 and "grid" in err

    def test_class_column_flag(self, capsys, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text(
            "a,label,b\n0,p,x\n1,q,y\n0,p,y\n1,q,x\n0,q,x\n1,p,y\n"
        )
        code, out, _ = run(capsys, [
            "evaluate", "--data", str(path), "--class-column", "label",
            "--strategy", "knn", "--k", "1", "--folds", "2", "--seed", "2",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["report"]["dataset"]["attributes"] == 2

    def test_tab_delimiter(self, capsys, tmp_path):
        path = tmp_path / "tabs.tsv"
        path.write_text("a\tres\n0\tp\n1\tq\n0\tq\n1\tp\n")
        code, out, _ = run(capsys, [
            "deps", "--data", str(path), "--delimiter", "\t",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["attributes"] == ["a", "res"]

    def test_generated_monk_file_loads_with_published_counts(self, capsys, tmp_path):
        from anaprop.data import load_dataset
        out_file = tmp_path / "monk1.csv"
        code, _, _ = run(capsys, [
            "generate", "--kind", "monk1", "--out", str(out_file),
        ])
        assert code == 0
        ds = load_dataset(out_file)
        assert (len(ds), ds.schema.arity, len(ds.class_attr.domain)) == (432, 6, 2)


def test_json_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    # Set and dict iteration order varies with PYTHONHASHSEED; no payload
    # may.  Monk-1's six attributes form a product relation, on which
    # discovery finds hundreds of dependencies with witnesses.
    monk = tmp_path / "monk1.csv"
    write_dataset(generate_monk(1), monk)
    attributes = tmp_path / "monk1_attributes.csv"
    attributes.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                  for line in monk.read_text().splitlines()))
    commands = [
        ["evaluate", "--data", str(monk), "--profile", "table2"],
        ["evaluate", "--data", str(monk), "--strategy", "bongard", "--grid", "1,3,5",
         "--fallback", "brute", "--seed", "7"],
        ["deps", "--data", str(attributes)],
        ["explain", "--data", str(monk), "--query-index", "50", "--why", "class"],
        ["explain", "--data", str(monk), "--query-index", "50", "--why-not", "class=1"],
    ]
    for argv in commands:
        outputs = {run_subprocess(argv + ["--format", "json"], PYTHONHASHSEED=seed)[:2]
                   for seed in ("0", "1")}
        assert len(outputs) == 1, argv  # stderr differs: it reports the wall time
        code, out = outputs.pop()
        assert code == 0 and out.startswith("{")


def test_the_cached_parser_carries_nothing_between_calls(capsys, tmp_path):
    # One parser serves every cli.main call of a process: a usage error, a
    # profile's settings and one question must not reach the next call.
    monk = tmp_path / "monk1.csv"
    write_dataset(generate_monk(1), monk)
    planted = str(DATA / "planted.csv")
    explain = ["explain", "--data", str(monk), "--query-index", "50", "--format", "json"]
    commands = [
        ["evaluate", "--data", planted, "--folds", "x"],
        ["evaluate", "--data", planted, "--profile", "table3", "--format", "json"],
        ["evaluate", "--data", planted, "--strategy", "knn", "--k", "3", "--seed", "1",
         "--format", "json"],
        explain + ["--why", "class"],
        explain + ["--why-not", "class=1"],
    ]
    for argv in commands:
        code, out, _ = run(capsys, argv)
        assert (code, out) == run_subprocess(argv)[:2], argv
    assert build_parser() is build_parser()
