import contextlib
import dataclasses
import gc
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from xnerve import algebra, cli, fixtures
from xnerve.algebra import validate_crossed_monoid
from xnerve.cli import run
from xnerve.errors import (ArgumentError, CapacityError, CellError, CompatibilityError, NotComposableError,
                           NotCrossedModuleError, NotKanError, StructureError)
from xnerve.io import from_crossed_monoid, load_path, parse_input, serialize, to_crossed_monoid
from xnerve.nerve import Nerve
from xnerve.simplicial import check_kan


@pytest.fixture(scope="module")
def doc_z2_z3():
    return from_crossed_monoid(fixtures.z2_with_z3_fiber(), metadata={"name": "z2-with-z3-fiber"})


@pytest.fixture()
def file_z2_z3(tmp_path, doc_z2_z3):
    path = tmp_path / "z2_z3.json"
    path.write_text(serialize(doc_z2_z3))
    return path


@pytest.fixture()
def file_idempotent(tmp_path):
    path = tmp_path / "idempotent.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.idempotent_fiber())))
    return path


def test_round_trip_is_byte_identical(doc_z2_z3):
    text = serialize(doc_z2_z3)
    assert serialize(parse_input(text)) == text
    assert serialize(parse_input(text.encode("utf-8"))) == text


def test_round_trip_through_algebra(doc_z2_z3):
    xm = to_crossed_monoid(parse_input(serialize(doc_z2_z3)))
    assert validate_crossed_monoid(xm).passed
    assert from_crossed_monoid(xm, metadata=doc_z2_z3.metadata) == doc_z2_z3


def test_round_trips_for_all_fixtures():
    for build in (fixtures.trivial_point, fixtures.group_z2, fixtures.z3_fiber_only,
                  fixtures.z2_with_z3_fiber_twisted, fixtures.idempotent_fiber,
                  fixtures.pair_groupoid_z3, fixtures.broken_exchange):
        doc = from_crossed_monoid(build())
        assert parse_input(serialize(doc)) == doc


def test_missing_key_names_the_key(doc_z2_z3):
    raw = json.loads(serialize(doc_z2_z3))
    del raw["boundary"]
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert "boundary" in str(err.value)


def test_duplicate_morphism_id(doc_z2_z3):
    raw = json.loads(serialize(doc_z2_z3))
    raw["morphisms"].append({"id": 1, "src": 0, "tgt": 0})
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert "duplicate morphism id" in str(err.value)


def test_dangling_ids_are_structural(doc_z2_z3):
    raw = json.loads(serialize(doc_z2_z3))
    raw["identity"]["0"] = 9
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert "$.identity[0]" in str(err.value)


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "\u0661", "1_0", "-0", "None"])
def test_id_keys_are_canonical_decimals(doc_z2_z3, key):
    raw = json.loads(serialize(doc_z2_z3))
    raw["action"][key] = raw["action"].pop("1")
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert str(err.value) == f"$.action: key {key!r} is not an integer id"


def test_partial_compose_list_is_structural(doc_z2_z3):
    raw = json.loads(serialize(doc_z2_z3))
    raw["compose"] = raw["compose"][:-1]
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))  # the parser raises the constructors' shape errors
    assert str(err.value) == "compose(1,1) missing although endpoints match"
    raw["boundary"]["0"][0] = "0"  # every path check comes first
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert str(err.value) == "$.boundary[0][0]: expected an integer, found str"


def test_compose_becomes_the_table_and_a_pair_listed_twice_comes_last(doc_z2_z3):
    raw = json.loads(serialize(doc_z2_z3))
    raw["compose"].reverse()  # any order: the document holds the table
    assert parse_input(json.dumps(raw)) == doc_z2_z3
    assert doc_z2_z3.xm.cat.compose_table == fixtures.z2_with_z3_fiber().cat.compose_table
    raw["compose"].append(list(raw["compose"][0]))
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    a, b, _ = raw["compose"][0]
    assert str(err.value) == f"compose({a},{b}) listed twice"
    raw["boundary"]["0"][0] = "0"  # every path check comes first, as when to_crossed_monoid found the pair
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert str(err.value) == "$.boundary[0][0]: expected an integer, found str"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda raw: raw["monoids"]["0"]["mul"][1].__setitem__(2, True),
         "$.monoids[0].mul[1][2]: expected an integer, found bool"),
        (lambda raw: raw["monoids"]["0"]["mul"].__setitem__(2, 7),
         "$.monoids[0].mul[2]: expected an array, found int"),
        (lambda raw: raw["action"]["1"].__setitem__(0, 1.0),
         "$.action[1][0]: expected an integer, found float"),
        (lambda raw: raw["boundary"]["0"].__setitem__(2, "1"),
         "$.boundary[0][2]: expected an integer, found str"),
        (lambda raw: raw["compose"][3].append(0),
         "$.compose[3]: expected a triple, found 4 entries"),
        (lambda raw: raw["compose"][2].__setitem__(1, None),
         "$.compose[2][1]: expected an integer, found NoneType"),
        (lambda raw: raw["compose"][1].__setitem__(2, 2),
         "$.compose[1]: morphism 2 does not exist"),
        (lambda raw: raw["compose"].__setitem__(0, {"a": 0}),
         "$.compose[0]: expected an array, found dict"),
    ],
)
def test_bad_table_entries_name_their_json_path(doc_z2_z3, corrupt, message):
    raw = json.loads(serialize(doc_z2_z3))
    corrupt(raw)
    with pytest.raises(StructureError) as err:
        parse_input(json.dumps(raw))
    assert str(err.value) == message


def test_invalid_json_is_structural():
    with pytest.raises(StructureError):
        parse_input(b"{not json")


def test_a_key_listed_twice_is_refused(tmp_path, capsys):
    # json.loads alone keeps the last copy, so the malformed first one would pass unseen
    text = serialize(from_crossed_monoid(fixtures.group_z2()))
    at = text.index('"monoids": {') + len('"monoids": {')
    text = text[:at] + '"0": {"elements": [0], "unit": 5, "mul": "junk"},' + text[at:]
    with pytest.raises(StructureError) as err:
        parse_input(text)
    assert str(err.value) == "not valid JSON: key '0' listed twice"
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "ERROR (structural): not valid JSON: key '0' listed twice\n"


def test_cli_validate_and_classify(file_z2_z3, capsys):
    assert run(["validate", str(file_z2_z3)]) == 0
    out = capsys.readouterr().out
    assert "PASS axioms" in out
    assert run(["classify", str(file_z2_z3)]) == 0
    out = capsys.readouterr().out
    assert "PASS is_crossed_module: True" in out


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.broken_exchange())))
    assert run(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "cr3" in out


def test_cli_structural_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert run(["validate", str(path)]) == 1
    assert run(["validate", str(tmp_path / "missing.json")]) == 1


def test_cli_enumerate_audit(file_z2_z3, capsys):
    assert run(["enumerate", str(file_z2_z3), "--dims", "0..3"]) == 0
    out = capsys.readouterr().out
    assert "cells[2]: 12 cells" in out
    assert run(["audit", str(file_z2_z3), "--dims", "0..3"]) == 0


def test_cli_capacity_exit_code(file_z2_z3, capsys):
    assert run(["enumerate", str(file_z2_z3), "--dims", "0..5", "--max-cells", "1000"]) == 3
    err = capsys.readouterr().err
    assert "capacity" in err


def test_cli_kan_witness_and_exit(file_idempotent, capsys):
    assert run(["kan", str(file_idempotent), "--dims", "2..3"]) == 2
    out = capsys.readouterr().out
    assert "FAIL horn-fillable[3," in out


def test_cli_fill_refusal(file_idempotent, capsys):
    assert run(["fill", str(file_idempotent), "--dims", "2..3"]) == 2
    err = capsys.readouterr().err
    assert "refusal" in err


def test_cli_coskeletal(file_z2_z3, capsys):
    assert run(["coskeletal", str(file_z2_z3), "--dims", "4..4"]) == 0
    out = capsys.readouterr().out
    assert "PASS boundary-bijective[4]" in out


def test_cli_homotopy(file_z2_z3, capsys):
    assert run(["homotopy", str(file_z2_z3), "--pi", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "pi1[basepoint 0]: order 2" in out
    assert "pi2[basepoint 0]: order 3" in out


def test_cli_fill_command(file_z2_z3, capsys):
    assert run(["fill", str(file_z2_z3), "--dims", "2..3"]) == 0
    out = capsys.readouterr().out
    assert "fill[3,3]" in out


@pytest.mark.parametrize("count", [1, 2, 11_664, 1_889_568, 10 ** 100 + 7, 3 ** 200])
def test_randrange_draws_bits_until_they_are_below_the_count(count):
    # what ``fill`` relies on to take randrange's draws in one pass: the
    # same values, and the generator left in the same state
    ours, theirs = random.Random(count), random.Random(count)
    draws = filter(count.__gt__, map(ours.getrandbits, itertools.repeat(count.bit_length())))
    assert list(itertools.islice(draws, 1000)) == [theirs.randrange(count) for _ in range(1000)]
    assert ours.getstate() == theirs.getstate()


def test_fill_samples_the_ranks_randrange_draws(monkeypatch, tmp_path):
    # F6 has 11,664 cells of dimension 4 and 1,889,568 of dimension 5, both
    # over the budget, so every slot samples 1,000 ranks
    path = tmp_path / "f6.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.z2_with_z3_fiber_twisted())))
    seen, real = [], Nerve.faces_of
    monkeypatch.setattr(Nerve, "faces_of", lambda self, n, ranks: seen.append((n, list(ranks))) or real(self, n, ranks))
    assert run(["fill", str(path), "--dims", "4..5", "--max-cells", "10000", "--seed", "3"]) == 0
    rng, counts = random.Random(3), {4: 11_664, 5: 1_889_568}
    sampled = [(n, [rng.randrange(counts[n]) for _ in range(1000)]) for n in (4, 5) for _ in range(n + 1)]
    calls = iter(seen)
    assert all(call in calls for call in sampled)  # in order, among the filler's own calls


def test_cli_json_report_is_deterministic(file_z2_z3, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["kan", str(file_z2_z3), "--dims", "1..2", "--json", str(out1)]) == 0
    assert run(["kan", str(file_z2_z3), "--dims", "1..2", "--json", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True and payload["exit_code"] == 0


def test_help_states_the_exit_code_rule_and_no_arguments_is_a_usage_error(capsys):
    assert run(["--help"]) == 0
    assert "0 when every check passes, else 2" in capsys.readouterr().out
    assert run([]) == 2
    assert "usage: xnerve" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["homotopy", "--pi", "5"],
        ["homotopy", "--pi", "1,x"],
        ["homotopy", "--pi", "1", "--basepoint", "7"],
        ["kan", "--dims", "x..y"],
        ["kan", "--dims", "3..1"],
        ["coskeletal", "--dims", "0..1"],
        ["fill", "--dims", "0..1"],
        ["fill", "--dims", "1..2"],
    ],
)
def test_cli_bad_arguments_end_in_an_error_report(file_z2_z3, tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert run([argv[0], str(file_z2_z3), *argv[1:], "--json", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR (argument): ")
    assert "Traceback" not in captured.err and captured.out == ""
    report = json.loads(out.read_text())
    assert report["exit_code"] == 2 and report["passed"] is False
    assert report["error"]["kind"] == "argument" and report["error"]["message"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_refuses_a_cell_budget_below_one_for_every_command(file_z2_z3, tmp_path, capsys, value):
    for command in ("validate", "classify", "enumerate", "audit", "coskeletal", "kan", "fill", "homotopy"):
        out = tmp_path / f"{command}.json"
        assert run([command, str(file_z2_z3), "--max-cells", value, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR (argument): --max-cells must be at least 1, got {value}\n"
        report = json.loads(out.read_text())
        assert report["exit_code"] == 2 and report["error"]["kind"] == "argument"


@pytest.mark.parametrize("dims,cap,message", [
    ("3", "100", "216 cells of dimension 3 exceed the budget 100"),
    ("2", "5", "12 cells of dimension 2 exceed the budget 5"),
])
def test_cli_enumerate_has_one_capacity_check(file_z2_z3, tmp_path, capsys, dims, cap, message):
    out = tmp_path / "report.json"
    assert run(["enumerate", str(file_z2_z3), "--dims", dims, "--max-cells", cap, "--json", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"ERROR (capacity): {message}\n"
    assert json.loads(out.read_text())["error"] == {"kind": "capacity", "message": message,
                                                    "predicted": int(message.split()[0]), "cap": int(cap)}


def test_each_command_builds_each_level_and_classifies_once(tmp_path, capsys, monkeypatch):
    built, classified = Counter(), []

    def face_rows(self, n, below, _real=Nerve.face_rows):
        built[n] += 1
        return _real(self, n, below)

    def classify(xm, _real=algebra.classify_structure):
        classified.append(xm)
        return _real(xm)

    monkeypatch.setattr(Nerve, "face_rows", face_rows)
    monkeypatch.setattr(algebra, "classify_structure", classify)
    path = tmp_path / "f6.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.z2_with_z3_fiber_twisted())))
    for argv, dims in (
        (["homotopy", "--pi", "0,1,2,3"], {1, 2, 3, 4}),
        (["fill", "--dims", "2..5", "--max-cells", "10000"], {1, 2}),
    ):
        built.clear()
        classified.clear()
        assert run([argv[0], str(path), *argv[1:]]) == 0
        assert built == dict.fromkeys(dims, 1), argv
        assert len(classified) == 1, argv
    capsys.readouterr()

    # a library caller keeps the tables between calls on one nerve
    nv = Nerve(fixtures.z2_with_z3_fiber_twisted())
    built.clear()
    assert check_kan(nv, 4).is_kan
    assert built == dict.fromkeys(range(1, 5), 1)
    assert check_kan(nv, 4).is_kan
    assert built == dict.fromkeys(range(1, 5), 1)


def test_cli_reports_package_errors_without_traceback(tmp_path, capsys):
    # the exchange law fails, so some 4-cell boundary is not in the kernel
    path = tmp_path / "broken.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.broken_exchange())))
    out = tmp_path / "report.json"
    assert run(["coskeletal", str(path), "--dims", "4..4", "--json", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR (error): boundary of a 4-cell escaped the kernel; provider is broken"]
    report = json.loads(out.read_text())
    assert report["exit_code"] == 2 and report["error"]["kind"] == "error"


def test_python_dash_m_runs_the_cli(file_z2_z3):
    import xnerve

    src = os.path.dirname(os.path.dirname(os.path.abspath(xnerve.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    ok = subprocess.run([sys.executable, "-m", "xnerve", "validate", str(file_z2_z3)],
                        capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0 and "PASS axioms" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "xnerve", "homotopy", str(file_z2_z3), "--pi", "5"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2
    assert bad.stderr.startswith("ERROR (argument): ") and "Traceback" not in bad.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["kan", "--dims", "1..3"],
        ["audit", "--dims", "0..3"],
        ["enumerate", "--dims", "0..2"],
        ["homotopy", "--pi", "0"],
    ],
)
def test_nerve_commands_flag_inputs_that_fail_the_axioms(tmp_path, capsys, argv):
    path = tmp_path / "broken.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.broken_exchange())))
    out = tmp_path / "report.json"
    assert run([argv[0], str(path), *argv[1:], "--json", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL axioms: cr3 witness (0, 1, 1) (exchange rule fails: 2 != 0)"
    report = json.loads(out.read_text())
    assert report["exit_code"] == 2 and report["passed"] is False
    assert report["checks"][0]["label"] == "axioms"
    assert [v["axiom"] for v in report["checks"][0]["violations"]] == ["cr3"]
    assert len(report["checks"]) == len(lines)


def test_failing_axioms_are_reported_beside_a_command_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(serialize(from_crossed_monoid(fixtures.broken_exchange())))
    out = tmp_path / "report.json"
    assert run(["fill", str(path), "--dims", "2..4", "--max-cells", "300", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["ERROR (error): tuple is not a horn: faces do not match up"]
    assert captured.out.startswith("FAIL axioms: cr3 ")
    report = json.loads(out.read_text())
    assert report["error"]["kind"] == "error" and "checks" not in report
    assert report["axioms"]["passed"] is False and report["axioms"]["violations"][0]["axiom"] == "cr3"


def test_nerve_commands_on_valid_input_add_no_axioms_check(file_z2_z3, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["kan", str(file_z2_z3), "--dims", "1..2", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "axioms" not in report
    assert [c["label"] for c in report["checks"]][:1] == ["horn-fillable[1,0]"]


@pytest.mark.parametrize(
    "argv",
    [["kan", "--dims", "1..2"], ["audit", "--dims", "0..2"], ["coskeletal", "--dims", "2..3"]],
)
def test_boundary_that_is_not_an_endomorphism_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert run([argv[0], str(_write_nonendo(tmp_path)), *argv[1:], "--json", str(out)]) == 2
    captured = capsys.readouterr()
    message = "boundary at (x, a) = (0, 0) is not an endomorphism of object 0"
    assert captured.err.splitlines() == [f"ERROR (error): {message}"]
    assert captured.out.startswith("FAIL axioms: cr1 witness (0, 0) ")
    report = json.loads(out.read_text())
    assert report["error"] == {"kind": "error", "message": message} and "checks" not in report
    assert [v["axiom"] for v in report["axioms"]["violations"]][:1] == ["cr1"]


def _write_nonendo(tmp_path):
    """A non-module (its second fiber has an idempotent) whose boundary
    sends 0 to the other object's identity."""
    union = fixtures.disjoint_union(fixtures.z2_with_z3_fiber_twisted(), fixtures.idempotent_fiber())
    row0 = (union.cat.identity[1],) + union.boundary[0][1:]  # d(0) is the other object's identity
    xm = dataclasses.replace(union, boundary=(row0,) + union.boundary[1:])
    path = tmp_path / "nonendo.json"
    path.write_text(serialize(from_crossed_monoid(xm)))
    return path


def test_fill_refuses_a_non_module_before_building_its_nerve(tmp_path, capsys):
    # the failed hypothesis is reported, not the nerve's refusal of the boundary
    out = tmp_path / "report.json"
    assert run(["fill", str(_write_nonendo(tmp_path)), "--json", str(out)]) == 2
    error = {"kind": "refusal", "hypothesis": "fibers_are_groups", "witness": [1, 1]}
    assert capsys.readouterr().err.splitlines() == [f"ERROR (refusal): {json.dumps(error)}"]
    assert json.loads(out.read_text())["error"] == error


def _write_pair_with_composite(tmp_path, site, value):
    from test_algebra import _corrupt

    path = tmp_path / "pair.json"
    path.write_text(serialize(from_crossed_monoid(_corrupt(fixtures.pair_groupoid_z3(), "compose", site, value))))
    return path


def test_audit_reports_three_entry_witnesses(tmp_path, capsys):
    # simp3/simp4 witnesses are (n, j, cell); the others are (n, j, k, cell)
    path = _write_pair_with_composite(tmp_path, (1, 2), 1)
    out = tmp_path / "report.json"
    assert run(["audit", str(path), "--dims", "0..3", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("FAIL axioms: ") and len(lines) == 2
    assert lines[1] == "FAIL simplicial-identities<= 3: simp1 at (2, 0, 1) on 2|1,1,0|1,0;2; simp4 at (1, 0) on 1|1,0|2"
    report = json.loads(out.read_text())
    assert report["exit_code"] == 2 and report["checks"][1]["detail"] == lines[1].split(": ", 1)[1]


def test_audit_refuses_a_diagonal_that_leaves_its_hom_set(tmp_path, capsys):
    path = _write_pair_with_composite(tmp_path, (2, 0), 3)
    out = tmp_path / "report.json"
    assert run(["audit", str(path), "--dims", "0..3", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    message = "a face of a 2-cell is not a 1-cell: its diagonal leaves its hom-set"
    assert captured.err.splitlines() == [f"ERROR (error): {message}"]
    assert captured.out.startswith("FAIL axioms: ") and len(captured.out.splitlines()) == 1
    report = json.loads(out.read_text())
    assert report["error"] == {"kind": "error", "message": message} and "checks" not in report
    assert "cat.endpoints" in [v["axiom"] for v in report["axioms"]["violations"]]


def test_a_path_with_a_nul_byte_is_an_io_error(file_z2_z3, tmp_path, capsys):
    # open() refuses such a path with ValueError, which ends like any path it cannot open
    out = tmp_path / "report.json"
    assert run(["kan", "a\x00b", "--json", str(out)]) == 1
    message = "cannot read a\x00b: embedded null byte"
    assert capsys.readouterr().err == f"ERROR (io): {message}\n"
    assert json.loads(out.read_text())["error"] == {"kind": "io", "message": message}
    assert run(["kan", str(file_z2_z3), "--json", "x\x00y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "ERROR (io): cannot write the report to x\x00y: embedded null byte\n"
    with pytest.raises(OSError, match="embedded null byte"):
        load_path("a\x00b")


def test_only_the_value_error_of_opening_a_path_is_an_io_error(file_z2_z3, monkeypatch):
    def broken(xm, args):
        raise ValueError("not from open")

    monkeypatch.setitem(cli._COMMANDS, "kan", broken)
    with pytest.raises(ValueError, match="not from open"):
        run(["kan", str(file_z2_z3)])


@pytest.mark.parametrize("exc,code,report", [
    (StructureError("bad"), 1, {"kind": "structural", "message": "bad"}),
    (CellError("bad"), 1, {"kind": "structural", "message": "bad"}),
    (ArgumentError("bad"), 2, {"kind": "argument", "message": "bad"}),
    (CompatibilityError("bad"), 2, {"kind": "error", "message": "bad"}),
    (NotComposableError("bad"), 2, {"kind": "error", "message": "bad"}),
    (CapacityError("bad", predicted=7, cap=5), 3, {"kind": "capacity", "message": "bad", "predicted": 7, "cap": 5}),
    (NotCrossedModuleError("fibers_are_groups", (0, 1)), 2,
     {"kind": "refusal", "hypothesis": "fibers_are_groups", "witness": (0, 1)}),
    (NotKanError(3, 1), 2, {"kind": "not-kan", "dim": 3, "omitted": 1}),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_type_carries_its_report(exc, code, report):
    # kind first: the stderr line of a report with no message is its json.dumps
    assert exc.exit_code == code and list(exc.report().items()) == list(report.items())


INPUT_FIXTURES = {"f4": fixtures.z2_with_z3_fiber, "trivial": fixtures.trivial_point, "pair": fixtures.pair_groupoid_z3}


@pytest.mark.parametrize("name,argv,message", [
    ("f4", ["kan", "--dims", "150..150"], "10^4300 or more cells of dimension 150 exceed the budget 5000000"),
    ("f4", ["coskeletal", "--dims", "150..150"], "10^4300 or more cells of dimension 149 exceed the budget 5000000"),
    ("f4", ["enumerate", "--dims", "200"], "10^4300 or more cells of dimension 200 exceed the budget 5000000"),
    ("f4", ["enumerate", "--dims", "2000"], "10^4300 or more cells of dimension 2000 exceed the budget 5000000"),
    ("f4", ["fill", "--dims", "2000..2000"], "10^4300 or more cells of dimension 2000 exceed the budget 5000000"),
    ("trivial", ["enumerate", "--dims", "100000"],
     "a cell of dimension 100000 has 5000050000 entries, over the budget 5000000"),
    ("trivial", ["kan", "--dims", "100000..100000"],
     "a cell of dimension 100000 has 5000050000 entries, over the budget 5000000"),
    ("pair", ["fill", "--dims", "40..40"], "2199023255552 object sequences of dimension 40 exceed the budget 5000000"),
])
def test_a_dimension_whose_cells_cannot_fit_is_refused_before_anything_is_built(tmp_path, capsys, name, argv,
                                                                                  message):
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    path.write_text(serialize(from_crossed_monoid(INPUT_FIXTURES[name]())))
    assert run([argv[0], str(path), *argv[1:], "--json", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"ERROR (capacity): {message}\n"
    assert json.loads(out.read_text())["error"] == {"kind": "capacity", "message": message, "predicted": None,
                                                    "cap": 5_000_000}


# -- fuzz: corrupted inputs through every command ------------------------------

FUZZ_BASES = {name: getattr(fixtures, name)() for name in (
    "group_z2", "z3_identity_boundary", "idempotent_fiber", "pair_groupoid_z3")}

# every command at small dimensions, within a budget that some levels exceed
FUZZ_COMMANDS = [(*argv, "--max-cells", "2000") for argv in (
    ("validate",), ("classify",), ("enumerate", "--dims", "0..2"), ("audit", "--dims", "0..3"),
    ("coskeletal", "--dims", "2..3"), ("kan", "--dims", "1..3"), ("fill", "--dims", "2..3"),
    ("homotopy", "--pi", "0,1,2,3"), ("homotopy", "--pi", "1"), ("homotopy", "--pi", "2"))]


def _with_entry(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(map(tuple, rows))


@st.composite
def corrupted_inputs(draw):
    """A base fixture with 1-3 entries changed, each to a value in range: a
    composite of a composable pair, a fiber product, an action or boundary
    value, or a fiber unit."""
    xm = FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]
    for _ in range(draw(st.integers(1, 3))):
        cat = xm.cat
        m = cat.num_morphisms

        def pick(size):
            return draw(st.integers(0, size - 1))

        kind = draw(st.sampled_from(["compose", "mul", "action", "boundary", "unit"]))
        if kind == "compose":
            a, b = draw(st.sampled_from([(a, b) for a in range(m) for b in range(m) if cat.src[a] == cat.tgt[b]]))
            table = _with_entry(cat.compose_table, a, b, pick(m))
            xm = dataclasses.replace(xm, cat=dataclasses.replace(cat, compose_table=table))
        elif kind == "action":
            g = pick(m)
            size = len(xm.action[g])
            xm = dataclasses.replace(xm, action=_with_entry(xm.action, g, pick(size), pick(size)))
        else:
            x = pick(cat.num_objects)
            fiber = xm.fibers[x]
            if kind == "boundary":
                xm = dataclasses.replace(xm, boundary=_with_entry(xm.boundary, x, pick(fiber.size), pick(m)))
                continue
            if kind == "mul":
                fiber = dataclasses.replace(fiber, table=_with_entry(fiber.table, pick(fiber.size), pick(fiber.size),
                                                                     pick(fiber.size)))
            else:
                fiber = dataclasses.replace(fiber, unit=pick(fiber.size))
            xm = dataclasses.replace(xm, fibers=xm.fibers[:x] + (fiber,) + xm.fibers[x + 1:])
    return xm


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=250, deadline=None, derandomize=True)
@example(xm=dataclasses.replace(fixtures.group_z2(), boundary=((1,),)), argv=FUZZ_COMMANDS[-2])
@given(xm=corrupted_inputs(), argv=st.sampled_from(FUZZ_COMMANDS))
def test_every_command_ends_in_an_exit_code_on_corrupted_input(fuzz_path, xm, argv):
    fuzz_path.write_text(serialize(from_crossed_monoid(xm)))
    assert run([argv[0], str(fuzz_path), *argv[1:]]) in (0, 1, 2, 3)


# -- fuzz: raw documents and argv through every command ------------------------

DOC_BASES = {name: json.loads(serialize(from_crossed_monoid(getattr(fixtures, name)()))) for name in (
    "trivial_point", "group_z2", "idempotent_fiber", "pair_groupoid_z3")}

# a value of the wrong type, or an int out of every range: huge, negative,
# past the digits Python converts, or a bool
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3), st.integers(-2, 3),
    st.sampled_from([10 ** 30, -10 ** 30, 2 ** 63, "@@LONG@@", [], {}, [[0]], {"0": []}]))


@st.composite
def mutated_documents(draw):
    """The bytes of a fixture document with 1-3 values, at any depth,
    replaced by an odd value, deleted, or nested in up to 100,000 lists,
    and sometimes cut short."""
    doc = json.loads(json.dumps(DOC_BASES[draw(st.sampled_from(sorted(DOC_BASES)))]))
    nests = []
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            break
        kind = draw(st.sampled_from(["replace", "delete", "nest"]))
        if kind == "delete":
            del parent[key]
        elif kind == "nest":
            nests.append((f"@@NEST{len(nests)}@@", draw(st.sampled_from([1, 50, 100_000])), json.dumps(node)))
            parent[key] = nests[-1][0]
        else:
            parent[key] = draw(ODD_VALUES)
    text = json.dumps(doc).replace('"@@LONG@@"', "9" * 5000)
    for marker, depth, inner in nests:
        text = text.replace(f'"{marker}"', "[" * depth + inner + "]" * depth)
    data = text.encode()
    return data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 9)) == 0 else data


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=mutated_documents(), argv=st.sampled_from(FUZZ_COMMANDS))
def test_every_command_ends_in_an_exit_code_on_a_mutated_document(fuzz_path, data, argv):
    fuzz_path.write_bytes(data)
    assert run([argv[0], str(fuzz_path), *argv[1:]]) in (0, 1, 2, 3)


def _int_text(huge):
    """Decimal ints: small, negative, and huge, up to the 4300 digits that
    argparse converts."""
    return st.one_of(st.integers(-3, 8), st.sampled_from(huge)).map(str)


HUGE_INTS = [10 ** 5, 2 ** 63, 10 ** 30, 10 ** 4299]
FLAG_VALUES = {
    "--dims": st.one_of(_int_text(HUGE_INTS), st.tuples(_int_text(HUGE_INTS), _int_text(HUGE_INTS)).map("..".join),
                        st.text("0123456789.-", max_size=6)),
    "--max-cells": st.one_of(_int_text(HUGE_INTS), st.text("0123456789-x", max_size=4)),
    "--json": st.sampled_from(["", ".", "missing/report.json", "x\x00y", "report.json"]),
    "--basepoint": _int_text(HUGE_INTS),
    "--pi": st.text("0123,-", max_size=5),
    "--seed": _int_text([-10 ** 30, 10 ** 4299]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=st.sampled_from(FUZZ_COMMANDS), flag=st.sampled_from(sorted(FLAG_VALUES)), data=st.data(),
       path=st.sampled_from(["input.json", "missing.json", ".", "a\x00b"]))
def test_every_command_ends_in_an_exit_code_on_any_flag_value(fuzz_path, argv, flag, data, path):
    # z2: one object, 2^n cells in dimension n; the budget of FUZZ_COMMANDS
    # stays unless it is the flag drawn
    fuzz_path.write_text(serialize(from_crossed_monoid(fixtures.group_z2())))
    argv = [argv[0], path, *argv[1:]]
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    with contextlib.chdir(fuzz_path.parent):
        assert run([*argv, flag, data.draw(FLAG_VALUES[flag], label=flag)]) in (0, 1, 2, 3)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_leaves_the_cyclic_collector_as_it_found_it(file_z2_z3, tmp_path, capsys, monkeypatch, enabled):
    # run pauses the collector from reading the input through the command,
    # and on every way out restores the state it found
    paused = []

    def load(path, _real=cli.load_path):
        paused.append(not gc.isenabled())
        return _real(path)

    monkeypatch.setattr(cli, "load_path", load)
    cases = [
        (["kan", str(file_z2_z3), "--dims", "1..2"], 0),  # a report
        (["kan", str(tmp_path / "missing.json")], 1),  # an io error
        (["kan", str(file_z2_z3), "--dims", "4..4", "--max-cells", "100"], 3),  # a capacity refusal
        (["kan", str(file_z2_z3), "--dims"], 2),  # an argparse error, before the collector is touched
        (["kan", str(file_z2_z3), "--json", str(tmp_path / "no" / "report.json")], 2),  # an unwritable report
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in cases:
            assert run(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        assert paused == [True, True, True]
        monkeypatch.setitem(cli._COMMANDS, "kan", lambda xm, args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run(["kan", str(file_z2_z3)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
