"""The CLI report corpus: argv, exit code, stdout, stderr and the ``--json``
document of every command on the fixtures at small dimensions, including
``--max-cells`` values that trip the level, join-stage and enumerate
budgets.

``tests/test_report_corpus.py`` compares every entry byte for byte.  An
intended report change is a re-record, whose diff is reviewed:

    PYTHONPATH=src python tests/report_corpus.py

writes the inputs under ``tests/reports/inputs/`` and the entries to
``tests/reports/corpus.json``.  Commands run in-process, from
``tests/reports/``, on input paths relative to it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import tempfile

from xnerve import fixtures
from xnerve.algebra import FiniteMonoid
from xnerve.cli import run
from xnerve.io import from_crossed_monoid, serialize

REPORTS = pathlib.Path(__file__).resolve().parent / "reports"
CORPUS = REPORTS / "corpus.json"


def _union():
    return fixtures.disjoint_union(fixtures.z2_with_z3_fiber_twisted(), fixtures.idempotent_fiber())


def _union_ill_typed():
    """The union whose boundary sends 0 to the other object's identity."""
    union = _union()
    row0 = (union.cat.identity[1],) + union.boundary[0][1:]
    return dataclasses.replace(union, boundary=(row0,) + union.boundary[1:])


def _union_two_faults():
    """The union whose fiber 0 is not associative (1*1 = 0) and whose fiber 1
    has a unit that is not neutral (0*1 = 0)."""
    union = _union()
    z3 = FiniteMonoid(3, 0, ((0, 1, 2), (1, 0, 0), (2, 0, 1)))
    pair = FiniteMonoid(2, 0, ((0, 0), (1, 1)))
    return dataclasses.replace(union, fibers=(z3, pair))


def _pair_composite(i: int, j: int, value: int):
    """``pair_groupoid_z3`` with ``compose[i][j] = value``."""
    pair = fixtures.pair_groupoid_z3()
    table = [list(row) for row in pair.cat.compose_table]
    table[i][j] = value
    cat = dataclasses.replace(pair.cat, compose_table=tuple(map(tuple, table)))
    return dataclasses.replace(pair, cat=cat)


def _loop5():
    """An order-5 loop that is not associative, as a one-object category
    with a trivial fiber: it fails ``cat.assoc`` only."""
    table = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    return fixtures.one_object_crossed_monoid(FiniteMonoid(5, 0, table), fixtures.trivial_monoid())


INPUTS = {
    "trivial": fixtures.trivial_point,
    "z2": fixtures.group_z2,
    "z3_fiber": fixtures.z3_fiber_only,
    "f4": fixtures.z2_with_z3_fiber,
    "f6": fixtures.z2_with_z3_fiber_twisted,
    "idempotent": fixtures.idempotent_fiber,
    "broken_exchange": fixtures.broken_exchange,
    "z3_identity": fixtures.z3_identity_boundary,
    "idempotent_endo": fixtures.idempotent_endo_category,
    "pair": fixtures.pair_groupoid_z3,
    "empty": fixtures.empty_crossed_monoid,
    "union": _union,
    "union_ill_typed": _union_ill_typed,
    "union_two_faults": _union_two_faults,
    # composites that leave their hom-set: every command that builds the
    # nerve refuses it
    "pair_compose_1_2": lambda: _pair_composite(1, 2, 1),
    "pair_compose_2_0": lambda: _pair_composite(2, 0, 3),
    # the boundary sends the unit to the non-identity loop: its image is no
    # subgroup and its kernel is empty
    "z2_boundary_misses_identity": lambda: dataclasses.replace(fixtures.group_z2(), boundary=((1,),)),
    "loop5": _loop5,
}

# Per input: the commands run on every input, then the larger or budgeted
# runs on a few.
_EVERY = (
    ("validate",),
    ("classify",),
    ("kan", "--dims", "1..3"),
    ("coskeletal", "--dims", "2..3"),
    ("fill", "--dims", "2..3"),
    ("homotopy", "--pi", "0,1"),
    ("audit", "--dims", "0..2"),
    ("enumerate", "--dims", "0..2"),
)
_MORE = {
    "z2": [
        ("kan", "--dims", "4..5"),
        ("coskeletal", "--dims", "4..5"),
        ("fill", "--dims", "4..5"),
        ("homotopy", "--pi", "0,1,2,3"),
    ],
    "f4": [
        ("kan", "--dims", "4..4"),
        ("coskeletal", "--dims", "4..4"),
        ("homotopy",),
        # level(4) has 11,664 cells: refused, and sampled
        ("kan", "--dims", "1..4", "--max-cells", "5000"),
        ("coskeletal", "--dims", "3..4", "--max-cells", "5000"),
        ("fill", "--dims", "2..4", "--max-cells", "5000", "--seed", "3"),
        ("homotopy", "--pi", "1,2,3", "--max-cells", "5000"),
        # level(3) fits, the kernel join of dimension 3 does not
        ("kan", "--dims", "3..3", "--max-cells", "216"),
        ("coskeletal", "--dims", "3..3", "--max-cells", "216"),
        ("fill", "--dims", "3..3", "--max-cells", "216"),
        # level(3) has 216 cells: refused
        ("enumerate", "--dims", "3", "--max-cells", "100"),
    ],
    "f6": [
        ("kan", "--dims", "4..4"),
        ("fill", "--dims", "4..4", "--max-cells", "10000"),
        ("fill", "--dims", "2..3", "--max-cells", "100", "--seed", "7"),
        # the benchmark's fill: sampled dimension-4 and 5 columns, whose face
        # rows outnumber the budget in dimension 4
        ("fill", "--dims", "2..5", "--max-cells", "10000", "--seed", "0"),
        ("fill", "--dims", "4..5", "--max-cells", "300", "--seed", "5"),
        ("homotopy", "--pi", "0,1,2,3"),
    ],
    "idempotent": [
        ("kan", "--dims", "3..4"),
        ("coskeletal", "--dims", "4..5"),
        # level(4) has 64 cells, its kernel 124, its horns up to 180
        ("coskeletal", "--dims", "4..4", "--max-cells", "100"),
        ("kan", "--dims", "4..4", "--max-cells", "64"),
        ("kan", "--dims", "3..3", "--max-cells", "8"),
    ],
    "pair": [
        ("kan", "--dims", "4..4"),
        ("coskeletal", "--dims", "4..4"),
        ("homotopy",),
        ("fill", "--dims", "3..4", "--max-cells", "2000"),
        ("kan", "--dims", "3..3", "--max-cells", "300"),
        ("coskeletal", "--dims", "3..3", "--max-cells", "400"),
        ("homotopy", "--pi", "2", "--max-cells", "1000"),
    ],
    "union": [("kan", "--dims", "3..3"), ("coskeletal", "--dims", "3..4"), ("homotopy",)],
}
# Inputs run on their own commands only.
_ONLY = {
    **{name: [("audit", "--dims", "0..3"), ("kan", "--dims", "1..3"), ("enumerate", "--dims", "0..2")]
       for name in ("pair_compose_1_2", "pair_compose_2_0")},
    "z2_boundary_misses_identity": [("homotopy", "--pi", "1"), ("homotopy", "--pi", "2")],
    # pi1's group table is not associative: an error, not a structural one
    "loop5": [("validate",), ("classify",), ("homotopy", "--pi", "0,1,2")],
}


# Inputs that are not documents, written as they are.
RAW_INPUTS = {
    "utf16_bom": b"\xff\xfe",
    "deep_nesting": b"[" * 100_000,
    # the trivial point with its fiber listed twice, the first copy malformed
    "duplicate_key": b'{"objects": [0], "morphisms": [{"id": 0, "src": 0, "tgt": 0}], "identity": {"0": 0}, '
                     b'"compose": [[0, 0, 0]], "monoids": {"0": {"elements": [0], "unit": 5, "mul": "junk"}, '
                     b'"0": {"elements": [0], "unit": 0, "mul": [[0]]}}, "action": {"0": [0]}, "boundary": {"0": [0]}}',
    # the trivial point whose one morphism starts at object 1, which does not exist
    "src_not_an_object": b'{"objects": [0], "morphisms": [{"id": 0, "src": 1, "tgt": 0}], "identity": {"0": 0}, '
                         b'"compose": [[0, 0, 0]], "monoids": {"0": {"elements": [0], "unit": 0, "mul": [[0]]}}, '
                         b'"action": {"0": [0]}, "boundary": {"0": [0]}}',
}
# Each ends in one ERROR line: an input that cannot be read or parsed, a
# report path in a directory that does not exist, --pi with an empty item,
# a dimension refused before it is built, and a document whose shape fails a
# JSON-path check.
_RAW_CASES = [
    ["kan", "inputs"],
    ["kan", "inputs/utf16_bom.json"],
    ["kan", "inputs/deep_nesting.json"],
    ["kan", "inputs/duplicate_key.json"],
    ["kan", "inputs/f4.json", "--json", "missing/report.json"],
    ["homotopy", "inputs/z2.json", "--pi", ""],
    ["homotopy", "inputs/z2.json", "--pi", "0,,1"],
    # paths with a NUL byte, which open() refuses with ValueError
    ["kan", "inputs/a\x00b.json"],
    ["kan", "inputs/z2.json", "--json", "missing/a\x00b.json"],
    # dimensions whose cells cannot fit: a count of more than 4300 digits,
    # one cell of more entries than the budget, more object sequences
    ["kan", "inputs/f4.json", "--dims", "150..150"],
    ["coskeletal", "inputs/f4.json", "--dims", "150..150"],
    ["enumerate", "inputs/f4.json", "--dims", "200"],
    ["enumerate", "inputs/f4.json", "--dims", "2000"],
    ["enumerate", "inputs/trivial.json", "--dims", "100000"],
    ["fill", "inputs/pair.json", "--dims", "40..40"],
    ["validate", "inputs/src_not_an_object.json"],
]


def cases() -> list[list[str]]:
    """Every argv of the corpus, the input path relative to ``REPORTS``."""
    out = []
    for name in INPUTS:
        for command, *rest in _ONLY.get(name) or (*_EVERY, *_MORE.get(name, ())):
            out.append([command, f"inputs/{name}.json", *rest])
    return out + _RAW_CASES


def run_case(argv: list[str]) -> dict:
    """One entry: argv, exit code, stdout, stderr and the ``--json`` text
    (None when argv names its own ``--json`` path), run in-process from
    ``REPORTS``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(REPORTS)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv if "--json" in argv else [*argv, "--json", out])
        finally:
            os.chdir(cwd)
        report = pathlib.Path(out).read_text(encoding="utf-8") if "--json" not in argv else None
    return {"argv": argv, "exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "json": report}


def record() -> None:
    inputs = REPORTS / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, make in INPUTS.items():
        (inputs / f"{name}.json").write_text(serialize(from_crossed_monoid(make())), encoding="utf-8")
    for name, data in RAW_INPUTS.items():
        (inputs / f"{name}.json").write_bytes(data)
    entries = [run_case(argv) for argv in cases()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {CORPUS}")


if __name__ == "__main__":
    record()
