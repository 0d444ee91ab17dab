"""Command-line front end.

    xnerve <command> <file> [--dims A..B] [--max-cells N] [--json OUT]
                             [--basepoint OBJ] [--pi LIST] [--seed S]

Commands: validate, classify, enumerate, audit, coskeletal, kan, fill,
homotopy.  A command returns its checks and ``run`` alone picks the exit
code: 0 when every check passes, else 2 (a property fails); ``classify``
reports structural flags, not verdicts, and always exits 0.  The nerve
commands validate their input first, so an input that fails the axioms gets
the failed ``axioms`` check in front of its report and exits 2 (beside an
error, the check is stored under ``axioms``).  An error exits with its
kind's code: 1 the input cannot be read (io) or has a structural error
(structural), 2 an operation refuses (refusal, not-kan, error; a witness is
reported), an argument is out of range (argument) or the ``--json`` path
cannot be written (io), 3 an enumeration exceeds the cell budget or a
dimension cannot fit in it (capacity).  Every error ends in one
``ERROR (kind): ...`` line on stderr and an ``error`` block in the JSON report.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from itertools import islice, repeat

from . import homotopy as H
from . import simplicial as S
from .algebra import validate_crossed_monoid
from .errors import ArgumentError, DEFAULT_CAPACITY, XNerveError
from .fillers import HornFiller
from .io import load_path
from .nerve import Nerve

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_PROPERTY = 2


def _parse_dims(text: str | None, default: tuple[int, int], lowest: int = 0) -> tuple[int, int]:
    """``A..B`` or ``A`` as an inclusive range with lowest <= A <= B."""
    if text is None:
        return default
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text if sep else lo_text)
    except ValueError:
        raise ArgumentError(f"--dims expects A..B or A with integers, got {text!r}") from None
    if not lowest <= lo <= hi:
        raise ArgumentError(f"--dims {text} must satisfy {lowest} <= A <= B for this command")
    return lo, hi


def _report_lines(checks: list[dict]) -> list[str]:
    return [f"{'PASS' if c['passed'] else 'FAIL'} {c['label']}: {c['detail']}" for c in checks]


def _axioms_check(xm) -> dict:
    report = validate_crossed_monoid(xm)
    return {
        "label": "axioms",
        "passed": report.passed,
        "detail": "all axiom instances hold"
        if report.passed
        else "; ".join(f"{v.axiom} witness {v.witness} ({v.detail})" for v in report.violations),
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail} for v in report.violations
        ],
    }


def cmd_validate(xm, args) -> list[dict]:
    return [_axioms_check(xm)]


def cmd_classify(xm, args) -> list[dict]:
    cls = xm.classification
    flags = {
        "category_is_groupoid": cls.is_groupoid,
        "fibers_are_groups": cls.fibers_are_groups,
        "fibers_cancellative": cls.fibers_cancellative,
        "action_injective": cls.action_injective,
        "is_crossed_module": cls.is_crossed_module,
    }
    return [
        {"label": name, "passed": value, "detail": str(value), "witness": list(dict(cls.witnesses).get(name, ()))}
        for name, value in flags.items()
    ]


def cmd_enumerate(xm, args) -> list[dict]:
    lo, hi = _parse_dims(args.dims, (0, 3))
    nerve = Nerve(xm, args.max_cells)
    checks = []
    for n in range(lo, hi + 1):
        count = nerve.count_within(n)
        listing = [c.text() for c in nerve.cells(n)] if count <= 50 else None
        checks.append({"label": f"cells[{n}]", "passed": True, "detail": f"{count} cells", "count": count,
                       "cells": listing})
    return checks


def cmd_audit(xm, args) -> list[dict]:
    lo, hi = _parse_dims(args.dims, (0, 3))
    report = S.audit_simplicial(Nerve(xm, args.max_cells), hi)
    return [
        {
            "label": f"simplicial-identities<= {hi}",
            "passed": report.passed,
            "detail": "all identity instances hold"
            if report.passed
            else "; ".join(f"{v.axiom} at {v.witness[:-1]} on {v.witness[-1].text()}" for v in report.violations),
        }
    ]


def cmd_coskeletal(xm, args) -> list[dict]:
    lo, hi = _parse_dims(args.dims, (4, 5), lowest=1)
    records = S.check_coskeletal(Nerve(xm, args.max_cells), lo - 1, hi)
    checks = []
    for r in records:
        detail = f"cells={r.cell_count} kernel={r.kernel_size} injective={r.injective} surjective={r.surjective}"
        entry = {"label": f"boundary-bijective[{r.dim}]", "passed": r.bijective, "detail": detail}
        if r.surjectivity_witness is not None:
            entry["witness"] = [f.text() for f in r.surjectivity_witness.faces]
        if r.injectivity_witness is not None:
            entry["witness_cells"] = [c.text() for c in r.injectivity_witness]
        checks.append(entry)
    return checks


def cmd_kan(xm, args) -> list[dict]:
    lo, hi = _parse_dims(args.dims, (1, 3), lowest=1)
    report = S.check_kan(Nerve(xm, args.max_cells), upto=hi, from_dim=lo)
    checks = []
    for r in report.records:
        entry = {
            "label": f"horn-fillable[{r.dim},{r.omitted}]",
            "passed": r.fillable,
            "detail": f"{r.horn_count - r.unfillable}/{r.horn_count} horns fillable",
        }
        if r.witness is not None:
            entry["witness"] = [f.text() for f in r.witness.faces]
            entry["witness_omitted"] = r.witness.omitted
        checks.append(entry)
    return checks


def cmd_fill(xm, args) -> list[dict]:
    lo, hi = _parse_dims(args.dims, (2, 3), lowest=2)
    xm.classification.require_module()
    nerve = Nerve(xm, args.max_cells)
    filler = HornFiller(nerve)
    rng = random.Random(args.seed)
    checks = []
    for n in range(lo, hi + 1):
        count = nerve.count_cells(n)
        for l in range(n + 1):
            # horns as columns of face ranks: the join's columns, or the
            # face columns of sampled cells without slot l
            if count <= nerve.cap:
                horn_columns = S.horns(nerve, n, l).columns
                mode = "exhaustive"
            else:
                sample = min(1000, nerve.cap)
                # randrange(count)'s draws in one pass: bit_length() random bits until they are below count
                draws = filter(count.__gt__, map(rng.getrandbits, repeat(count.bit_length())))
                faces = nerve.faces_of(n, list(islice(draws, sample)))
                horn_columns = faces[:l] + faces[l + 1:]
                mode = f"sampled {sample} (seed {args.seed})"
            filler.fill_columns(n, l, horn_columns)
            checks.append({"label": f"fill[{n},{l}]", "passed": True,
                           "detail": f"{len(horn_columns[0])} horns filled and face-verified ({mode})"})
            del horn_columns  # before the next slot's join builds its own
    return checks


def cmd_homotopy(xm, args) -> list[dict]:
    try:
        wanted = [int(v) for v in ("1,2" if args.pi is None else args.pi).split(",")]
    except ValueError:
        raise ArgumentError(f"--pi expects comma-separated integers, got {args.pi!r}") from None
    bad = [n for n in wanted if not 0 <= n <= 3]
    if bad:
        raise ArgumentError(f"--pi supports 0..3, got {bad[0]}")
    t = args.basepoint
    nerve = None
    if any(n > 0 for n in wanted):
        if not 0 <= t < xm.cat.num_objects:
            raise ArgumentError(f"--basepoint {t} is not an object id (0..{xm.cat.num_objects - 1})")
        xm.classification.require_module()
        nerve = Nerve(xm, args.max_cells)
    checks = []
    for n in wanted:
        if n == 0:
            comps = H.pi0(xm)
            checks.append({"label": "pi0", "passed": True, "detail": f"{len(comps)} connected component(s)",
                           "components": [list(c) for c in comps]})
        elif n in (1, 2):
            comparison = H.pi_compare(nerve, n, t)
            passed = comparison.isomorphic
            g = comparison.algebraic
            checks.append(
                {
                    "label": f"pi{n}[basepoint {t}]",
                    "passed": passed,
                    "detail": f"order {g.order} ({g.structure_tag()}), brute force agrees"
                    if passed
                    else f"algebraic order {g.order} but brute force gives {comparison.bruteforce.order}",
                    "order": g.order,
                    "abelian": g.is_abelian,
                    "isomorphism": list(comparison.isomorphism) if comparison.isomorphism else None,
                }
            )
        else:
            v = H.higher_vanishing(nerve, t)
            checks.append({"label": f"pi3[basepoint {t}]", "passed": v.trivial,
                           "detail": "trivial" if v.trivial else f"{v.classes} classes over {v.based_cells} cells"})
    return checks


# Commands that run on the nerve: ``run`` validates their input first.
_NERVE_COMMANDS = frozenset({"enumerate", "audit", "coskeletal", "kan", "fill", "homotopy"})

_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "enumerate": cmd_enumerate,
    "audit": cmd_audit,
    "coskeletal": cmd_coskeletal,
    "kan": cmd_kan,
    "fill": cmd_fill,
    "homotopy": cmd_homotopy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xnerve", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="input document (JSON)")
    parser.add_argument("--dims", help="dimension range A..B (or a single dimension); audit checks every "
                        "dimension 0..B, and only validates A")
    parser.add_argument("--max-cells", type=int, default=DEFAULT_CAPACITY, help="enumeration budget")
    parser.add_argument("--json", dest="json_out", help="write the machine-readable report here")
    parser.add_argument("--basepoint", type=int, default=0, help="object id for homotopy groups")
    parser.add_argument("--pi", help="comma-separated homotopy dimensions, e.g. 1,2")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled filling")
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has printed
        return exc.code
    try:  # an unwritable report path ends the run before any work, the file left as it was
        if args.json_out:
            open(args.json_out, "a", encoding="utf-8").close()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"ERROR (io): cannot write the report to {args.json_out}: {getattr(exc, 'strerror', exc)}", file=sys.stderr)
        return EXIT_PROPERTY
    report: dict = {"tool": "xnerve", "command": args.command, "input": args.file}
    failed_axioms, checks, collecting = None, None, gc.isenabled()
    gc.disable()  # the tables are fresh tuples and lists with no cycles: the cyclic collector only walks them
    try:
        if args.max_cells < 1:
            raise ArgumentError(f"--max-cells must be at least 1, got {args.max_cells}")
        xm = load_path(args.file)
        if args.command in _NERVE_COMMANDS:
            check = _axioms_check(xm)
            if not check["passed"]:
                failed_axioms = check
        checks = _COMMANDS[args.command](xm, args)
        if failed_axioms is not None:
            checks = [failed_axioms, *checks]
    except OSError as exc:  # only the input is opened in here
        message = f"no such file: {args.file}" if isinstance(exc, FileNotFoundError) else \
            f"cannot read {args.file}: {exc.strerror}"
        code, error = EXIT_STRUCTURAL, {"kind": "io", "message": message}
    except XNerveError as exc:
        code, error = exc.exit_code, exc.report()
    finally:
        if collecting:
            gc.enable()
    if checks is not None:  # classify reports structural flags, not verdicts
        code = EXIT_OK if args.command == "classify" or all(c["passed"] for c in checks) else EXIT_PROPERTY
        report.update(passed=code == EXIT_OK, exit_code=code, checks=checks)
        for line in _report_lines(checks):
            print(line)
    else:
        report.update(passed=False, exit_code=code, error=error)
        if failed_axioms is not None:
            report["axioms"] = failed_axioms
            print(_report_lines([failed_axioms])[0])
        print(f"ERROR ({error['kind']}): " + error.get("message", json.dumps(error)), file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def main() -> None:
    raise SystemExit(run())
