"""Correctness gate for benchmark commands.

Each command's JSON report is compared with ``expected.json``:

* the exit code;
* every check's label, verdict and detail text.  Details carry the cell,
  kernel and horn counts and the group orders, none of which depend on the
  seed's relabelling; the one seed-dependent piece, ``(seed N)`` in sampled
  fills, is stored as ``{seed}``;
* for the default seed only, a SHA-256 digest of the whole ``checks`` array,
  which also pins witnesses, isomorphisms and component lists.

Only ``checks`` is read, so report blocks added beside it later do not trip
the gate.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def checks_digest(checks: list) -> str:
    return hashlib.sha256(json.dumps(checks, sort_keys=True).encode("utf-8")).hexdigest()


def summarize(checks: list, seed: int) -> list:
    """Seed-independent view of a checks array: (label, passed, detail)."""
    marker = f"(seed {seed})"
    return [[c["label"], c["passed"], c["detail"].replace(marker, "(seed {seed})")] for c in checks]


def record(report: dict, seed: int) -> dict:
    """Expected-value entry for one command, taken from its report."""
    return {
        "exit_code": report["exit_code"],
        "checks": summarize(report["checks"], seed),
        "digest": checks_digest(report["checks"]),
    }


def problems(expected: dict, report: dict | None, seed: int, default_seed: int) -> list[str]:
    """Every way ``report`` departs from ``expected``; empty when correct."""
    if report is None:
        return ["no report written"]
    out = []
    if report.get("exit_code") != expected["exit_code"]:
        out.append(f"exit code {report.get('exit_code')} != {expected['exit_code']}")
    checks = report.get("checks")
    if checks is None:
        out.append(f"no checks (error {report.get('error')})")
        return out
    got = summarize(checks, seed)
    if len(got) != len(expected["checks"]):
        out.append(f"{len(got)} checks != {len(expected['checks'])}")
    for want, have in zip(expected["checks"], got):
        if want != have:
            out.append(f"check {want[0]}: expected {want[1:]}, got {have}")
    if seed == default_seed and checks_digest(checks) != expected["digest"]:
        out.append("checks digest differs from the one recorded for the default seed")
    return out
