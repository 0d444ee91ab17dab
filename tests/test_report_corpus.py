"""Every entry of the CLI report corpus (``tests/reports/corpus.json``),
byte for byte: argv, exit code, stdout, stderr and the ``--json`` text.
``tests/report_corpus.py`` says how to re-record it."""

import json

import pytest

from report_corpus import CORPUS, cases, run_case

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert [e["argv"] for e in ENTRIES] == cases()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_report_is_byte_identical(entry):
    assert run_case(entry["argv"]) == entry


def test_exit_code_is_zero_exactly_when_every_check_passes():
    # ``cli.run`` alone picks the exit code of a report: 0 when every check
    # passes, else 2; classify reports structural flags, not verdicts, and
    # always exits 0
    reports = [(e["argv"], e["exit_code"], json.loads(e["json"])) for e in ENTRIES if e["json"] is not None]
    ruled = [(argv, code, [c["passed"] for c in doc["checks"]]) for argv, code, doc in reports if "checks" in doc]
    wrong = [argv for argv, code, passed in ruled
             if code != (0 if argv[0] == "classify" or all(passed) else 2)]
    assert wrong == []
    assert {code for _, code, _ in ruled} == {0, 2}
    assert any(argv[0] == "classify" and not all(passed) for argv, _, passed in ruled)
