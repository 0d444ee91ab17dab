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
