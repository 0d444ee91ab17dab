"""Tests for the benchmark's own code: inputs, gate, tracer and harness.

    python3 -m pytest bench/tests -q
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import gate
import run
import tracer
import workloads
from xnerve import Nerve, io

cli = importlib.import_module("xnerve.cli")
EXPECTED = gate.load_expected()

# Commands cheap enough to run here, taken from the workload table by label.
CHEAP = {
    "joins_deep": ("coskeletal pair --dims 4..4",),
    "wide_tables": (
        "homotopy a5s5 --pi 0",
        "coskeletal s4 --dims 2..2",
        "kan s4 --dims 1..2",
        "fill s4 --dims 2..3 --max-cells 10000 --seed {seed}",
    ),
}


def _inputs(name, seed, tmp_path):
    workload = workloads.workloads(seed)[name]
    directory = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=tmp_path)
    return workload, workloads.write_inputs(workload, seed, directory), directory


def _pick(name, seed, labels):
    """Commands of a workload (for ``seed``) and their expected entries."""
    templates = workloads.workloads("{seed}")[name].commands
    commands = workloads.workloads(seed)[name].commands
    picked = [i for i, t in enumerate(templates) if t.label in labels]
    return [commands[i] for i in picked], [EXPECTED["workloads"][name][i] for i in picked]


def _run_checked(name, seed, labels, tmp_path, expected=None):
    _, paths, outdir = _inputs(name, seed, tmp_path)
    commands, want = _pick(name, seed, labels)
    rep = run.run_sequence(cli, commands, paths, outdir)
    problems = run.check_sequence(rep, commands, expected or want, outdir, seed, EXPECTED["default_seed"], gate)
    reports = []
    for i in range(len(commands)):
        with open(os.path.join(outdir, f"report{i}.json"), encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return rep, problems, reports


def test_expected_values_hold_the_paper_facts():
    joins = {e["command"]: e for e in EXPECTED["workloads"]["joins_deep"]}
    pair = joins["coskeletal pair --dims 4..4"]["checks"]
    assert pair == [["boundary-bijective[4]", True, "cells=23328 kernel=23328 injective=True surjective=True"]]
    pi = {c[0]: c[2] for c in joins["homotopy f6 --pi 0,1,2,3"]["checks"]}
    assert pi["pi1[basepoint 0]"].startswith("order 2 ")
    assert pi["pi2[basepoint 0]"].startswith("order 3 ")
    assert pi["pi3[basepoint 0]"] == "trivial"
    for entries in EXPECTED["workloads"].values():
        for e in entries:
            assert e["exit_code"] == 0 and all(c[1] for c in e["checks"]), e["command"]


def test_relabelling_keeps_counts_and_verdicts(tmp_path):
    for name in workloads.workloads(1):
        counts = []
        for seed in (1, 2):
            workload, paths, _ = _inputs(name, seed, tmp_path)
            per_doc = {}
            for doc, path in paths.items():
                with open(path, "rb") as fh:
                    nerve = Nerve(io.to_crossed_monoid(io.parse_input(fh.read())))
                per_doc[doc] = [nerve.count_cells(n) for n in range(5)]
            counts.append(per_doc)
        assert counts[0] == counts[1], name
    for name, labels in CHEAP.items():
        summaries = []
        for seed in (1, 2):
            _, problems, reports = _run_checked(name, seed, labels, tmp_path)
            assert problems == [[] for _ in labels], problems
            summaries.append([gate.summarize(r["checks"], seed) for r in reports])
        assert summaries[0] == summaries[1]


def test_relabelling_changes_the_ids(tmp_path):
    texts = []
    for seed in (1, 2):
        _, paths, _ = _inputs("wide_tables", seed, tmp_path)
        with open(paths["s4"], encoding="utf-8") as fh:
            texts.append(fh.read())
    assert texts[0] != texts[1]


@pytest.mark.parametrize("perturb", ["count", "verdict", "exit_code", "digest"])
def test_perturbed_expectation_fails_the_gate(tmp_path, perturb):
    seed = EXPECTED["default_seed"]
    labels = ("coskeletal s4 --dims 2..2",)
    _, want = _pick("wide_tables", seed, labels)
    bad = copy.deepcopy(want)
    if perturb == "count":
        bad[0]["checks"][0][2] = bad[0]["checks"][0][2].replace("cells=13824", "cells=13825")
    elif perturb == "verdict":
        bad[0]["checks"][0][1] = False
    elif perturb == "exit_code":
        bad[0]["exit_code"] = 2
    else:
        bad[0]["digest"] = "0" * 64
    _, good_problems, _ = _run_checked("wide_tables", seed, labels, tmp_path)
    assert good_problems == [[]]
    _, problems, _ = _run_checked("wide_tables", seed, labels, tmp_path, expected=bad)
    assert problems[0], perturb


def test_digest_is_only_compared_for_the_default_seed():
    entry = EXPECTED["workloads"]["joins_deep"][-1]
    report = {"exit_code": 0, "checks": [
        {"label": c[0], "passed": c[1], "detail": c[2], "witness": ["relabelled"]} for c in entry["checks"]
    ]}
    default = EXPECTED["default_seed"]
    assert gate.problems(entry, report, default + 1, default) == []
    assert gate.problems(entry, report, default, default)


def test_self_times_add_up_to_traced_wall(tmp_path):
    _, paths, outdir = _inputs("joins_deep", 3, tmp_path)
    commands = (
        workloads.Command("kan", "f6", ("kan", "--dims", "1..3"), ()),
        workloads.Command("homotopy", "f6", ("homotopy", "--pi", "0,1,3"), ()),
        workloads.Command("fill", "f6", ("fill", "--dims", "2..4", "--max-cells", "1000", "--seed", "3"), ()),
        workloads.Command("audit", "f6", ("audit", "--dims", "0..3"), ()),
        workloads.Command("coskeletal", "pair", ("coskeletal", "--dims", "3..3"), ()),
    )
    untraced = run.run_sequence(cli, commands, paths, outdir)
    with tracer.Tracer() as tr:
        traced = run.run_sequence(cli, commands, paths, outdir)
    assert all(isinstance(c, int) for c in traced["codes"])
    roots = [s for s in tr.spans if s.name == "cli.run"]
    assert [s.cmd for s in roots] == list(range(len(commands)))
    assert all(s.cmd is not None and s.cmd >= 0 for s in tr.spans[1:])
    total_self = sum(tr.self_times().values())
    root_time = sum(s.end - s.start for s in roots) / 1e9
    assert total_self == pytest.approx(root_time, rel=1e-9)
    assert total_self == pytest.approx(traced["wall_s"], rel=0.03)

    values = run.layer_metrics(tr, [untraced], traced)
    registered = {m["name"] for m in run.load_registry()["per_layer"]}
    assert set(values) == registered
    assert values["nerve.face.calls"] > 0 and values["fillers.fill.calls.d4"] > 0
    assert values["simplicial.horns.tuples"] > 0 and values["simplicial.pi_bruteforce.face_calls"] > 0
    assert values["cli.run.self_s"] > 0 and values["trace.overhead_frac"] > -0.5
    # the originals are back after the traced repetition
    assert Nerve.face.__module__ == "xnerve.nerve"
    assert cli.run.__module__ == "xnerve.cli"


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", ".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joins_deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _process_group_members(pgid, watch_s=1.0):
    """Pids of live processes seen in process group ``pgid`` while watching
    /proc for ``watch_s`` seconds, so a helper that outlives its parent by a
    few milliseconds is usually seen too."""
    seen = set()
    deadline = time.monotonic() + watch_s
    while time.monotonic() < deadline:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                seen.add(int(entry))
    return sorted(seen)


def test_run_prints_every_end_to_end_metric_and_leaves_no_process(tmp_path):
    # Output goes to files, not pipes: waiting for a pipe to close would also
    # wait for any process that inherited it.
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as stdout_fh, open(err, "w") as stderr_fh:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", "wide_tables", "--seed", "2",
             "--seconds", "0", "--trace", "0"],
            stdout=stdout_fh, stderr=stderr_fh, start_new_session=True,
        )
        proc.wait(timeout=170)
    stdout = out.read_text()
    assert proc.returncode == 0, err.read_text()
    if os.path.isdir("/proc/self"):
        assert _process_group_members(proc.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9
    registered = {m["name"]: m["unit"] for m in run.load_registry()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == registered
    assert all(v["value"] > 0 for v in result["metrics"].values())
