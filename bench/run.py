"""The xnerve benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's inputs from the seed (see ``workloads.py``), then
calls ``xnerve.cli.run(argv)`` directly as a closed loop with one caller:
each command starts when the previous one has returned.  The workload's
command sequence is repeated until ``--seconds`` have passed, each
untraced repetition in a fresh process, one after another; every command
of every repetition is checked against ``expected.json``.

With ``--trace 0`` the end-to-end metrics are reported.  Times are means
over the repetitions, because on a shared host repetition times are bimodal
and the median of a few of them jumps between the modes (see README.md);
``setup_s`` is likewise a mean over all set-up samples.  With ``--trace 1``
untraced repetitions run for half the time, then one repetition runs under
the call tracer of ``tracer.py``; the per-layer metrics come from that
traced repetition, except ``cmd_s.*``, which come from the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are those
registered in ``BENCHMARK.json``.  A record of the run (machine facts,
commit, seed, every repetition, and for traced runs the spans) is written
under ``bench/runs/``.  Exit code 0 only when every command was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

KINDS = ("validate", "audit", "coskeletal", "kan", "homotopy", "fill")
DEFAULT_SEED = 0
SETUP_PER_REPETITION = 2
FACE_DIMS = range(1, 6)
DEGENERACY_DIMS = range(0, 4)
FILL_DIMS = range(2, 6)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or registry)."""


def load_registry() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def import_program():
    """Import ``xnerve`` from ``src/`` beside the benchmark, never from
    anywhere else on the path."""
    if not os.path.isfile(os.path.join(SRC, "xnerve", "__init__.py")):
        raise BenchError(f"no xnerve sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    xnerve = importlib.import_module("xnerve")
    if not os.path.abspath(xnerve.__file__).startswith(SRC + os.sep):
        raise BenchError(f"xnerve was imported from {xnerve.__file__}, not from {SRC}")
    return xnerve


def measure_setup(paths: dict[str, str], repeats: int) -> list[float]:
    """Seconds to import ``xnerve`` afresh and parse and build every input
    document, once per repeat."""
    samples = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "xnerve" or m.startswith("xnerve.")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        xnerve = importlib.import_module("xnerve")
        for path in paths.values():
            with open(path, "rb") as fh:
                xnerve.io.to_crossed_monoid(xnerve.io.parse_input(fh.read()))
        samples.append(time.perf_counter() - start)
    return samples


def run_sequence(cli, commands, paths, outdir) -> dict:
    """One repetition of the command sequence.  Only the ``cli.run`` calls
    are inside the timed region; reports are read afterwards."""
    for i in range(len(commands)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, f"report{i}.json"))
    gc.collect()
    per_kind = dict.fromkeys(KINDS, 0.0)
    codes: list = []
    sink = io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, cmd in enumerate(commands):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.run(cmd.argv(paths) + ["--json", os.path.join(outdir, f"report{i}.json")]))
        except Exception:  # a traceback is a failed command, not a stopped benchmark
            codes.append(traceback.format_exc(limit=3))
        per_kind[cmd.kind] += time.perf_counter() - start
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "cmd_s": per_kind, "codes": codes}


def check_sequence(rep, commands, expected, outdir, seed, default_seed, gate) -> list[list[str]]:
    """Problems per command of one repetition (empty lists when correct)."""
    out = []
    for i, (cmd, want) in enumerate(zip(commands, expected)):
        path = os.path.join(outdir, f"report{i}.json")
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        found = gate.problems(want, report, seed, default_seed)
        code = rep["codes"][i]
        if not isinstance(code, int):
            found.append(f"raised: {code}")
        elif report is not None and code != report.get("exit_code"):
            found.append(f"returned {code} but reported {report.get('exit_code')}")
        out.append([f"{cmd.label}: {p}" for p in found])
    return out


def repeat_for(seconds, body) -> list:
    """Call ``body`` (at least once) while another call is expected to end
    less than half a call past ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(body())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) / 2 >= seconds:
            return reps


def measure(name: str, seed: int, seconds: float, paths: dict[str, str], workdir: str,
            sample_setup: bool) -> dict:
    """Repeat the workload's command sequence in this process for ``seconds``
    and gate every command; with ``sample_setup``, set-up is also sampled
    before every repetition, so its samples spread over the run as the
    repetitions do."""
    import gate
    import workloads

    commands = workloads.workloads(seed)[name].commands
    expected = gate.load_expected()
    cli = importlib.import_module("xnerve.cli")
    setup: list[float] = []

    def body():
        if sample_setup:
            setup.extend(measure_setup(paths, SETUP_PER_REPETITION))
        rep = run_sequence(cli, commands, paths, workdir)
        rep["problems"] = check_sequence(rep, commands, expected["workloads"][name], workdir, seed,
                                         expected["default_seed"], gate)
        return rep

    reps = repeat_for(seconds, body)
    return {"reps": reps, "setup_s": setup, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_in_child(name: str, seed: int, workdir: str) -> dict:
    """One repetition, with its set-up samples, in a fresh Python process
    that is waited for before returning.  The child reads the input paths
    from ``workdir`` and writes its result there; it prints nothing to
    standard output.  A plain subprocess, not ``multiprocessing``, whose
    resource-tracker helper outlives the benchmark."""
    out = os.path.join(workdir, "child-result.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--child", workdir],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def child_main(args) -> int:
    import_program()
    with open(os.path.join(args.child, "paths.json"), encoding="utf-8") as fh:
        paths = json.load(fh)
    result = measure(args.workload, args.seed, args.seconds, paths, args.child, True)
    with open(os.path.join(args.child, "child-result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def layer_metrics(tr, untraced: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer values from one traced repetition (see ``BENCHMARK.json``)."""
    leaves = tr.totals()
    span_total: dict[str, list[float]] = {}
    for span in tr.spans:
        slot = span_total.setdefault(span.name, [0.0, 0.0, 0])
        slot[0] += (span.end - span.start) / 1e9
        slot[1] += span.self_ns / 1e9
        slot[2] += span.count

    def leaf(key, i):
        value = leaves.get(key, (0, 0, 0))[i]
        return value if i == 0 else value / 1e9

    def span(name, i):
        return span_total.get(name, (0.0, 0.0, 0))[i]

    m: dict[str, float] = {}
    for base, dims in (("nerve.face", FACE_DIMS), ("nerve.degeneracy", DEGENERACY_DIMS)):
        keys = [k for k in leaves if k.startswith(base + ".d")]
        m[f"{base}.calls"] = sum(leaves[k][0] for k in keys)
        m[f"{base}.s"] = sum(leaves[k][1] for k in keys) / 1e9
        for d in dims:
            m[f"{base}.calls.d{d}"] = leaf(f"{base}.d{d}", 0)
            m[f"{base}.s.d{d}"] = leaf(f"{base}.d{d}", 1)
    m["nerve.cells.yielded"] = leaf("nerve.cells.yielded", 0)
    m["nerve.cells.s"] = leaf("nerve.cells", 1)
    m["nerve.count_cells.s"] = leaf("nerve.count_cells", 1)
    m["nerve.cell_at.calls"] = leaf("nerve.cell_at", 0)
    m["nerve.cell_at.s"] = leaf("nerve.cell_at", 1)
    m["nerve.corner_assemble.calls"] = leaf("nerve.corner_assemble", 0)
    for name in ("simplicial_kernel", "horns"):
        m[f"simplicial.{name}.s"] = span(f"simplicial.{name}", 0)
        m[f"simplicial.{name}.tuples"] = span(f"simplicial.{name}", 2)
    for name in ("check_coskeletal", "check_kan", "audit_simplicial", "pi_bruteforce"):
        m[f"simplicial.{name}.self_s"] = span(f"simplicial.{name}", 1)
    m["simplicial.pi_bruteforce.face_calls"] = tr.subtree_leaf_calls("simplicial.pi_bruteforce", "nerve.face")
    m["simplicial.beta.calls"] = leaf("simplicial.beta", 0)
    m["simplicial.is_compatible_horn.s"] = leaf("simplicial.is_compatible_horn", 1)
    for d in FILL_DIMS:
        m[f"fillers.fill.calls.d{d}"] = leaf(f"fillers.fill.d{d}", 0)
        m[f"fillers.fill.s.d{d}"] = leaf(f"fillers.fill.d{d}", 1)
    m["fillers.fill.self_s"] = sum(v[2] for k, v in leaves.items() if k.startswith("fillers.fill.d")) / 1e9
    m["algebra.validate_crossed_monoid.s"] = span("algebra.validate_crossed_monoid", 0)
    m["algebra.classify_structure.s"] = span("algebra.classify_structure", 0)
    m["io.parse_input.s"] = span("io.parse_input", 0)
    m["io.to_crossed_monoid.s"] = span("io.to_crossed_monoid", 0)
    m["io.input_bytes"] = span("io.parse_input", 2)
    m["groups.find_isomorphism.s"] = span("groups.find_isomorphism", 0)
    m["homotopy.pi_compare.self_s"] = span("homotopy.pi_compare", 1)
    m["homotopy.higher_vanishing.s"] = span("homotopy.higher_vanishing", 0)
    m["cli.run.self_s"] = span("cli.run", 1)
    m["trace.overhead_frac"] = traced["wall_s"] / statistics.fmean(r["wall_s"] for r in untraced) - 1
    for kind in KINDS:
        m[f"cmd_s.{kind}"] = statistics.fmean(r["cmd_s"][kind] for r in untraced)
    return m


def machine_facts() -> dict:
    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def write_record(record: dict, spans: list | None) -> str:
    runs = os.path.join(BENCH_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = os.path.join(runs, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return base + ".json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        registry = load_registry()
        import_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import gate
    import workloads

    table = workloads.workloads(args.seed)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    commands = workload.commands
    expected_all = gate.load_expected()
    expected = expected_all["workloads"][args.workload]
    labels = [c.label for c in workloads.workloads("{seed}")[args.workload].commands]
    if [e["command"] for e in expected] != labels:
        print("error: expected.json does not list this workload's commands", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        try:
            paths = workloads.write_inputs(workload, args.seed, workdir)
        except workloads.InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        xnerve = importlib.import_module("xnerve")
        nerve_counts = {}
        for cmd in (c for c in commands if c.enumerates):
            with open(paths[cmd.doc], "rb") as fh:
                nv = xnerve.Nerve(xnerve.io.to_crossed_monoid(xnerve.io.parse_input(fh.read())))
            nerve_counts[cmd.label] = sum(nv.count_cells(n) for n in cmd.enumerates)
        fixed_cells = sum(nerve_counts.values())

        spans = None
        setup_samples: list[float] = []
        if args.trace:
            import tracer

            reps = measure(args.workload, args.seed, args.seconds / 2, paths, workdir, False)["reps"]
            with tracer.Tracer() as tr:
                traced = measure(args.workload, args.seed, 0, paths, workdir, False)["reps"][0]
            values = layer_metrics(tr, reps, traced)
            spans = [s.as_dict() for s in tr.spans]
            reps.append(dict(traced, traced=True, leaf_totals=tr.totals(), self_s=tr.self_times()))
        else:
            # Every repetition runs in a fresh process, one after another: on
            # a shared host a process keeps one speed level for its whole
            # life, and the level differs between processes (see README.md).
            with open(os.path.join(workdir, "paths.json"), "w", encoding="utf-8") as fh:
                json.dump(paths, fh)
            parts = repeat_for(args.seconds, lambda: measure_in_child(args.workload, args.seed, workdir))
            reps = [r for p in parts for r in p["reps"]]
            setup_samples = [x for p in parts for x in p["setup_s"]]
            wall = statistics.fmean(r["wall_s"] for r in reps)
            values = {
                "setup_s": statistics.fmean(setup_samples),
                "wall_s": wall,
                "cpu_s": statistics.fmean(r["cpu_s"] for r in reps),
                "cells_per_s": fixed_cells / wall,
                "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["problems"]) for r in reps)
    failed = sum(1 for r in reps for p in r["problems"] if p)
    section = registry["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "machine": machine_facts(), "setup_s_samples": setup_samples,
        "fixed_cells": nerve_counts, "repetitions": reps, "metrics": metrics,
        "attempted": attempted, "failed": failed,
    }
    record_path = write_record(record, spans)

    for r in reps:
        for p in (p for ps in r["problems"] for p in ps):
            print(f"FAIL {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions of {len(commands)} commands")
    if not args.trace:
        for kind in KINDS:
            print(f"cmd_s.{kind} {statistics.fmean(r['cmd_s'][kind] for r in reps):.6f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} commands)")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
