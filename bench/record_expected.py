"""Write ``expected.json`` from the program's output for the default seed.

    python3 bench/record_expected.py

Run it only when a change to the reports is intended, and review the diff:
the gate trusts whatever is recorded here.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import tempfile

import run as bench


def main() -> int:
    bench.import_program()
    import gate
    import workloads

    seed = bench.DEFAULT_SEED
    templates = workloads.workloads("{seed}")
    out = {"default_seed": seed, "workloads": {}}
    work = os.path.join(bench.BENCH_DIR, ".work")
    os.makedirs(work, exist_ok=True)
    for name, workload in workloads.workloads(seed).items():
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work)
        try:
            paths = workloads.write_inputs(workload, seed, workdir)
            cli = importlib.import_module("xnerve.cli")
            rep = bench.run_sequence(cli, workload.commands, paths, workdir)
            entries = []
            for i, cmd in enumerate(workload.commands):
                with open(os.path.join(workdir, f"report{i}.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
                if rep["codes"][i] != report["exit_code"]:
                    raise SystemExit(f"{cmd.label}: returned {rep['codes'][i]}")
                entries.append(dict(command=templates[name].commands[i].label, **gate.record(report, seed)))
            out["workloads"][name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
