"""Record the golden outputs of every task at the default seed.

    python3 perfbench/make_golden.py

Runs each distinct task of every workload once through the CLI, confirms
its stdout by the independent route in reference.py (raising on any
disagreement), and writes golden/<expect>.out plus golden/manifest.json
with the exit code, the checks made and the default-seed descriptors.
Rerun only when a workload changes; a golden file must come from code
whose outputs are trusted.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    import reference

    seed = workloads.DEFAULT_SEED
    seeded = workloads.seeded_inputs(seed)
    manifest = {"seed": seed, "descriptors": seeded, "outputs": {}}
    work = os.path.join(run.OUT, "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    os.makedirs(run.GOLDEN, exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        tasks, descriptors = workloads.build(name, seed)
        for t in tasks:
            if t.expect in manifest["outputs"]:
                continue
            path = os.path.join(work, "inputs", t.input + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(descriptors[t.input], fh)
            res = run.run_child(run.task_argv(t, work, False), path, run.child_env(), 600, work)
            if res.rc != 0:
                raise SystemExit(f"{t.id}: exit {res.rc}: {res.stderr.decode(errors='replace')}")
            checks = reference.confirm(t.command, list(t.args), descriptors[t.input], res.stdout)
            if not checks:
                raise SystemExit(f"{t.id}: no independent check applies")
            fname = t.expect + ".out"
            with open(os.path.join(run.GOLDEN, fname), "wb") as fh:
                fh.write(res.stdout)
            manifest["outputs"][t.expect] = {
                "exit": res.rc,
                "file": fname,
                "command": [t.command, *t.args],
                "input": t.input,
                "checks": checks,
            }
            print(f"{t.expect}: {res.wall_s:.2f} s; {'; '.join(checks)}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.GOLDEN, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
