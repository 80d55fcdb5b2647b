"""Record golden.json: the answer of every distinct call of every workload
on the default seed.

    python3 perfbench/record_golden.py

Run it only when the program's answers are meant to change; the benchmark
compares default-seed runs against this file.
"""
from __future__ import annotations

import json
import shutil

import run


def main() -> int:
    run.load_jss()
    import checks
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        workdir = run.WORK / f"golden-{name}"
        try:
            wl.write(workdir)
            runner = run.Runner(wl, workdir, None)
            entries = {}
            for cycle in wl.cycles:
                for op in cycle:
                    if op.key in entries:
                        continue
                    rc, _, text = runner.call(op.argv(workdir))
                    view = checks.golden_view(op.kind, checks.summarize(op.kind, rc, text))
                    if view:
                        entries[op.key] = view
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        golden[name] = entries
        print(f"{name}: {len(entries)} answers")
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
