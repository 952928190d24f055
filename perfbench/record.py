"""Record the outcomes that later runs are checked against.

    python3 perfbench/record.py

Runs one cycle of each workload at seed 0 and writes, per call, the
digest of its summary and its seed-independent invariant to
``perfbench/expected/<workload>.json``.  A call that fails its
independent re-check is not recorded.  Re-record only when a workload's
calls change, never to make a changed program pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEED = 0


def record(name: str) -> int:
    import checks
    import workloads

    work = run.OUT / "work-record"
    ops, bad = {}, 0
    try:
        for op in sorted(workloads.build(name, SEED, work), key=lambda op: op.op_id):
            seconds, raw, crash = run.run_op(op, 0)
            if crash is not None:
                print(f"{name} {op.op_id}: raised\n{crash}", file=sys.stderr)
                bad += 1
                continue
            summary = checks.summarize(op, raw)
            problems = checks.exit_code(summary) + op.check(summary)
            if problems:
                print(f"{name} {op.op_id}: {problems}", file=sys.stderr)
                bad += 1
                continue
            inv = checks.invariant(summary)
            ops[op.op_id] = {"invariant": inv, "digest": checks.digest(summary)}
            print(f"{name} {op.op_id}: {seconds:.3f} s {inv}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    path = run.EXPECTED / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": SEED, "ops": ops}, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    run.import_repgeo()
    return max(record(name) for name in run.WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
