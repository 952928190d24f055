"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics the benchmark reports.
2. Tampering: one cycle of cli-mix at seed 0 passes against the recorded
   outcomes, and fails once one recorded outcome or digest is flipped.
3. Repeatability: two traced runs of each workload (seed 0, one cycle)
   report identical values for every count and count ratio.

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

# per-layer metrics that come from the clock, not from counts
TIMED = {"trace.overhead_frac"}


def check_declaration() -> list[str]:
    import tracer

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    e2e = [m["name"] for m in bench["end_to_end"]]
    reported = list(run.end_to_end([run.Call(None, 1.0)], 1.0, 1.0))
    if e2e != reported:
        problems.append(f"end_to_end {e2e} != reported {reported}")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layers != tracer.LAYER_METRICS:
        problems.append("per_layer differs from tracer.LAYER_METRICS")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    return problems


def check_tampering() -> list[str]:
    import workloads

    work = run.OUT / "work-selftest"
    expected = run.load_expected("cli-mix")
    op_id = sorted(expected["ops"])[0]
    flipped_outcome = copy.deepcopy(expected)
    inv = flipped_outcome["ops"][op_id]["invariant"]
    inv["exit"] = 1 - inv["exit"] if inv["exit"] in (0, 1) else 0
    flipped_digest = copy.deepcopy(expected)
    d = flipped_digest["ops"][op_id]["digest"]
    flipped_digest["ops"][op_id]["digest"] = ("0" if d[0] != "0" else "1") + d[1:]
    checkers = []
    try:
        cycle = workloads.build("cli-mix", 0, work)
        for exp in (expected, flipped_outcome, flipped_digest):
            checkers.append(run.Checker(exp, 0))
            run.run_cycles(cycle, 0, checkers[-1], run.HostSpeed())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    clean, bad_outcome, bad_digest = (c.failed for c in checkers)
    n = len(cycle)
    print(f"tampering: failed_frac {clean / n:.4f} as recorded, {bad_outcome / n:.4f} with "
          f"{op_id} flipped, {bad_digest / n:.4f} with its digest flipped")
    for p in checkers[1].problems + checkers[2].problems:
        print(f"  detected: {p}")
    problems = []
    if clean:
        problems.append(f"{clean} calls fail against the recorded outcomes")
    if not bad_outcome:
        problems.append("a flipped outcome went unnoticed")
    if not bad_digest:
        problems.append("a flipped digest went unnoticed")
    return problems


def traced_counts(name: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=run.ROOT)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s" and k not in TIMED}


def check_repeat() -> list[str]:
    problems = []
    for name in run.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"repeat {name}: {len(first)} counts, {len(differ)} differ")
        if differ:
            problems.append(f"{name}: counts differ between traced runs: {differ}")
    return problems


def main() -> int:
    run.import_repgeo()
    problems = check_declaration() + check_tampering() + check_repeat()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
