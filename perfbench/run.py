"""repgeo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports repgeo from ``src/``.
The run sets the workload up eleven times (a fresh import of repgeo,
seeded input generation, writing the input files, parsing them) and
reports the median as ``setup_s``.  Then it repeats the workload's
cycle of decider calls as many whole times as fill about ``--seconds``,
one call at a time in this one process.  Times are reported at a
reference host speed (see ``HostSpeed``); the times as measured are
printed beside them.  It checks every call's output, prints each metric
by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the first third of the time runs untraced and the rest
traced, and the metrics are the per-layer ones; the spans go to
``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected"

WORKLOADS = ("cli-mix", "assignment-space", "witness-scan", "hom-search")
SETUP_REPEATS = 11
RUN_SECONDS = 25


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _kernel() -> int:
    """Fixed pure-Python work of the kinds repgeo does: small tuples, dict
    lookups, object creation, a keyed sort, hashing into a frozenset."""
    counts: dict = {}
    items = []
    for i in range(5000):
        key = (i & 7, (i >> 3) & 7)
        counts[key] = counts.get(key, 0) + 1
        items.append(_Item(i % 13, (i * 7) % 11))
    items.sort(key=lambda it: (it.b, it.a))
    return len(frozenset((it.a, it.b) for it in items)) + sum(counts.values())


class HostSpeed:
    """How fast the host runs right now, relative to a reference speed.

    A shared host changes speed on its own: on a 2-vCPU virtual machine
    shared with other tenants, runs drifted by up to 1.7x over tens of
    seconds, with no relation to the code under test.  So the benchmark
    times a fixed kernel (about 7 ms, collector off)
    about every half second between calls, and reports times at the
    reference speed: measured time / ``factor()``, where ``factor()`` is
    the kernel's time-weighted mean duration over the phase divided by
    ``NOMINAL_S``.  The kernel does not use repgeo, so a change to repgeo
    moves the reported times exactly as much as the measured ones.
    """

    NOMINAL_S = 0.007
    INTERVAL_S = 0.5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if was_enabled:
            gc.enable()

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Kernel time over the phase, weighting each gap between two
        samples by its length, relative to ``NOMINAL_S``."""
        if len(self.samples) == 1:
            return self.samples[0][1] / self.NOMINAL_S
        total = weight = 0.0
        for (t0, d0), (t1, d1) in zip(self.samples, self.samples[1:]):
            total += (t1 - t0) * (d0 + d1) / 2
            weight += t1 - t0
        return total / weight / self.NOMINAL_S


@dataclass
class Call:
    op: Any
    seconds: float


def import_repgeo():
    """Import repgeo from this checkout's src/, or raise SystemExit."""
    if not (SRC / "repgeo" / "__init__.py").is_file():
        raise SystemExit(f"no repgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repgeo
    import repgeo.cli  # noqa: F401  (imported here, not inside the first timed call)

    if Path(repgeo.__file__).resolve().parent != (SRC / "repgeo").resolve():
        raise SystemExit(f"imported repgeo from {repgeo.__file__}, not from {SRC}")
    return repgeo


def fresh_import_s(k: int) -> float:
    """Seconds to import repgeo and its CLI into new module objects.

    The package is executed again under a private name, so each set-up
    pays the whole import (every module body, every dataclass) while the
    modules the benchmark uses stay untouched.
    """
    name = f"_repgeo_setup{k}"
    t0 = time.perf_counter()
    spec = importlib.util.spec_from_file_location(
        name, SRC / "repgeo" / "__init__.py", submodule_search_locations=[str(SRC / "repgeo")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        importlib.import_module(f"{name}.cli")
        return time.perf_counter() - t0
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def run_op(op, index: int, tracer=None) -> tuple[float, Any, Optional[str]]:
    """One timed call: (seconds, raw output, traceback if it raised)."""
    from repgeo import cli

    if tracer is not None:
        tracer.op_index = index
        tracer.active = True
    t0 = time.perf_counter()
    try:
        if op.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["--json", *op.argv])
            raw = (code, buf.getvalue())
        else:
            raw = op.fn()
        crash = None
    except Exception:  # a call that crashes counts as failed; keep going
        raw, crash = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return seconds, raw, crash


def run_cycles(cycle, seconds: float, checker, host, tracer=None, first_index: int = 0):
    """Whole cycles until about ``seconds`` are used; the number of cycles
    is fixed from the first cycle's length.  Every output goes to
    ``checker`` as soon as the call returns and is not kept, so the
    process's memory does not grow with the number of cycles.  ``host``
    samples the host's speed between calls."""
    calls: list[Call] = []
    cycle_s: list[float] = []
    target = None
    while target is None or len(cycle_s) < target:
        t0 = time.perf_counter()
        for op in cycle:
            host.maybe_sample()
            secs, raw, crash = run_op(op, first_index + len(calls), tracer)
            checker.add(op, raw, crash)
            calls.append(Call(op, secs))
        cycle_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_cycle()
        if target is None:
            target = max(1, round(seconds / cycle_s[0]))
    host.sample()
    return calls, cycle_s


def load_expected(name: str) -> Optional[dict]:
    try:
        return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Checker:
    """Counts failed calls against the recorded outcomes.

    The first run of each call is re-checked in full; a later run of the
    same call must give the same digest, and inherits the first verdict.
    """

    def __init__(self, expected: Optional[dict], seed: int):
        self.expected = expected
        self.seed = seed
        self.first: dict[str, tuple[str, bool]] = {}
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op, raw, crash: Optional[str]) -> None:
        import checks

        if crash is not None:
            found = [f"raised:\n{crash}"]
        else:
            try:
                found = self._check(op, checks.summarize(op, raw))
            except Exception:
                found = [f"check raised:\n{traceback.format_exc()}"]
        if found:
            self.failed += 1
            self.problems.extend(f"{op.op_id}: {p}" for p in found)

    def _check(self, op, summary: dict) -> list[str]:
        import checks

        d = checks.digest(summary)
        if op.op_id in self.first:
            first_digest, first_ok = self.first[op.op_id]
            if d != first_digest:
                return ["output differs from the first run of the same call"]
            return [] if first_ok else ["same wrong output as its first run"]
        found = []
        exp = None if self.expected is None else self.expected["ops"].get(op.op_id)
        if exp is None:
            found.append("no recorded outcome")
        else:
            inv = checks.invariant(summary)
            if inv != exp["invariant"]:
                found.append(f"outcome {inv} != recorded {exp['invariant']}")
            if self.seed == self.expected["seed"] and d != exp["digest"]:
                found.append("digest differs from the one recorded for this seed")
        found += checks.exit_code(summary) + op.check(summary)
        self.first[op.op_id] = (d, not found)
        return found


def percentile_ms(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def end_to_end(calls: list[Call], setup_s: float, factor: float) -> dict:
    """End-to-end metrics at the reference host speed (see HostSpeed);
    ``setup_s`` is already scaled."""
    lat = [c.seconds / factor for c in calls]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "op_ms_p90": {"value": percentile_ms(lat, 90), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_repgeo()
    import workloads

    checker = Checker(load_expected(args.workload), args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        setups, setup_host = [], HostSpeed()
        for k in range(SETUP_REPEATS):
            setup_host.sample()
            gc.collect()  # every set-up starts from the same collector state
            import_s = fresh_import_s(k)
            t0 = time.perf_counter()
            cycle = workloads.build(args.workload, args.seed, work)
            setups.append(import_s + time.perf_counter() - t0)
        setup_host.sample()
        setup_factor = setup_host.factor()
        setup_s = statistics.median(setups) / setup_factor

        if args.trace:
            calls, metrics, notes = traced_run(cycle, args, checker)
        else:
            host = HostSpeed()
            calls, cycle_s = run_cycles(cycle, args.seconds, checker, host)
            factor = host.factor()
            metrics = end_to_end(calls, setup_s, factor)
            raw = end_to_end(calls, statistics.median(setups), 1.0)
            notes = [
                f"{len(cycle_s)} cycles of {len(cycle)} calls in {sum(cycle_s):.1f} s",
                f"host speed factor {factor:.4f} in the timed phase, {setup_factor:.4f} "
                f"in set-up (1 = reference speed; {len(host.samples)} samples)",
                "as measured: " + ", ".join(f"{k} {m['value']:.6g}" for k, m in raw.items()),
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checker.expected is None:
        notes.append(f"no recorded outcomes in {EXPECTED}")

    for p in checker.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for n in notes:
        print(f"  {n}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    failed = checker.failed
    print(f"  failed_frac = {failed / len(calls):.6g} ({failed} of {len(calls)} calls)")
    result = {
        "correct": failed == 0 and checker.expected is not None,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def traced_run(cycle, args, checker):
    import tracer as tracing

    hosts = HostSpeed(), HostSpeed()
    untraced, untraced_s = run_cycles(cycle, args.seconds / 3, checker, hosts[0])
    tr = tracing.Tracer()
    tr.install()
    try:
        traced, traced_s = run_cycles(
            cycle, args.seconds - sum(untraced_s), checker, hosts[1], tr, first_index=len(untraced)
        )
    finally:
        tr.uninstall()
    mean_s = [
        statistics.mean(c.seconds for c in calls) / host.factor()
        for calls, host in zip((untraced, traced), hosts)
    ]
    overhead = mean_s[1] / mean_s[0] - 1
    metrics, absent = tr.metrics(overhead)
    counts = [c for _, c in tr.cycles]
    notes = [
        f"{len(untraced_s)} untraced and {len(traced_s)} traced cycles of {len(cycle)} calls",
        "counts repeat in every traced cycle"
        if all(c == counts[0] for c in counts)
        else "COUNTS DIFFER between traced cycles",
    ]
    if tr.missing:
        notes.append("missing wrap targets: " + ", ".join(tr.missing))
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tr.write(
        trace_file,
        {
            "workload": args.workload,
            "seed": args.seed,
            "calls": [[i, r.op.op_id] for i, r in enumerate(untraced + traced)],
        },
    )
    notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return untraced + traced, metrics, notes


if __name__ == "__main__":
    sys.exit(main())
