"""Outside-in tracing of repgeo's layers.

The tracer wraps module-level functions of repgeo from outside: each
wrapper replaces the function in every repgeo module namespace that binds
it by name, so calls made inside the package are seen as well.  A span
records name, start, end, parent span and the benchmark call it belongs
to.  Spans are kept in memory and written out when the run ends.

A layer's self time is the duration of its wrapped calls minus the time
of wrapped calls made inside them.  Counts come from arguments and
results, never from the clock, so they repeat exactly.  A wrap target
that no longer exists is reported and its metrics are marked absent.

The term model (``repgeo.freemod``) is not wrapped: its evaluation calls
run millions of times and wrapping them would swamp the trace.  Their
time stays in the self time of the geometry function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("textio.parse_s", "s", "lower"),
    ("textio.parse_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("groups.table_check_s", "s", "lower"),
    ("groups.table_triples", "count", "lower"),
    ("groups.hom_enum_s", "s", "lower"),
    ("groups.hom_candidates", "count", "lower"),
    ("groups.homs_found", "count", "higher"),
    ("groups.hom_accept_ratio", "ratio", "higher"),
    ("reps.make_rep_s", "s", "lower"),
    ("reps.rep_hom_enum_s", "s", "lower"),
    ("reps.rep_homs_found", "count", "higher"),
    ("reps.faithful_s", "s", "lower"),
    ("linalg.nullspace_s", "s", "lower"),
    ("linalg.nullspace_calls", "count", "lower"),
    ("geometry.assign_enum_s", "s", "lower"),
    ("geometry.assignments", "count", "lower"),
    ("geometry.solution_filter_s", "s", "lower"),
    ("geometry.solution_ratio", "ratio", "higher"),
    ("geometry.qid_eval_s", "s", "lower"),
    ("geometry.qid_points", "count", "lower"),
    ("geometry.pool_build_s", "s", "lower"),
    ("geometry.pool_size", "count", "lower"),
    ("geometry.mask_build_s", "s", "lower"),
    ("geometry.atom_evals", "count", "lower"),
    ("geometry.scan_loop_s", "s", "lower"),
    ("geometry.recheck_s", "s", "lower"),
    ("geometry.separation_s", "s", "lower"),
    ("geometry.cert_validate_s", "s", "lower"),
    ("geometry.certs_validated", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

MODULES = (
    "repgeo",
    "repgeo.audit",
    "repgeo.cli",
    "repgeo.config",
    "repgeo.errors",
    "repgeo.freemod",
    "repgeo.geometry",
    "repgeo.groups",
    "repgeo.linalg",
    "repgeo.reps",
    "repgeo.sampling",
    "repgeo.textio",
)

# scan deciders, and the re-verification calls they make before returning
SCANS = ("find_at_witness", "find_separating_qid")
RECHECKS = ("validate_at_witness", "fulfills_qid")
POOLS = ("bounded_words", "bounded_module_elements", "bounded_atoms")


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# -- counters: (tracer, args, kwargs, result, parent name) -> None --------


def _count_parse(tr, args, kwargs, result, parent):
    tr.counts["textio.parse_calls"] += 1


def _count_table(tr, args, kwargs, result, parent):
    tr.counts["groups.table_triples"] += len(_arg(args, kwargs, 0, "names")) ** 3


def _count_group_homs(tr, args, kwargs, result, parent):
    g, h = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "h")
    tr.counts["groups.homs_found"] += len(result)
    if tr.generating_words is not None:
        k = len(tr.generating_words(g)[0])
        tr.counts["groups.hom_candidates"] += h.order**k


def _count_rep_homs(tr, args, kwargs, result, parent):
    tr.counts["reps.rep_homs_found"] += len(result)


def _count_nullspace(tr, args, kwargs, result, parent):
    tr.counts["linalg.nullspace_calls"] += 1


def _count_assignments(tr, args, kwargs, result, parent):
    tr.counts["geometry.assignments"] += len(result)


def _space(rep, ctx) -> int:
    return (rep.p**rep.dim) ** len(ctx.xvars) * rep.group.order ** len(ctx.yvars)


def _count_solutions(tr, args, kwargs, result, parent):
    rep, system = _arg(args, kwargs, 0, "rep"), _arg(args, kwargs, 1, "sys")
    tr.counts["geometry.solution_points"] += _space(rep, system.context)
    tr.counts["geometry.solutions"] += len(result.solutions)


def _count_qid(tr, args, kwargs, result, parent):
    """Points examined: the 1-based x-major position of the returned
    witness, or the whole space when the quasi-identity holds."""
    rep, q = _arg(args, kwargs, 0, "rep"), _arg(args, kwargs, 1, "q")
    _, asg = result
    if asg is None:
        tr.counts["geometry.qid_points"] += _space(rep, q.context)
        return
    nv, ng = rep.p**rep.dim, rep.group.order
    pos = 0
    for v in asg.xmap:
        vi = 0
        for c in v:
            vi = vi * rep.p + c
        pos = pos * nv + vi
    for y in asg.ymap:
        pos = pos * ng + y
    tr.counts["geometry.qid_points"] += pos + 1


def _count_pool(tr, args, kwargs, result, parent):
    if parent not in POOLS:
        tr.counts["geometry.pool_size"] += len(result)


def _count_mask(tr, args, kwargs, result, parent):
    tr.counts["geometry.atom_evals"] += len(_arg(args, kwargs, 1, "asgs"))


def _count_cert(tr, args, kwargs, result, parent):
    tr.counts["geometry.certs_validated"] += 1


@dataclass(frozen=True)
class Target:
    module: str  # the module that defines the function
    name: str
    time_metric: Optional[str]  # receives the self time
    feeds: tuple[str, ...] = ()  # other metrics this target measures
    counter: Optional[Callable] = None


_PARSE = ("textio.parse_calls",)
TARGETS = [
    Target("repgeo.cli", "run", "cli.self_s"),
    *(
        Target("repgeo.textio", name, "textio.parse_s", _PARSE, _count_parse)
        for name in (
            "parse_rep_file",
            "parse_group_file",
            "parse_system_file",
            "parse_qid",
            "parse_atom",
            "infer_context",
        )
    ),
    Target("repgeo.groups", "group_from_table", "groups.table_check_s",
           ("groups.table_triples",), _count_table),
    Target("repgeo.groups", "enumerate_group_homs", "groups.hom_enum_s",
           ("groups.hom_candidates", "groups.homs_found"), _count_group_homs),
    Target("repgeo.reps", "make_representation", "reps.make_rep_s"),
    Target("repgeo.reps", "enumerate_rep_homs", "reps.rep_hom_enum_s",
           ("reps.rep_homs_found",), _count_rep_homs),
    Target("repgeo.reps", "faithful_image", "reps.faithful_s"),
    Target("repgeo.linalg", "nullspace", "linalg.nullspace_s",
           ("linalg.nullspace_calls",), _count_nullspace),
    Target("repgeo.geometry", "enumerate_assignments", "geometry.assign_enum_s",
           ("geometry.assignments",), _count_assignments),
    Target("repgeo.geometry", "solution_set", "geometry.solution_filter_s",
           ("geometry.solution_points", "geometry.solutions"), _count_solutions),
    Target("repgeo.geometry", "in_closure", "geometry.solution_filter_s"),
    Target("repgeo.geometry", "in_at_closure", "geometry.solution_filter_s"),
    Target("repgeo.geometry", "fulfills_qid", "geometry.qid_eval_s",
           ("geometry.qid_points", "geometry.recheck_s"), _count_qid),
    *(
        Target("repgeo.geometry", name, "geometry.pool_build_s",
               ("geometry.pool_size",), _count_pool)
        for name in POOLS
    ),
    Target("repgeo.geometry", "_atom_sat_mask", "geometry.mask_build_s",
           ("geometry.atom_evals",), _count_mask),
    Target("repgeo.geometry", "find_at_witness", "geometry.scan_loop_s"),
    Target("repgeo.geometry", "find_separating_qid", "geometry.scan_loop_s"),
    Target("repgeo.geometry", "validate_at_witness", None, ("geometry.recheck_s",)),
    Target("repgeo.geometry", "separates_points", "geometry.separation_s"),
    Target("repgeo.geometry", "validate_separation_certificate", "geometry.cert_validate_s",
           ("geometry.certs_validated",), _count_cert),
]

# ratios and the counts they are made of
RATIOS = {
    "groups.hom_accept_ratio": ("groups.homs_found", "groups.hom_candidates"),
    "geometry.solution_ratio": ("geometry.solutions", "geometry.solution_points"),
}

MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op_index = -1
        self.stack: list[list] = []  # [span id, child ns, name]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.times: dict[str, int] = defaultdict(int)  # ns of self time
        self.counts: dict[str, int] = defaultdict(int)
        self.cycles: list[tuple[dict, dict]] = []
        self.missing: list[str] = []
        self.present_metrics: set[str] = set()
        self._patched: list[tuple] = []
        self.generating_words = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        groups = importlib.import_module("repgeo.groups")
        self.generating_words = getattr(groups, "generating_words", None)
        for t in TARGETS:
            orig = getattr(importlib.import_module(t.module), t.name, None)
            if not callable(orig):
                self.missing.append(f"{t.module}.{t.name}")
                continue
            if t.time_metric:
                self.present_metrics.add(t.time_metric)
            self.present_metrics.update(t.feeds)
            wrapper = self._wrap(orig, t)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        if self.generating_words is None:
            self.missing.append("repgeo.groups.generating_words")
            self.present_metrics.discard("groups.hom_candidates")

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, target: Target):
        tr = self
        name = target.name
        time_metric = target.time_metric
        counter = target.counter
        is_recheck = name in RECHECKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [tr.next_id, 0, name]
            tr.next_id += 1
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                if time_metric:
                    tr.times[time_metric] += dur - frame[1]
                if is_recheck and parent is not None and parent[2] in SCANS:
                    tr.times["geometry.recheck_s"] += dur
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append(
                        (frame[0], -1 if parent is None else parent[0], name, tr.op_index, t0, t1)
                    )
                else:
                    tr.dropped += 1
            if counter is not None:
                counter(tr, args, kwargs, result, None if parent is None else parent[2])
                if parent is not None:
                    # keep the counter's own time out of the caller's self time
                    parent[1] += time.perf_counter_ns() - t1
            return result

        return traced

    # -- results ----------------------------------------------------------

    def end_cycle(self) -> None:
        self.cycles.append((dict(self.times), dict(self.counts)))
        self.times.clear()
        self.counts.clear()

    def metrics(self, overhead_frac: float) -> tuple[dict, list[str]]:
        """Per-layer metrics for one cycle, and the names of absent ones.

        Times are the mean self seconds per cycle; counts and ratios come
        from the first traced cycle (every cycle repeats them exactly).
        """
        n = len(self.cycles)
        times: dict[str, float] = defaultdict(float)
        for cycle_times, _ in self.cycles:
            for k, v in cycle_times.items():
                times[k] += v / 1e9 / n
        counts = self.cycles[0][1]
        out, absent = {}, []
        for name, unit, _ in LAYER_METRICS:
            if name == "trace.overhead_frac":
                value = overhead_frac
            elif name in RATIOS:
                num, den = RATIOS[name]
                if num not in self.present_metrics or den not in self.present_metrics:
                    absent.append(name)
                value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
            else:
                if name not in self.present_metrics:
                    absent.append(name)
                value = times.get(name, 0.0) if unit == "s" else counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out, absent

    def write(self, path: Path, header: dict) -> None:
        doc = dict(header)
        doc["missing_targets"] = self.missing
        doc["dropped_spans"] = self.dropped
        doc["span_fields"] = ["id", "parent", "name", "call", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
