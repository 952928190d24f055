#!/usr/bin/env python3
"""Run the counterexample audit at every supported prime and print the
claim-by-claim report, then decide the instance of the paper's claim in
examples/: the groups are geometrically equivalent, the representations
are action-type equivalent, and they are not geometrically equivalent.

Exits 1 when any of the instance's three verdicts differs.

Usage: python3 scripts/claim_audit.py [--json]
"""

import argparse
import json
from pathlib import Path

from repgeo import Equivalent, NotEquivalent, at_equivalent, geo_equivalent, serialize_qid
from repgeo.audit import SUPPORTED_PRIMES, paper_demo, render_report, report_jsonable
from repgeo.textio import parse_group_file, parse_rep_file

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# (claim, decider, file parser, files in examples/, expected outcome)
INSTANCE = (
    ("the groups are geometrically equivalent", geo_equivalent, parse_group_file,
     ("z4xz2.grp", "z4.grp"), "equivalent"),
    ("the representations are action-type equivalent", at_equivalent, parse_rep_file,
     ("r_p3.rep", "s_p3.rep"), "equivalent"),
    ("the representations are not geometrically equivalent", geo_equivalent, parse_rep_file,
     ("r_p3.rep", "s_p3.rep"), "not-equivalent"),
)


def verdict_name(v) -> str:
    if isinstance(v, Equivalent):
        return "equivalent"
    if isinstance(v, NotEquivalent):
        return "not-equivalent"
    return "unknown"


def instance_report() -> dict:
    """One row per verdict of the instance, with the separating qid of a
    not-equivalent one."""
    rows = []
    for claim, decide, parse, files, expected in INSTANCE:
        verdict = decide(*(parse((EXAMPLES / f).read_text(encoding="utf-8")) for f in files))
        computed = verdict_name(verdict)
        qid = verdict.witness.separating_qid if isinstance(verdict, NotEquivalent) else None
        rows.append({
            "claim": claim,
            "inputs": [f"examples/{f}" for f in files],
            "expected": expected,
            "computed": computed,
            "separating_qid": None if qid is None else serialize_qid(qid),
            "status": "CONFIRMED" if computed == expected else "CONTRADICTED",
        })
    return {"instance": "examples/", "verdicts": rows}


def render_instance(report: dict) -> str:
    lines = ["the paper's claim: action-type equivalent, not geometrically equivalent"]
    for row in report["verdicts"]:
        lines.append(f"{row['status']}: {row['claim']} ({', '.join(row['inputs'])})")
        lines.append(f"    computed: {row['computed']}")
        if row["separating_qid"] is not None:
            lines.append(f"    separating qid: {row['separating_qid']}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    for p in SUPPORTED_PRIMES:
        report = paper_demo(p)
        if args.json:
            print(json.dumps(report_jsonable(report), indent=2, sort_keys=True))
        else:
            print(f"=== p = {p} ===")
            print(render_report(report))
            print()
    instance = instance_report()
    if args.json:
        print(json.dumps(instance, indent=2, sort_keys=True))
    else:
        print("=== examples/ ===")
        print(render_instance(instance))
    return int(any(row["status"] != "CONFIRMED" for row in instance["verdicts"]))


if __name__ == "__main__":
    raise SystemExit(main())
