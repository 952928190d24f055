"""Correctness of every call: digests against the recorded outcomes and
independent re-checks of what can be re-checked.

A call's *summary* is its exit code plus the outcome, witness,
certificate, error and span fields of its JSON output (for library calls,
the returned value).  ``timing_ms``, the echoed input paths and any key
added later for observability are left out, so the digest of a summary
changes only when a verdict, witness or certificate does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repgeo import freemod, geometry, reps, textio
from repgeo.groups import GroupHom

# fields of the CLI's JSON document that carry the answer
SUMMARY_FIELDS = ("outcome", "witness", "certificate", "error", "span")

# the CLI's exit-code contract
EXIT_CODES = {
    "equivalent": 0,
    "fulfilled": 0,
    "member": 0,
    "ok": 0,
    "not-equivalent": 1,
    "not-fulfilled": 1,
    "non-member": 1,
    "unknown": 2,
    "error": 3,
}


def summarize(op, raw) -> dict:
    if op.argv is not None:
        code, text = raw
        doc = json.loads(text)
        summary = {"exit": code}
        summary.update({k: doc[k] for k in SUMMARY_FIELDS if k in doc})
        return summary
    return {"result": _render(raw)}


def _render(value: Any):
    if value is None:
        return None
    if isinstance(value, freemod.QuasiIdentity):
        return textio.serialize_qid(value)
    if isinstance(value, geometry.AtWitness):
        return {
            "system": [textio.serialize(u) for u in value.system.module_part],
            "candidate": textio.serialize(value.candidate),
            "in_first": value.in_first,
            "in_second": value.in_second,
        }
    return repr(value)


def digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant(summary: dict) -> dict:
    """The part of a summary that no seed changes: seeds only rename
    elements, change bases and relabel codomains."""
    if "result" in summary:
        return {"none": summary["result"] is None}
    inv = {"exit": summary["exit"], "outcome": summary.get("outcome")}
    cert = summary.get("certificate")
    if isinstance(cert, dict):
        if "count" in cert:
            inv["count"] = cert["count"]
        if "claims" in cert:
            inv["claims"] = [c["status"] for c in cert["claims"]]
    wit = summary.get("witness")
    if isinstance(wit, dict) and "sort" in wit:
        inv["witness"] = [wit["direction"], wit["sort"], wit["separating_qid"] is not None]
    return inv


def exit_code(summary: dict) -> list[str]:
    if "exit" not in summary:
        return []
    want = EXIT_CODES.get(summary.get("outcome"))
    if want != summary["exit"]:
        return [f"exit code {summary['exit']} for outcome {summary.get('outcome')!r}"]
    return []


# ---------------------------------------------------------------------------
# Independent re-checks.  Each factory returns check(summary) -> problems.


def qid_witness(files, rep_path: str, formula: str):
    """A failing quasi-identity's witness must satisfy every premise and
    violate the conclusion when evaluated directly."""

    def check(summary: dict) -> list[str]:
        if summary.get("outcome") != "not-fulfilled":
            return []
        rep = files.reps[rep_path]
        q = textio.parse_qid(formula, textio.infer_context(formula), rep.field)
        w = summary["witness"]
        asg = freemod.Assignment(
            rep,
            tuple(tuple(v) for v in w["x"]),
            tuple(rep.group.index(n) for n in w["y"]),
        )
        holds = all(freemod.eval_atom(asg, a) for a in q.premises)
        if not holds or freemod.eval_atom(asg, q.conclusion):
            return [f"witness {w} does not violate {formula!r}"]
        return []

    return check


def _separation(doc: dict, src, tgt) -> geometry.SeparationCertificate:
    homs = []
    for h in doc["homs"]:
        if "image" in h:
            homs.append(GroupHom(src, tgt, tuple(tgt.index(n) for n in h["image"])))
        else:
            image = tuple(tgt.group.index(n) for n in h["group_image"])
            beta = GroupHom(src.group, tgt.group, image)
            matrix = tuple(tuple(r) for r in h["matrix"])
            homs.append(reps.RepHom(src, tgt, matrix, beta))
    return geometry.SeparationCertificate(src, tgt, tuple(homs), tuple(doc["notes"]))


def _validate_pair(cert: dict, a, b) -> list[str]:
    problems = []
    for side, src, tgt in (("forward", a, b), ("backward", b, a)):
        if not geometry.validate_separation_certificate(_separation(cert[side], src, tgt)):
            problems.append(f"{side} separation certificate fails validation")
    return problems


def _parsed(files, path: str):
    return files.reps[path] if path in files.reps else files.groups[path]


def geo_certificate(files, a_path: str, b_path: str):
    """Equivalent: both certificates re-validate.  NotEquivalent with a
    separating quasi-identity: the two inputs really disagree on it."""

    def check(summary: dict) -> list[str]:
        a, b = _parsed(files, a_path), _parsed(files, b_path)
        if summary.get("outcome") == "equivalent":
            return _validate_pair(summary["certificate"], a, b)
        wit = summary.get("witness")
        if summary.get("outcome") == "not-equivalent" and wit.get("separating_qid"):
            text = wit["separating_qid"]
            q = textio.parse_qid(text, textio.infer_context(text), a.field)
            if geometry.fulfills_qid(a, q)[0] == geometry.fulfills_qid(b, q)[0]:
                return [f"separating qid {text!r} does not separate"]
        return []

    return check


def at_verdict(files, a_path: str, b_path: str):
    """Equivalent: the faithful images' certificates re-validate.
    NotEquivalent: the witness passes validate_at_witness."""

    def check(summary: dict) -> list[str]:
        a, b = files.reps[a_path], files.reps[b_path]
        if summary.get("outcome") == "equivalent":
            qa = reps.faithful_image(a).quotient
            qb = reps.faithful_image(b).quotient
            return _validate_pair(summary["certificate"]["quotient_geo"], qa, qb)
        if summary.get("outcome") == "not-equivalent":
            w = summary["witness"]
            ctx = textio.infer_context(" ".join(w["system"] + [w["candidate"]]))
            system = freemod.equation_system(
                ctx, [textio.parse_term(t, ctx, a.field) for t in w["system"]]
            )
            cand = textio.parse_term(w["candidate"], ctx, a.field)
            aw = geometry.AtWitness(system, cand, w["in_first"], w["in_second"])
            if not geometry.validate_at_witness(a, b, aw):
                return [f"action-type witness {w} fails validation"]
        return []

    return check


def faithful(files, rep_path: str):
    """The quotient acts faithfully and every element acts as its coset."""

    def check(summary: dict) -> list[str]:
        rep = files.reps[rep_path]
        cert = summary["certificate"]
        quot = textio.parse_rep_file(cert["quotient"])
        ident = tuple(tuple(int(i == j) for j in range(rep.dim)) for i in range(rep.dim))
        kernel = [g for g in range(rep.group.order) if rep.act[g] == ident]
        problems = []
        if quot.group.order * len(kernel) != rep.group.order:
            problems.append("quotient order is not |G| / |kernel|")
        if sum(m == ident for m in quot.act) != 1:
            problems.append("quotient is not faithful")
        for g, coset in enumerate(cert["sigma"]):
            if quot.act[quot.group.index(coset)] != rep.act[g]:
                problems.append(f"element {rep.group.names[g]} acts unlike its coset")
                break
        return problems

    return check


def _matmul(p: int, a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
            for i in range(len(a))]


def homs(files, a_path: str, b_path: str, sample: int = 16):
    """Count matches the list, no hom repeats, group homs come sorted by
    image table, and a spread sample of the homs passes a direct check of
    the definition."""

    def check(summary: dict) -> list[str]:
        a, b = _parsed(files, a_path), _parsed(files, b_path)
        listed = summary["certificate"]["homs"]
        problems = []
        if summary["certificate"]["count"] != len(listed):
            problems.append("count differs from the number of homs listed")
        keys = [json.dumps(h, sort_keys=True) for h in listed]
        if len(set(keys)) != len(keys):
            problems.append("a hom is listed twice")
        is_rep = hasattr(a, "group")
        ga, gb = (a.group, b.group) if is_rep else (a, b)
        field = "group_image" if is_rep else "image"
        images = [tuple(gb.index(n) for n in h[field]) for h in listed]
        if not is_rep and images != sorted(images):
            problems.append("group homs are not sorted by image table")
        step = max(1, len(listed) // sample)
        for k in range(0, len(listed), step):
            img = images[k]
            ok = img[0] == 0 and all(
                img[ga.table[i][j]] == gb.table[img[i]][img[j]]
                for i in range(ga.order)
                for j in range(ga.order)
            )
            if ok and is_rep:
                m = listed[k]["matrix"]
                ok = all(
                    _matmul(a.p, a.act[g], m) == _matmul(a.p, m, b.act[img[g]])
                    for g in range(ga.order)
                )
            if not ok:
                problems.append(f"hom {k} is not a homomorphism")
                break
        return problems

    return check


def paper_demo(summary: dict) -> list[str]:
    """Six claims; every attached certificate and witness re-verified."""
    claims = summary["certificate"]["claims"]
    problems = []
    if [c["id"] for c in claims] != ["C1", "C2", "C3", "C4", "C5", "C6"]:
        problems.append("claims are not C1..C6")
    for c in claims:
        ev = c["evidence"]
        if ev.get("revalidated") is False or ev.get("witness_verified") is False:
            problems.append(f"{c['id']} evidence fails its own re-check")
    return problems


def error(fragment: str):
    """An expected input or cap error: exit 3 with a matching message."""

    def check(summary: dict) -> list[str]:
        if summary.get("outcome") != "error" or fragment not in summary.get("error", ""):
            return [f"expected an error mentioning {fragment!r}"]
        return []

    return check


def no_witness(r, s, kind: str):
    """A scan of an equivalent pair finds nothing, and the pair really is
    equivalent: geo_equivalent and at_equivalent say so with certificates
    that re-validate."""
    proven: dict = {}

    def check(summary: dict) -> list[str]:
        problems = []
        if summary["result"] is not None:
            problems.append(f"{kind} scan returned {summary['result']!r}")
        if "ok" not in proven:
            geo = geometry.geo_equivalent(r, s, search_qid=False)
            at = geometry.at_equivalent(r, s)
            proven["ok"] = (
                isinstance(geo, geometry.Equivalent)
                and geometry.validate_separation_certificate(geo.certificate.forward)
                and geometry.validate_separation_certificate(geo.certificate.backward)
                and isinstance(at, geometry.Equivalent)
            )
        if not proven["ok"]:
            problems.append("pair is not proven equivalent")
        return problems

    return check
