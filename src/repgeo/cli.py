"""Command-line front end.

Each subcommand's handler is set on its subparser, and the parser is
built once, at import.  ``run`` calls the handler, adds the command and
``timing_ms`` to its payload, and turns any ``RepGeoError`` or
``OSError`` into one error document.

Exit codes: 0 = holds / equivalent / member, 1 = fails / not equivalent /
non-member, 2 = unknown, 3 = input or cap error, usage errors included.
With --json, given before the subcommand, the output is a single JSON
document; the human output mirrors it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import lru_cache
from itertools import chain, cycle, islice, repeat
from operator import attrgetter, getitem, is_
from pathlib import Path

from .audit import SUPPORTED_PRIMES, _asg_evidence, paper_demo, render_report, report_jsonable
from .config import DEFAULT_BOUNDS, SearchBounds
from .errors import InvalidInput, RepGeoError
from .freemod import ModuleAtom
from .geometry import (
    AtChainCertificate,
    AtWitness,
    Equivalent,
    GeoCertificate,
    InseparabilityWitness,
    NotEquivalent,
    SeparationCertificate,
    Unknown,
    at_equivalent,
    fulfills_qid,
    geo_equivalent,
    in_at_closure,
    in_closure,
)
from .groups import GroupHom, enumerate_group_homs
from .reps import RepHom, enumerate_rep_homs, faithful_image
from .textio import (
    infer_context,
    parse_atom,
    parse_group_file,
    parse_qid,
    parse_rep_file,
    parse_system_file,
    serialize,
    serialize_qid,
)

_EXIT = {
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


_escape = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    payloads whose dict keys are strings, with each ``GroupHom`` written as
    ``{"image": [...]}`` and each ``RepHom`` as ``{"group_image": [...],
    "matrix": [[...]]}``, images in the codomain's element names.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder.  Here
    the walk stays in Python too; only lists of homs into one codomain are
    written at C speed (``_write_homs``), a codomain's names are escaped
    once, and the pieces are joined once, at the end.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append ``obj``'s JSON to ``out``; ``nl`` is the newline and indent it starts on."""
    inner = nl + "  "
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, GroupHom):
        _write_homs([obj], nl, out)
    elif isinstance(obj, RepHom):
        names, item = _escaped_names(obj.target.group.names), inner + "  "
        image = ("," + item).join([names[x] for x in obj.grouphom.image])
        rows = ("," + item).join(
            f"[{item}  " + ("," + item + "  ").join(map(str, row)) + f"{item}]" for row in obj.matrix
        )
        out.append(f'{{{inner}"group_image": [{item}{image}{inner}],'
                   f'{inner}"matrix": [{item}{rows}{inner}]{nl}}}')
    elif not obj or not isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        for n, (k, v) in enumerate(sorted(obj.items())):
            out.append(("," if n else "{") + inner + _escape(k) + ": ")
            _write(v, inner, out)
        out.append(nl + "}")
    elif _same_codomain_homs(obj):
        out.append("[" + inner)
        _write_homs(obj, inner, out)
        out.append(nl + "]")
    else:
        for n, x in enumerate(obj):
            out.append(("," if n else "[") + inner)
            _write(x, inner, out)
        out.append(nl + "]")


def _same_codomain_homs(homs) -> bool:
    """Whether ``homs`` are ``GroupHom``s with one codomain names tuple and one image length."""
    return (
        set(map(type, homs)) == {GroupHom}
        and len(set(map(len, map(attrgetter("image"), homs)))) == 1
        and all(map(is_, map(attrgetter("codomain.names"), homs), repeat(homs[0].codomain.names)))
    )


def _write_homs(homs, nl: str, out: list[str]) -> None:
    """``homs`` (passing ``_same_codomain_homs``) at indent ``nl``, comma-separated: each image entry
    but the first is one piece, its separator and name, and a hom's first entry also ends the hom
    before it and starts its own.  The pieces of 256 homs at a time are joined at C speed."""
    inner = nl + "  "
    head, tail = f'{{{inner}"image": [{inner}  ', f"{inner}]{nl}}}"
    names = _escaped_names(homs[0].codomain.names)
    tables = [["," + inner + "  " + x for x in names]] * (len(homs[0].image) - 1)
    tables.append([tail + "," + nl + head + x for x in names])
    flat = chain.from_iterable(map(attrgetter("image"), homs))
    out.append(head + names[next(flat)])
    pieces = map(getitem, cycle(tables), flat)
    while chunk := "".join(islice(pieces, 256 * len(tables))):
        out.append(chunk)
    out.append(tail)


@lru_cache(maxsize=16)
def _escaped_names(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(_escape, names))


def _jsonable(obj) -> dict:
    """One of the five result dataclasses as a dict for ``_dumps``, which
    writes its tuples, strings and homs as they are."""
    if isinstance(obj, SeparationCertificate):
        return {"homs": obj.homs, "notes": obj.notes}
    if isinstance(obj, GeoCertificate):
        return {"forward": _jsonable(obj.forward), "backward": _jsonable(obj.backward)}
    if isinstance(obj, AtChainCertificate):
        return {
            "chain": "each side is action-type equivalent to its faithful image; "
            "the faithful images are geometrically equivalent",
            "quotient_geo": _jsonable(obj.quotient_geo.certificate),
        }
    if isinstance(obj, InseparabilityWitness):
        qid = obj.separating_qid
        return {"direction": obj.direction, "sort": obj.sort, "pair": obj.pair,
                "separating_qid": None if qid is None else serialize_qid(qid)}
    assert isinstance(obj, AtWitness)
    return {
        "system": [serialize(u) for u in obj.system.module_part],
        "candidate": serialize(obj.candidate),
        "in_first": obj.in_first,
        "in_second": obj.in_second,
    }


def _verdict(verdict) -> dict:
    if isinstance(verdict, Equivalent):
        return {"outcome": "equivalent", "certificate": _jsonable(verdict.certificate)}
    if isinstance(verdict, NotEquivalent):
        return {"outcome": "not-equivalent", "witness": _jsonable(verdict.witness)}
    assert isinstance(verdict, Unknown)
    return {"outcome": "unknown", "bounds": vars(verdict.bounds)}


def _bounds_from(args) -> SearchBounds:
    """check-at's bound flags over the defaults: an unset flag keeps its
    default, and a negative one is an input error."""
    for flag in ("max_vars", "max_terms", "max_word_len"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise RepGeoError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    given = {"max_xvars": args.max_vars, "max_yvars": args.max_vars,
             "max_terms": args.max_terms, "max_word_len": args.max_word_len}
    return replace(DEFAULT_BOUNDS, **{k: v for k, v in given.items() if v is not None})


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


# ---------------------------------------------------------------------------
# One handler per subcommand: (args) -> (payload, human text).  The payload
# holds everything but "command" and "timing_ms", which run adds.


def _check_geo(args) -> tuple[dict, str]:
    verdict = geo_equivalent(args.parse_file(_read(args.a)), args.parse_file(_read(args.b)))
    payload = {"inputs": [args.a, args.b], **_verdict(verdict)}
    return payload, payload["outcome"]


def _check_at(args) -> tuple[dict, str]:
    r1 = parse_rep_file(_read(args.r1))
    r2 = parse_rep_file(_read(args.r2))
    bounds = _bounds_from(args)
    verdict = at_equivalent(r1, r2, bounds)
    payload = {"inputs": [args.r1, args.r2], "bounds": vars(bounds), **_verdict(verdict)}
    return payload, payload["outcome"]


def _qid(args) -> tuple[dict, str]:
    rep = parse_rep_file(_read(args.rep))
    q = parse_qid(args.formula, infer_context(args.formula), rep.field)
    ok, witness = fulfills_qid(rep, q)
    outcome = "fulfilled" if ok else "not-fulfilled"
    wit = None if witness is None else _asg_evidence(witness)
    payload = {"inputs": [args.rep, args.formula], "outcome": outcome, "witness": wit}
    return payload, outcome if ok else f"{outcome}, witness {wit}"


def _closure(args) -> tuple[dict, str]:
    rep = parse_rep_file(_read(args.rep))
    ctx, system = parse_system_file(_read(args.system), rep.field)
    atom = parse_atom(args.member, ctx, rep.field)
    if args.action_type:
        if not isinstance(atom, ModuleAtom) or not system.is_action_type():
            raise RepGeoError(
                "--action-type needs a module atom and a system without group equations"
            )
        member = in_at_closure(rep, system, atom.element)
    else:
        member = in_closure(rep, system, atom)
    outcome = "member" if member else "non-member"
    return {"inputs": [args.rep, args.system, args.member], "outcome": outcome}, outcome


def _faithful(args) -> tuple[dict, str]:
    fi = faithful_image(parse_rep_file(_read(args.rep)))
    text = serialize(fi.quotient)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    certificate = {"quotient": text, "sigma": [fi.quotient.group.names[c] for c in fi.sigma]}
    payload = {"inputs": [args.rep], "outcome": "ok", "certificate": certificate}
    return payload, f"written to {args.output}" if args.output else text


def _homs(args) -> tuple[dict, str]:
    if args.reps:
        parse, enumerate_homs = parse_rep_file, enumerate_rep_homs
    else:
        parse, enumerate_homs = parse_group_file, enumerate_group_homs
    homs = enumerate_homs(parse(_read(args.a)), parse(_read(args.b)))
    certificate = {"count": len(homs), "homs": homs}
    payload = {"inputs": [args.a, args.b], "outcome": "ok", "certificate": certificate}
    return payload, f"{len(homs)} homomorphisms"


def _paper_demo(args) -> tuple[dict, str]:
    report = paper_demo(args.p)
    payload = {"inputs": {"p": args.p}, "outcome": "ok", "certificate": report_jsonable(report)}
    return payload, render_report(report)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 3, an input error;
    argparse's own 2 would read as unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="repgeo")
    ap.add_argument("--json", action="store_true", help="emit JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-geo-groups", help="geometric equivalence of two groups")
    s.add_argument("a", metavar="g1")
    s.add_argument("b", metavar="g2")
    s.set_defaults(handler=_check_geo, parse_file=parse_group_file)

    s = sub.add_parser("check-geo", help="geometric equivalence of two representations")
    s.add_argument("a", metavar="r1")
    s.add_argument("b", metavar="r2")
    s.set_defaults(handler=_check_geo, parse_file=parse_rep_file)

    s = sub.add_parser("check-at", help="action-type geometric equivalence")
    s.add_argument("r1")
    s.add_argument("r2")
    s.add_argument("--max-word-len", type=int)
    s.add_argument("--max-terms", type=int)
    s.add_argument("--max-vars", type=int)
    s.set_defaults(handler=_check_at)

    s = sub.add_parser("qid", help="check a quasi-identity on a representation")
    s.add_argument("rep")
    s.add_argument("formula")
    s.set_defaults(handler=_qid)

    s = sub.add_parser("closure", help="closure membership of an atom")
    s.add_argument("rep")
    s.add_argument("--system", required=True)
    s.add_argument("--member", required=True)
    s.add_argument("--action-type", action="store_true")
    s.set_defaults(handler=_closure)

    s = sub.add_parser("faithful", help="compute the faithful image")
    s.add_argument("rep")
    s.add_argument("-o", "--output")
    s.set_defaults(handler=_faithful)

    s = sub.add_parser("homs", help="enumerate homomorphisms")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--reps", action="store_true")
    s.set_defaults(handler=_homs)

    s = sub.add_parser("paper-demo", help="audit the counterexample construction")
    s.add_argument("--p", type=int, default=2, choices=SUPPORTED_PRIMES)
    s.set_defaults(handler=_paper_demo)
    return ap


_PARSER = build_parser()


def run(argv) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        payload, human = args.handler(args)
    except (RepGeoError, OSError) as e:
        payload, human = {"outcome": "error", "error": str(e)}, f"error: {e}"
        if getattr(e, "span", None):
            payload["span"] = vars(e.span)
    payload["command"] = args.command
    payload["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    print(_dumps(payload) if args.json else human)
    return _EXIT[payload["outcome"]]


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
