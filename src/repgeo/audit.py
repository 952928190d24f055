"""The counterexample audit.

Rebuilds the published two-representation construction (a swap action of
Z2 and of Z2 x Z2 on a 2-dimensional space) and checks each of its six
claims against the deciders, attaching re-checkable certificates or
witnesses.  Each decider runs once, and each claim is one row: the
asserted value, the computed value and the evidence.  A claim status is
CONFIRMED when the tool agrees with the asserted value and CONTRADICTED
when it does not; the asserted values are hard-coded so a decider
regression flips a status.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InvalidInput
from .freemod import Assignment, FreeContext, QuasiIdentity, eval_atom
from .geometry import (
    Equivalent,
    at_equivalent,
    find_at_witness,
    fulfills_qid,
    geo_equivalent,
    paper_witness_qid,
    validate_separation_certificate,
)
from .groups import cyclic_group, product_group
from .linalg import PrimeField, mat_identity
from .reps import Representation, faithful_image, make_representation, rep_isomorphic, rep_kernel

SUPPORTED_PRIMES = (2, 3, 5)


def build_demo_reps(p: int) -> tuple[Representation, Representation]:
    """The two representations of the construction: e1 and e2 swapped by
    the generator a, fixed by the generator b."""
    if p not in SUPPORTED_PRIMES:
        raise InvalidInput(f"demo supports p in {SUPPORTED_PRIMES}")
    field = PrimeField(p)
    g1 = cyclic_group(2, "a")
    g2 = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    swap = [[0, 1], [1, 0]]
    ident = mat_identity(2)
    r1 = make_representation(field, 2, g1, {"a": swap})
    r2 = make_representation(field, 2, g2, {"a": swap, "b": ident, "a·b": swap})
    return r1, r2


@dataclass(frozen=True)
class Claim:
    id: str
    location: str
    asserted: str
    computed: str
    status: str  # CONFIRMED | CONTRADICTED
    evidence: dict


@dataclass(frozen=True)
class AuditReport:
    p: int
    claims: tuple[Claim, ...]
    commentary: str


_EQUIVALENT = ("not equivalent", "equivalent")
_FULFILLED = ("not fulfilled", "fulfilled")

_COMMENTARY = (
    "A repaired reading under which the contradicted steps go through: "
    "quantify implication premises over every vector of the space rather "
    "than over chosen generator images.  That reading is reported here as "
    "commentary only; the deciders implement the stated point-wise "
    "semantics."
)


def _asg_evidence(asg: Assignment) -> dict:
    return {
        "x": [list(v) for v in asg.xmap],
        "y": [asg.rep.group.names[i] for i in asg.ymap],
    }


def _geo_evidence(verdict) -> dict:
    """Hom counts of an equivalence certificate and whether both of its
    halves re-validate; empty for any other verdict."""
    if not isinstance(verdict, Equivalent):
        return {}
    fwd, bwd = verdict.certificate.forward, verdict.certificate.backward
    return {
        "forward_homs": len(fwd.homs),
        "backward_homs": len(bwd.homs),
        "revalidated": validate_separation_certificate(fwd)
        and validate_separation_certificate(bwd),
    }


def _violation(rep: Representation, qid: QuasiIdentity, x: tuple, y: str) -> dict:
    """The hand-picked assignment x -> ``x``, y -> ``y`` and whether it
    re-checks, atom by atom, as satisfying the premises but not the conclusion."""
    asg = Assignment(rep, (x,), (rep.group.index(y),))
    verified = all(eval_atom(asg, a) for a in qid.premises) and not eval_atom(asg, qid.conclusion)
    return {"witness": _asg_evidence(asg), "witness_verified": verified}


def paper_demo(p: int = 2) -> AuditReport:
    r1, r2 = build_demo_reps(p)
    ker = rep_kernel(r2)
    fi = faithful_image(r2)
    iso = rep_isomorphic(fi.quotient, r1)
    groups = geo_equivalent(r1.group, r2.group)
    at = at_equivalent(r1, r2)
    at_scan = find_at_witness(r1, r2)
    # the implication (x.y - x = 0) => (y = 1)
    qid = paper_witness_qid(FreeContext(("x",), ("y",)), r1.field)
    ok1, _ = fulfills_qid(r1, qid)
    ok2, _ = fulfills_qid(r2, qid)
    reps = geo_equivalent(r1, r2)

    iso_evidence = None
    if iso is not None:
        group_map = [r1.group.names[iso.grouphom.image[i]] for i in range(fi.quotient.group.order)]
        iso_evidence = {"matrix": [list(r) for r in iso.matrix], "group_map": group_map}
    # C4: the discussion-relevant witness is the swap-fixed all-ones vector
    c4_evidence = {} if ok1 else {
        **_violation(r1, qid, (1,) * r1.dim, "a"),
        "note": "exhaustive enumeration of all assignments refutes the "
        "kernel-based argument: the all-ones vector is fixed by the swap",
    }
    at_eq = isinstance(at, Equivalent)
    # one row per claim: id, location, asserted text, asserted value,
    # computed value, the computed value's words (false, true), evidence
    rows = [
        ("C1", "construction: kernel and faithful image of the order-4 action",
         "kernel = {1, b}; faithful image isomorphic to the order-2 representation",
         True, ker.names() == ("1", "b") and iso is not None, ("disagrees", "agrees"),
         {"kernel": list(ker.names()), "isomorphism": iso_evidence}),
        ("C2", "construction: mutual group embeddings into Cartesian powers",
         "groups equivalent", True, isinstance(groups, Equivalent), _EQUIVALENT,
         _geo_evidence(groups)),
        ("C3", "construction: action-type equivalence via the faithful image",
         "action-type equivalent", True, at_eq, _EQUIVALENT,
         {"chain": "R1 ~at its faithful image ~ faithful image of R2 ~at R2" if at_eq else "no chain",
          "at_witness_scan": "absent" if at_scan is None else "present"}),
        ("C4", "conclusion step: the implication holds on the order-2 representation",
         "fulfilled", True, ok1, _FULFILLED, c4_evidence),
        ("C5", "conclusion step: the implication fails on the order-4 representation",
         "not fulfilled", False, ok2, _FULFILLED, _violation(r2, qid, (0,) * r2.dim, "b")),
        ("C6", "conclusion: the representations are not geometrically equivalent",
         "not equivalent", False, isinstance(reps, Equivalent), _EQUIVALENT,
         _geo_evidence(reps)),
    ]
    claims = tuple(
        Claim(cid, location, asserted, words[value],
              "CONFIRMED" if value == expected else "CONTRADICTED", evidence)
        for cid, location, asserted, expected, value, words, evidence in rows
    )
    return AuditReport(p, claims, _COMMENTARY)


def render_report(report: AuditReport) -> str:
    lines = [f"counterexample audit over GF({report.p})"]
    for c in report.claims:
        lines.append(f"{c.id} {c.status}: {c.location}")
        lines.append(f"    asserted: {c.asserted}")
        lines.append(f"    computed: {c.computed}")
    lines.append(f"commentary: {report.commentary}")
    return "\n".join(lines)


def report_jsonable(report: AuditReport) -> dict:
    return asdict(report)
