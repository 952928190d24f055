"""The acceptance gate: one test per criterion, each printing a single
ACCEPTANCE n: PASS/FAIL line.  All checks are exact (no tolerances): the
deciders are exhaustive over finite structures."""

import random
import time
from itertools import product

import pytest

from repgeo import (
    Equivalent,
    FreeContext,
    ModuleAtom,
    PrimeField,
    RepGeoError,
    at_equivalent,
    bounded_module_elements,
    cyclic_group,
    enumerate_group_homs,
    enumerate_rep_homs,
    equation_system,
    faithful_image,
    find_at_witness,
    fulfills_qid,
    geo_equivalent,
    in_closure,
    parse_atom,
    parse_group_file,
    parse_qid,
    parse_rep_file,
    parse_system_file,
    parse_term,
    parse_word,
    product_group,
    serialize,
    solution_set,
    trivial_group,
)
from repgeo.audit import paper_demo
from repgeo.config import DEFAULT_BOUNDS
from repgeo.sampling import (
    random_qid,
    random_representation,
    random_system,
)

from naive import naive_fulfills, random_qid_trees, trees_to_qid

CTX = FreeContext(("x",), ("y",))


@pytest.fixture
def report(capsys):
    """Prints the per-criterion verdict line outside pytest's capture so
    it shows up in the plain `pytest -v` output."""

    def _report(n: int, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ", end="")
        assert ok

    return _report


EXPECTED_STATUSES = {
    "C1": "CONFIRMED",
    "C2": "CONFIRMED",
    "C3": "CONFIRMED",
    "C4": "CONTRADICTED",
    "C5": "CONFIRMED",
    "C6": "CONTRADICTED",
}


def test_acceptance_1_claim_audit(report):
    t0 = time.perf_counter()
    report2 = paper_demo(2)
    elapsed = time.perf_counter() - t0
    report3 = paper_demo(3)
    ok = elapsed < 5.0
    for rep in (report2, report3):
        statuses = {c.id: c.status for c in rep.claims}
        ok = ok and statuses == EXPECTED_STATUSES
    # the contradicted claims carry the exact evidence the criterion names
    c4 = next(c for c in report2.claims if c.id == "C4")
    ok = ok and c4.evidence["witness"] == {"x": [[1, 1]], "y": ["a"]}
    report(1, ok)


def test_acceptance_2_oracle_equivalence(report):
    t0 = time.perf_counter()
    rng = random.Random(1002)
    disagreements = 0
    for _ in range(50):
        rep = random_representation(rng)
        prems, concl = random_qid_trees(rng, ["x"], ["y"], rep.p)
        q = trees_to_qid(CTX, rep.field, prems, concl)
        fast, _ = fulfills_qid(rep, q)
        slow = naive_fulfills(rep, ["x"], ["y"], prems, concl)
        if fast != slow:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    report(2, disagreements == 0 and elapsed < 60.0)


def test_acceptance_3_faithful_image_chain(report):
    rng = random.Random(1003)
    failures = 0
    for _ in range(20):
        rep = random_representation(rng)
        quot = faithful_image(rep).quotient
        if not isinstance(at_equivalent(rep, quot), Equivalent):
            failures += 1
        if find_at_witness(rep, quot) is not None:
            failures += 1
    report(3, failures == 0)


def test_acceptance_4_equivalence_consistency(report):
    rng = random.Random(1004)
    # one field keeps every pair comparable
    reps = [
        random_representation(rng, primes=(2,), dims=(1, 2)) for _ in range(10)
    ]
    ok = True
    for i in range(10):
        for j in range(i + 1, 10):
            r, s = reps[i], reps[j]
            if not isinstance(
                geo_equivalent(r, s, search_qid=False), Equivalent
            ):
                continue
            if find_at_witness(r, s) is not None:
                ok = False
            for _ in range(100):
                q = random_qid(rng, CTX, r.field)
                if fulfills_qid(r, q)[0] != fulfills_qid(s, q)[0]:
                    ok = False
    report(4, ok)


def test_acceptance_5_closure_laws(report):
    rng = random.Random(1005)
    ok = True
    for _ in range(100):
        rep = random_representation(rng)
        sys = random_system(rng, CTX, rep.field)
        base = solution_set(rep, sys).solutions
        for u in sys.module_part:
            if not in_closure(rep, sys, ModuleAtom(u)):
                ok = False
        pool = bounded_module_elements(CTX, rep.field, DEFAULT_BOUNDS)
        members = [u for u in pool if in_closure(rep, sys, ModuleAtom(u))]
        for u in members[:5]:
            bigger = equation_system(
                CTX, list(sys.module_part) + [u], list(sys.group_part)
            )
            if solution_set(rep, bigger).solutions != base:
                ok = False
    report(5, ok)


def test_acceptance_6_hom_counts(report, r1):
    def naive_group_count(g, h):
        count = 0
        for image in product(range(h.order), repeat=g.order):
            if image[0] == 0 and all(
                image[g.table[i][j]] == h.table[image[i]][image[j]]
                for i in range(g.order)
                for j in range(g.order)
            ):
                count += 1
        return count

    small = [
        trivial_group(),
        cyclic_group(2, "a"),
        cyclic_group(3, "c"),
        cyclic_group(4, "d"),
        product_group(cyclic_group(2, "a"), cyclic_group(2, "b")),
    ]
    ok = all(
        len(enumerate_group_homs(g, h)) == naive_group_count(g, h)
        for g in small
        for h in small
    )
    v4 = small[4]
    ok = ok and len(enumerate_group_homs(v4, small[1])) == 4
    ok = ok and len(enumerate_rep_homs(r1, r1)) == 8
    report(6, ok)


def test_acceptance_7_roundtrip_and_fuzz(report):
    rng = random.Random(1007)
    ok = True
    fields = (PrimeField(2), PrimeField(3))
    for _ in range(200):
        field = rng.choice(fields)
        kind = rng.randrange(4)
        if kind == 0:
            v = random_qid(rng, CTX, field)
            ok = ok and parse_qid(serialize(v), CTX, field) == v
        elif kind == 1:
            v = random_representation(rng)
            ok = ok and parse_rep_file(serialize(v)) == v
        elif kind == 2:
            sysv = random_system(rng, CTX, field)
            from repgeo import serialize_system

            ok = ok and parse_system_file(
                serialize_system(CTX, sysv), field
            ) == (CTX, sysv)
        else:
            g = rng.choice(
                [cyclic_group(rng.randint(1, 5), "a"), trivial_group()]
            )
            ok = ok and parse_group_file(serialize(g)) == g
    alphabet = "xy*^+-()=>& 0123456789#\nfield groupactdimrow[]=,.qz\t²١é "
    crashes = 0
    parsers = [
        lambda s: parse_qid(s, CTX, fields[0]),
        lambda s: parse_atom(s, CTX, fields[0]),
        lambda s: parse_term(s, CTX, fields[1]),
        lambda s: parse_word(s, CTX),
        parse_rep_file,
        parse_group_file,
        lambda s: parse_system_file(s, fields[0]),
    ]
    for i in range(100_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        fn = parsers[i % len(parsers)]
        try:
            fn(s)
        except RepGeoError:
            pass
        except Exception:
            crashes += 1
    report(7, ok and crashes == 0)
