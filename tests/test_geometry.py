import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import pytest

from repgeo import (
    AtWitness,
    Equivalent,
    PrimeField,
    FreeContext,
    GroupAtom,
    InseparabilityWitness,
    ModuleAtom,
    NotEquivalent,
    QuasiIdentity,
    SearchBounds,
    at_equivalent,
    bounded_atoms,
    bounded_module_elements,
    bounded_words,
    cyclic_group,
    enumerate_group_homs,
    enumerate_rep_homs,
    equation_system,
    eval_atom,
    faithful_image,
    find_at_witness,
    find_separating_qid,
    fulfills_qid,
    geo_equivalent,
    group_from_table,
    in_at_closure,
    in_closure,
    make_representation,
    module_act,
    module_add,
    module_scale,
    paper_witness_qid,
    product_group,
    ring_from_terms,
    separates_points,
    serialize,
    serialize_qid,
    solution_set,
    trivial_group,
    validate_at_witness,
    validate_separation_certificate,
    xgen,
    ygen,
)
from repgeo import geometry, linalg, reps
from repgeo.audit import build_demo_reps
from repgeo.config import DEFAULT_BOUNDS, DEFAULT_CAPS, EnumerationCaps
from repgeo.errors import (
    EnumerationCapExceeded,
    FieldMismatch,
    InvalidInput,
    SearchSpaceCapExceeded,
)
from repgeo.freemod import atom_key, module_key, word_value
from repgeo.groups import GroupHom, hom_defect
from repgeo.geometry import (
    SeparationCertificate,
    _atom_sat_mask,
    _same_closed_sets,
    _scan_asymmetries,
    _signatures,
    scan_context,
)
from repgeo.linalg import is_invertible, mat_identity, mat_mul
from repgeo.reps import RepHom, Representation, check_rep_hom
from repgeo.sampling import general_linear_group, random_qid, random_representation
from repgeo.textio import infer_context, parse_qid

from naive import (
    atom_tree_to_canonical,
    canonical_to_atom_tree,
    naive_atom_mask,
    naive_bounded_atoms,
    naive_bounded_words,
    naive_closed_sets,
    naive_fulfills,
    naive_least_violation,
    naive_points,
    naive_scan_asymmetries,
    naive_separate,
    naive_validate_separation,
    naive_signatures,
    naive_solutions,
    naive_eval_module,
    naive_holds,
    random_atom_tree,
    random_module_tree,
    random_qid_trees,
    random_word_tree,
    rref,
    trees_to_qid,
)
from test_groups import _GROUPS, _relabelled
from test_metamorphic import _sums_of_dim_3


def _ctx():
    return FreeContext(("x",), ("y",))


def _xy_minus_x(ctx, field, exp=1):
    x = xgen(ctx, field, 0)
    y = ring_from_terms(ctx, field, [(ygen(ctx, 0, exp), 1)])
    return module_add(module_act(x, y), module_scale(-1, x))


# -- solution sets and closures ----------------------------------------------


def test_solution_set_example(r1, gf2):
    ctx = _ctx()
    sys = equation_system(ctx, [_xy_minus_x(ctx, gf2)])
    sols = solution_set(r1, sys).solutions
    assert len(sols) == 6
    a = r1.group.index("a")
    got = {(s.xmap[0], s.ymap[0]) for s in sols}
    expect = {(v, 0) for v in product(range(r1.p), repeat=r1.dim)} | {((0, 0), a), ((1, 1), a)}
    assert got == expect


def test_solution_set_empty_system(r1, gf2):
    ctx = _ctx()
    sys = equation_system(ctx, [])
    assert len(solution_set(r1, sys).solutions) == 8


def test_solution_set_group_equation(r1, gf2):
    ctx = _ctx()
    sys = equation_system(ctx, [], [ygen(ctx, 0)])
    sols = solution_set(r1, sys).solutions
    assert len(sols) == 4 and all(s.ymap == (0,) for s in sols)


def test_in_closure_examples(r1, gf2):
    ctx = _ctx()
    sys = equation_system(ctx, [_xy_minus_x(ctx, gf2)])
    assert in_closure(r1, sys, ModuleAtom(_xy_minus_x(ctx, gf2, exp=2)))
    assert not in_closure(r1, sys, ModuleAtom(xgen(ctx, gf2, 0)))
    # every member of T is in the closure of T
    assert in_closure(r1, sys, ModuleAtom(_xy_minus_x(ctx, gf2)))


def test_every_system_has_the_trivial_solution(r1, gf2):
    # x = 0, y = 1 solves every equational system, so solution sets are
    # never empty here; the empty-intersection convention in in_closure
    # is a documented boundary case, vacuous for these structures
    ctx = _ctx()
    x = xgen(ctx, gf2, 0)
    sys = equation_system(ctx, [x], [ygen(ctx, 0)])
    assert len(solution_set(r1, sys).solutions) == 1
    pool = bounded_module_elements(ctx, gf2, SearchBounds(1, 1, 2, 2, 2, 2))
    for u in pool:
        s = equation_system(ctx, [u], [ygen(ctx, 0)])
        sols = solution_set(r1, s).solutions
        assert sols
        assert any(s.xmap == ((0, 0),) and s.ymap == (0,) for s in sols)


def test_in_at_closure_examples(r1, r2, gf2):
    ctx = _ctx()
    t = [_xy_minus_x(ctx, gf2)]
    u = _xy_minus_x(ctx, gf2, exp=2)
    assert in_at_closure(r1, t, u)
    assert in_at_closure(r2, t, u)
    assert not in_at_closure(r1, [], xgen(ctx, gf2, 0))


def test_in_at_closure_rejects_group_part(r1, gf2):
    ctx = _ctx()
    sys = equation_system(ctx, [], [ygen(ctx, 0)])
    with pytest.raises(Exception):
        in_at_closure(r1, sys, xgen(ctx, gf2, 0))


# -- quasi-identities --------------------------------------------------------


def test_fulfills_qid_r1(r1, gf2):
    ctx = _ctx()
    q = paper_witness_qid(ctx, gf2)
    ok, wit = fulfills_qid(r1, q)
    assert not ok
    # enumeration-least violating assignment: x = (0,0), y = a
    assert wit.xmap == ((0, 0),) and r1.group.names[wit.ymap[0]] == "a"


def test_fulfills_qid_r2(r2, gf2):
    ctx = _ctx()
    q = paper_witness_qid(ctx, gf2)
    ok, wit = fulfills_qid(r2, q)
    assert not ok
    assert wit.xmap == ((0, 0),) and r2.group.names[wit.ymap[0]] == "b"


def test_fulfills_trivial_tautology(r1, r2, gf2):
    ctx = _ctx()
    from repgeo import QuasiIdentity, identity_word

    q = QuasiIdentity((), GroupAtom(identity_word(ctx)))
    for rep in (r1, r2):
        ok, wit = fulfills_qid(rep, q)
        assert ok and wit is None


# -- the search-space cap ----------------------------------------------------
# max_search_space bounds |V|^nx * |G|^ny and is checked before any point
# is looked at.


@pytest.mark.parametrize("decider", ["fulfills_qid", "in_closure", "solution_set"])
def test_search_space_cap_edge(decider, r1, gf2):
    ctx = FreeContext(("x1", "x2"), ("y",))
    space = 4**2 * 2
    y = ygen(ctx, 0)
    x1y = module_act(xgen(ctx, gf2, 0), ring_from_terms(ctx, gf2, [(y, 1)]))
    u = module_add(x1y, module_scale(-1, xgen(ctx, gf2, 1)))
    sys = equation_system(ctx, [u])
    calls = {
        "fulfills_qid": lambda rep, caps: fulfills_qid(
            rep, QuasiIdentity((ModuleAtom(u),), GroupAtom(y)), caps
        ),
        "in_closure": lambda rep, caps: in_closure(rep, sys, GroupAtom(y), caps),
        "solution_set": lambda rep, caps: solution_set(rep, sys, caps).solutions,
    }
    call = calls[decider]
    assert call(r1, EnumerationCaps(max_search_space=space)) == call(r1, DEFAULT_CAPS)
    with pytest.raises(SearchSpaceCapExceeded) as exc:
        call(r1, EnumerationCaps(max_search_space=space - 1))
    assert (exc.value.cap, exc.value.needed) == (space - 1, space)
    # a representation without action matrices fails on the first point
    # evaluated, so the cap must be hit before that
    hollow = Representation(r1.field, r1.dim, r1.group, ())
    with pytest.raises(SearchSpaceCapExceeded):
        call(hollow, EnumerationCaps(max_search_space=space - 1))


def _space(rep, nx, ny=1):
    return (rep.p**rep.dim) ** nx * rep.group.order**ny


def test_enumerate_assignments_matches_naive_points():
    # content and x-major order, and the cap at the space's size
    rng = random.Random(20)
    for _ in range(40):
        rep = random_representation(rng)
        nx, ny = rng.randint(0, 2), rng.randint(0, 2)
        ctx = scan_context(nx, ny)
        points = geometry.enumerate_assignments(rep, ctx)
        assert [(a.xmap, a.ymap) for a in points] == list(naive_points(rep, ctx.xvars, ctx.yvars))
        assert all(a.rep is rep for a in points)
        space = _space(rep, nx, ny)
        assert len(points) == space
        with pytest.raises(SearchSpaceCapExceeded) as exc:
            geometry.enumerate_assignments(rep, ctx, EnumerationCaps(max_search_space=space - 1))
        assert (exc.value.cap, exc.value.needed) == (space - 1, space)


@pytest.mark.parametrize("scan", [find_at_witness, find_separating_qid])
@pytest.mark.parametrize("other,nx", [("r2", 2), ("trivial_rep", 1)])
def test_scan_search_space_cap_edge(scan, other, nx, r1, request):
    # (r1, r2) scans both contexts and finds nothing; (r1, trivial_rep)
    # returns a witness from its only context
    s = request.getfixturevalue(other)
    bounds = SearchBounds(max_xvars=nx)
    space = max(_space(rep, nx) for rep in (r1, s))
    expected = scan(r1, s, bounds)
    assert scan(r1, s, bounds, EnumerationCaps(max_search_space=space)) == expected
    with pytest.raises(SearchSpaceCapExceeded) as exc:
        scan(r1, s, bounds, EnumerationCaps(max_search_space=space - 1))
    assert (exc.value.cap, exc.value.needed) == (space - 1, space)
    # the first mask built for a representation without action matrices
    # fails, so both representations' caps must be checked before that
    hollow = Representation(r1.field, r1.dim, r1.group, ())
    one = max(_space(rep, 1) for rep in (r1, s))
    with pytest.raises(SearchSpaceCapExceeded):
        scan(hollow, s, SearchBounds(), EnumerationCaps(max_search_space=one - 1))


# -- bounded enumeration -----------------------------------------------------


def test_bounded_words_shortlex():
    ctx = _ctx()
    ws = bounded_words(ctx, 2)
    assert ws[0].is_identity()
    lens = [w.length() for w in ws]
    assert lens == sorted(lens)
    assert len(ws) == 1 + 2 + 2  # 1, y, y^-1, y^2, y^-2


def test_bounded_words_match_naive_shortlex():
    for ny, max_len in product((1, 2, 3), range(5)):
        ctx = scan_context(1, ny)
        assert bounded_words(ctx, max_len) == naive_bounded_words(ctx, max_len), (ny, max_len)


@pytest.mark.parametrize("field", list(vars(DEFAULT_BOUNDS)))
def test_negative_search_bound_rejected(field, r1, trivial_rep):
    with pytest.raises(InvalidInput, match=f"{field} must be >= 0"):
        find_at_witness(r1, trivial_rep, SearchBounds(**{field: -1}))
    assert getattr(SearchBounds(**{field: 0}), field) == 0


def test_bounded_module_elements_counts(gf2):
    ctx = _ctx()
    elems = bounded_module_elements(ctx, gf2, SearchBounds(1, 1, 1, 1, 1, 1))
    # words of length <= 1: {1, y, y^-1}; over GF(2) coefficient 1 only;
    # single terms on the one x slot
    assert len(elems) == 3
    atoms = bounded_atoms(ctx, gf2, SearchBounds(1, 1, 1, 1, 1, 1))
    assert len(atoms) == 3 + 3


def test_pools_match_module_add_construction():
    # p, x- and y-counts, term and word-length bounds; pools over 1,000
    # elements are left out for the oracle's run time
    for p, nx, ny, max_terms, max_word_len in product(
        (2, 3, 5), (1, 2), (1, 2), range(4), range(3)
    ):
        ctx, field = scan_context(nx, ny), PrimeField(p)
        slots = nx * len(bounded_words(ctx, max_word_len))
        size = sum(comb(slots, k) * (p - 1) ** k for k in range(1, max_terms + 1))
        if size > 1000:
            continue
        bounds = SearchBounds(max_terms=max_terms, max_word_len=max_word_len)
        atoms = naive_bounded_atoms(ctx, field, bounds)
        assert bounded_atoms(ctx, field, bounds) == atoms
        elements = [a.element for a in atoms if isinstance(a, ModuleAtom)]
        assert len(elements) == size
        assert bounded_module_elements(ctx, field, bounds) == elements


def test_pools_in_canonical_order_past_the_oracle():
    # every pool up to 10,000 elements, past the oracle's 1,000 above:
    # strictly increasing under module_key, of the size the slots give, and
    # after the group atoms in bounded_atoms.  The three larger pools
    # (45,764 to 392,088 elements at 3 terms of words up to length 2) are
    # left out, since module_key costs about 40 us per element
    for p, nx, ny, max_terms, max_word_len in product(
        (2, 3, 5), (1, 2), (1, 2), range(4), range(3)
    ):
        ctx, field = scan_context(nx, ny), PrimeField(p)
        words = bounded_words(ctx, max_word_len)
        slots = nx * len(words)
        size = sum(comb(slots, k) * (p - 1) ** k for k in range(1, max_terms + 1))
        if size > 10_000:
            continue
        bounds = SearchBounds(max_terms=max_terms, max_word_len=max_word_len)
        elements = bounded_module_elements(ctx, field, bounds)
        assert len(elements) == size
        keys = [module_key(u) for u in elements]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        atoms = bounded_atoms(ctx, field, bounds)
        assert atoms == [GroupAtom(w) for w in words] + [ModuleAtom(u) for u in elements]


def test_large_pool_builds_quickly():
    # p = 3 at 2x2 with 3 terms of words up to length 2: 50,184 elements.
    # Sorting them by module_key once took about 2.8 s; generating them in
    # that order takes about 0.1 s
    script = (
        "from repgeo import PrimeField, SearchBounds, bounded_module_elements\n"
        "from repgeo.geometry import scan_context\n"
        "b = SearchBounds(max_terms=3, max_word_len=2)\n"
        "print(len(bounded_module_elements(scan_context(2, 2), PrimeField(3), b)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=2
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["50184"]


def test_qid_pool_adds_the_paper_atoms_in_order():
    # the pool a qid scan builds in a context it does not skip is the
    # bounded atoms with the paper's premise and conclusion added, in
    # atom_key order; small bounds leave one or both out of bounded_atoms
    seen = set()
    for p, nx, ny, max_terms, max_word_len in product(
        (2, 3, 5), (1, 2), (1, 2), range(3), range(3)
    ):
        ctx, field = scan_context(nx, ny), PrimeField(p)
        slots = nx * len(bounded_words(ctx, max_word_len))
        if sum(comb(slots, k) * (p - 1) ** k for k in range(1, max_terms + 1)) > 1000:
            continue
        bounds = SearchBounds(max_terms=max_terms, max_word_len=max_word_len)
        line = _trivial_line(p)
        assert find_separating_qid(line, line, bounds) is None
        wq = paper_witness_qid(ctx, field)
        paper = {*wq.premises, wq.conclusion}
        naive = naive_bounded_atoms(ctx, field, bounds)
        pool = geometry._atom_pool(ctx, field, bounds, qid=True)
        assert pool == sorted(set(naive) | paper, key=atom_key)
        seen.add(len(paper - set(naive)))
    assert seen == {0, 1, 2}


# -- separation certificates -------------------------------------------------


def test_separates_v4_into_z2(v4, z2):
    cert = separates_points(v4, z2)
    assert isinstance(cert, SeparationCertificate) and len(cert.homs) == 2
    assert validate_separation_certificate(cert)


def test_separates_z3_into_z2_fails(z2):
    z3 = cyclic_group(3, "c")
    out = separates_points(z3, z2)
    assert isinstance(out, InseparabilityWitness)
    assert out.direction == "forward" and out.separating_qid is None
    assert out.sort == "group"
    assert out.pair == ("1", "c")


def test_separates_rep_identity(r1):
    cert = separates_points(r1, r1)
    assert isinstance(cert, SeparationCertificate)
    assert validate_separation_certificate(cert)


def test_validate_separation_certificate_rejects_broken_certificates(v4, z2, r1):
    cert = separates_points(v4, z2)
    # a hom dropped: some pair of V4 is joined by every hom left
    for k in range(len(cert.homs)):
        dropped = replace(cert, homs=cert.homs[:k] + cert.homs[k + 1 :])
        assert not validate_separation_certificate(dropped)
    # an image table that is not a hom, beside homs that separate every pair
    bad = GroupHom(v4, z2, (0, 1, 1, 1))
    assert hom_defect(v4, z2, bad.image) is not None
    assert not validate_separation_certificate(replace(cert, homs=cert.homs + (bad,)))
    # r1 swaps the basis of GF(2)^2.  Hom 0 (trivial beta) has kernel
    # <(1,1)>, hom 1 separates the group pair and hom 2 cuts the kernel to 0
    rcert = separates_points(r1, r1)
    assert validate_separation_certificate(rcert) and len(rcert.homs) == 3
    swap = rcert.homs[2]
    projection = RepHom(r1, r1, ((1, 0), (0, 0)), swap.grouphom)
    assert not check_rep_hom(projection)
    assert not validate_separation_certificate(replace(rcert, homs=rcert.homs[:2] + (projection,)))
    # every hom valid and the group pair separated, but (1,1) is in the kernel
    assert all(check_rep_hom(h) for h in rcert.homs[:2])
    assert not validate_separation_certificate(replace(rcert, homs=rcert.homs[:2]))


def _separation_zoo():
    zoo = dict(_GROUPS)
    zoo.update({f"Z{n}": cyclic_group(n, "g") for n in (5, 7, 8)})
    zoo["Z4^2"] = product_group(cyclic_group(4, "d"), cyclic_group(4, "e"))
    for name, seed in (("S3", 2), ("Z4xZ2", 2), ("Z2^3", 2), ("GL(2,3)", 1)):
        zoo[name + " shuffled"] = _relabelled(zoo[name], seed)
    return zoo


def test_group_separation_matches_the_whole_list_greedy():
    # the library draws homs in order and tracks the joint kernel; the
    # oracle walks the full sorted list with a set of unseparated pairs
    seen = set()
    zoo = _separation_zoo()
    for g in zoo.values():
        for h in zoo.values():
            out = separates_points(g, h)
            assert out == naive_separate(g, h)
            seen.add("inseparable" if isinstance(out, InseparabilityWitness)
                     else min(len(out.homs), 3))
    assert seen == {"inseparable", 0, 1, 2, 3}


def _relabelled_rep(r, seed):
    """r on its group with the elements put in a seeded random order, each
    matrix carried along with its element."""
    g = _relabelled(r.group, seed)
    act = {name: r.act[r.group.index(name)] for name in g.names[1:]}
    return make_representation(r.field, r.dim, g, act)


def test_verdicts_do_not_depend_on_the_element_order():
    # the greedy generators and the subgroup chain follow the element
    # order; the verdicts and the number of rep homs do not
    seen = set()
    for seed in range(6):
        rng = random.Random(seed)
        reps = [random_representation(rng) for _ in range(8)]
        shuffled = [_relabelled_rep(r, 100 * seed + i) for i, r in enumerate(reps)]
        seen |= {"new generators" if r.group._generators != t.group._generators
                 else "same generators" for r, t in zip(reps, shuffled)}
        for i, j in combinations(range(8), 2):
            if reps[i].p != reps[j].p:
                continue
            for decide in (lambda a, b: geo_equivalent(a, b, search_qid=False), at_equivalent):
                kind = type(decide(reps[i], reps[j]))
                assert type(decide(shuffled[i], shuffled[j])) is kind
                seen.add(kind)
            assert len(enumerate_rep_homs(reps[i], reps[j])) == len(
                enumerate_rep_homs(shuffled[i], shuffled[j]))
    assert seen == {"new generators", "same generators", Equivalent, NotEquivalent}


def test_rep_separation_matches_the_whole_list_greedy():
    rng = random.Random(5)
    pairs = []
    for _ in range(160):
        r = random_representation(rng)
        pairs.append((r, random_representation(rng, primes=(r.p,))))
    pairs += [tuple(_cyclic_power_rep(rng, 3, 5, 12) for _ in range(2)) for _ in range(4)]
    # sums R⊕S of dim 3 over one catalog group, beside themselves and beside
    # a rep over their field
    for a in _sums_of_dim_3(rng, 10):
        b = random_representation(rng, primes=(a.p,))
        pairs += [(a, b), (b, a), (a, a)]
    seen = set()
    for r, s in pairs:
        out = separates_points(r, s)
        assert out == naive_separate(r, s)
        if r.dim == 3 and r.p < 5:
            seen.add(("dim 3", type(out)))
        if isinstance(out, InseparabilityWitness):
            seen.add(out.sort)
        else:
            seen.add(None)
            # homs chosen for group pairs and homs chosen for the vector kernel
            notes = [n.split()[1:3] for n in out.notes]
            seen |= {tuple(sorted({kind for i, kind in notes if i == j})) for j, _ in notes}
    assert seen >= {None, "group", "vector", ("cuts",), ("separates",),
                    ("dim 3", SeparationCertificate), ("dim 3", InseparabilityWitness)}


def test_self_separation_stops_at_the_first_injective_prefix():
    # Z4^3 has 262,144 homs into itself.  Listing them all before looking at
    # the first took about 4.7 s; drawing them until the chosen ones are
    # jointly injective takes about 0.1 s
    script = (
        "from repgeo import cyclic_group, geo_equivalent, product_group\n"
        "z4 = [cyclic_group(4, x) for x in 'abc']\n"
        "g = product_group(product_group(z4[0], z4[1]), z4[2])\n"
        "print(type(geo_equivalent(g, g)).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=2
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["Equivalent"]


def test_per_beta_cap_is_checked_on_the_betas_separation_reaches():
    # Z2 by -1 on GF(3) into V4 on GF(3)^2: the betas a -> 1, b, a, a.b have
    # 1, 3, 3 and 9 intertwiners.  Separation is done inside beta a -> b
    r = make_representation(PrimeField(3), 1, cyclic_group(2, "a"), {"a": [[2]]})
    v4 = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    s = make_representation(
        PrimeField(3), 2, v4, {1: [[2, 0], [0, 1]], 2: [[1, 0], [0, 2]], 3: [[2, 0], [0, 2]]}
    )
    caps = EnumerationCaps(max_matrices_per_beta=3)
    with pytest.raises(EnumerationCapExceeded, match="needs 9 > cap 3"):
        enumerate_rep_homs(r, s, caps)
    cert = separates_points(r, s, caps)
    assert [h.grouphom.image for h in cert.homs] == [(0, 1), (0, 1)]
    # separation draws each beta's zero matrix and basis, not its span, so
    # the cap on listed matrices does not bound it
    assert separates_points(r, s, EnumerationCaps(max_matrices_per_beta=1)) == cert


def test_separation_draws_at_most_the_zero_matrix_and_a_basis_per_beta(monkeypatch):
    drawn = Counter()

    def counted(r, s, betas, draw):
        for h in reps._drawn(r, s, betas, draw):
            drawn[h.grouphom] += 1
            yield h

    monkeypatch.setattr(geometry, "_drawn", counted)
    rng = random.Random(8)
    pairs = [(random_representation(rng, primes=(p,)), random_representation(rng, primes=(p,)))
             for p in (2, 3) for _ in range(20)]
    pairs += [(a, a) for a in _sums_of_dim_3(rng, 4)]
    most = 0
    for r, s in pairs:
        drawn.clear()
        separates_points(r, s)
        for beta, count in drawn.items():
            assert count <= 1 + len(reps._intertwiners(r, s, [beta.image[g] for g in r.group._generators]))
        most = max(most, *drawn.values())
    assert most > 2


@pytest.mark.parametrize("dim", [5, 6])
def test_trivial_group_self_separation_draws_the_basis_not_the_span(dim):
    # every matrix intertwines the trivial group on GF(2)^dim with itself:
    # a span of 2^(dim^2) matrices, over the listing cap of 2^20, while the
    # dim matrix units of its basis that cut the kernel separate
    r = make_representation(PrimeField(2), dim, trivial_group(), {})
    cert = separates_points(r, r)
    assert len(cert.homs) == dim
    assert validate_separation_certificate(cert)
    with pytest.raises(EnumerationCapExceeded, match=f"needs {2 ** dim ** 2} > cap"):
        enumerate_rep_homs(r, r)


def test_certificate_validation_matches_the_vector_sweep():
    # the validator checks the joint vector kernel by one elimination; the
    # oracle multiplies every nonzero vector of the source by every matrix.
    # Each certificate is also checked with one hom dropped, and with one
    # matrix replaced by the zero matrix, which intertwines but cuts nothing
    rng = random.Random(31)
    seen = set()
    for p, dim in product((2, 3, 5), (1, 2, 3)):
        for _ in range(3):
            r = _cyclic_power_rep(rng, dim, p, 6)
            s = _cyclic_power_rep(rng, rng.randint(1, 3), p, 6)
            for cert in (separates_points(r, s), separates_points(r, r)):
                if isinstance(cert, InseparabilityWitness):
                    continue
                seen.add((p, dim))
                homs = cert.homs
                zero = tuple((0,) * cert.target.dim for _ in range(dim))
                broken = [homs[:k] + homs[k + 1 :] for k in range(len(homs))]
                broken += [homs[:k] + (replace(h, matrix=zero),) + homs[k + 1 :]
                           for k, h in enumerate(homs)]
                for c in [cert, *(replace(cert, homs=b) for b in broken)]:
                    valid = validate_separation_certificate(c)
                    assert valid == naive_validate_separation(c)
                    seen.add(valid)
    assert seen == {True, False, *product((2, 3, 5), (1, 2, 3))}


def test_trivial_group_on_gf97_4_validates_in_well_under_a_second():
    # 97^4 = 88,529,281 vectors, each of which a vector sweep would multiply
    r = make_representation(PrimeField(97), 4, trivial_group(), {})
    t0 = time.perf_counter()
    cert = separates_points(r, r)
    assert validate_separation_certificate(cert)
    assert len(cert.homs) == 4
    assert time.perf_counter() - t0 < 1.0


def test_separation_checks_the_fields(trivial_rep):
    other = make_representation(PrimeField(3), 2, trivial_rep.group, {"a": [[1, 0], [0, 1]]})
    with pytest.raises(FieldMismatch):
        separates_points(trivial_rep, other)


# -- geo equivalence ---------------------------------------------------------


def test_geo_groups_z2_v4(z2, v4):
    verdict = geo_equivalent(z2, v4)
    assert isinstance(verdict, Equivalent)
    assert validate_separation_certificate(verdict.certificate.forward)
    assert validate_separation_certificate(verdict.certificate.backward)


def test_geo_groups_z2_z3(z2):
    verdict = geo_equivalent(z2, cyclic_group(3, "c"))
    assert isinstance(verdict, NotEquivalent)


def test_geo_skips_backward_run_once_forward_fails():
    # Z3 -> Z2 has only the trivial hom, so the verdict is decided before
    # Z2 -> Z3, whose 3 candidates would exceed the cap, is searched
    z3, z2 = cyclic_group(3, "c"), cyclic_group(2, "a")
    verdict = geo_equivalent(z3, z2, EnumerationCaps(max_hom_candidates=2))
    assert verdict == geo_equivalent(z3, z2)
    w = verdict.witness
    assert (w.direction, w.sort, w.pair) == ("forward", "group", ("1", "c"))


def test_geo_witness_of_the_backward_run_is_marked_backward(z2):
    # Z2 embeds in Z4, but every hom Z4 -> Z2 kills a^2; the backward run
    # returns a "forward" witness, which geo_equivalent relabels
    z4 = cyclic_group(4, "a")
    assert isinstance(separates_points(z2, z4), SeparationCertificate)
    assert separates_points(z4, z2) == InseparabilityWitness("forward", "group", ("1", "a^2"))
    w = geo_equivalent(z2, z4).witness
    assert (w.direction, w.sort, w.pair, w.separating_qid) == ("backward", "group", ("1", "a^2"), None)


def test_geo_reps_r1_r2(r1, r2):
    verdict = geo_equivalent(r1, r2)
    assert isinstance(verdict, Equivalent)
    fwd, bwd = verdict.certificate.forward, verdict.certificate.backward
    assert validate_separation_certificate(fwd)
    assert validate_separation_certificate(bwd)


def test_geo_reps_r1_vs_trivial(r1, trivial_rep):
    verdict = geo_equivalent(r1, trivial_rep)
    assert isinstance(verdict, NotEquivalent)
    w = verdict.witness
    assert w.separating_qid is not None
    vr, _ = fulfills_qid(r1, w.separating_qid)
    vs, _ = fulfills_qid(trivial_rep, w.separating_qid)
    assert vr != vs


# -- action-type equivalence -------------------------------------------------


def test_at_r1_r2(r1, r2):
    verdict = at_equivalent(r1, r2)
    assert isinstance(verdict, Equivalent)
    cert = verdict.certificate
    assert cert.faithful_second.quotient.group.order == 2
    assert isinstance(cert.quotient_geo, Equivalent)


def test_at_vs_trivial(r1, trivial_rep):
    verdict = at_equivalent(r1, trivial_rep)
    assert isinstance(verdict, NotEquivalent)
    w = verdict.witness
    assert isinstance(w, AtWitness)
    assert not w.system.module_part  # T = empty
    assert validate_at_witness(r1, trivial_rep, w)


def test_find_at_witness_r1_r2_absent(r1, r2):
    assert find_at_witness(r1, r2) is None


def test_find_separating_qid(r1, r2, trivial_rep):
    assert find_separating_qid(r1, r2) is None
    q = find_separating_qid(r1, trivial_rep)
    assert q is not None
    vr, _ = fulfills_qid(r1, q)
    vs, _ = fulfills_qid(trivial_rep, q)
    assert vr != vs


# -- law suites on random instances ------------------------------------------


def _random_system(rng, rep, ctx, k=2):
    bounds = SearchBounds(1, 1, 1, 2, 2, 2)
    pool = bounded_module_elements(ctx, rep.field, bounds)
    return equation_system(ctx, rng.sample(pool, min(k, len(pool))))


def test_closure_laws_random():
    rng = random.Random(17)
    ctx = _ctx()
    for _ in range(15):
        rep = random_representation(rng)
        sys = _random_system(rng, rep, ctx)
        base = solution_set(rep, sys).solutions
        for u in sys.module_part:
            assert in_closure(rep, sys, ModuleAtom(u))
        # adding a closure member never changes the solution set
        pool = bounded_module_elements(ctx, rep.field, DEFAULT_BOUNDS)
        members = [u for u in pool if in_closure(rep, sys, ModuleAtom(u))][:3]
        for u in members:
            bigger = equation_system(
                ctx, list(sys.module_part) + [u], list(sys.group_part)
            )
            assert solution_set(rep, bigger).solutions == base


def test_closure_monotone():
    rng = random.Random(23)
    ctx = _ctx()
    for _ in range(10):
        rep = random_representation(rng)
        sys_small = _random_system(rng, rep, ctx, k=1)
        sys_big = equation_system(
            ctx,
            list(sys_small.module_part)
            + list(_random_system(rng, rep, ctx, k=1).module_part),
        )
        pool = bounded_atoms(ctx, rep.field, SearchBounds(1, 1, 1, 1, 1, 1))
        for a in pool:
            if in_closure(rep, sys_small, a):
                assert in_closure(rep, sys_big, a)


def test_prop3_small_reps():
    rng = random.Random(31)
    for _ in range(6):
        rep = random_representation(rng)
        fi = faithful_image(rep)
        assert isinstance(at_equivalent(rep, fi.quotient), Equivalent)
        assert find_at_witness(rep, fi.quotient) is None


def test_corollary_and_prop1_consistency():
    rng = random.Random(41)
    reps = [random_representation(rng) for _ in range(6)]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            r, s = reps[i], reps[j]
            if r.field != s.field:
                continue
            if isinstance(geo_equivalent(r, s, search_qid=False), Equivalent):
                assert find_at_witness(r, s) is None
                ctx = _ctx()
                for _ in range(20):
                    q = random_qid(rng, ctx, r.field)
                    assert fulfills_qid(r, q)[0] == fulfills_qid(s, q)[0]


def test_naive_oracle_agreement():
    rng = random.Random(53)
    for _ in range(15):
        rep = random_representation(rng)
        ctx = FreeContext(("x",), ("y",))
        prems, concl = random_qid_trees(rng, ["x"], ["y"], rep.p)
        q = trees_to_qid(ctx, rep.field, prems, concl)
        fast, wit = fulfills_qid(rep, q)
        slow = naive_fulfills(rep, ["x"], ["y"], prems, concl)
        assert fast == slow
        if not fast:
            assert all(eval_atom(wit, a) for a in q.premises)
            assert not eval_atom(wit, q.conclusion)


def _cyclic_power_rep(rng, dim, p, max_order):
    """A random invertible M over GF(p) of order at most max_order, and the
    cyclic group of that order acting by the powers of M."""
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim))
        if not is_invertible(p, m):
            continue
        powers = [mat_identity(dim)]
        while len(powers) <= max_order:
            nxt = mat_mul(p, powers[-1], m)
            if nxt == powers[0]:
                group = cyclic_group(len(powers))
                return make_representation(PrimeField(p), dim, group, dict(enumerate(powers)))
            powers.append(nxt)


def _check_deciders(rng, draw_rep, rounds):
    """fulfills_qid, in_closure and solution_set against the oracle on
    random qids over reps from draw_rep(rng, dim, p, max_order), which may
    return None; witnesses and solution order included.  The space is kept
    small enough for the oracle, which visits every point."""
    limit = 2000
    seen = set()
    for _ in range(rounds):
        dim, p, nx, ny = (rng.choice(v) for v in ((1, 2, 3), (2, 3, 5), (1, 2, 3), (1, 2)))
        max_order = int((limit / p ** (dim * nx)) ** (1 / ny))
        if max_order < 2:
            continue
        rep = draw_rep(rng, dim, p, max_order)
        if rep is None:
            continue
        xnames = [f"x{i}" for i in range(1, nx + 1)]
        ynames = [f"y{i}" for i in range(1, ny + 1)]
        ctx = FreeContext(tuple(xnames), tuple(ynames))
        prems, concl = random_qid_trees(rng, xnames, ynames, p)
        q = trees_to_qid(ctx, rep.field, prems, concl)
        expect = naive_least_violation(rep, xnames, ynames, prems, concl)
        ok, wit = fulfills_qid(rep, q)
        assert (ok, wit and (wit.xmap, wit.ymap)) == (expect is None, expect)
        sys = equation_system(
            ctx,
            [a.element for a in q.premises if isinstance(a, ModuleAtom)],
            [a.word for a in q.premises if isinstance(a, GroupAtom)],
        )
        assert in_closure(rep, sys, q.conclusion) == (expect is None)
        got = [(s.xmap, s.ymap) for s in solution_set(rep, sys).solutions]
        assert got == naive_solutions(rep, xnames, ynames, prems)
        module_atoms = [a for a in (*q.premises, q.conclusion) if isinstance(a, ModuleAtom)]
        seen |= {("dim", dim), ("p", p), ("nx", nx), ("ny", ny), ("holds", ok)}
        seen.add(("order", rep.group.order))
        seen.add(("dim 3, p 5", (dim, p) == (3, 5)))
        seen.add(("p 2, n >= 6", p == 2 and nx * dim >= 6))  # packed systems of 6 to 9 columns
        seen.add(("p 2, dim 3, nx 3", (p, dim, nx) == (2, 3, 3)))
        seen.add(("no premises", not prems))
        seen.add(("group premise", bool(sys.group_part)))
        seen.add(("group conclusion", isinstance(q.conclusion, GroupAtom)))
        seen.add(("zero module atom", any(a.element.is_zero() for a in module_atoms)))
    assert seen >= {("dim", 1), ("dim", 2), ("dim", 3), ("p", 2), ("p", 3), ("p", 5)}
    assert seen >= {("nx", 1), ("nx", 2), ("nx", 3), ("ny", 1), ("ny", 2)}
    for flag in ("holds", "dim 3, p 5", "p 2, n >= 6", "no premises", "group premise",
                 "group conclusion", "zero module atom"):
        assert {(flag, True), (flag, False)} <= seen
    return seen


def test_deciders_match_brute_force_oracle():
    # the cyclic reps reach order 3 at dim 3, so GF(2)^3 takes three
    # x-variables: 512 x-vectors, packed in 9 bits
    seen = _check_deciders(random.Random(61), _cyclic_power_rep, 400)
    assert ("p 2, dim 3, nx 3", True) in seen


def test_deciders_match_oracle_with_memos_evicting(monkeypatch):
    # two entries per memo: nearly every decider call evicts, so a stale or
    # mismatched entry would show as a wrong witness or solution
    monkeypatch.setattr(geometry, "_MEMO_SIZE", 2)
    seen = _check_deciders(random.Random(62), _cyclic_power_rep, 400)
    assert ("p 2, dim 3, nx 3", True) in seen


def _diag_z4sq_rep():
    """Z4 x Z4 acting on GF(5)^2 by diag(2,1) and diag(1,2)."""
    g = product_group(cyclic_group(4, "a"), cyclic_group(4, "b"))
    act = {i * 4 + j: ((pow(2, i, 5), 0), (0, pow(2, j, 5))) for i in range(4) for j in range(4)}
    return make_representation(PrimeField(5), 2, g, act)


def test_decider_solves_each_distinct_system_once(monkeypatch):
    # the premise's matrix at (y1, y2) is act(y1) - act(y2), a diagonal
    # matrix whose two entries take 5 values each: 25 systems over the 256
    # y-points, each eliminated at most once in the call.  The zero system
    # arises only where y1 = y2, and there the conclusion vanishes too, so
    # it is never eliminated: 24
    calls = []

    def counted(p, rows, n):
        calls.append(rows)
        return linalg.kernel_rref(p, rows, n)

    monkeypatch.setattr(geometry, "kernel_rref", counted)
    rep = _diag_z4sq_rep()
    formula = "x2*y1 - x2*y2 = 0 => x1*y1 - x1*y2 = 0"
    ctx = infer_context(formula)
    q = parse_qid(formula, ctx, rep.field)
    ok, wit = fulfills_qid(rep, q)
    assert len(calls) == len(set(calls)) == 24
    assert all(any(map(any, rows)) for rows in calls)
    trees = [canonical_to_atom_tree(ctx, a) for a in (*q.premises, q.conclusion)]
    expect = naive_least_violation(rep, ctx.xvars, ctx.yvars, trees[:-1], trees[-1])
    assert not ok and (wit.xmap, wit.ymap) == expect


def test_gf2_decider_packs_each_action_column_once(monkeypatch):
    # Z7 acting on GF(2)^3 by the companion matrix of x^3 + x + 1: the
    # premise and the conclusion read act[g]'s columns through one memo per
    # call, so each of the 7 elements packs its 3 columns once
    calls = []

    def counted(v):
        calls.append(v)
        return linalg.pack_gf2(v)

    monkeypatch.setattr(geometry, "pack_gf2", counted)
    powers = [mat_identity(3)]
    for _ in range(6):
        powers.append(mat_mul(2, powers[-1], ((0, 1, 0), (0, 0, 1), (1, 1, 0))))
    rep = make_representation(PrimeField(2), 3, cyclic_group(7), dict(enumerate(powers)))
    formula = "x1*y1 + x2*y2 - x3 = 0 => x1*y1*y2 + x2*y2*y2 - x3*y2 = 0"
    q = parse_qid(formula, infer_context(formula), rep.field)
    assert fulfills_qid(rep, q) == (True, None)
    assert len(calls) == 21


def test_least_violation_stops_at_the_least_nonzero_x(monkeypatch):
    # the conclusion first fails at x = (0, 0, 0, 1), the least nonzero
    # x-vector, at the 17th of 256 y-points: no later y-point can give an
    # earlier assignment, so the call visits none of the other 239
    visited = []
    spaces = geometry._solution_spaces

    def counted(rep, ctx, premises, kit):
        for y, space in spaces(rep, ctx, premises, kit):
            visited.append(y)
            yield y, space

    monkeypatch.setattr(geometry, "_solution_spaces", counted)
    rep = _diag_z4sq_rep()
    formula = "x1*y1*y2 - x1*y2 = 0 => x2*y1 - x2 = 0"
    ctx = infer_context(formula)
    q = parse_qid(formula, ctx, rep.field)
    ok, wit = fulfills_qid(rep, q)
    trees = [canonical_to_atom_tree(ctx, a) for a in (*q.premises, q.conclusion)]
    expect = naive_least_violation(rep, ctx.xvars, ctx.yvars, trees[:-1], trees[-1])
    assert not ok and (wit.xmap, wit.ymap) == expect
    assert wit.xmap == ((0, 0), (0, 1))
    assert len(visited) == 17 and visited[-1] == wit.ymap


def _commutator_tree(x):
    """x*y1*y2 - x*y2*y1 = 0: M_c(y) vanishes exactly where y1 and y2 act
    by commuting matrices, so everywhere on an abelian representation."""
    y1, y2 = ("gen", "y1"), ("gen", "y2")
    return ("meq0", ("add", ("act", ("xgen", x), ("mul", y1, y2)),
                     ("neg", ("act", ("xgen", x), ("mul", y2, y1)))))


def _zero_coordinates(rep, xnames, ynames, tree, y):
    """The coordinates of a module conclusion that are 0 at every x at y,
    read off its values at the unit x-vectors."""
    n, dim = len(xnames), rep.dim
    units = [[tuple(int(i * dim + k == j) for k in range(dim)) for i in range(n)] for j in range(n * dim)]
    vals = [naive_eval_module(rep, dict(zip(xnames, x)), dict(zip(ynames, y)), tree[1]) for x in units]
    return [all(v[d] == 0 for v in vals) for d in range(dim)]


def _s3_on_gf2_sq(rng, dim, p, max_order):
    """S3 = GL(2,2) on GF(2)^2, whose commutators vanish only at commuting
    pairs; for other sizes, a random cyclic or non-cyclic representation."""
    if (dim, p) == (2, 2) and max_order >= 6 and rng.random() < 0.5:
        g, mats = general_linear_group(2, 2)
        return make_representation(PrimeField(2), 2, g, dict(enumerate(mats)))
    return rng.choice((_cyclic_power_rep, _non_cyclic_rep))(rng, dim, p, max_order)


def test_short_cuts_match_oracle_and_solution_set():
    # the deciders skip the elimination under a group conclusion and at
    # y-points where a module conclusion's columns vanish: their least
    # violations against the oracle's and against the first violation
    # among solution_set's solutions, which eliminate at every y-point,
    # and in_at_closure against the same verdicts.  x*w - x = 0 is often
    # violated where some of its coordinates vanish and others do not
    rng = random.Random(83)
    limit, ynames = 2000, ["y1", "y2"]
    seen = set()
    for _ in range(300):
        dim, p, nx = (rng.choice(v) for v in ((1, 2, 3), (2, 3, 5), (1, 2)))
        max_order = int((limit / p ** (dim * nx)) ** 0.5)
        rep = _s3_on_gf2_sq(rng, dim, p, max_order) if max_order >= 2 else None
        if rep is None:
            continue
        xnames = [f"x{i}" for i in range(1, nx + 1)]
        ctx = FreeContext(tuple(xnames), tuple(ynames))
        prems = [("meq0", random_module_tree(rng, xnames, ynames, p)) for _ in range(rng.randint(0, 2))]
        kind, x = rng.choice(("commutator", "fixed", "module", "group")), ("xgen", rng.choice(xnames))
        if kind == "group":
            concl = ("weq1", random_word_tree(rng, ynames))
            prems += [("weq1", random_word_tree(rng, ynames))] * (rng.random() < 0.5)
        elif kind == "fixed":
            concl = ("meq0", ("add", ("act", x, random_word_tree(rng, ynames)), ("neg", x)))
        else:
            concl = _commutator_tree(x[1]) if kind == "commutator" else (
                "meq0", random_module_tree(rng, xnames, ynames, p))
        q = trees_to_qid(ctx, rep.field, prems, concl)
        expect = naive_least_violation(rep, xnames, ynames, prems, concl)
        ok, wit = fulfills_qid(rep, q)
        assert (ok, wit and (wit.xmap, wit.ymap)) == (expect is None, expect)
        elems = [a.element for a in q.premises if isinstance(a, ModuleAtom)]
        words = [a.word for a in q.premises if isinstance(a, GroupAtom)]
        sys = equation_system(ctx, elems, words)
        assert in_closure(rep, sys, q.conclusion) == (expect is None)
        sols = solution_set(rep, sys).solutions
        first = next(((s.xmap, s.ymap) for s in sols if not eval_atom(s, q.conclusion)), None)
        assert first == expect
        seen |= {("dim", dim), ("p", p), (kind, "holds", ok)}
        if kind == "group":
            seen.add(("group premises", bool(words)))
            continue
        xs = list(product(product(range(p), repeat=dim), repeat=nx))
        ys = list(product(range(rep.group.order), repeat=2))
        vanish = sum(all(naive_holds(rep, xnames, ynames, (x, y), [concl]) for x in xs) for y in ys)
        seen.add((kind, "vanishes", "everywhere" if vanish == len(ys) else "somewhere" if vanish else "nowhere"))
        if rep.group.order == 6 and kind == "commutator":
            seen.add(("S3 commutator", ok))
        if expect is not None:
            seen.add(("partly zero at the witness", any(_zero_coordinates(rep, xnames, ynames, concl, expect[1]))))
        assert in_at_closure(rep, elems, q.conclusion.element) == in_closure(
            rep, equation_system(ctx, elems), q.conclusion)
        if not words and vanish == len(ys):
            seen.add("in_at_closure with a member vanishing everywhere")
            assert in_at_closure(rep, elems, q.conclusion.element)
    assert seen >= {("dim", d) for d in (1, 2, 3)} | {("p", p) for p in (2, 3, 5)}
    assert seen >= {(k, "holds", ok) for k in ("commutator", "fixed", "module", "group") for ok in (True, False)}
    assert seen >= {("group premises", True), ("group premises", False)}
    assert seen >= {("commutator", "vanishes", v) for v in ("everywhere", "somewhere")}
    assert seen >= {("module", "vanishes", v) for v in ("everywhere", "somewhere", "nowhere")}
    assert seen >= {("S3 commutator", True), ("S3 commutator", False)}
    assert seen >= {("partly zero at the witness", True), ("partly zero at the witness", False)}
    assert "in_at_closure with a member vanishing everywhere" in seen


def _count_eliminations(monkeypatch):
    calls = []

    def counted(p, rows, n):
        calls.append(rows)
        return linalg.kernel_rref(p, rows, n)

    monkeypatch.setattr(geometry, "kernel_rref", counted)
    return calls


@pytest.mark.parametrize("formula,holds", [
    ("x1*y1 - x1 = 0 & x2*y2 - x2 = 0 => y1*y2 = 1", False),
    ("x2*y1 - x2*y2 = 0 => y1^4*y2^-4 = 1", True),
    ("x1*y1 - x1*y2 = 0 & y1*y2^-1 = 1 => y1 = 1", False),
])
def test_group_conclusion_eliminates_nothing(monkeypatch, formula, holds):
    # x = 0 solves the module premises, so the least violation, if any, is
    # x = 0 at the first y-point where the group premises hold and the
    # conclusion's word is not 1
    calls = _count_eliminations(monkeypatch)
    rep = _diag_z4sq_rep()
    ctx = infer_context(formula)
    q = parse_qid(formula, ctx, rep.field)
    ok, wit = fulfills_qid(rep, q)
    trees = [canonical_to_atom_tree(ctx, a) for a in (*q.premises, q.conclusion)]
    expect = naive_least_violation(rep, ctx.xvars, ctx.yvars, trees[:-1], trees[-1])
    assert (ok, wit and (wit.xmap, wit.ymap)) == (holds, expect)
    assert calls == []


def test_vanishing_commutator_eliminates_nothing(monkeypatch):
    # on the abelian Z4 x Z4 the commutator's columns are zero at all 256
    # y-points, so the qid and the closure hold with no premise system
    # eliminated
    calls = _count_eliminations(monkeypatch)
    rep = _diag_z4sq_rep()
    formula = "x1*y1 - x1 = 0 & x2*y2 - x2 = 0 => x1*y1*y2 - x1*y2*y1 = 0"
    ctx = infer_context(formula)
    q = parse_qid(formula, ctx, rep.field)
    assert fulfills_qid(rep, q) == (True, None)
    premises = [a.element for a in q.premises]
    assert in_at_closure(rep, premises, q.conclusion.element)
    assert calls == []


def test_decider_memory_does_not_grow_with_the_space(monkeypatch):
    # Z32 acting on GF(2)^2 through parity: each of the 1,024 y-points gives
    # the premise its own term triples, 64 times the patched bound; kept
    # unbounded, the memo alone would hold about 230 kB here
    swap, ident = ((0, 1), (1, 0)), ((1, 0), (0, 1))
    act = {i: swap if i % 2 else ident for i in range(32)}
    rep = make_representation(PrimeField(2), 2, cyclic_group(32, "a"), act)
    formula = "x*y1 + x*y2 = 0 => x*y1*y2 = 0"
    q = parse_qid(formula, infer_context(formula), rep.field)
    expect = fulfills_qid(rep, q)
    monkeypatch.setattr(geometry, "_MEMO_SIZE", 16)
    tracemalloc.start()
    try:
        got = fulfills_qid(rep, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    assert peak < 100_000


@lru_cache(maxsize=None)
def _signed_permutations(dim):
    """The group of dim x dim signed permutation matrices, identity first,
    and its index-aligned integer matrices: an action over every GF(p)."""
    mats = [
        tuple(tuple(signs[i] * (j == perm[i]) for j in range(dim)) for i in range(dim))
        for perm in permutations(range(dim))
        for signs in product((1, -1), repeat=dim)
    ]
    idx = {m: i for i, m in enumerate(mats)}

    def times(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*b)) for r in a)

    table = [[idx[times(a, b)] for b in mats] for a in mats]
    return group_from_table(["1"] + [f"s{i}" for i in range(1, len(mats))], table), mats


@lru_cache(maxsize=None)
def _homs_into_signed_permutations(name, dim):
    return enumerate_group_homs(_GROUPS[name], _signed_permutations(dim)[0])


def _non_cyclic_rep(rng, dim, p, max_order):
    """V4, Z4xZ2 or S3 = GL(2,2) acting through a random hom into the
    signed permutations, or for S3 at p = 2 through GL(2,2) on the first two
    coordinates, in a random basis of GF(p)^dim."""
    names = [n for n in ("V4", "Z4xZ2", "S3") if _GROUPS[n].order <= max_order]
    if not names:
        return None
    name = rng.choice(names)
    g = _GROUPS[name]
    ident = mat_identity(dim)
    if name == "S3" and p == 2 and dim >= 2 and rng.random() < 0.5:
        acts = [
            tuple(tuple(m[i][j] if i < 2 and j < 2 else ident[i][j] for j in range(dim))
                  for i in range(dim))
            for m in general_linear_group(2, 2)[1]
        ]
    else:
        mats = _signed_permutations(dim)[1]
        image = rng.choice(_homs_into_signed_permutations(name, dim)).image
        acts = [tuple(tuple(x % p for x in row) for row in mats[k]) for k in image]
    while True:
        basis = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim))
        if is_invertible(p, basis):
            break
    inverse = tuple(tuple(r[dim:]) for r in rref(p, [b + e for b, e in zip(basis, ident)])[0])
    act = {e: mat_mul(p, mat_mul(p, inverse, a), basis) for e, a in enumerate(acts)}
    return make_representation(PrimeField(p), dim, g, act)


def test_deciders_match_brute_force_oracle_on_non_cyclic_groups():
    # several greedy generators, so the word values that reach the
    # solution-space kernels are products of more than one generator
    seen = _check_deciders(random.Random(71), _non_cyclic_rep, 300)
    assert seen >= {("order", n) for n in (4, 6, 8)}


def _y_major(mask, block, npoints):
    """An x-major oracle mask in the scan's y-major layout: the oracle's bit
    i * |G|^ny + j is the scan's bit j * |V|^nx + i."""
    out = 0
    for i in range(block):
        for j in range(npoints):
            if mask >> (i * npoints + j) & 1:
                out |= 1 << (j * block + i)
    return out


def test_atom_masks_match_brute_force_oracle():
    rng = random.Random(67)
    limit = 2000
    seen = set()
    for _ in range(100):
        dim, p, nx, ny = (rng.choice(v) for v in ((1, 2, 3), (2, 3, 5), (1, 2), (1, 2)))
        max_order = int((limit / p ** (dim * nx)) ** (1 / ny))
        if max_order < 2:
            continue
        rep = _cyclic_power_rep(rng, dim, p, max_order)
        xnames = [f"x{i}" for i in range(1, nx + 1)]
        ynames = [f"y{i}" for i in range(1, ny + 1)]
        ctx = FreeContext(tuple(xnames), tuple(ynames))
        points = list(product(range(rep.group.order), repeat=ny))
        block, npoints = p ** (dim * nx), len(points)
        everywhere = (1 << block * npoints) - 1
        only_x0 = sum(1 << j * block for j in range(npoints))
        trees = [("weq1", ("id",)), ("meq0", ("zero",)), ("meq0", ("xgen", "x1"))]
        trees += [random_atom_tree(rng, xnames, ynames, p) for _ in range(5)]
        memo = {}
        for tree in trees:
            atom = atom_tree_to_canonical(ctx, rep.field, tree)
            expect = naive_atom_mask(rep, xnames, ynames, tree)
            got = _atom_sat_mask(rep, points, atom, memo)
            assert got == _y_major(expect, block, npoints)
            seen |= {("dim", dim), ("p", p), ("nx", nx), ("ny", ny)}
            seen.add(("group atom", isinstance(atom, GroupAtom)))
            seen.add(("identity word", isinstance(atom, GroupAtom) and atom.word.is_identity()))
            seen.add(("everywhere", got == everywhere))
            seen.add(("only x = 0", got == only_x0))
    assert seen >= {("dim", 1), ("dim", 2), ("dim", 3), ("p", 2), ("p", 3), ("p", 5)}
    assert seen >= {("nx", 1), ("nx", 2), ("ny", 1), ("ny", 2)}
    for flag in ("group atom", "identity word", "everywhere", "only x = 0"):
        assert {(flag, True), (flag, False)} <= seen


def test_atom_masks_match_oracle_on_scan_pools():
    # every atom of scan pools with up to 3 terms, one memo per context as
    # in the scan; at nx = 3 the middle x-variable's digits lie between
    # higher and lower ones
    rng = random.Random(71)
    seen = set()
    cases = [  # p, dim, nx, ny, max_word_len, max group order, pool
        (5, 2, 1, 1, 1, 4, "at"),
        (3, 3, 1, 1, 1, 3, "qid"),
        (2, 2, 3, 1, 1, 4, "at"),
        (3, 2, 3, 1, 0, 2, "qid"),
        (3, 1, 2, 2, 1, 3, "qid"),
    ]
    for p, dim, nx, ny, word_len, max_order, kind in cases:
        rep = _cyclic_power_rep(rng, dim, p, max_order)
        ctx = scan_context(nx, ny)
        bounds = SearchBounds(max_terms=3, max_word_len=word_len)
        if kind == "qid":
            atoms = bounded_atoms(ctx, rep.field, bounds)
        else:
            atoms = [ModuleAtom(u) for u in bounded_module_elements(ctx, rep.field, bounds)]
        points = list(product(range(rep.group.order), repeat=ny))
        block = p ** (dim * nx)
        memo = {}
        for atom in atoms:
            expect = naive_atom_mask(rep, ctx.xvars, ctx.yvars, canonical_to_atom_tree(ctx, atom))
            assert _atom_sat_mask(rep, points, atom, memo) == _y_major(expect, block, len(points))
            if isinstance(atom, ModuleAtom):
                seen.add(("terms", atom.element.num_terms()))
                seen.add(("terms on one x", max(r.num_terms() for _, r in atom.element.parts)))
        seen |= {("order", rep.group.order > 1), kind}
    assert seen >= {("terms", 3), ("terms on one x", 2), ("terms on one x", 3)}
    assert seen >= {("order", True), "at", "qid"}


def test_scan_masks_enumerate_no_kernel(monkeypatch):
    # the trivial group on GF(2)^6 at 3 x-variables has 2^18 points per
    # y-point: the masks come from level sets, with no nullspace and no
    # enumeration of a kernel
    def refuse(*args):
        raise AssertionError("kernel enumeration on the scan path")

    monkeypatch.setattr(geometry, "kernel_rref", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    monkeypatch.setattr(geometry, "span_elements", refuse)
    r = make_representation(PrimeField(2), 6, trivial_group(), {})
    assert find_at_witness(r, r, SearchBounds(max_xvars=3)) is None


def test_formula_over_another_field_rejected(r1, gf2):
    # 2*x*y reduces to 0 mod 2, so evaluating this mod 2 would find a witness
    formula = "2*x*y - x = 0 => y = 1"
    gf5 = PrimeField(5)
    q = parse_qid(formula, infer_context(formula), gf5)
    ctx = q.context
    sys5 = equation_system(ctx, [q.premises[0].element])
    calls = [
        lambda: fulfills_qid(r1, q),
        lambda: in_closure(r1, sys5, q.conclusion),
        lambda: in_closure(r1, equation_system(ctx, [], [ygen(ctx, 0)]), q.premises[0]),
        lambda: in_at_closure(r1, sys5, xgen(ctx, gf2, 0)),
        lambda: solution_set(r1, sys5),
    ]
    for call in calls:
        with pytest.raises(FieldMismatch):
            call()


# -- first-asymmetry contract ------------------------------------------------
# The scans return the *first* asymmetry in a fixed order (premise sets
# [()] then by size, conclusions in pool order).  The expected values
# below pin which witness comes back, not only that it separates.


def _serialized_at(w):
    if w is None:
        return None
    return ([serialize(u) for u in w.system.module_part], serialize(w.candidate),
            w.in_first, w.in_second)


def _serialized_qid(q):
    return None if q is None else serialize_qid(q)


def _trivial_line(p):
    return make_representation(PrimeField(p), 1, trivial_group(), {})


def _seeded_reps():
    rng = random.Random(7)
    return [random_representation(rng) for _ in range(10)]


_X1 = {2: "x*(1 + y)", 3: "x*(1 - y)"}

_PINNED_SCANS = (
    [
        (f"demo{p}-{side}-vs-line-{nx}x1", ("demo", p, side, "line"), nx,
         ([], _X1[p], False, True), "=> y = 1")
        for p in (2, 3) for side in (0, 1) for nx in (1, 2)
    ]
    + [
        (f"line-vs-demo{p}-{side}-{nx}x1", ("line", p, side, "demo"), nx,
         ([], _X1[p], True, False), "=> y = 1")
        for p in (2, 3) for side in (0, 1) for nx in (1, 2)
    ]
    + [
        (f"demo{p}-{i}-{j}", ("demo-pair", p, i, j), 1, None, None)
        for p in (2, 3) for i, j in ((0, 1), (1, 0), (0, 0))
    ]
    + [
        ("seeded-0-2", ("seeded", 0, 2), 1, None, "y^2 = 1 => y = 1"),
        ("seeded-2-0", ("seeded", 2, 0), 1, None, "y^2 = 1 => y = 1"),
        ("seeded-8-3", ("seeded", 8, 3), 1, None, "y^2 = 1 => y = 1"),
        ("seeded-0-8", ("seeded", 0, 8), 1, None, None),
        ("seeded-0-7", ("seeded", 0, 7), 1, ([], "x*(1 + y)", True, False),
         "=> x*(1 + y) = 0"),
        ("seeded-7-1", ("seeded", 7, 1), 1, ([], "x*(1 + y)", False, True), "=> y^2 = 1"),
        ("seeded-6-9", ("seeded", 6, 9), 1, None, "=> y = 1"),
    ]
)


def _pinned_pair(spec):
    kind = spec[0]
    if kind == "seeded":
        reps = _seeded_reps()
        return reps[spec[1]], reps[spec[2]]
    p = spec[1]
    demo = build_demo_reps(p)
    if kind == "demo-pair":
        return demo[spec[2]], demo[spec[3]]
    if kind == "demo":
        return demo[spec[2]], _trivial_line(p)
    return _trivial_line(p), demo[spec[2]]


@pytest.mark.parametrize(
    "spec,nx,at_expected,qid_expected",
    [case[1:] for case in _PINNED_SCANS],
    ids=[case[0] for case in _PINNED_SCANS],
)
def test_scans_return_pinned_first_asymmetry(spec, nx, at_expected, qid_expected):
    r, s = _pinned_pair(spec)
    bounds = SearchBounds(max_xvars=nx)
    assert _serialized_at(find_at_witness(r, s, bounds)) == at_expected
    assert _serialized_qid(find_separating_qid(r, s, bounds)) == qid_expected


def test_scans_left_out_of_the_benchmark_finish():
    # the p = 3 demo pair at 1x2 and 2x1 has no witness; these scans once
    # took far longer than the timeout, so they run in a child process
    script = (
        "from repgeo import SearchBounds, find_at_witness, find_separating_qid\n"
        "from repgeo.audit import build_demo_reps\n"
        "r, s = build_demo_reps(3)\n"
        "for nx, ny in ((1, 2), (2, 1)):\n"
        "    b = SearchBounds(max_xvars=nx, max_yvars=ny)\n"
        "    print(find_separating_qid(r, s, b), find_at_witness(r, s, b))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["None"] * 4


def test_large_pool_self_scan_finishes():
    # a Z6 acting on GF(5)^2 against itself at 2x2: every context is
    # skipped, over pools of thousands of atoms and 22,500 points per mask.
    # A skip check that refined point classes atom by atom once took about
    # 13 s on this case; merging equal masks into columns takes about 1 s
    r = _cyclic_power_rep(random.Random(3), 2, 5, 8)
    assert (r.p, r.dim, r.group.order) == (5, 2, 6)
    script = (
        "from repgeo import PrimeField, SearchBounds, cyclic_group, find_at_witness\n"
        "from repgeo import make_representation\n"
        f"r = make_representation(PrimeField(5), 2, cyclic_group(6), dict(enumerate({r.act})))\n"
        "print(find_at_witness(r, r, SearchBounds(max_xvars=2, max_yvars=2)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=6
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["None"]


def test_scan_matches_naive_premise_loop():
    # the scan's full output against every premise set tried on the same
    # masks.  Atoms with equal masks on both sides share a column; each
    # side's signatures over the columns must be the distinct ones, and
    # contexts whose closed-set families are equal must be skipped while
    # the others run the premise loop.  Families that nest one-sidedly,
    # and asymmetries that need a premise, must occur: a skip test that
    # checks one direction, or only the closure of no premises, misses
    # those.
    rng = random.Random(71)
    seen = set()
    for _ in range(150):
        dim_r, dim_s, p, nx, ny = (
            rng.choice(v) for v in ((1, 2, 3), (1, 2, 3), (2, 3, 5), (1, 2), (1, 2))
        )
        order_r = int((1000 / p ** (dim_r * nx)) ** (1 / ny))
        order_s = int((1000 / p ** (dim_s * nx)) ** (1 / ny))
        if min(order_r, order_s) < 2:
            continue
        r = _cyclic_power_rep(rng, dim_r, p, order_r)
        s = r if rng.random() < 0.2 else _cyclic_power_rep(rng, dim_s, p, order_s)
        bounds = SearchBounds(
            max_xvars=nx, max_yvars=ny, max_terms=rng.choice((1, 2)),
            max_word_len=rng.choice((0, 1, 2)), max_premises=rng.choice((0, 1, 2)),
            max_system=rng.choice((0, 1, 2)),
        )
        kind = rng.choice(("at", "qid"))
        max_premises = bounds.max_premises if kind == "qid" else bounds.max_system

        def pool(ctx):
            return geometry._atom_pool(ctx, r.field, bounds, kind == "qid")

        if len(pool(scan_context(nx, ny))) > 60:
            continue
        got = list(_scan_asymmetries(r, s, bounds, DEFAULT_CAPS, kind == "qid"))
        expect = []
        for cx in range(1, nx + 1):
            for cy in range(1, ny + 1):
                ctx = scan_context(cx, cy)
                atoms = pool(ctx)
                side = []
                for rep in (r, s):
                    points = list(product(range(rep.group.order), repeat=cy))
                    npoints = rep.p ** (cx * rep.dim) * len(points)
                    memo = {}
                    masks = [_atom_sat_mask(rep, points, a, memo) for a in atoms]
                    side.append((masks, npoints, naive_signatures(masks, npoints)))
                (masks_r, npoints_r, sigs_r), (masks_s, npoints_s, sigs_s) = side
                full_r, full_s = (1 << npoints_r) - 1, (1 << npoints_s) - 1
                found = naive_scan_asymmetries(masks_r, full_r, masks_s, full_s, max_premises)
                expect += [
                    (ctx, tuple(atoms[i] for i in prems), atoms[c], in_r, in_s)
                    for prems, c, in_r, in_s in found
                ]
                family_r = naive_closed_sets(sigs_r, len(atoms))
                family_s = naive_closed_sets(sigs_s, len(atoms))
                cols = list(dict.fromkeys(zip(masks_r, masks_s)))
                col_sigs = []
                for j, npoints in enumerate((npoints_r, npoints_s)):
                    col_masks = [pair[j] for pair in cols]
                    sigs = _signatures(col_masks, (1 << npoints) - 1)
                    assert len(sigs) == len(set(sigs))
                    assert set(sigs) == {
                        sum(1 << c for c in sig) for sig in naive_signatures(col_masks, npoints)
                    }
                    col_sigs.append(sigs)
                skipped = _same_closed_sets(*col_sigs, (1 << len(cols)) - 1)
                assert skipped == (family_r == family_s)
                duplicates = len(cols) < len(atoms)
                seen |= {("skipped", skipped), ("asymmetry", bool(found))}
                seen.add(("duplicate masks", duplicates))
                seen.add(("duplicates, families differ", duplicates and family_r != family_s))
                seen.add(("one-sided", bool(found) and (family_r < family_s or family_s < family_r)))
                seen.add(("needs a premise", bool(found) and all(prems for prems, *_ in found)))
                seen |= {("dim", dim_r), ("dim", dim_s), ("p", p), ("nx", cx), ("ny", cy), kind}
        assert got == expect
    assert seen >= {("dim", 1), ("dim", 2), ("dim", 3), ("p", 2), ("p", 3), ("p", 5)}
    assert seen >= {("nx", 1), ("nx", 2), ("ny", 1), ("ny", 2), "at", "qid"}
    flags = (
        "skipped", "duplicate masks", "duplicates, families differ", "asymmetry", "one-sided",
        "needs a premise",
    )
    for flag in flags:
        assert {(flag, True), (flag, False)} <= seen


def _is_abelian(g):
    return all(row[b] == g.table[b][a] for a, row in enumerate(g.table) for b in range(a))


def _is_faithful(rep):
    return rep.act.count(rep.act[0]) == 1


def test_keyed_scan_matches_per_atom_masks(monkeypatch):
    # the scan builds masks once per linear form: per x index and word
    # class (words with equal values on both sides), the sum of the atom's
    # coefficients mod p, zero sums dropped, scaled to lead with 1.  Its
    # output must equal the premise loop over one mask per atom.  Scalar
    # multiples and words equal on both sides must merge, and words equal
    # on one side only must not: a form over one side's classes would merge
    # atoms whose other masks differ
    spelled_mask = geometry._spelled_mask
    rng = random.Random(83)
    s3 = make_representation(
        PrimeField(2), 2, _GROUPS["S3"], dict(enumerate(general_linear_group(2, 2)[1]))
    )
    fixed = [(*build_demo_reps(2), 2, 1), (*build_demo_reps(3)[::-1], 1, 2),
             (s3, build_demo_reps(2)[1], 1, 2), (build_demo_reps(2)[0], s3, 2, 1)]
    seen = set()
    for case in range(120):
        if case < len(fixed):
            r, s, nx, ny = fixed[case]
        else:
            dim_r, dim_s, p, nx, ny = (
                rng.choice(v) for v in ((1, 2, 3), (1, 2, 3), (2, 3, 5), (1, 2), (1, 2))
            )
            order_r = int((1000 / p ** (dim_r * nx)) ** (1 / ny))
            order_s = int((1000 / p ** (dim_s * nx)) ** (1 / ny))
            if min(order_r, order_s) < 2:
                continue
            draw_r, draw_s = (rng.choice((_cyclic_power_rep, _non_cyclic_rep)) for _ in "rs")
            r, s = draw_r(rng, dim_r, p, order_r), draw_s(rng, dim_s, p, order_s)
            if r is None or s is None:
                continue
        bounds = SearchBounds(
            max_xvars=nx, max_yvars=ny, max_terms=rng.choice((1, 2, 3)),
            max_word_len=rng.choice((1, 2)), max_premises=rng.choice((1, 2)),
            max_system=rng.choice((1, 2)),
        )
        kind = rng.choice(("at", "qid"))
        max_premises = bounds.max_premises if kind == "qid" else bounds.max_system

        def pool(ctx):
            return geometry._atom_pool(ctx, r.field, bounds, kind == "qid")

        if len(pool(scan_context(nx, ny))) > 80:
            continue
        calls = []

        def counted(rep, points, n, spelling, memo):
            calls.append(spelling)
            return spelled_mask(rep, points, n, spelling, memo)

        monkeypatch.setattr(geometry, "_spelled_mask", counted)
        got = list(_scan_asymmetries(r, s, bounds, DEFAULT_CAPS, kind == "qid"))
        monkeypatch.undo()
        expect, natoms = [], 0
        for cx in range(1, nx + 1):
            for cy in range(1, ny + 1):
                ctx = scan_context(cx, cy)
                atoms = pool(ctx)
                natoms += len(atoms)
                side = []
                for rep in (r, s):
                    points = list(product(range(rep.group.order), repeat=cy))
                    memo = {}
                    masks = [_atom_sat_mask(rep, points, a, memo) for a in atoms]
                    side += [masks, (1 << rep.p ** (cx * rep.dim) * len(points)) - 1]
                found = naive_scan_asymmetries(*side, max_premises)
                expect += [
                    (ctx, tuple(atoms[i] for i in prems), atoms[c], in_r, in_s)
                    for prems, c, in_r, in_s in found
                ]
                elements = {a.element for a in atoms if isinstance(a, ModuleAtom)}
                seen.add(("scalar multiple", any(
                    module_scale(c, u) in elements for u in elements for c in range(2, r.p)
                )))
                values = {
                    w: [tuple(word_value(rep.group, y, w)
                              for y in product(range(rep.group.order), repeat=cy))
                        for rep in (r, s)]
                    for w in bounded_words(ctx, bounds.max_word_len)
                }
                seen.add(("words equal on one side only", any(
                    (vr == ur) != (vs == us)
                    for (vr, vs), (ur, us) in combinations(values.values(), 2)
                )))
        assert got == expect
        assert 0 < len(calls) <= 2 * natoms
        seen.add(("keys merge atoms", len(calls) < 2 * natoms))
        seen.add(("asymmetry", bool(got)))
        seen |= {("p", r.p), ("dim", r.dim), ("dim", s.dim), ("max_terms", bounds.max_terms), kind}
        for rep in (r, s):
            seen.add(("abelian", _is_abelian(rep.group)))
            seen.add(("faithful", _is_faithful(rep)))
    assert seen >= {("p", 2), ("p", 3), ("p", 5), ("dim", 1), ("dim", 2), ("dim", 3)}
    assert seen >= {("max_terms", 1), ("max_terms", 2), ("max_terms", 3), "at", "qid"}
    for flag in ("scalar multiple", "words equal on one side only", "keys merge atoms",
                 "asymmetry", "abelian", "faithful"):
        assert {(flag, True), (flag, False)} <= seen


@pytest.mark.parametrize("name,seed", [("S3", None), ("GL(2,3)", 5)])
def test_word_values_extend_prefixes(name, seed):
    # every bounded word up to length 3, evaluated prefix by prefix from a
    # cold memo (longest words first), against word_value at every y-point
    # given; on GL(2,3) with its elements shuffled, at ny = 3 on a sample
    g = _GROUPS[name] if seed is None else _relabelled(_GROUPS[name], seed)
    rep = make_representation(PrimeField(2), 1, g, {e: ((1,),) for e in range(1, g.order)})
    rng = random.Random(89)
    order_matters = False
    for ny in (1, 2, 3):
        ctx = scan_context(1, ny)
        points = list(product(range(g.order), repeat=ny))
        points = rng.sample(points, min(len(points), 3000))
        memo = {}
        values = {}
        for w in reversed(bounded_words(ctx, 3)):
            values[w.letters] = geometry._word_values(rep, points, w.letters, memo)
            assert values[w.letters] == [word_value(g, y, w) for y in points]
        if ny > 1:
            order_matters |= values[(0, 1), (1, 1)] != values[(1, 1), (0, 1)]
    assert order_matters


def _linear_forms(r, s, ctx, atoms):
    """The distinct keys of the atoms, computed from word values: a group
    atom's word values at every y-point of both sides, and a module atom's
    coefficient sums mod p per (x index, word values), zero sums dropped,
    scaled so that the first sum is 1."""
    p = r.p
    points = [list(product(range(rep.group.order), repeat=len(ctx.yvars))) for rep in (r, s)]

    def values(w):
        return tuple(tuple(word_value(rep.group, y, w) for y in pts)
                     for rep, pts in zip((r, s), points))

    forms = set()
    for a in atoms:
        if isinstance(a, GroupAtom):
            forms.add(("group", values(a.word)))
            continue
        sums = {}
        for i, ring in a.element.parts:
            for w, c in ring.terms:
                sums[i, values(w)] = (sums.get((i, values(w)), 0) + c) % p
        terms = sorted((slot, c) for slot, c in sums.items() if c)
        scale = pow(terms[0][1], p - 2, p) if terms else 0
        forms.add(tuple((slot, c * scale % p) for slot, c in terms))
    return forms


def test_masks_built_once_per_atom_key(monkeypatch):
    # the p = 3 demo pair at 2x1 has no witness; one mask per side for each
    # linear form over the pool, where one per atom would be two calls per
    # pool atom
    r, s = build_demo_reps(3)
    bounds = SearchBounds(max_xvars=2)
    calls = []
    spelled_mask = geometry._spelled_mask

    def counted(rep, points, n, spelling, memo):
        calls.append(spelling)
        return spelled_mask(rep, points, n, spelling, memo)

    monkeypatch.setattr(geometry, "_spelled_mask", counted)
    assert find_at_witness(r, s, bounds) is None
    contexts = [scan_context(nx, 1) for nx in (1, 2)]
    natoms = sum(len(bounded_module_elements(ctx, r.field, bounds)) for ctx in contexts)
    nforms = sum(len(_linear_forms(r, s, ctx, geometry._atom_pool(ctx, r.field, bounds, False)))
                 for ctx in contexts)
    assert 0 < len(calls) == 2 * nforms < natoms


def test_masks_built_once_per_linear_form(monkeypatch):
    # in every context, scanned or skipped, one mask per side for each
    # distinct linear form over the context's atom pool, the forms computed
    # from word values by _linear_forms.  The zero form (two words of one
    # class at one x index, coefficients cancelling) must occur and be
    # absent.  The scan reads its signatures once per side after its last
    # mask, which marks each context's end
    masks, per_context = [], []
    spelled_mask, signatures = geometry._spelled_mask, geometry._signatures

    def counted(rep, points, n, spelling, memo):
        masks.append(spelling)
        return spelled_mask(rep, points, n, spelling, memo)

    def spy(cols, full):
        per_context.append(len(masks))
        masks.clear()
        return signatures(cols, full)

    monkeypatch.setattr(geometry, "_spelled_mask", counted)
    monkeypatch.setattr(geometry, "_signatures", spy)
    rng = random.Random(101)
    seen = set()
    for case in range(80):
        dim_r, dim_s, p, nx, ny = (
            rng.choice(v) for v in ((1, 2), (1, 2), (2, 3, 5), (1, 2), (1, 2))
        )
        order_r = int((400 / p ** (dim_r * nx)) ** (1 / ny))
        order_s = int((400 / p ** (dim_s * nx)) ** (1 / ny))
        if min(order_r, order_s) < 2:
            continue
        draw_r, draw_s = (rng.choice((_cyclic_power_rep, _non_cyclic_rep)) for _ in "rs")
        r, s = draw_r(rng, dim_r, p, order_r), draw_s(rng, dim_s, p, order_s)
        if r is None or s is None:
            continue
        bounds = SearchBounds(
            max_xvars=nx, max_yvars=ny, max_terms=rng.choice((1, 2, 3)),
            max_word_len=rng.choice((0, 1, 2)), max_premises=0, max_system=0,
        )
        qid = rng.random() < 0.5
        contexts = [scan_context(cx, cy) for cx in range(1, nx + 1) for cy in range(1, ny + 1)]
        pools = [geometry._atom_pool(ctx, r.field, bounds, qid) for ctx in contexts]
        if max(map(len, pools)) > 150:
            continue
        per_context.clear()
        list(_scan_asymmetries(r, s, bounds, DEFAULT_CAPS, qid))
        assert not masks
        assert per_context[1::2] == [0] * len(contexts)
        forms = [_linear_forms(r, s, ctx, atoms) for ctx, atoms in zip(contexts, pools)]
        assert per_context[::2] == [2 * len(f) for f in forms]
        seen |= {("zero form", () in f) for f in forms}
        seen |= {("p", p), ("max_terms", bounds.max_terms),
                 ("max_word_len", bounds.max_word_len), ("qid", qid)}
    assert seen >= {("p", 2), ("p", 3), ("p", 5), ("qid", True), ("qid", False)}
    assert seen >= {("max_terms", t) for t in (1, 2, 3)}
    assert seen >= {("max_word_len", n) for n in (0, 1, 2)}
    assert {("zero form", True), ("zero form", False)} <= seen


def test_class_pool_has_the_atom_pools_columns(monkeypatch):
    # the columns a scan reads (one mask pair per linear form of the class
    # pool) against the distinct (mask on r, mask on s) pairs over every
    # atom of the context's pool, in every context of both pool kinds.  An
    # atom whose first (x index, class) pair carries two terms must occur:
    # its form's first entry is their sum, which no one term's coefficient
    # gives and which may be zero, so that a later pair leads the form
    read = []
    signatures = geometry._signatures

    def spy(masks, full):
        read.append(list(masks))
        return signatures(masks, full)

    monkeypatch.setattr(geometry, "_signatures", spy)
    rng = random.Random(97)
    seen = set()
    for case in range(90):
        dim_r, dim_s, p, nx, ny = (
            rng.choice(v) for v in ((1, 2, 3), (1, 2, 3), (2, 3, 5), (1, 2), (1, 2))
        )
        order_r = int((600 / p ** (dim_r * nx)) ** (1 / ny))
        order_s = int((600 / p ** (dim_s * nx)) ** (1 / ny))
        if min(order_r, order_s) < 2:
            continue
        draw_r, draw_s = (rng.choice((_cyclic_power_rep, _non_cyclic_rep)) for _ in "rs")
        r, s = draw_r(rng, dim_r, p, order_r), draw_s(rng, dim_s, p, order_s)
        if r is None or s is None:
            continue
        bounds = SearchBounds(
            max_xvars=nx, max_yvars=ny, max_terms=rng.choice((1, 2, 3)),
            max_word_len=rng.choice((0, 1, 2)), max_premises=0, max_system=0,
        )
        qid = rng.random() < 0.5
        contexts = [scan_context(cx, cy) for cx in range(1, nx + 1) for cy in range(1, ny + 1)]
        if max(len(geometry._atom_pool(ctx, r.field, bounds, qid)) for ctx in contexts) > 150:
            continue
        read.clear()
        list(_scan_asymmetries(r, s, bounds, DEFAULT_CAPS, qid))
        assert len(read) == 2 * len(contexts)
        for ctx, cols_r, cols_s in zip(contexts, read[::2], read[1::2]):
            atoms = geometry._atom_pool(ctx, r.field, bounds, qid)
            masks, points = [], []
            for rep in (r, s):
                points.append(list(product(range(rep.group.order), repeat=len(ctx.yvars))))
                memo = {}
                masks.append([_atom_sat_mask(rep, points[-1], a, memo) for a in atoms])
            cols = list(zip(cols_r, cols_s))
            assert len(set(cols)) == len(cols)
            assert set(cols) == set(zip(*masks))
            for a in atoms:
                if isinstance(a, ModuleAtom):
                    pairs = sorted(
                        (i, *(tuple(word_value(rep.group, y, w) for y in pts)
                              for rep, pts in zip((r, s), points)))
                        for i, ring in a.element.parts for w, _ in ring.terms
                    )
                    seen.add(("first pair carries two terms", pairs[1:2] == pairs[:1]))
            seen |= {("dim", dim_r), ("dim", dim_s), ("p", p), ("max_terms", bounds.max_terms),
                     ("max_word_len", bounds.max_word_len), ("nx", len(ctx.xvars)),
                     ("ny", len(ctx.yvars)), ("qid", qid)}
    assert seen >= {("p", 2), ("p", 3), ("p", 5), ("dim", 1), ("dim", 2), ("dim", 3)}
    assert seen >= {("max_terms", t) for t in (1, 2, 3)}
    assert seen >= {("max_word_len", n) for n in (0, 1, 2)}
    assert seen >= {("nx", 2), ("ny", 2), ("qid", True), ("qid", False)}
    assert ("first pair carries two terms", True) in seen


def test_skipped_contexts_build_no_atom_pool(monkeypatch):
    # the demo's Z2 swap over GF(2) against itself at 2x2, four terms of
    # words up to length 3: the AT pool there would hold 5,166,281
    # elements.  Every context is skipped on its class pool, so no pool is
    # built
    def refuse(*args):
        raise AssertionError("atom pool built in a skipped context")

    monkeypatch.setattr(geometry, "bounded_module_elements", refuse)
    d2 = build_demo_reps(2)[0]
    bounds = SearchBounds(max_xvars=2, max_yvars=2, max_terms=4, max_word_len=3)
    assert find_at_witness(d2, d2, bounds) is None
