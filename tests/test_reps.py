import hashlib
import random
from collections import Counter
from dataclasses import asdict, fields
from itertools import product

import pytest

from repgeo import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    NotAnAction,
    PrimeField,
    check_rep_hom,
    compose_rep_homs,
    cyclic_group,
    enumerate_group_homs,
    enumerate_rep_homs,
    faithful_image,
    geo_equivalent,
    group_from_table,
    make_representation,
    product_group,
    quotient_group,
    rep_isomorphic,
    rep_kernel,
    stabilizer,
    subgroup,
)
from repgeo import reps
from repgeo.config import DEFAULT_CAPS, EnumerationCaps
from repgeo.groups import FiniteGroup, _group, generating_words, normality_witness
from repgeo.linalg import is_invertible, mat_identity, mat_mul
from repgeo.reps import _rep_homs
from repgeo.sampling import general_linear_group, random_representation
from repgeo.textio import serialize, serialize_group

from naive import naive_action_defect, naive_rep_homs, naive_rep_isomorphic
from test_geometry import _cyclic_power_rep
from test_groups import _GROUPS, _relabelled
from test_metamorphic import _conjugate


def test_r1_action_examples(r1):
    a = r1.group.index("a")
    assert r1.apply((1, 0), a) == (0, 1)
    assert r1.apply((1, 1), a) == (1, 1)
    assert r1.apply((1, 0), 0) == (1, 0)


def test_not_an_action(gf2, z2):
    with pytest.raises(NotAnAction) as e:
        make_representation(gf2, 2, z2, {"a": [[0, 1], [1, 1]]})
    assert (e.value.g, e.value.h) == ("a", "a")


def _actions_to_perturb():
    """(group, index-aligned matrices) over GF(3): small groups acting
    through random homs into GL(2,3), and GL(2,3) itself, relabelled so
    that it has more than one greedy generator."""
    rng = random.Random(5)
    gl, mats = general_linear_group(3, 2)
    out = []
    for name in ("Z2", "Z3", "Z4", "Z6", "V4", "Z4xZ2", "S3"):
        g = _GROUPS[name]
        homs = [h for h in enumerate_group_homs(g, gl) if len(set(h.image)) > 1]
        out += [(g, [mats[x] for x in rng.choice(homs).image]) for _ in range(2)]
    shuffled = _relabelled(gl, 1)
    assert len(shuffled._generators) >= 2
    out.append((shuffled, [mats[gl.index(n)] for n in shuffled.names]))
    return out


def _perturbed(rng, g, act):
    """act with one matrix changed, and, when g has several greedy
    generators, act with every matrix on one left coset of <s_1> multiplied
    on the left by some Y != I: that keeps act(h) act(s_1) = act(h s_1) for
    every h, so only a later generator can show the defect."""
    gens = g._generators

    def random_matrix():
        return tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))

    out = []
    for _ in range(8):
        bad, idx = list(act), rng.randrange(1, g.order)
        while bad[idx] == act[idx]:
            bad[idx] = random_matrix()
        out.append(("one matrix", bad))
    cycle = [0, gens[0]]
    while g.table[cycle[-1]][gens[0]]:
        cycle.append(g.table[cycle[-1]][gens[0]])
    for _ in range(4 if len(gens) > 1 else 0):
        r = rng.choice([h for h in range(g.order) if h not in cycle])
        coset = {g.table[r][c] for c in cycle}
        y = mat_identity(2)
        while y == mat_identity(2) or not is_invertible(3, y):
            y = random_matrix()
        out.append(("one coset", [mat_mul(3, y, m) if h in coset else m for h, m in enumerate(act)]))
    return out


def test_action_check_names_the_first_failing_pair():
    # the library checks the action law at the greedy generators and sweeps
    # every pair only on failure; the oracle sweeps every pair
    rng = random.Random(7)
    field = PrimeField(3)
    seen = set()
    for g, act in _actions_to_perturb():
        assert naive_action_defect(g, act, 3) is None
        make_representation(field, 2, g, dict(enumerate(act)))
        gens = {g.names[s] for s in g._generators}
        for kind, bad in _perturbed(rng, g, act):
            expect = naive_action_defect(g, bad, 3)
            if expect is None:
                make_representation(field, 2, g, dict(enumerate(bad)))
                continue
            with pytest.raises(NotAnAction) as e:
                make_representation(field, 2, g, dict(enumerate(bad)))
            assert (e.value.g, e.value.h) == expect
            seen |= {("named", g.order), kind}
            seen.add("at a generator" if expect[1] in gens else "off the generators")
    assert seen >= {("named", n) for n in (2, 3, 4, 6, 8, 48)}
    assert seen >= {"one matrix", "one coset", "at a generator", "off the generators"}


def test_action_check_multiplies_only_at_the_generators(monkeypatch):
    # Z2^6 acting on GF(3)^8 by diagonal signs: 64 * 6 products, where a
    # sweep of every pair takes 64^2
    g = cyclic_group(2, "a1")
    for i in range(2, 7):
        g = product_group(g, cyclic_group(2, f"a{i}"))
    act = {
        e: tuple(tuple((-1) ** (e >> (5 - i) & 1) if i == j and i < 6 else int(i == j)
                       for j in range(8)) for i in range(8))
        for e in range(1, 64)
    }
    calls = []

    def counted(*args):
        calls.append(1)
        return mat_mul(*args)

    monkeypatch.setattr(reps, "mat_mul", counted)
    r = make_representation(PrimeField(3), 8, g, act)
    assert r.act[63] == tuple(tuple(2 * (i == j) if i < 6 else int(i == j) for j in range(8))
                              for i in range(8))
    k = len(g._generators)
    assert k == 6 and 0 < len(calls) <= g.order * k


@pytest.mark.parametrize("dim, act, error, match", [
    (0, {"a": [[1]]}, DimensionMismatch, r"dim must be in \[1, "),
    (DEFAULT_CAPS.max_dim + 1, {}, DimensionMismatch, r"dim must be in \[1, "),
    (2, {"a": [[0, 1]]}, DimensionMismatch, "matrix for a is not 2x2"),
    (2, {"a": [[0, 1], [1]]}, DimensionMismatch, "matrix for a is not 2x2"),
    (2, {"1": [[0, 1], [1, 0]], "a": [[0, 1], [1, 0]]}, NotAnAction, None),
], ids=["dim-0", "dim-over-cap", "one-row", "ragged", "identity-not-fixed"])
def test_make_representation_input_errors(gf2, z2, dim, act, error, match):
    with pytest.raises(error, match=match):
        make_representation(gf2, dim, z2, act)


def test_missing_matrix_rejected(gf2, v4):
    with pytest.raises(Exception):
        make_representation(gf2, 2, v4, {"a": [[0, 1], [1, 0]]})


def test_presentation_is_computed_once_per_group(monkeypatch):
    # one group followed from its table through every layer that reads its
    # generators or its chain: each is computed at most once per instance
    calls = []
    for attr in ("_generators", "_chain"):
        prop = vars(FiniteGroup)[attr]

        def counted(group, func=prop.func, attr=attr):
            calls.append((group, attr))  # keeps the group alive, so ids stay unique
            return func(group)

        monkeypatch.setattr(prop, "func", counted)
    s3 = _GROUPS["S3"]
    g = group_from_table(s3.names, s3.table)
    assert "_generators" in vars(g) and "_chain" not in vars(g)
    gl, mats = general_linear_group(3, 2)
    image = max(enumerate_group_homs(s3, gl), key=lambda h: len(set(h.image))).image
    field = PrimeField(3)
    natural = make_representation(field, 2, g, {i: mats[x] for i, x in enumerate(image)})
    trivial = make_representation(field, 1, g, {i: [[1]] for i in range(1, g.order)})
    geo_equivalent(natural, trivial, search_qid=False)
    enumerate_rep_homs(natural, natural)
    generating_words(g)
    per_group = Counter((id(group), attr) for group, attr in calls)
    assert max(per_group.values()) == 1
    assert per_group[id(g), "_generators"] == per_group[id(g), "_chain"] == 1
    # the cached attributes are not fields
    fresh = _group(s3.names, s3.table)
    assert "_generators" not in vars(fresh)
    assert g == fresh and hash(g) == hash(fresh) and asdict(g) == asdict(fresh)
    assert serialize_group(g) == serialize_group(fresh)
    assert [f.name for f in fields(g)] == ["names", "table", "inverses"]


# sha256 of the serialized draws of 25 representations from random.Random(seed)
_DRAW_DIGESTS = {
    (7, (2, 3)): "15b8a85b10eb206ea62db73f1bfc757229fbc678778e1ed1c9582f24dd77ee4e",
    (7, (3,)): "be4b740925400a541641a760f74598c10ef4a32efa3536dfb5ade898709bd737",
    (8, (2, 3)): "9732a992e5d75cbe796a632b6a3c19ae317395153cd92dc42890482e6c3e3451",
    (8, (3,)): "f5625311180386f3cb979b12bfb9ab38bb8401523f122ec38184426d238a2733",
}


@pytest.mark.parametrize("seed,primes", _DRAW_DIGESTS)
def test_random_representation_draws_are_pinned(seed, primes):
    # the pinned-witness tests draw from random.Random(7): the draws stay
    # byte for byte what they are, under the default and a one-prime setting
    rng = random.Random(seed)
    text = "".join(serialize(random_representation(rng, primes=primes)) for _ in range(25))
    assert hashlib.sha256(text.encode()).hexdigest() == _DRAW_DIGESTS[seed, primes]


def test_stabilizer(r1):
    assert stabilizer(r1, (1, 1)).members == (0, 1)
    assert stabilizer(r1, (1, 0)).members == (0,)
    assert stabilizer(r1, (0, 0)).members == (0, 1)


def test_kernels(r1, r2, trivial_rep):
    assert rep_kernel(r1).members == (0,)
    assert rep_kernel(r2).names() == ("1", "b")
    assert rep_kernel(trivial_rep).order == 2


def test_kernel_equals_stabilizer_intersection():
    rng = random.Random(7)
    for _ in range(8):
        rep = random_representation(rng)
        if rep.p**rep.dim > 256:
            continue
        members = set(range(rep.group.order))
        for v in product(range(rep.p), repeat=rep.dim):
            members &= set(stabilizer(rep, v).members)
        assert set(rep_kernel(rep).members) == members
        assert normality_witness(rep.group, rep_kernel(rep)) is None


def test_faithful_image_of_r2(r1, r2):
    fi = faithful_image(r2)
    assert fi.quotient.group.order == 2
    assert rep_kernel(fi.quotient).order == 1
    assert rep_isomorphic(fi.quotient, r1) is not None
    # induced action agrees pointwise: v . sigma(g) = v . g
    for g in range(r2.group.order):
        for v in product(range(r2.p), repeat=r2.dim):
            assert fi.quotient.apply(v, fi.sigma[g]) == r2.apply(v, g)


@pytest.mark.parametrize("seed", range(10))
def test_faithful_image_is_its_validated_rebuild(seed):
    # the kernel, the quotient group and the quotient action are built by
    # definition; the validating constructors are their oracle
    rng = random.Random(seed)
    for _ in range(25):
        rep = random_representation(rng)
        kernel = rep_kernel(rep)
        assert kernel == subgroup(rep.group, kernel.members)
        q, sigma = quotient_group(rep.group, kernel)
        assert q == group_from_table(q.names, q.table)
        fi = faithful_image(rep)
        assert (fi.quotient.group, fi.sigma) == (q, sigma)
        assert fi.quotient == make_representation(rep.field, rep.dim, q, dict(enumerate(fi.quotient.act)))
        assert rep_kernel(fi.quotient).order == 1
        assert all(fi.quotient.act[c] == rep.act[g] for g, c in enumerate(sigma))


def test_faithful_image_fixed_points(r1, trivial_rep):
    fi = faithful_image(r1)
    assert fi.sigma == tuple(range(r1.group.order))
    assert fi.quotient.act == r1.act
    assert rep_isomorphic(fi.quotient, r1) is not None
    fi = faithful_image(trivial_rep)
    assert fi.quotient.group.order == 1


def test_rep_hom_count_r1_r1(r1):
    homs = enumerate_rep_homs(r1, r1)
    assert len(homs) == 8
    by_beta = {}
    for h in homs:
        by_beta.setdefault(h.grouphom.image, []).append(h)
    assert {len(v) for v in by_beta.values()} == {4}
    for h in homs:
        assert check_rep_hom(h)


def test_rep_hom_count_matches_naive(r1):
    # every 2x2 matrix over GF(2) against both group endomorphisms of Z2
    count = 0
    for flat in product(range(2), repeat=4):
        m = (flat[0:2], flat[2:4])
        for image in [(0, 0), (0, 1)]:
            ok = all(
                _mat_eq(
                    _mul2(r1.act[g], m), _mul2(m, r1.act[image[g]])
                )
                for g in range(2)
            )
            if ok:
                count += 1
    assert count == len(enumerate_rep_homs(r1, r1)) == 8


def _mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 2 for j in range(2))
        for i in range(2)
    )


def _mat_eq(a, b):
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def test_specific_cross_homs(r1, r2):
    ident = mat_identity(2)
    homs12 = enumerate_rep_homs(r1, r2)
    a2 = r2.group.index("a")
    assert any(h.matrix == ident and h.grouphom.image == (0, a2) for h in homs12)
    homs21 = enumerate_rep_homs(r2, r1)
    ones = ((1, 1), (1, 1))
    b2 = r2.group.index("b")
    expected = [0] * 4
    expected[r2.group.index("a")] = 0
    expected[b2] = 1
    expected[r2.group.index("a·b")] = 1
    assert any(
        h.matrix == ones and h.grouphom.image == tuple(expected) for h in homs21
    )


def test_rep_isomorphic(r1, r2):
    assert rep_isomorphic(r1, r1) is not None
    assert rep_isomorphic(r1, r2) is None
    fi = faithful_image(r2)
    iso = rep_isomorphic(fi.quotient, r1)
    assert iso is not None and check_rep_hom(iso)


def test_composition_closure(r1, r2):
    rng = random.Random(3)
    homs12 = enumerate_rep_homs(r1, r2)
    homs21 = enumerate_rep_homs(r2, r1)
    for _ in range(20):
        f = rng.choice(homs12)
        g = rng.choice(homs21)
        assert check_rep_hom(compose_rep_homs(f, g))


def test_action_law_random():
    rng = random.Random(11)
    for _ in range(6):
        rep = random_representation(rng)
        n = rep.group.order
        for g in range(n):
            for h in range(n):
                from repgeo.linalg import mat_mul

                assert mat_mul(rep.p, rep.act[g], rep.act[h]) == rep.act[rep.group.table[g][h]]
        assert rep.act[0] == mat_identity(rep.dim)


def _s3_reps(field):
    """Over GF(2): the natural rep of S3 = GL(2,2) (faithful), its sign
    acting by the swap matrix (kernel A3) and the trivial line."""
    s3, mats = general_linear_group(2, 2)
    natural = make_representation(field, 2, s3, dict(enumerate(mats)))
    swap, ident = ((0, 1), (1, 0)), mat_identity(2)
    # the elements of order 2 are the odd permutations
    odd = {g for g in range(s3.order) if g and s3.table[g][g] == 0}
    sign = make_representation(field, 2, s3, {g: swap if g in odd else ident for g in range(s3.order)})
    trivial = make_representation(field, 1, s3, {g: ((1,),) for g in range(s3.order)})
    return [natural, sign, trivial]


def _rep_hom_pairs():
    rng = random.Random(29)
    pairs = []
    for _ in range(25):
        r = random_representation(rng)
        pairs.append((r, random_representation(rng, primes=(r.p,))))
    for _ in range(6):
        pairs.append(tuple(_cyclic_power_rep(rng, 3, 5, 12) for _ in range(2)))
    s3 = _s3_reps(PrimeField(2))
    pairs += [(a, b) for a in s3 for b in s3]
    cyclic2 = [random_representation(rng, primes=(2,), group_keys=(2, 3)) for _ in range(3)]
    pairs += [(a, b) for a in s3 for b in cyclic2] + [(b, a) for a in s3 for b in cyclic2]
    return pairs


def test_rep_homs_match_all_elements_equations():
    # the library writes the intertwiner equations for the generators only,
    # the oracle for every element; the lists must agree in full, in order
    seen = set()
    for r, s in _rep_hom_pairs():
        got = [(h.grouphom.image, h.matrix) for h in enumerate_rep_homs(r, s)]
        assert got == naive_rep_homs(r, s)
        per_beta = Counter(image for image, _ in got).values()
        seen |= {("dim", r.dim), ("p", r.p), ("only the zero matrix", min(per_beta) == 1)}
        seen.add(("non-abelian", any(
            r.group.table[a][b] != r.group.table[b][a]
            for a in range(r.group.order) for b in range(r.group.order)
        )))
        seen.add(("non-faithful", rep_kernel(r).order > 1))
    assert seen >= {("dim", d) for d in (1, 2, 3)} | {("p", p) for p in (2, 3, 5)} | {
        ("only the zero matrix", True), ("only the zero matrix", False),
        ("non-abelian", True), ("non-faithful", True)}


def test_rep_hom_stream_checks_field_and_caps_before_drawing(trivial_rep):
    other = make_representation(PrimeField(3), 2, trivial_rep.group, {"a": [[1, 0], [0, 1]]})
    with pytest.raises(FieldMismatch):
        _rep_homs(trivial_rep, other, EnumerationCaps())
    with pytest.raises(EnumerationCapExceeded, match="hom search"):
        _rep_homs(trivial_rep, trivial_rep, EnumerationCaps(max_hom_candidates=1))


def test_rep_isomorphic_solves_only_bijective_betas():
    # Z2 by diag(1, 1, 2) on GF(3)^3 into itself: the trivial beta has 3^6
    # intertwiners, the bijective one 3^5, and listing raises on the first
    r = make_representation(PrimeField(3), 3, cyclic_group(2, "a"), {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]})
    caps = EnumerationCaps(max_matrices_per_beta=243)
    with pytest.raises(EnumerationCapExceeded, match="needs 729 > cap 243"):
        enumerate_rep_homs(r, r, caps)
    iso = rep_isomorphic(r, r, caps)
    assert iso == rep_isomorphic(r, r, EnumerationCaps(max_matrices_per_beta=729))
    assert iso.grouphom.image == (0, 1) and check_rep_hom(iso) and is_invertible(3, iso.matrix)


def test_rep_isomorphic_matches_the_first_iso_of_the_whole_list():
    # the rep hom pairs, and reps beside a conjugate of themselves, which is
    # isomorphic to them (conjugates are drawn from all p^(dim^2) matrices,
    # so only where that is small)
    rng = random.Random(31)
    pairs = _rep_hom_pairs()
    sources = [r for r, _ in pairs] + [_cyclic_power_rep(rng, 3, 2, 7) for _ in range(4)]
    pairs += [(r, _conjugate(r, rng)) for r in sources if r.p ** (r.dim * r.dim) <= 512]
    found = set()
    for r, s in pairs:
        iso = rep_isomorphic(r, s)
        assert (None if iso is None else (iso.grouphom.image, iso.matrix)) == naive_rep_isomorphic(r, s)
        found.add((r.dim, iso is not None))
    assert found >= {(d, f) for d in (1, 2, 3) for f in (True, False)}


def test_max_matrices_per_beta_cap(trivial_rep):
    # Z2 acting trivially on GF(2)^2: every 2x2 matrix intertwines, 2^4 = 16
    # per group hom, and Z2 has two endomorphisms
    with pytest.raises(EnumerationCapExceeded):
        enumerate_rep_homs(trivial_rep, trivial_rep, EnumerationCaps(max_matrices_per_beta=15))
    homs = enumerate_rep_homs(trivial_rep, trivial_rep, EnumerationCaps(max_matrices_per_beta=16))
    assert len(homs) == 2 * 16
