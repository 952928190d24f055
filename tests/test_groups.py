import random
import re
from itertools import combinations, product
from math import prod

import pytest

from repgeo import (
    NotAGroup,
    NotNormal,
    Subgroup,
    cyclic_group,
    enumerate_group_homs,
    group_from_table,
    group_hom,
    product_group,
    quotient_group,
    subgroup,
    trivial_group,
)
from repgeo.config import EnumerationCaps
from repgeo.errors import EnumerationCapExceeded, InvalidInput, RepGeoError
from repgeo.groups import _group, _group_homs, generating_words
from repgeo import sampling
from repgeo.sampling import general_linear_group, group_catalog, random_representation, symmetric_group_3
from repgeo.textio import parse_group_file

from naive import naive_generating_words, naive_group_homs


def test_z2_from_table():
    g = group_from_table(["1", "a"], [[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inverses == (0, 1)


def test_trivial_from_table():
    g = group_from_table(["1"], [[0]])
    assert g.order == 1


def test_latin_square_rejected():
    with pytest.raises(NotAGroup) as e:
        group_from_table(["1", "a"], [[0, 1], [1, 1]])
    assert e.value.reason in ("latin-square", "identity")


def test_identity_rejected():
    with pytest.raises(NotAGroup) as e:
        group_from_table(["1", "a"], [[1, 0], [0, 1]])
    assert e.value.reason == "identity"


# smallest non-associative loop with identity: order 5
_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_associativity_rejected_with_witness():
    with pytest.raises(NotAGroup) as e:
        group_from_table(list("1abcd"), _LOOP5)
    assert e.value.reason == "associativity"
    i, j, k = e.value.witness
    t = _LOOP5
    assert t[t[i][j]][k] != t[i][t[j][k]]


_Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def _z3_with(entries):
    table = [list(r) for r in _Z3]
    for (i, j), x in entries.items():
        table[i][j] = x
    return table


# a loop with two-sided inverses that is not associative
_INVERSE_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.mark.parametrize("table, error, message", [
    # the first offender in row-major order is named, whatever its kind
    *(
        (_z3_with({(2, 0): bad, (1, 2): bad}), InvalidInput, f"table[1][2]={bad!r} out of range")
        for bad in [1.0, "1", None, -1, 3]
    ),
    (_z3_with({(2, 0): "1", (1, 2): -1}), InvalidInput, "table[1][2]=-1 out of range"),
    ([[0, 1, 2], [1, 2], [2, 0, 1]], InvalidInput, "table is not n x n"),
    ([[0, 1, 2], [1, 2, 0]], InvalidInput, "table is not n x n"),
    ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], NotAGroup("identity", (2, 0, 1)), None),
    ([[0, 2, 1], [1, 0, 2], [2, 1, 0]], NotAGroup("identity", (0, 1, 2)), None),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 3, 1], [3, 2, 1, 0]], NotAGroup("latin-square", ("row", 2)), None),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 1]], NotAGroup("latin-square", ("col", 2)), None),
    (_INVERSE_LOOP5, NotAGroup("associativity", (2, 1, 1)), None),
    # 2 * 3 = 1 but 3 * 2 = 1: a loop without two-sided inverses is never
    # associative, so Light's test names it before the inverse check
    (_LOOP5, NotAGroup("associativity", (2, 1, 1)), None),
], ids=["float", "str", "none", "negative", "n", "first-of-two-kinds", "ragged", "row-count",
        "identity-col", "identity-row", "row-repeat", "col-repeat", "loop", "no-inverses"])
def test_table_errors_name_the_first_offender(table, error, message):
    with pytest.raises(RepGeoError) as e:
        group_from_table([str(i) for i in range(len(table[0]))], table)
    if isinstance(error, NotAGroup):
        assert type(e.value) is NotAGroup
        assert (e.value.reason, e.value.witness, str(e.value)) == (error.reason, error.witness, str(error))
    else:
        assert (type(e.value), str(e.value)) == (error, message)


def test_table_takes_in_range_bools_as_ints():
    g = group_from_table(["1", "a", "b"], _z3_with({(1, 0): True, (0, 1): True}))
    assert g.table == ((0, True, 2), (True, 2, 0), (2, 0, 1)) and g.inverses == (0, 2, 1)


def test_table_checks_above_order_256():
    # beyond 256 elements Light's test runs as the row-major sweep alone
    z300 = cyclic_group(300)
    assert group_from_table(z300.names, z300.table).inverses[1:4] == (299, 298, 297)
    n = 5 * 60  # the loop of order 5 times Z60 is a loop, not a group
    table = [[_LOOP5[a][b] * 60 + (x + y) % 60 for b in range(5) for y in range(60)]
             for a in range(5) for x in range(60)]
    names = [str(i) for i in range(n)]
    with pytest.raises(NotAGroup) as e:
        group_from_table(names, table)
    i, j, k = e.value.witness
    assert e.value.reason == "associativity" and k in _group(names, table)._generators
    assert table[table[i][j]][k] != table[i][table[j][k]]


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [{i} for i in range(n)]
    in_col = [{j} for j in range(n)]

    def fill(cell):
        if cell == (n - 1) ** 2:
            yield [tuple(r) for r in rows]
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        for x in range(n):
            if x not in in_row[i] and x not in in_col[j]:
                rows[i][j] = x
                in_row[i].add(x)
                in_col[j].add(x)
                yield from fill(cell + 1)
                in_row[i].remove(x)
                in_col[j].remove(x)

    return list(fill(0))


@pytest.mark.parametrize("n,squares,groups", [(5, 56, 6), (6, 9408, 80)])
def test_associativity_check_exact_on_all_reduced_latin_squares(n, squares, groups):
    tables = _reduced_latin_squares(n)
    assert len(tables) == squares
    accepted = 0
    for t in tables:
        associative = all(
            t[t[i][j]][k] == t[i][t[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        try:
            group_from_table([str(x) for x in range(n)], t)
        except NotAGroup as e:
            assert not associative and e.reason == "associativity"
            i, j, k = e.witness
            assert t[t[i][j]][k] != t[i][t[j][k]]
        else:
            assert associative
            accepted += 1
    assert accepted == groups


def test_cyclic_tables():
    z2 = cyclic_group(2)
    assert z2.table == ((0, 1), (1, 0))
    assert trivial_group().order == 1
    z4 = cyclic_group(4)
    assert z4.names[2] == "g^2"
    assert z4.inverses[2] == 2  # g^2 is self-inverse


# the constructors build their tables by definition; group_from_table, which
# validates in full, is their oracle


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_group_is_its_validated_table(n):
    g = cyclic_group(n)
    assert g == group_from_table(g.names, g.table)


def test_cyclic_group_rejects_clashing_names():
    assert cyclic_group(1, "1").names == ("1",)
    with pytest.raises(InvalidInput, match="element names not distinct"):
        cyclic_group(2, "1")


_CATALOG = group_catalog()


def _catalog_products():
    """Every ordered pair and triple of catalog groups with order <= 64
    whose generator names are distinct."""
    for k in (2, 3):
        for keys in product(range(len(_CATALOG)), repeat=k):
            gens = [set(_CATALOG[i].names) - {"1"} for i in keys]
            if prod(_CATALOG[i].order for i in keys) <= 64 and all(
                    a.isdisjoint(b) for a, b in combinations(gens, 2)):
                yield keys


@pytest.mark.parametrize("keys", list(_catalog_products()), ids=str)
def test_product_group_is_its_validated_table(keys):
    g = product_group(*map(_CATALOG.__getitem__, keys))
    assert g == group_from_table(g.names, g.table)


@pytest.mark.parametrize("p, dim", [(2, 2), (3, 2)])
def test_general_linear_group_is_its_validated_table(p, dim):
    g, mats = general_linear_group.__wrapped__(p, dim)
    assert g == group_from_table(g.names, g.table)
    assert mats[0] == ((1, 0), (0, 1)) and len(set(mats)) == g.order


def test_product_klein_four():
    v4 = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    assert v4.order == 4
    assert set(v4.names) == {"1", "a", "b", "a·b"}
    assert all(v4.inverses[i] == i for i in range(4))


def test_product_with_trivial_is_isomorphic_copy():
    z3 = cyclic_group(3, "c")
    g = product_group(trivial_group(), z3)
    assert g.table == z3.table


def test_product_z2_z3_is_cyclic_of_order_6():
    g = product_group(cyclic_group(2, "a"), cyclic_group(3, "c"))
    assert g.order == 6
    assert any(g.element_order(i) == 6 for i in range(6))


def test_product_name_clash_rejected():
    with pytest.raises(InvalidInput):
        product_group(cyclic_group(2), cyclic_group(2))


def test_product_of_many_factors_is_the_iterated_product():
    e2 = group_from_table(["e", "x"], [[0, 1], [1, 0]])  # an identity not named "1"
    factors = [cyclic_group(2, "a"), e2, _S3, cyclic_group(3, "c")]
    for k in range(1, len(factors) + 1):
        nested = factors[0]
        for f in factors[1:k]:
            nested = product_group(nested, f)
        flat = product_group(*factors[:k])
        assert (flat.names, flat.table, flat.inverses) == (nested.names, nested.table, nested.inverses)
    for clash in [[_Z2, _Z2, cyclic_group(2, "b")], [_Z2, cyclic_group(2, "b"), _Z2]]:
        with pytest.raises(InvalidInput) as flat_error:
            product_group(*clash)
        with pytest.raises(InvalidInput) as nested_error:
            product_group(product_group(clash[0], clash[1]), clash[2])
        assert str(flat_error.value) == str(nested_error.value)


def test_quotient_klein_by_b():
    v4 = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    n = subgroup(v4, [0, v4.index("b")])
    q, sigma = quotient_group(v4, n)
    assert q.order == 2
    # elements of v4 in index order are 1, b, a, a·b
    assert sigma == (0, 0, 1, 1)


def test_quotient_by_trivial_and_whole():
    g = symmetric_group_3()
    q, sigma = quotient_group(g, subgroup(g, [0]))
    assert q.table == g.table and sigma == tuple(range(6))
    q, sigma = quotient_group(g, subgroup(g, range(6)))
    assert q.order == 1 and set(sigma) == {0}


def test_quotient_requires_normal():
    g = symmetric_group_3()
    h = subgroup(g, [0, 1])  # a transposition: not normal
    with pytest.raises(NotNormal):
        quotient_group(g, h)


def test_quotient_rejects_members_that_are_not_a_subgroup():
    # a Subgroup built without subgroup() is checked before its cosets
    z4 = cyclic_group(4)
    for members, message in [((0, 1), "not inverse-closed at element 1"),
                             ((), "subgroup must contain the identity"),
                             ((0, 1, 3), "not closed under product at (1,1)")]:
        with pytest.raises(RepGeoError) as e:
            quotient_group(z4, Subgroup(z4, members))
        assert (type(e.value), str(e.value)) == (InvalidInput, message)


def _naive_hom_count(g, h):
    count = 0
    for image in product(range(h.order), repeat=g.order):
        if image[0] != 0:
            continue
        if all(
            image[g.table[i][j]] == h.table[image[i]][image[j]]
            for i in range(g.order)
            for j in range(g.order)
        ):
            count += 1
    return count


def test_hom_counts_spec_examples():
    z2 = cyclic_group(2, "a")
    z3 = cyclic_group(3, "c")
    v4 = product_group(cyclic_group(2, "a"), cyclic_group(2, "b"))
    assert len(enumerate_group_homs(v4, z2)) == 4
    assert len(enumerate_group_homs(z2, v4)) == 4
    assert len(enumerate_group_homs(z3, z2)) == 1


def test_group_hom_rejects_with_reason():
    z2 = cyclic_group(2, "a")
    z4 = cyclic_group(4, "d")
    assert group_hom(z4, z2, [0, 1, 0, 1]).image == (0, 1, 0, 1)
    for image, reason in [
        ([0, 1], "bad image table"),  # wrong length
        ([1, 0, 1, 0], "bad image table"),  # identity not fixed
        ([0, 2, 0, 2], "bad image table"),  # outside the codomain
        ([0, 1, 1, 1], "not a homomorphism at (1,1)"),
    ]:
        with pytest.raises(InvalidInput, match=re.escape(reason)):
            group_hom(z4, z2, image)


@pytest.mark.parametrize("gi", range(4))
@pytest.mark.parametrize("hi", range(4))
def test_hom_enumeration_matches_naive_filter(gi, hi):
    small = [
        trivial_group(),
        cyclic_group(2, "a"),
        cyclic_group(3, "c"),
        product_group(cyclic_group(2, "a"), cyclic_group(2, "b")),
    ]
    g, h = small[gi], small[hi]
    homs = enumerate_group_homs(g, h)
    # complete, duplicate-free, sorted
    images = [x.image for x in homs]
    assert images == sorted(set(images))
    assert len(homs) == _naive_hom_count(g, h)
    # every hom re-verifies by full sweep
    for hom in homs:
        assert all(
            hom.image[g.table[i][j]] == h.table[hom.image[i]][hom.image[j]]
            for i in range(g.order)
            for j in range(g.order)
        )


_Z2 = cyclic_group(2, "a")
_S3 = general_linear_group(2, 2)[0]
_GROUPS = {
    "Z1": trivial_group(),
    "Z2": _Z2,
    "Z3": cyclic_group(3, "c"),
    "Z4": cyclic_group(4, "d"),
    "V4": product_group(_Z2, cyclic_group(2, "b")),
    "Z6": cyclic_group(6, "f"),
    "Z4xZ2": product_group(cyclic_group(4, "d"), _Z2),
    "Z2^3": product_group(product_group(_Z2, cyclic_group(2, "b")), cyclic_group(2, "c")),
    "S3": _S3,
    "S3xZ2": product_group(_S3, cyclic_group(2, "z")),
    "GL(2,3)": general_linear_group(3, 2)[0],
}
_SMALL = ["Z1", "Z2", "Z3", "Z4", "V4", "Z6", "Z4xZ2", "Z2^3", "S3"]


@pytest.mark.parametrize(
    "gname,hname",
    [(a, b) for a in _SMALL for b in _SMALL] + [("GL(2,3)", "S3"), ("S3", "GL(2,3)")],
)
def test_hom_list_matches_full_table_enumerator(gname, hname):
    g, h = _GROUPS[gname], _GROUPS[hname]
    assert [x.image for x in enumerate_group_homs(g, h)] == naive_group_homs(g, h)


def _relabelled(g, seed):
    """g with its non-identity elements put in a random order, so its greedy
    generators and subgroup chain change."""
    new = [0] + random.Random(seed).sample(range(1, g.order), g.order - 1)  # old -> new
    old = sorted(range(g.order), key=new.__getitem__)  # new -> old
    table = [[new[g.table[a][b]] for b in old] for a in old]
    return group_from_table([g.names[a] for a in old], table)


def _chain_levels(g):
    """(G_{j-1}, G_j) for each level of the chain the greedy generators span."""
    gens, chain = g._generators, [{0}]
    for j in range(1, len(gens) + 1):
        members, queue = {0}, [0]
        for e in queue:
            for f in (g.table[e][s] for s in gens[:j]):
                if f not in members:
                    members.add(f)
                    queue.append(f)
        chain.append(members)
    return list(zip(chain, chain[1:]))


_SHUFFLED_PAIRS = [
    (a, b) for a in ["S3", "S3xZ2", "Z4xZ2", "Z2^3"] for b in ["S3", "S3xZ2", "Z4xZ2", "Z2^3"]
] + [("GL(2,3)", b) for b in ["Z1", "Z2", "V4", "S3"]]
_SHUFFLE_SEEDS = range(3)


@pytest.mark.parametrize("seed", _SHUFFLE_SEEDS)
@pytest.mark.parametrize("gname,hname", _SHUFFLED_PAIRS)
def test_hom_list_matches_naive_on_shuffled_tables(gname, hname, seed):
    g = _relabelled(_GROUPS[gname], seed)
    h = _relabelled(_GROUPS[hname], seed + 100)
    assert [x.image for x in enumerate_group_homs(g, h)] == naive_group_homs(g, h)


def test_shuffled_domains_reach_deep_and_non_normal_levels():
    # abelian domains never exercise the relators of a non-normal level
    depths, non_normal = set(), False
    for gname in {a for a, _ in _SHUFFLED_PAIRS}:
        for seed in _SHUFFLE_SEEDS:
            g = _relabelled(_GROUPS[gname], seed)
            levels = _chain_levels(g)
            depths.add(len(levels))
            non_normal |= any(
                g.table[g.table[a][m]][g.inverses[a]] not in low
                for low, high in levels
                for a in high
                for m in low
            )
    assert max(depths) >= 3 and non_normal


@pytest.mark.parametrize("gname,seed", [("S3", 0), ("Z4xZ2", 1), ("Z2^3", 2), ("GL(2,3)", 1)])
def test_hom_list_is_in_generator_image_order(gname, seed):
    # image-table order is the lexicographic order of the greedy generators'
    # images; the search emits that order and nothing sorts it afterwards
    g = _relabelled(_GROUPS[gname], seed)
    gens = g._generators
    assert gname != "GL(2,3)" or len(gens) == 3
    for hname in ["Z2", "V4", "S3", "Z4xZ2", "GL(2,3)"]:
        images = [x.image for x in enumerate_group_homs(g, _GROUPS[hname])]
        keys = [tuple(image[s] for s in gens) for image in images]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert images == sorted(images)


_PRODUCT_FILES = {
    "Z2^6": "group product(" + ", ".join(f"cyclic(2) as {x}" for x in "abcdfg") + ")",
    "Z4^3": "group product(cyclic(4) as a, cyclic(4) as b, cyclic(4) as c)",
    "Z8^2": "group product(cyclic(8) as a, cyclic(8) as b)",
    "Z4xZ2": "group product(cyclic(4) as a, cyclic(2) as b)",
    "Z2xZ4": "group product(cyclic(2) as a, cyclic(4) as b)",
}


def test_hom_stream_reorders_images_only_off_products():
    # the chain's block order is the element order on products of cyclic
    # groups, so their images skip the reorder; a shuffled table needs it
    for text in _PRODUCT_FILES.values():
        g = parse_group_file(text)
        assert g._chain[1] == list(range(g.order)), text
    shuffled = _relabelled(_GROUPS["GL(2,3)"], 0)
    assert shuffled._chain[1] != list(range(48))
    # both paths against the full-table enumerator
    for g, h in [
        (parse_group_file(_PRODUCT_FILES["Z4^3"]), _GROUPS["Z2"]),
        (parse_group_file(_PRODUCT_FILES["Z4xZ2"]), _GROUPS["S3xZ2"]),
        (parse_group_file(_PRODUCT_FILES["Z2xZ4"]), _GROUPS["Z4xZ2"]),
        (shuffled, _GROUPS["V4"]),
    ]:
        assert [x.image for x in enumerate_group_homs(g, h)] == naive_group_homs(g, h)


def test_hom_stream_checks_its_caps_before_drawing():
    g, h = _GROUPS["Z2^3"], _GROUPS["S3"]
    with pytest.raises(EnumerationCapExceeded, match="hom search"):
        _group_homs(g, h, EnumerationCaps(max_hom_candidates=h.order**3 - 1))
    with pytest.raises(EnumerationCapExceeded, match="group order"):
        _group_homs(g, h, EnumerationCaps(max_group_order=7))


def test_hom_candidate_cap_edge():
    # Z2^3 has k = 3 greedy generators, so the search has |S3|^3 = 216
    # candidates; the cap is checked against that count before any of them
    g, h = _GROUPS["Z2^3"], _GROUPS["S3"]
    needed = h.order**3
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_group_homs(g, h, EnumerationCaps(max_hom_candidates=needed - 1))
    assert (exc.value.cap, exc.value.needed) == (needed - 1, needed)
    at_cap = enumerate_group_homs(g, h, EnumerationCaps(max_hom_candidates=needed))
    assert [x.image for x in at_cap] == [x.image for x in enumerate_group_homs(g, h)]
    # a cap of 64^3 - 1 on 64^3 candidates raises before any candidate is tried
    big = product_group(cyclic_group(8, "a"), cyclic_group(8, "b"))
    with pytest.raises(EnumerationCapExceeded, match="hom search needs 262144 "):
        enumerate_group_homs(g, big, EnumerationCaps(max_hom_candidates=64**3 - 1))
    # the group order cap comes first, even when the candidate cap also fails
    caps = EnumerationCaps(max_group_order=7, max_hom_candidates=needed - 1)
    with pytest.raises(EnumerationCapExceeded, match="group order") as exc:
        enumerate_group_homs(g, h, caps)
    assert (exc.value.cap, exc.value.needed) == (7, 8)


def test_subgroup_validation():
    z4 = cyclic_group(4)
    with pytest.raises(InvalidInput):
        subgroup(z4, [0, 1])  # not closed
    s = subgroup(z4, [0, 2])
    assert s.members == (0, 2)


def test_generating_words_multiply_out():
    # the oracle's greedy generators, and a word per element whose
    # left-to-right product is that element
    shuffled = _relabelled(_GROUPS["GL(2,3)"], 3)
    groups = [shuffled, *_GROUPS.values()]
    groups += [_relabelled(g, seed) for g in _GROUPS.values() for seed in range(8)]
    for g in groups:
        gens, words = generating_words(g)
        assert gens == naive_generating_words(g)[0]
        assert len(words) == g.order
        for e, word in enumerate(words):
            acc = 0
            for pos in word:
                acc = g.table[acc][gens[pos]]
            assert acc == e, (g.names, e, word)
    assert len(generating_words(shuffled)[0]) == 4


def test_general_linear_group_order_checked_before_building(monkeypatch):
    # GL(3,2) and GL(3,3) have 168 and 11,232 elements, over the cap of 64;
    # the cap is checked on the order before any matrix is examined, so the
    # 126-million-entry table of GL(3,3) is never started
    assert [general_linear_group(p, 2)[0].order for p in (2, 3)] == [6, 48]

    def refuse(*args):
        raise AssertionError("GL table built past the cap")

    monkeypatch.setattr(sampling, "is_invertible", refuse)
    for p, order in ((2, 168), (3, 11_232)):
        with pytest.raises(EnumerationCapExceeded) as exc:
            general_linear_group(p, 3)
        assert (exc.value.cap, exc.value.needed) == (64, order)
    for seed in range(4):
        with pytest.raises(EnumerationCapExceeded):
            random_representation(random.Random(seed), dims=(3,))
