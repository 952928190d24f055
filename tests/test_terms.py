import itertools
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import naive_word_key
from test_groups import _GROUPS, _relabelled

from repgeo import (
    Assignment,
    ContextMismatch,
    FieldMismatch,
    FreeContext,
    GroupAtom,
    ModuleAtom,
    PrimeField,
    eval_atom,
    eval_module,
    eval_word,
    identity_word,
    invert_word,
    module_act,
    module_add,
    module_scale,
    module_term,
    module_zero,
    multiply_words,
    reduce_word,
    ring_add,
    ring_from_terms,
    ring_mul,
    ring_one,
    ring_scale,
    ring_zero,
    xgen,
    ygen,
)
from repgeo.errors import InvalidInput
from repgeo.freemod import module_from_terms, word_key, word_value

CTX = FreeContext(("x",), ("y1", "y2"))
GF2 = PrimeField(2)
GF3 = PrimeField(3)


raw_words = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=0, max_size=8
)


def ring_elems(field):
    words = raw_words.map(lambda raw: reduce_word(CTX, raw))
    return st.lists(
        st.tuples(words, st.integers(0, field.p - 1)), min_size=0, max_size=4
    ).map(lambda pairs: ring_from_terms(CTX, field, pairs))


# -- words -------------------------------------------------------------------


def test_reduce_examples():
    assert reduce_word(CTX, [(0, 1), (0, -1)]).is_identity()
    w = reduce_word(CTX, [(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 2),)
    already = reduce_word(CTX, [(0, 2), (1, -1)])
    assert reduce_word(CTX, already.letters) == already


def test_word_examples():
    y = ygen(CTX, 0)
    assert multiply_words(y, invert_word(y)).is_identity()
    u = multiply_words(ygen(CTX, 0), ygen(CTX, 1))
    assert invert_word(u).letters == ((1, -1), (0, -1))
    assert multiply_words(ygen(CTX, 0, 2), ygen(CTX, 0, -1)) == ygen(CTX, 0)


def test_thousand_random_words_reduce_and_cancel():
    rng = random.Random(2024)
    for _ in range(1000):
        raw = [(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))]
        w = reduce_word(CTX, raw)
        # idempotent normal form
        assert reduce_word(CTX, w.letters) == w
        # no zero exponents, no adjacent equal variables
        assert all(e != 0 for _, e in w.letters)
        assert all(a[0] != b[0] for a, b in zip(w.letters, w.letters[1:]))
        assert multiply_words(w, invert_word(w)).is_identity()


def test_word_key_orders_runs_as_their_expanded_letters():
    # the key compares runs without expanding them; the oracle expands them
    rng = random.Random(23)
    ctx = FreeContext(("x",), ("y1", "y2", "y3"))
    words = {
        reduce_word(ctx, [(rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3)))
                          for _ in range(rng.randrange(7))])
        for _ in range(2000)
    }
    assert len(words) > 1000
    assert sorted(words, key=word_key) == sorted(words, key=naive_word_key)
    assert len(set(map(word_key, words))) == len(words)


def test_word_key_does_not_expand_a_large_exponent():
    # three words of length 10^20, in shortlex order
    n = 10**20
    words = [ygen(CTX, 0, n), multiply_words(ygen(CTX, 0, n - 1), ygen(CTX, 1)), ygen(CTX, 0, -n)]
    assert [word_key(w)[0] for w in words] == [n] * 3
    assert sorted(reversed(words), key=word_key) == words


@given(raw_words, raw_words, raw_words)
def test_word_associativity(a, b, c):
    u, v, w = (reduce_word(CTX, r) for r in (a, b, c))
    assert multiply_words(multiply_words(u, v), w) == multiply_words(u, multiply_words(v, w))


# -- ring laws ---------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3])
def test_ring_examples(field):
    y = ygen(CTX, 0)
    ry = ring_from_terms(CTX, field, [(y, 1)])
    assert ring_add(ry, ring_scale(-1, ry)).is_zero()
    one_plus_y = ring_add(ring_one(CTX, field), ry)
    sq = ring_mul(one_plus_y, one_plus_y)
    if field.p == 2:
        expected = ring_add(
            ring_one(CTX, field), ring_from_terms(CTX, field, [(ygen(CTX, 0, 2), 1)])
        )
        assert sq == expected


def test_gf2_char2():
    y = ring_from_terms(CTX, GF2, [(ygen(CTX, 0), 1)])
    assert ring_add(y, y).is_zero()


@settings(max_examples=60)
@given(ring_elems(GF3), ring_elems(GF3), ring_elems(GF3))
def test_ring_laws(r, s, t):
    assert ring_add(r, s) == ring_add(s, r)
    assert ring_add(ring_add(r, s), t) == ring_add(r, ring_add(s, t))
    assert ring_mul(r, ring_add(s, t)) == ring_add(ring_mul(r, s), ring_mul(r, t))
    one = ring_one(CTX, GF3)
    assert ring_mul(r, one) == r == ring_mul(one, r)
    assert ring_add(r, ring_zero(CTX, GF3)) == r


# -- module laws -------------------------------------------------------------


@settings(max_examples=60)
@given(ring_elems(GF3), ring_elems(GF3))
def test_module_act_laws(r, s):
    u = module_add(
        xgen(CTX, GF3, 0), module_term(CTX, GF3, 0, r)
    )
    assert module_act(u, ring_mul(r, s)) == module_act(module_act(u, r), s)
    v = module_term(CTX, GF3, 0, s)
    assert module_act(module_add(u, v), r) == module_add(module_act(u, r), module_act(v, r))


def test_module_examples(gf2):
    x = xgen(CTX, gf2, 0)
    xy = module_act(x, ring_from_terms(CTX, gf2, [(ygen(CTX, 0), 1)]))
    assert module_add(xy, module_scale(-1, xy)).is_zero()
    assert module_act(x, ring_from_terms(CTX, gf2, [(ygen(CTX, 0), 1)])) == xy
    witness = module_add(xy, module_scale(-1, x))
    (xi, r), = witness.parts
    assert r.num_terms() == 2


# -- evaluation --------------------------------------------------------------


def _asg(rep, xv, yv):
    return Assignment(rep, (xv,), yv)


def test_eval_word_examples(r1, r2):
    c = FreeContext(("x",), ("y",))
    y = ygen(c, 0)
    a = Assignment(r1, ((0, 0),), (1,))
    assert eval_word(a, multiply_words(y, y)) == 0
    assert eval_word(a, identity_word(c)) == 0
    b = Assignment(r2, ((0, 0),), (r2.group.index("b"),))
    assert eval_word(b, y) == r2.group.index("b")


def _plain_word_value(g, ymap, letters):
    """The product of the letters' factors by one table lookup per factor,
    each inverse found by searching its row for the identity."""
    acc = 0
    for v, e in letters:
        f = ymap[v] if e > 0 else g.table[ymap[v]].index(0)
        for _ in range(abs(e)):
            acc = g.table[acc][f]
    return acc


@pytest.mark.parametrize("name,seed", [("S3", 1), ("Z4xZ2", 2), ("GL(2,3)", 3)])
def test_word_value_matches_repeated_table_lookups(name, seed):
    # exponents +-1 read straight off ymap, +-2 and +-k for k at and past
    # each element's order through powers, in words of up to three letters
    g = _relabelled(_GROUPS[name], seed)
    rng = random.Random(seed)
    for a in range(g.order):
        k = g.element_order(a)
        for e in (1, -1, 2, -2, k, -k, k + 1, -(k + 1), 2 * k + 3, -(2 * k + 3)):
            b = rng.randrange(g.order)
            for letters in (((0, e),), ((0, e), (1, -1)), ((1, 1), (0, e), (1, 2))):
                w = reduce_word(CTX, letters)
                assert word_value(g, (a, b), w) == _plain_word_value(g, (a, b), letters)


def test_eval_module_examples(r1):
    c = FreeContext(("x",), ("y",))
    x = xgen(c, r1.field, 0)
    y = ring_from_terms(c, r1.field, [(ygen(c, 0), 1)])
    u = module_add(module_act(x, y), module_scale(-1, x))  # x.y - x
    a = Assignment(r1, ((1, 0),), (1,))
    assert eval_module(a, u) == (1, 1)
    a = Assignment(r1, ((1, 1),), (1,))
    assert eval_module(a, u) == (0, 0)
    assert eval_module(a, module_zero(c, r1.field)) == (0, 0)


def test_eval_atom_examples(r1, r2):
    c = FreeContext(("x",), ("y",))
    x = xgen(c, r1.field, 0)
    yw = ygen(c, 0)
    y = ring_from_terms(c, r1.field, [(yw, 1)])
    u = module_add(module_act(x, y), module_scale(-1, x))
    assert eval_atom(Assignment(r1, ((1, 1),), (1,)), ModuleAtom(u))
    assert not eval_atom(Assignment(r1, ((0, 0),), (1,)), GroupAtom(yw))
    for v in itertools.product(range(r2.p), repeat=r2.dim):
        assert eval_atom(Assignment(r2, (v,), (r2.group.index("b"),)), ModuleAtom(u))


def test_eval_is_homomorphic(r1):
    rng = random.Random(5)
    c = CTX
    f = r1.field
    for _ in range(200):
        raw1 = [(rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))]
        raw2 = [(rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))]
        u = reduce_word(c, raw1)
        v = reduce_word(c, raw2)
        asg = Assignment(
            r1,
            ((rng.randint(0, 1), rng.randint(0, 1)),),
            (rng.randint(0, 1), rng.randint(0, 1)),
        )
        g = r1.group
        assert eval_word(asg, multiply_words(u, v)) == g.table[eval_word(asg, u)][
            eval_word(asg, v)
        ]
        m1 = module_term(c, f, 0, ring_from_terms(c, f, [(u, 1)]))
        m2 = module_term(c, f, 0, ring_from_terms(c, f, [(v, 1)]))
        s = eval_module(asg, module_add(m1, m2))
        e1 = eval_module(asg, m1)
        e2 = eval_module(asg, m2)
        assert s == tuple((a + b) % r1.p for a, b in zip(e1, e2))
        # acting by a single word then evaluating = evaluating then acting
        acted = module_act(m1, ring_from_terms(c, f, [(v, 1)]))
        assert eval_module(asg, acted) == r1.apply(e1, eval_word(asg, v))


def test_eval_factors_through_canonical_form(r1):
    rng = random.Random(9)
    c = CTX
    f = r1.field
    for _ in range(100):
        raw = [(rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(6)]
        w = reduce_word(c, raw)
        asg = Assignment(r1, ((1, 0),), (1, 0))
        # evaluate the raw letters directly through the group
        acc = 0
        for vidx, e in raw:
            acc = r1.group.table[acc][r1.group.power(asg.ymap[vidx], e)]
        assert acc == eval_word(asg, w)


def test_context_equality_and_hash_are_on_the_names_only():
    # the index maps and the hash are computed once, outside the fields
    a, b = FreeContext(("x1", "x2"), ("y",)), FreeContext(("x1", "x2"), ("y",))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != FreeContext(("x2", "x1"), ("y",)) and a != FreeContext(("x1", "x2"), ("z",))
    assert repr(a) == "FreeContext(xvars=('x1', 'x2'), yvars=('y',))"
    assert [f.name for f in fields(a)] == ["xvars", "yvars"]
    assert (a.xindex("x2"), a.yindex("y")) == (1, 0)
    for lookup, name in ((a.xindex, "y"), (a.yindex, "x1")):
        with pytest.raises(InvalidInput):
            lookup(name)


def test_context_mismatch_raises():
    other = FreeContext(("x",), ("z",))
    with pytest.raises(ContextMismatch):
        multiply_words(ygen(CTX, 0), ygen(other, 0))
    with pytest.raises(ContextMismatch):
        ring_add(ring_one(CTX, GF2), ring_one(other, GF2))


# -- the canonical builders against a plain-dict reference -------------------


def _expected(p, triples):
    """sum(c * x.w) over (x, word, c) triples, added up in a plain dict and
    laid out as canonical parts: x ascending, each x's nonzero terms in the
    naive shortlex order, coefficients in [1, p)."""
    acc = {}
    for x, w, c in triples:
        acc[x, w] = acc.get((x, w), 0) + c
    parts = {}
    for (x, w), c in acc.items():
        if c % p:
            parts.setdefault(x, []).append((w, c % p))
    return tuple((x, tuple(sorted(parts[x], key=lambda t: naive_word_key(t[0])))) for x in sorted(parts))


def _layout(u):
    return tuple((x, r.terms) for x, r in u.parts)


def _ring_layout(r):
    return ((0, r.terms),) if r.terms else ()


def _random_pairs(rng, p, words):
    # words repeat, and coefficients run past p and below 0
    return [(rng.choice(words), rng.randint(-2 * p, 2 * p)) for _ in range(rng.randint(0, 6))]


def _product(pairs1, pairs2):
    return [(reduce_word(CTX, w1.letters + w2.letters), c1 * c2) for w1, c1 in pairs1 for w2, c2 in pairs2]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_builders_match_a_plain_dict(p):
    rng = random.Random(300 + p)
    field = PrimeField(p)
    words = [reduce_word(CTX, [(rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]) for _ in range(6)]
    for _ in range(200):
        a, b = _random_pairs(rng, p, words), _random_pairs(rng, p, words)
        lam = rng.randint(-2 * p, 2 * p)
        r, s = ring_from_terms(CTX, field, a), ring_from_terms(CTX, field, b)
        assert _ring_layout(r) == _expected(p, [(0, w, c) for w, c in a])
        assert _ring_layout(ring_add(r, s)) == _expected(p, [(0, w, c) for w, c in a + b])
        assert _ring_layout(ring_scale(lam, r)) == _expected(p, [(0, w, lam * c) for w, c in a])
        assert _ring_layout(ring_mul(r, s)) == _expected(p, [(0, w, c) for w, c in _product(a, b)])
        # cancellation to zero
        assert ring_add(r, ring_scale(-1, r)).is_zero()
        assert ring_scale(p, r).is_zero()
        for t in (r, s, ring_add(r, s), ring_mul(r, s)):
            assert (t.context, t.field) == (CTX, field)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_builders_match_a_plain_dict(p):
    ctx = FreeContext(("x1", "x2", "x3"), CTX.yvars)
    rng = random.Random(400 + p)
    field = PrimeField(p)
    words = [reduce_word(ctx, [(rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]) for _ in range(6)]

    def triples():
        return [(rng.randrange(3), rng.choice(words), rng.randint(-2 * p, 2 * p)) for _ in range(rng.randint(0, 6))]

    for _ in range(200):
        a, b = triples(), triples()
        pairs = _random_pairs(rng, p, words)
        x, lam = rng.randrange(3), rng.randint(-2 * p, 2 * p)
        u, v = module_from_terms(ctx, field, a), module_from_terms(ctx, field, b)
        r = ring_from_terms(ctx, field, pairs)
        assert _layout(u) == _expected(p, a)
        assert _layout(module_term(ctx, field, x, r)) == _expected(p, [(x, w, c) for w, c in pairs])
        assert _layout(module_add(u, v)) == _expected(p, a + b)
        assert _layout(module_scale(lam, u)) == _expected(p, [(x, w, lam * c) for x, w, c in a])
        acted = [(x, reduce_word(ctx, w1.letters + w2.letters), c1 * c2) for x, w1, c1 in a for w2, c2 in pairs]
        assert _layout(module_act(u, r)) == _expected(p, acted)
        assert module_add(u, module_scale(p - 1, u)).is_zero()
        for t in (u, module_add(u, v), module_act(u, r)):
            assert (t.context, t.field) == (ctx, field)
            assert all((q.context, q.field) == (ctx, field) for _, q in t.parts)


def test_builders_reject_mixed_operands():
    other = FreeContext(("x",), ("z",))
    y, z = ygen(CTX, 0), ygen(other, 0)
    one, other_one = ring_one(CTX, GF3), ring_one(other, GF3)
    u = xgen(CTX, GF3, 0)
    for build in (
        lambda: ring_from_terms(CTX, GF3, [(y, 1), (z, 1)]),
        lambda: module_from_terms(CTX, GF3, [(0, z, 1)]),
        lambda: ring_add(one, other_one),
        lambda: ring_mul(one, other_one),
        lambda: module_term(CTX, GF3, 0, other_one),
        lambda: module_add(u, xgen(other, GF3, 0)),
        lambda: module_act(u, other_one),
    ):
        with pytest.raises(ContextMismatch):
            build()
    for build in (
        lambda: ring_add(one, ring_one(CTX, GF2)),
        lambda: ring_mul(one, ring_one(CTX, GF2)),
        lambda: module_add(u, xgen(CTX, GF2, 0)),
        lambda: module_act(u, ring_one(CTX, GF2)),
        # a GF(2) ring is not read mod 3
        lambda: module_term(CTX, GF3, 0, ring_one(CTX, GF2)),
    ):
        with pytest.raises(FieldMismatch):
            build()
    for build in (
        lambda: module_from_terms(CTX, GF3, [(1, y, 1)]),
        lambda: module_term(CTX, GF3, 1, ring_zero(CTX, GF3)),
        lambda: xgen(CTX, GF3, -1),
    ):
        with pytest.raises(InvalidInput, match="out of range"):
            build()
