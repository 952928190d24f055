"""Metamorphic relations of the equivalence deciders, checked on seeded
random representations without an oracle:

- R and R⊕R are geometrically equivalent: R embeds in R⊕R, and R⊕R is a
  subrepresentation of R×R;
- conjugating every matrix of R by one invertible P, or relabelling the
  elements of its group, gives an isomorphic representation, so no
  verdict's kind changes;
- both argument orders give the same kind;
- geometric equivalence is transitive;
- R and the faithful image of R are action-type equivalent;
- geometric equivalence implies action-type equivalence (Corollary 2 of
  Proposition 4.2 in [PT], quoted in PAPER.md), so no geometrically
  equivalent pair has an action-type witness.

The representations include sums R⊕S of dimension 3.
"""

import random
from functools import lru_cache
from itertools import combinations, permutations, product

from repgeo import (
    Equivalent,
    NotEquivalent,
    at_equivalent,
    faithful_image,
    geo_equivalent,
    group_from_table,
    make_representation,
)
from repgeo.linalg import is_invertible, mat_identity, mat_mul
from repgeo.sampling import random_representation


def _direct_sum(r, s):
    """R⊕S for two representations of one group over one field: each
    element acts by the block diagonal matrix diag(A, B)."""
    zr, zs = (0,) * r.dim, (0,) * s.dim
    act = {g: tuple(row + zs for row in a) + tuple(zr + row for row in b)
           for g, (a, b) in enumerate(zip(r.act, s.act)) if g}
    return make_representation(r.field, r.dim + s.dim, r.group, act)


def _relabelled(r, rng):
    """R with its group's non-identity elements in a random order: the same
    representation under other labels, with other greedy generators."""
    n = r.group.order
    old = [0] + rng.sample(range(1, n), n - 1)  # new index -> old element
    new = {a: i for i, a in enumerate(old)}
    table = [[new[r.group.table[a][b]] for b in old] for a in old]
    group = group_from_table([r.group.names[a] for a in old], table)
    return make_representation(r.field, r.dim, group, {i: r.act[a] for i, a in enumerate(old) if i})


def _sums_of_dim_3(rng, count):
    """R⊕S with R of dim 1 and S of dim 2, over one catalog group and field."""
    out = []
    for _ in range(count):
        k, p = rng.randrange(8), rng.choice((2, 3))
        r, s = (random_representation(rng, primes=(p,), dims=(d,), group_keys=(k,)) for d in (1, 2))
        out.append(_direct_sum(r, s))
    return out


@lru_cache(maxsize=None)
def _invertible(p, n):
    """Every invertible n x n matrix over GF(p), in lexicographic order."""
    mats = (tuple(zip(*[iter(flat)] * n)) for flat in product(range(p), repeat=n * n))
    return [m for m in mats if is_invertible(p, m)]


def _conjugate(r, rng):
    """P^-1 A P for every matrix A of R, with one random invertible P.  P^-1
    is the power of P just before the identity."""
    p, n = r.p, r.dim
    P = rng.choice(_invertible(p, n))
    P_inv, Q = mat_identity(n), P
    while Q != mat_identity(n):
        P_inv, Q = Q, mat_mul(p, Q, P)
    act = {g: mat_mul(p, mat_mul(p, P_inv, a), P) for g, a in enumerate(r.act) if g}
    return make_representation(r.field, n, r.group, act)


def _kind(a, b):
    return type(geo_equivalent(a, b, search_qid=False)).__name__


def test_metamorphic_relations_of_the_verdicts():
    counts = {"sums": 0, "pairs": 0, "faithful": 0, "dim 3": 0, "transitive": 0}
    kinds = set()
    for seed in range(6):
        rng = random.Random(seed)
        reps = [random_representation(rng) for _ in range(6)]
        reps += [random_representation(rng, primes=(5,), dims=(1,)) for _ in range(6)]
        reps += _sums_of_dim_3(rng, 3)
        conjugates = [_conjugate(r, rng) for r in reps]
        relabelled = [_relabelled(r, rng) for r in reps]
        for r in reps:
            assert isinstance(geo_equivalent(r, _direct_sum(r, r), search_qid=False), Equivalent)
            assert isinstance(at_equivalent(r, faithful_image(r).quotient), Equivalent)
            counts["sums"] += 1
            counts["faithful"] += 1
        kind_of = {}
        for i, j in combinations(range(len(reps)), 2):
            r, s = reps[i], reps[j]
            if r.p != s.p:
                continue
            kind = kind_of[i, j] = kind_of[j, i] = _kind(r, s)
            kinds.add(kind)
            assert _kind(s, r) == kind
            assert _kind(conjugates[i], s) == kind
            assert _kind(r, conjugates[j]) == kind
            assert _kind(relabelled[i], s) == kind
            assert _kind(r, relabelled[j]) == kind
            if kind == "Equivalent":
                assert not isinstance(at_equivalent(r, s), NotEquivalent)
            counts["pairs"] += 1
            counts["dim 3"] += 3 in (r.dim, s.dim)
        # Equivalent is transitive: i ~ j decides whether i ~ k by whether j ~ k
        for i, j, k in permutations(range(len(reps)), 3):
            if kind_of.get((i, j)) == "Equivalent" and (i, k) in kind_of:
                assert kind_of[i, k] == kind_of[j, k]
                counts["transitive"] += 1
    # every relation ran on a nontrivial number of instances, and the pairs
    # hold both verdicts
    assert min(counts.values()) >= 50, counts
    assert kinds == {"Equivalent", "NotEquivalent"}
