"""Metamorphic relations of the equivalence deciders, checked on seeded
random representations without an oracle:

- R and R⊕R are geometrically equivalent: R embeds in R⊕R, and R⊕R is a
  subrepresentation of R×R;
- conjugating every matrix of R by one invertible P gives an isomorphic
  representation, so no verdict's kind changes;
- both argument orders give the same kind;
- R and the faithful image of R are action-type equivalent;
- geometric equivalence implies action-type equivalence (Corollary 2 of
  Proposition 4.2 in [PT], quoted in PAPER.md), so no geometrically
  equivalent pair has an action-type witness.
"""

import random
from itertools import combinations, product

from repgeo import Equivalent, NotEquivalent, at_equivalent, faithful_image, geo_equivalent, make_representation
from repgeo.linalg import is_invertible, mat_identity, mat_mul
from repgeo.sampling import random_representation


def _direct_sum(r):
    """R⊕R: each element acts by the block diagonal matrix diag(A, A)."""
    zero = (0,) * r.dim
    act = {g: tuple(row + zero for row in a) + tuple(zero + row for row in a) for g, a in enumerate(r.act) if g}
    return make_representation(r.field, 2 * r.dim, r.group, act)


def _conjugate(r, rng):
    """P^-1 A P for every matrix A of R, with one random invertible P."""
    p, n = r.p, r.dim
    mats = [tuple(zip(*[iter(flat)] * n)) for flat in product(range(p), repeat=n * n)]
    P = rng.choice([m for m in mats if is_invertible(p, m)])
    P_inv = next(m for m in mats if mat_mul(p, P, m) == mat_identity(n))
    act = {g: mat_mul(p, mat_mul(p, P_inv, a), P) for g, a in enumerate(r.act) if g}
    return make_representation(r.field, n, r.group, act)


def _kind(a, b):
    return type(geo_equivalent(a, b, search_qid=False)).__name__


def test_metamorphic_relations_of_the_verdicts():
    counts = {"sums": 0, "pairs": 0, "faithful": 0}
    kinds = set()
    for seed in range(6):
        rng = random.Random(seed)
        reps = [random_representation(rng) for _ in range(6)]
        reps += [random_representation(rng, primes=(5,), dims=(1,)) for _ in range(6)]
        conjugates = [_conjugate(r, rng) for r in reps]
        for r in reps:
            assert isinstance(geo_equivalent(r, _direct_sum(r), search_qid=False), Equivalent)
            assert isinstance(at_equivalent(r, faithful_image(r).quotient), Equivalent)
            counts["sums"] += 1
            counts["faithful"] += 1
        for i, j in combinations(range(len(reps)), 2):
            r, s = reps[i], reps[j]
            if r.p != s.p:
                continue
            kind = _kind(r, s)
            kinds.add(kind)
            assert _kind(s, r) == kind
            assert _kind(conjugates[i], s) == kind
            assert _kind(r, conjugates[j]) == kind
            if kind == "Equivalent":
                assert not isinstance(at_equivalent(r, s), NotEquivalent)
            counts["pairs"] += 1
    # every relation ran on a nontrivial number of instances, and the pairs
    # hold both verdicts
    assert min(counts.values()) >= 50, counts
    assert kinds == {"Equivalent", "NotEquivalent"}
