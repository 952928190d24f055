import itertools
import random
import time

import pytest

from naive import nullspace as naive_nullspace, rank, rref
from repgeo.errors import InvalidInput
from repgeo.linalg import (
    PrimeField,
    is_invertible,
    kernel_rref,
    kernel_rref_gf2,
    nullspace,
    pack_gf2,
    span_elements,
    unpack_gf2,
)


def test_kernel_rref_is_the_rref_of_the_kernel():
    # one elimination from the last column leftwards against the oracle's
    # left-pivot elimination run twice, and the package's nullspace (the
    # same elimination on the reversed columns) against the oracle's basis,
    # and is_invertible on square shapes against the oracle's rank; the span
    # of the basis must come out in lexicographic order.  Up to 9 columns:
    # three x-variables on GF(2)^3
    rng = random.Random(83)
    seen = set()
    for _ in range(4000):
        p, n = rng.choice((2, 3, 5, 7)), rng.randint(0, 9)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        if rows and rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        if rows and rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        basis = kernel_rref(p, rows, n)
        assert basis == [tuple(v) for v in rref(p, naive_nullspace(p, rows, n))[0]]
        assert nullspace(p, rows, n) == naive_nullspace(p, rows, n)
        if len(rows) == n:
            assert is_invertible(p, rows) == (rank(p, rows) == n)
            seen.add(("square", n))
        if p ** len(basis) <= 2401:
            span = list(span_elements(p, basis, n))
            assert span == sorted(span)
        seen |= {("p", p), ("n", n)}
        seen.add(("no rows", not rows))
        seen.add(("zero row", any(not any(r) for r in rows)))
        seen.add(("repeated row", len({tuple(r) for r in rows}) < len(rows)))
        seen.add(("full rank", bool(rows) and rank(p, rows) == n))
    assert seen >= {("p", p) for p in (2, 3, 5, 7)} | {("n", n) for n in range(10)}
    assert seen >= {("square", n) for n in range(10)}
    for flag in ("no rows", "zero row", "repeated row", "full rank"):
        assert {(flag, True), (flag, False)} <= seen


def test_packed_kernel_is_kernel_rref_packed():
    # the GF(2) twin on packed rows returns kernel_rref's basis, packed, in
    # the same order, up to 24 columns: three x-variables on GF(2)^8
    rng = random.Random(89)
    seen = set()
    for _ in range(1500):
        n, m = rng.randint(0, 24), rng.randint(0, 28)
        if rng.random() < 0.2:  # rank at most 2: each row the sum of a subset of {a, b}
            a, b = ([rng.randrange(2) for _ in range(n)] for _ in range(2))
            coeffs = [(rng.randrange(2), rng.randrange(2)) for _ in range(m)]
            rows = [[s * x ^ t * y for x, y in zip(a, b)] for s, t in coeffs]
        else:
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(m)]
        if rows and rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        if rows and rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        basis = kernel_rref_gf2(tuple(map(pack_gf2, rows)), n)
        assert [unpack_gf2(v, n) for v in basis] == kernel_rref(2, rows, n)
        seen.add(("n", n))
        seen.add(("no rows", not rows))
        seen.add(("zero row", any(not any(r) for r in rows)))
        seen.add(("repeated row", len({tuple(r) for r in rows}) < len(rows)))
        seen.add(("more rows than columns", len(rows) > n))
        seen.add(("full rank", not basis))
    assert seen >= {("n", n) for n in range(25)}
    for flag in ("no rows", "zero row", "repeated row", "more rows than columns", "full rank"):
        assert {(flag, True), (flag, False)} <= seen


def test_pack_gf2_round_trips_in_lexicographic_order():
    # coordinate 0 is the top bit, so int order is the vectors' order
    for n in range(9):
        vectors = list(itertools.product(range(2), repeat=n))  # lexicographic
        packed = [pack_gf2(v) for v in vectors]
        assert packed == list(range(2**n))
        assert [unpack_gf2(x, n) for x in packed] == vectors
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(0, 64)
        v = tuple(rng.randrange(2) for _ in range(n))
        w = tuple(rng.randrange(2) for _ in range(n))
        assert unpack_gf2(pack_gf2(v), n) == v
        assert (pack_gf2(v) < pack_gf2(w)) == (v < w)


@pytest.mark.parametrize("p", [2**61 - 1, 100000000000031, 1, 0, -3, 4, 99, 101, 3.0, True])
def test_prime_field_rejects_p_outside_the_primes_below_100_at_once(p):
    t0 = time.perf_counter()
    with pytest.raises(InvalidInput, match="is not a prime in"):
        PrimeField(p)
    assert time.perf_counter() - t0 < 0.1  # trial division took 2.7 s at p = 100000000000031


def test_prime_field_takes_the_25_primes_below_100():
    accepted = []
    for p in range(200):
        try:
            accepted.append(PrimeField(p).p)
        except InvalidInput:
            pass
    assert accepted == [p for p in range(2, 100) if all(p % d for d in range(2, p))]
