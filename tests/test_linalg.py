import random
import time

import pytest

from naive import nullspace as naive_nullspace, rank, rref
from repgeo.errors import InvalidInput
from repgeo.linalg import PrimeField, is_invertible, kernel_rref, nullspace, span_elements


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
