"""Exact linear algebra over prime fields GF(p), 2 <= p <= 97.

Vectors are tuples of ints in [0, p), matrices are row-major tuples of
row tuples.  Everything is pure Python: the dimensions in this package
are tiny and exactness matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import DimensionMismatch, InvalidInput

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p) or self.p > 97:
            raise InvalidInput(f"p={self.p} is not a prime in [2, 97]")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)


def zero_vec(n: int) -> Vector:
    return (0,) * n


def vec_add(p: int, u: Vector, v: Vector) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(p: int, c: int, v: Vector) -> Vector:
    return tuple((c * a) % p for a in v)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(p: int, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def vec_mat(p: int, v: Vector, a: Matrix) -> Vector:
    """Row vector times matrix: the right-action convention."""
    if len(v) != len(a):
        raise DimensionMismatch("vector/matrix shape mismatch")
    cols = tuple(zip(*a)) if a else ()
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in cols)


def rref(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(x % p for x in r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(p: int, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(p, rows)[1])


def nullspace(p: int, rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of {x : M x = 0} for the equation rows M (length-ncols each)."""
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(p, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(tuple(v))
    return basis


def kernel_rref(p: int, rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """The RREF basis of {x : M x = 0} from one elimination: on reversed columns
    each kernel vector leads with its free column's 1, 0 at the other free ones."""
    return [v[::-1] for v in reversed(nullspace(p, [r[::-1] for r in rows], ncols))]


def is_invertible(p: int, a: Matrix) -> bool:
    n = len(a)
    if n == 0:
        return True
    if len(a[0]) != n:
        return False
    return rank(p, a) == n


def span_elements(p: int, basis: Sequence[Vector], n: int) -> Iterator[Vector]:
    """All p^k combinations of the basis vectors (length-n each)."""
    if not basis:
        yield zero_vec(n)
        return
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                for i, x in enumerate(b):
                    v[i] = (v[i] + c * x) % p
        yield tuple(v)


def all_vectors(p: int, n: int) -> list[Vector]:
    """Every vector of GF(p)^n in lexicographic order."""
    return [tuple(t) for t in product(range(p), repeat=n)]
