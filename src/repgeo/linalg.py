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


_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                     73, 79, 83, 89, 97))


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p not in _PRIMES:
            raise InvalidInput(f"p={self.p} is not a prime in [2, 97]")


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


def kernel_rref(p: int, rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """The RREF basis of {x : M x = 0} from one elimination that takes its
    pivots from the last column leftwards, so that each pivot row is 0 right
    of its pivot and each kernel vector leads with its free column's 1."""
    m = [[a % p for a in r] for r in rows]
    pivots: list[int] = []
    for c in range(ncols - 1, -1, -1):
        r = len(pivots)
        for piv in range(r, len(m)):
            if m[piv][c]:
                break
        else:
            continue
        row = m[piv]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = [(a * inv) % p for a in row]
        m[piv] = m[r]
        m[r] = row
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                m[i] = [(a - f * b) % p for a, b in zip(other, row)]
        pivots.append(c)
        if r + 1 == len(m):
            break
    # one kernel vector per free column: 1 there, 0 at the other free columns
    bound = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in bound:
            v = [0] * ncols
            v[fc] = 1
            for row, pc in zip(m, pivots):
                v[pc] = -row[fc] % p
            basis.append(tuple(v))
    return basis


def nullspace(p: int, rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of {x : M x = 0} for the equation rows M (length-ncols each), in
    the reduced form of an elimination that takes its pivots from the first
    column rightwards: kernel_rref on the columns in reverse order."""
    return [v[::-1] for v in reversed(kernel_rref(p, [r[::-1] for r in rows], ncols))]


# GF(2) vectors packed into ints with coordinate 0 as the top bit, so that
# int order is the lexicographic order of the vectors and a row operation
# is one XOR (the packed rows of M4RI: Albrecht, Bard and Hart, "Algorithm
# 898", ACM TOMS 36(2), 2010).


def pack_gf2(v: Sequence[int]) -> int:
    x = 0
    for a in v:
        x = x << 1 | a
    return x


def unpack_gf2(x: int, n: int) -> Vector:
    return tuple([x >> i & 1 for i in range(n - 1, -1, -1)])


def kernel_rref_gf2(rows: Sequence[int], n: int) -> list[int]:
    """kernel_rref over GF(2) on rows packed by pack_gf2, the basis packed
    too.  Each row, cleared at the pivots so far, pivots at its lowest bit
    (its last column) and is cleared from them there: the same reduced
    echelon form, which is unique, so the same basis."""
    pivots: dict[int, int] = {}  # pivot bit -> its row, 0 at the other pivot bits
    for r in rows:
        for b, row in pivots.items():
            if r & b:
                r ^= row
        if r:
            b = r & -r
            for c, row in pivots.items():
                if row & b:
                    pivots[c] = row ^ r
            pivots[b] = r
    # one kernel vector per free column: 1 there and at each pivot whose row has it
    basis = {f: f for f in map((1).__lshift__, range(n - 1, -1, -1)) if f not in pivots}
    for b, row in pivots.items():
        row ^= b
        while row:
            f = row & -row
            basis[f] |= b
            row ^= f
    return list(basis.values())


def is_invertible(p: int, a: Matrix) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and not kernel_rref(p, a, n)


def span_elements(p: int, basis: Sequence[Vector], n: int) -> Iterator[Vector]:
    """All p^k combinations of the basis vectors (length-n each)."""
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                for i, x in enumerate(b):
                    v[i] = (v[i] + c * x) % p
        yield tuple(v)
