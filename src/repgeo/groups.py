"""Cayley-table groups: validation, constructors, subgroups, quotients,
and exhaustive homomorphism enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .config import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded, InvalidInput, NotAGroup, NotNormal


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by element names and a full Cayley table.

    Index 0 is the identity.  table[i][j] is the index of g_i * g_j.
    Instances are produced by group_from_table and friends and are
    always fully validated.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    inverses: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInput(f"no element named {name!r}") from None

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inverses[g], -e
        acc, base = 0, g
        while e:
            if e & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            e >>= 1
        return acc

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != 0:
            acc = self.table[acc][g]
            k += 1
        return k


def group_from_table(names: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    names = tuple(names)
    n = len(names)
    if n == 0:
        raise InvalidInput("empty element list")
    if len(set(names)) != n:
        raise InvalidInput("element names not distinct")
    rows = tuple(tuple(r) for r in table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidInput("table is not n x n")
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if not (isinstance(x, int) and 0 <= x < n):
                raise InvalidInput(f"table[{i}][{j}]={x!r} out of range")
    # identity at index 0
    for j in range(n):
        if rows[0][j] != j:
            raise NotAGroup("identity", (0, j, rows[0][j]))
        if rows[j][0] != j:
            raise NotAGroup("identity", (j, 0, rows[j][0]))
    # latin square
    for i in range(n):
        if len(set(rows[i])) != n:
            raise NotAGroup("latin-square", ("row", i))
        if len({rows[k][i] for k in range(n)}) != n:
            raise NotAGroup("latin-square", ("col", i))
    # associativity
    for i in range(n):
        for j in range(n):
            ij = rows[i][j]
            for k in range(n):
                if rows[ij][k] != rows[i][rows[j][k]]:
                    raise NotAGroup("associativity", (i, j, k))
    # two-sided inverses
    inverses = []
    for i in range(n):
        j = rows[i].index(0)
        if rows[j][i] != 0:
            raise NotAGroup("inverse", (i, j))
        inverses.append(j)
    return FiniteGroup(names, rows, tuple(inverses))


def cyclic_group(n: int, gen: str = "g") -> FiniteGroup:
    if n < 1:
        raise InvalidInput("order must be >= 1")
    names = ["1"] + [gen if k == 1 else f"{gen}^{k}" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(names, table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def _joined_name(a: str, b: str) -> str:
    parts = [x for x in (a, b) if x != "1"]
    return "·".join(parts) if parts else "1"


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    pairs = [(i, j) for i in range(g.order) for j in range(h.order)]
    names = [_joined_name(g.names[i], h.names[j]) for (i, j) in pairs]
    if len(set(names)) != len(names):
        raise InvalidInput(
            "name clash in product; build the factors with distinct generator names"
        )
    idx = {pq: k for k, pq in enumerate(pairs)}
    table = [
        [idx[(g.table[i1][i2], h.table[j1][j2])] for (i2, j2) in pairs]
        for (i1, j1) in pairs
    ]
    return group_from_table(names, table)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]  # sorted, contains 0

    @property
    def order(self) -> int:
        return len(self.members)

    def names(self) -> tuple[str, ...]:
        return tuple(self.parent.names[m] for m in self.members)


def subgroup(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    ms = tuple(sorted(set(members)))
    if 0 not in ms:
        raise InvalidInput("subgroup must contain the identity")
    mset = set(ms)
    for a in ms:
        if parent.inverses[a] not in mset:
            raise InvalidInput(f"not inverse-closed at element {a}")
        for b in ms:
            if parent.table[a][b] not in mset:
                raise InvalidInput(f"not closed under product at ({a},{b})")
    return Subgroup(parent, ms)


def normality_witness(g: FiniteGroup, n: Subgroup) -> tuple[int, int] | None:
    """(g, n) with g n g^-1 outside the subgroup, or None if normal."""
    mset = set(n.members)
    for a in range(g.order):
        ai = g.inverses[a]
        for m in n.members:
            if g.table[g.table[a][m]][ai] not in mset:
                return (a, m)
    return None


def quotient_group(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (G/N, sigma).

    Cosets are indexed by minimal member; sigma maps each element of G
    to its coset index.
    """
    w = normality_witness(g, n)
    if w is not None:
        raise NotNormal(*w)
    coset_of: dict[int, frozenset[int]] = {}
    for a in range(g.order):
        coset_of[a] = frozenset(g.table[a][m] for m in n.members)
    reps = sorted({min(c) for c in coset_of.values()})
    coset_index = {r: k for k, r in enumerate(reps)}
    sigma = tuple(coset_index[min(coset_of[a])] for a in range(g.order))
    names = tuple(
        "1" if r == 0 else f"[{g.names[r]}]" for r in reps
    )
    table = [
        [sigma[g.table[r1][r2]] for r2 in reps]
        for r1 in reps
    ]
    return group_from_table(names, table), sigma


@dataclass(frozen=True)
class GroupHom:
    domain: FiniteGroup
    codomain: FiniteGroup
    image: tuple[int, ...]  # image[i] = index in codomain of the image of g_i

    def __call__(self, i: int) -> int:
        return self.image[i]

    def is_bijective(self) -> bool:
        return (
            self.domain.order == self.codomain.order
            and len(set(self.image)) == self.domain.order
        )


def hom_defect(domain: FiniteGroup, codomain: FiniteGroup, image: Sequence[int]) -> str | None:
    """Why ``image`` is not a homomorphism domain -> codomain, or None if
    it is: the definitional sweep over the full multiplication table."""
    in_range = all(0 <= x < codomain.order for x in image)
    if len(image) != domain.order or not in_range or image[0] != 0:
        return "bad image table"
    for i, row in enumerate(domain.table):
        img_row = codomain.table[image[i]]
        for j, ij in enumerate(row):
            if image[ij] != img_row[image[j]]:
                return f"not a homomorphism at ({i},{j})"
    return None


def group_hom(domain: FiniteGroup, codomain: FiniteGroup, image: Sequence[int]) -> GroupHom:
    img = tuple(image)
    defect = hom_defect(domain, codomain, img)
    if defect is not None:
        raise InvalidInput(defect)
    return GroupHom(domain, codomain, img)


def compose_group_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """g after f (apply f first)."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise InvalidInput("hom composition domain mismatch")
    return GroupHom(f.domain, g.codomain, tuple(g.image[x] for x in f.image))


def generating_words(g: FiniteGroup) -> tuple[list[int], list[list[int]]]:
    """Greedy generating set plus, per element, a word in those generators.

    words[i] is a list of generator positions whose left-to-right product
    equals element i.
    """
    gens: list[int] = []
    words: list[list[int] | None] = [None] * g.order
    words[0] = []
    known = {0}
    while len(known) < g.order:
        gens.append(min(i for i in range(g.order) if i not in known))
        frontier = list(known)
        while frontier:
            nxt = []
            for e in frontier:
                for pos, s in enumerate(gens):
                    ne = g.table[e][s]
                    if ne not in known:
                        known.add(ne)
                        words[ne] = words[e] + [pos]  # type: ignore[operator]
                        nxt.append(ne)
            frontier = nxt
    return gens, [w for w in words if w is not None] if len(known) == g.order else []


def enumerate_group_homs(
    g: FiniteGroup, h: FiniteGroup, caps: EnumerationCaps = DEFAULT_CAPS
) -> list[GroupHom]:
    """All homomorphisms G -> H, sorted by image table.

    Backtracks over generator images, extends along stored generator
    words, then verifies the full multiplication table.
    """
    for grp in (g, h):
        if grp.order > caps.max_group_order:
            raise EnumerationCapExceeded(caps.max_group_order, grp.order, "group order")
    gens, words = generating_words(g)
    k = len(gens)
    candidates = h.order**k
    if candidates > caps.max_hom_candidates:
        raise EnumerationCapExceeded(caps.max_hom_candidates, candidates, "hom search")
    found: set[tuple[int, ...]] = set()
    for imgs in product(range(h.order), repeat=k):
        image = []
        for w in words:
            acc = 0
            for pos in w:
                acc = h.table[acc][imgs[pos]]
            image.append(acc)
        ok = True
        for i in range(g.order):
            row = g.table[i]
            hi = image[i]
            for j in range(g.order):
                if image[row[j]] != h.table[hi][image[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(tuple(image))
    return [GroupHom(g, h, img) for img in sorted(found)]
