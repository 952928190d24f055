"""Cayley-table groups: validation, constructors, subgroups, quotients,
and exhaustive homomorphism enumeration.  A group computes its greedy
generators and the subgroup chain they span once, on first use: Light's
test runs on the generators, and homs are drawn lazily in image-table order
along the chain, comparing Schreier relators only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .config import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded, InvalidInput, NotAGroup, NotNormal


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by element names and a full Cayley table.

    Index 0 is the identity.  table[i][j] is the index of g_i * g_j.
    group_from_table validates a table that comes from outside in full;
    cyclic_group, product_group, quotient_group and GL(dim, p) build
    theirs from the definition, with no re-validation.  _generators and
    _chain are computed once per instance, on first use, and are not fields:
    equality, the hash and asdict ignore them.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    inverses: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.names)

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

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """The greedy generators, each the least element not yet reached from
        0 by right products, so every element is a left-normed product of
        them.  Needing no associativity, they serve Light's test as well."""
        table, gens, reached, seen = self.table, [], [0], {0}
        while len(seen) < len(table):
            gens.append(min(set(range(len(table))) - seen))
            for e in reached:  # grows while it is read, up to <gens>
                for f in map(table[e].__getitem__, gens):
                    if f not in seen:
                        seen.add(f)
                        reached.append(f)
        return tuple(gens)

    @cached_property
    def _chain(self) -> tuple[list, list[int]]:
        """The levels of 1 < G_1 < ... < G_k = G, G_j = <g_1..g_j> for the
        greedy generators, and each element's position in the last block.

        Level j is (tree, relators) on the right cosets G_{j-1} x_c of G_j,
        spread breadth first from x_0 = 1: tree[c - 1] = (i, s) with
        x_c = x_i g_s, and a relator (i, s, c, pos) says x_i g_s = h x_c with h
        at position pos of block j - 1.  Block j is block j - 1 times x_0, x_1..
        """
        table, gens = self.table, self._generators
        block, levels = [0], []
        for j in range(len(gens)):
            where = {e: (0, pos) for pos, e in enumerate(block)}  # h x_c -> (c, pos of h)
            queue, tree, rels = [0], [], []
            for i, x in enumerate(queue):
                for s, gen in enumerate(gens[: j + 1]):
                    y = table[x][gen]
                    if y not in where:
                        where.update((table[b][y], (len(queue), pos)) for pos, b in enumerate(block))
                        tree.append((i, s))
                        queue.append(y)
                    elif i or where[y][0]:  # x_0 g_s = g_s x_0 for s < j holds always
                        rels.append((i, s, *where[y]))
            levels.append((tree, rels))
            block = [table[b][x] for x in queue for b in block]
        return levels, sorted(range(len(block)), key=block.__getitem__)


def group_from_table(names: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    names = tuple(names)
    n = len(names)
    if n == 0:
        raise InvalidInput("empty element list")
    if len(set(names)) != n:
        raise InvalidInput("element names not distinct")
    rows = tuple(tuple(r) for r in table)
    if len(rows) != n or set(map(len, rows)) != {n}:
        raise InvalidInput("table is not n x n")
    # range, identity, latin square, associativity: each sweep names the first offender it meets
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
    cols = list(zip(*rows))
    for i in range(n):
        if len(set(rows[i])) != n:
            raise NotAGroup("latin-square", ("row", i))
        if len(set(cols[i])) != n:
            raise NotAGroup("latin-square", ("col", i))
    # a right inverse, read off the row, is two-sided in a group
    g = _group(names, rows)
    # associativity by Light's test: the k with (ij)k = i(jk) for all i, j
    # are closed under products, so the greedy generators suffice.  Up to
    # order 256 the column-major table, as bytes, is relabelled by k ((ij)k) and
    # has its columns permuted by k (i(jk))
    columns = list(map(bytes, cols)) if n <= 256 else []
    for k in g._generators:
        col = cols[k]
        if not columns or b"".join(columns).translate(bytes(col).ljust(256)) != b"".join(itemgetter(*col)(columns)):
            for i, row in enumerate(rows):
                if [col[x] for x in row] != [row[x] for x in col]:
                    j = next(j for j in range(n) if col[row[j]] != row[col[j]])
                    raise NotAGroup("associativity", (i, j, k))
    return g


def _group(names: Sequence[str], rows: Sequence[Sequence[int]]) -> FiniteGroup:
    """The group of a table that is one by construction, not re-validated."""
    rows = tuple(map(tuple, rows))
    return FiniteGroup(tuple(names), rows, tuple(map(tuple.index, rows, repeat(0))))


def cyclic_group(n: int, gen: str = "g") -> FiniteGroup:
    if not isinstance(n, int):
        raise InvalidInput(f"order {n!r} is not an int")
    if n < 1:
        raise InvalidInput("order must be >= 1")
    names = ["1"] + [gen if k == 1 else f"{gen}^{k}" for k in range(1, n)]
    if len(set(names)) != n:
        raise InvalidInput("element names not distinct")
    return _group(names, [tuple(range(i, n)) + tuple(range(i)) for i in range(n)])


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def _joined_name(a: str, b: str) -> str:
    parts = [x for x in (a, b) if x != "1"]
    return "·".join(parts) if parts else "1"


def product_group(*factors: FiniteGroup) -> FiniteGroup:
    """G x H x ..., built by definition: (g_i, h_j) in G x H is named g_i·h_j, at index i |H| + j."""
    names, table = ["1"], [[0]]
    for h in factors:
        n = h.order
        names = [_joined_name(a, b) for a in names for b in h.names]
        table = [[ab * n + xy for ab in row for xy in hrow] for row in table for hrow in h.table]
    if len(set(names)) != len(names):
        raise InvalidInput("name clash in product; build the factors with distinct generator names")
    return _group(names, table)


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
    ms = tuple(members)
    # types first, so that only ints are sorted to name the least out of range
    if bad := [m for m in ms if not isinstance(m, int)] or sorted(m for m in ms if not 0 <= m < parent.order):
        raise InvalidInput(f"element index {bad[0]!r} out of range")
    ms = tuple(sorted(set(ms)))
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
    to its coset index.  N's members are checked to form a subgroup, as
    a Subgroup can be built without subgroup().
    """
    subgroup(g, n.members)
    w = normality_witness(g, n)
    if w is not None:
        raise NotNormal(*w)
    least = [min(map(row.__getitem__, n.members)) for row in g.table]  # of the coset aN
    reps = sorted(set(least))
    coset_index = {r: k for k, r in enumerate(reps)}
    sigma = tuple(map(coset_index.__getitem__, least))
    names = ["1"] + [f"[{g.names[r]}]" for r in reps[1:]]
    return _group(names, [[sigma[g.table[r1][r2]] for r2 in reps] for r1 in reps]), sigma


@dataclass(frozen=True)
class GroupHom:
    domain: FiniteGroup
    codomain: FiniteGroup
    image: tuple[int, ...]  # image[i] = index in codomain of the image of g_i

    def is_bijective(self) -> bool:
        return (
            self.domain.order == self.codomain.order
            and len(set(self.image)) == self.domain.order
        )


def hom_defect(domain: FiniteGroup, codomain: FiniteGroup, image: Sequence[int]) -> str | None:
    """Why ``image`` is not a homomorphism domain -> codomain, or None if
    it is: the definitional sweep over the full multiplication table."""
    in_range = all(isinstance(x, int) and 0 <= x < codomain.order for x in image)
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
    equals element i, read off the group's chain: x_c's word follows its
    coset tree, and b x_c's word is b's word followed by x_c's.
    """
    levels, order = g._chain
    words: list[list[int]] = [[]]
    for tree, _ in levels:
        xs: list[list[int]] = [[]]
        for i, s in tree:
            xs.append(xs[i] + [s])
        words = [b + x for x in xs for b in words]
    return list(g._generators), [words[pos] for pos in order]


def enumerate_group_homs(
    g: FiniteGroup, h: FiniteGroup, caps: EnumerationCaps = DEFAULT_CAPS
) -> list[GroupHom]:
    """All homomorphisms G -> H, sorted by image table (see _group_homs)."""
    return list(_group_homs(g, h, caps))


def _group_homs(g: FiniteGroup, h: FiniteGroup, caps: EnumerationCaps) -> Iterator[GroupHom]:
    """The homomorphisms G -> H, drawn lazily in image-table order.

    The search runs along the chain of FiniteGroup._chain (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  At level j,
    each hom phi on G_{j-1} is tried with each t in H as phi(g_j): the
    phi(x_c) spread along the tree, phi(b x_c) = phi(b) phi(x_c) fills each
    coset, and only the Schreier relators x_i g_s = h x_c are compared.  A
    prefix failing one is cut with all its extensions.  This is exact: for
    g = b x_i in G_j, g g_s = (b h) x_c, so phi(g g_s) = phi(b) phi(h)
    phi(x_c) and phi(g) phi(g_s) = phi(b) phi(x_i) phi(g_s) agree for all g
    and s <= j exactly when the relators hold, and that makes phi a hom on
    G_j, as every element of G_j is a product of g_1..g_j.

    Each level extends the previous one's stream prefix by prefix, so homs
    come out in lexicographic order of generator images.  That is image-table
    order: g_j is the least element outside G_{j-1}, so homs whose generator
    images first differ at g_j agree on every element before it and not on it.

    The caps are checked when this is called, before any hom is drawn;
    max_hom_candidates bounds |H|^k, the generator-image tuples.
    """
    for grp in (g, h):
        if grp.order > caps.max_group_order:
            raise EnumerationCapExceeded(caps.max_group_order, grp.order, "group order")
    levels, order = g._chain
    candidates = h.order ** len(levels)
    if candidates > caps.max_hom_candidates:
        raise EnumerationCapExceeded(caps.max_hom_candidates, candidates, "hom search")
    # right[s][x] = x * s in H
    right = [[row[s] for row in h.table] for s in range(h.order)]
    # images come in block order, which products of cyclic groups already keep
    to_element_order = tuple if order == list(range(len(order))) else itemgetter(*order)

    def extend(found, tree, rels, last):
        for gimgs, block in found:
            by = [right[x] for x in gimgs] + [None]
            checks = [(i, s, block[pos], c) for i, s, c, pos in rels]
            # translates[a] = the block right-multiplied by a, all at C speed
            translates = list(zip(*map(h.table.__getitem__, block)))
            for t in range(h.order):
                by[-1] = right[t]
                xs = [0]
                for i, s in tree:
                    xs.append(by[s][xs[i]])
                for i, s, hv, c in checks:
                    if by[s][xs[i]] != right[xs[c]][hv]:
                        break
                else:
                    images = tuple(chain.from_iterable(map(translates.__getitem__, xs)))
                    yield to_element_order(images) if last else (gimgs + (t,), images)

    found = iter([((), (0,))] if levels else [(0,)])  # (generator images, block images)
    for depth, (tree, rels) in enumerate(levels, 1):
        found = extend(found, tree, rels, depth == len(levels))
    return (GroupHom(g, h, img) for img in found)
