"""Solution sets, closure operators, quasi-identity checking, and the
equivalence deciders with re-checkable certificates.

The affine space of a representation and a context is the finite set of
generator assignments, guarded by caps.  Solution sets, closures and
quasi-identities are decided one y-point at a time by linear algebra over
GF(p), since module terms are linear in the x-variables.  In the bounded
witness scans an atom's masks depend only on its linear form over word
classes (words with equal values on both representations): they build
one satisfaction mask per form for all points at once, read each
representation's closure operator off its distinct point signatures,
skip a context outright when both have the same closed sets, and
re-check each hit through those deciders.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from itertools import combinations, product
from operator import attrgetter, getitem, itemgetter, mul
from typing import Callable, Iterator, Optional, Sequence

from .config import DEFAULT_BOUNDS, DEFAULT_CAPS, EnumerationCaps, SearchBounds
from .errors import FieldMismatch, InvalidInput, SearchSpaceCapExceeded
from .freemod import (
    Assignment,
    Atom,
    EquationSystem,
    FreeContext,
    GroupAtom,
    GroupWord,
    ModuleAtom,
    ModuleElement,
    QuasiIdentity,
    RingElement,
    atom_key,
    equation_system,
    identity_word,
    module_from_terms,
    reduce_word,
    word_value,
)
from .groups import FiniteGroup, _group_homs, hom_defect
from .linalg import (kernel_rref, kernel_rref_gf2, pack_gf2, span_elements, unpack_gf2,
                     vec_mat, zero_vec)
from .reps import (
    Representation,
    _drawn,
    check_rep_hom,
    faithful_image,
    kernel_of_matrix_family,
)

# ---------------------------------------------------------------------------
# Assignment space.  A point is x-vectors for the x-variables and group
# elements for the y-variables; enumeration order is x-major (the x-vectors
# lexicographically, concatenated into one flat vector of length nx*dim),
# then y.  Module terms are linear in x: at a fixed y-point each module
# element u is a (nx*dim) x dim matrix M_u(y) with u(x) = x . M_u(y).


def _check_inputs(
    rep: Representation, ctx: FreeContext, atoms: Sequence[Atom], caps: EnumerationCaps
) -> None:
    for a in atoms:
        if isinstance(a, ModuleAtom) and a.element.field != rep.field:
            raise FieldMismatch("formula and representation over different fields")
    space = (rep.p**rep.dim) ** len(ctx.xvars) * rep.group.order ** len(ctx.yvars)
    if space > caps.max_search_space:
        raise SearchSpaceCapExceeded(caps.max_search_space, space)


def enumerate_assignments(
    rep: Representation, ctx: FreeContext, caps: EnumerationCaps = DEFAULT_CAPS
) -> list[Assignment]:
    """All points of the affine space, in enumeration order: the solutions
    of the empty system."""
    return list(solution_set(rep, equation_system(ctx), caps).solutions)


def _assignment(rep: Representation, x: Sequence[int], y: tuple[int, ...]) -> Assignment:
    d = rep.dim
    return Assignment(rep, tuple(tuple(x[i : i + d]) for i in range(0, len(x), d)), y)


def _terms_at(
    rep: Representation, y: tuple[int, ...], u: ModuleElement
) -> tuple[tuple[int, int, int], ...]:
    """u at the y-point y as (x index, coeff, group element) triples, one
    per term; M_u(y) depends on nothing else."""
    return tuple([(i, c, word_value(rep.group, y, w)) for i, r in u.parts for w, c in r.terms])


# Entries in each memo of one decider call: its memory does not grow with
# the space, and y-points with equal triples or equal systems share work.
_MEMO_SIZE = 4096


def _columns(
    rep: Representation, n: int, triples: tuple[tuple[int, int, int], ...]
) -> tuple[tuple[int, ...], ...]:
    """The columns of M_u(y), each of length n = nx*dim, from u's triples
    at y.  u vanishes at (x, y) exactly when x is orthogonal to every
    column."""
    p, dim = rep.p, rep.dim
    cols = [[0] * n for _ in range(dim)]
    for i, c, g in triples:
        for k, row in enumerate(rep.act[g]):
            for j, a in enumerate(row):
                cols[j][i * dim + k] += c * a
    return tuple(tuple([a % p for a in col]) for col in cols)


def _packed_columns(rep: Representation, n: int, packed: dict, triples: tuple) -> tuple[int, ...]:
    """_columns over GF(2), packed: each odd term XORs act[g]'s columns,
    packed into packed[g] on first use, shifted to its x-variable's block."""
    dim, cols = rep.dim, [0] * rep.dim
    for i, c, g in triples:
        if c & 1:
            if g not in packed:
                packed[g] = tuple(map(pack_gf2, zip(*rep.act[g])))
            shift, block = n - (i + 1) * dim, packed[g]
            for j in range(dim):
                cols[j] ^= block[j] << shift
    return tuple(cols)


def _linear(rep: Representation, n: int) -> tuple[Callable, ...]:
    """One decider call's kit, shared by its premises and conclusion: the
    memoised maps from u's triples at y to M_u(y)'s columns and from a
    system to its kernel basis, the test whether b . col != 0 for some col,
    and b as a flat tuple.  Over GF(2) vectors are packed (linalg.pack_gf2),
    each act[g]'s columns on first use in the call; other primes use tuples
    and kernel_rref."""
    memo, p = lru_cache(_MEMO_SIZE), rep.p
    if p == 2:
        return (memo(partial(_packed_columns, rep, n, {})), memo(lambda rows: kernel_rref_gf2(rows, n)),
                lambda b, cols: any((b & col).bit_count() & 1 for col in cols), partial(unpack_gf2, n=n))
    return (memo(partial(_columns, rep, n)), memo(lambda rows: kernel_rref(p, rows, n)),
            lambda b, cols: any(sum(map(mul, b, col)) % p for col in cols), tuple)


def _solution_spaces(
    rep: Representation, ctx: FreeContext, premises: Sequence[Atom], kit: tuple[Callable, ...]
) -> Iterator[tuple[tuple[int, ...], Callable[[], list]]]:
    """(y, space) for each y-point, in order, at which the group premises
    hold: space() is S_y, the subspace of flat x-vectors solving the module
    premises, as its unique basis in reduced row echelon form in the kit's
    encoding (_linear), eliminated on that call once per distinct system."""
    words = [a.word for a in premises if isinstance(a, GroupAtom)]
    elems = [a.element for a in premises if isinstance(a, ModuleAtom)]
    columns, kernel = kit[:2]
    def space(y: tuple[int, ...]) -> list:
        return kernel(tuple(col for u in elems for col in columns(_terms_at(rep, y, u))))
    for y in product(range(rep.group.order), repeat=len(ctx.yvars)):
        if not any(word_value(rep.group, y, w) for w in words):
            yield y, partial(space, y)


def _least_violation(
    rep: Representation,
    ctx: FreeContext,
    premises: Sequence[Atom],
    conclusion: Atom,
    caps: EnumerationCaps,
) -> Optional[Assignment]:
    """The enumeration-order-least assignment that satisfies every premise
    and violates the conclusion, or None.

    S_y is eliminated only where the conclusion can fail: x = 0 solves the
    homogeneous module premises, so a group conclusion fails first there,
    and a module one holds at every x where M_c(y) = 0.  In an RREF basis
    of S_y the pivots increase, so its last vector b with b . M_c(y) != 0 is
    the least point outside ker M_c(y); no nonzero x precedes (0, ..., 0, 1).
    """
    _check_inputs(rep, ctx, (*premises, conclusion), caps)
    n = len(ctx.xvars) * rep.dim
    kit = columns, _, hits, flat = _linear(rep, n)
    spaces = _solution_spaces(rep, ctx, premises, kit)
    if isinstance(conclusion, GroupAtom):  # nothing precedes x = 0 at the first y where it fails
        y = next((y for y, _ in spaces if word_value(rep.group, y, conclusion.word)), None)
        return None if y is None else _assignment(rep, (0,) * n, y)
    nil, least, best = columns(()), (0,) * (n - 1) + (1,), None
    for y, space in spaces:
        cols = columns(_terms_at(rep, y, conclusion.element))
        if cols != nil:
            b = next((b for b in reversed(space()) if hits(b, cols)), None)
            if b is not None and (best is None or b < best[0]):
                best = b, y
                if flat(b) == least:
                    break
    return None if best is None else _assignment(rep, flat(best[0]), best[1])


def _system_atoms(sys: EquationSystem) -> list[Atom]:
    return [ModuleAtom(u) for u in sys.module_part] + [GroupAtom(w) for w in sys.group_part]


@dataclass(frozen=True)
class SolutionSet:
    system: EquationSystem
    rep: Representation
    solutions: tuple[Assignment, ...]


def solution_set(
    rep: Representation, sys: EquationSystem, caps: EnumerationCaps = DEFAULT_CAPS
) -> SolutionSet:
    """Every solution of the system, in enumeration order."""
    premises = _system_atoms(sys)
    _check_inputs(rep, sys.context, premises, caps)
    n = len(sys.context.xvars) * rep.dim
    kit = _linear(rep, n)
    points = sorted(
        (x, y)
        for y, space in _solution_spaces(rep, sys.context, premises, kit)
        for x in span_elements(rep.p, list(map(kit[3], space())), n)
    )
    return SolutionSet(sys, rep, tuple(_assignment(rep, x, y) for x, y in points))


def in_closure(
    rep: Representation,
    sys: EquationSystem,
    a: Atom,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> bool:
    """Membership in the closure: the atom holds on every solution.

    An inconsistent system has an empty solution set, and the
    intersection over an empty family is everything: returns True.
    """
    if a.context != sys.context:
        raise InvalidInput("atom context differs from system context")
    return _least_violation(rep, sys.context, _system_atoms(sys), a, caps) is None


def in_at_closure(
    rep: Representation,
    t: EquationSystem | Sequence[ModuleElement],
    u: ModuleElement,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> bool:
    """Action-type closure membership: u vanishes on every solution of T."""
    if isinstance(t, EquationSystem):
        if not t.is_action_type():
            raise InvalidInput("action-type closure needs a system with no group part")
        sys = t
    else:
        sys = equation_system(u.context, t)
    return in_closure(rep, sys, ModuleAtom(u), caps)


def fulfills_qid(
    rep: Representation, q: QuasiIdentity, caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple[bool, Optional[Assignment]]:
    """Whether every assignment satisfying the premises satisfies the
    conclusion; on failure, the enumeration-order-least violating
    assignment is returned."""
    asg = _least_violation(rep, q.context, q.premises, q.conclusion, caps)
    return asg is None, asg


# ---------------------------------------------------------------------------
# Bounded enumeration of words, module elements, atoms


def scan_context(nx: int, ny: int) -> FreeContext:
    xs = ("x",) if nx == 1 else tuple(f"x{i+1}" for i in range(nx))
    ys = ("y",) if ny == 1 else tuple(f"y{i+1}" for i in range(ny))
    return FreeContext(xs, ys)


def bounded_words(ctx: FreeContext, max_len: int) -> list[GroupWord]:
    """All reduced words of length <= max_len, in shortlex order: each
    length extends the previous length's words, in order, by every letter
    that does not cancel their last letter."""
    alphabet = [(v, e) for v in range(len(ctx.yvars)) for e in (1, -1)]
    levels = [[()]]
    for _ in range(max_len):
        levels.append([w + ((v, e),) for w in levels[-1] for v, e in alphabet if w[-1:] != ((v, -e),)])
    return [reduce_word(ctx, w) for level in levels for w in level]


def _ascending(groups: Sequence[Sequence[tuple[int, object]]], n: int) -> list[list[tuple]]:
    """Entry k, for k <= n, lists every concatenation of item tuples of
    total weight k (weights are positive) that takes at most one (weight,
    item) pair from each group, in group order, lexicographically: a pick
    compares by its group's place, then by its pair's place in the group."""
    out: list[list[tuple]] = [[()]] + [[] for _ in range(n)]
    for group in reversed(groups):
        out = [
            [item + rest for m, item in group if m <= k for rest in out[k - m]] + out[k]
            for k in range(n + 1)
        ]
    return out


def bounded_module_elements(
    ctx: FreeContext, field, bounds: SearchBounds
) -> list[ModuleElement]:
    """Nonzero module elements with at most bounds.max_terms terms total and
    words bounded by bounds.max_word_len, generated in module_key order: by
    term count, then part by part by x index, the part's term count and its
    (word, coeff) terms, words compared by their place in bounded_words."""
    n = bounds.max_terms
    words = bounded_words(ctx, bounds.max_word_len)
    terms = _ascending([[(1, ((w, c),)) for c in range(1, field.p)] for w in words], n)
    rings = [(m, RingElement(ctx, field, t)) for m in range(1, n + 1) for t in terms[m]]
    parts = _ascending([[(m, ((x, ring),)) for m, ring in rings] for x in range(len(ctx.xvars))], n)
    return [ModuleElement(ctx, field, ps) for k in range(1, n + 1) for ps in parts[k]]


def bounded_atoms(ctx: FreeContext, field, bounds: SearchBounds) -> list[Atom]:
    # in atom_key order as generated: group atoms in shortlex order, then
    # module atoms in module_key order
    atoms: list[Atom] = [GroupAtom(w) for w in bounded_words(ctx, bounds.max_word_len)]
    atoms.extend(ModuleAtom(u) for u in bounded_module_elements(ctx, field, bounds))
    return atoms


# ---------------------------------------------------------------------------
# The bounded scan shared by both witness deciders.  An atom's mask on a
# representation is one bit per point of its assignment space, built once
# per context for all points at once and laid out y-major: block j holds
# |V|^nx bits, one per flat x-vector in x-major order, for the j-th
# y-point.  Words of one class take equal values at every y-point of both
# sides, so on both sides u = sum_t c_t * x_(i_t) * w_t takes the value
# sum_(i,k) s_ik * x_i * act(w_k(y)), s_ik being the sum mod p of u's
# coefficients on words of class k at x index i.  An atom's masks depend
# only on its linear form over word classes: the nonzero s_ik scaled to
# lead with 1 (u and c*u vanish together), or its word's class for a group
# atom.  They are built once per form.
# Atoms whose masks are equal on both sides share a column, and a point's
# signature is the set of columns that hold there.  The scan reads
# only each side's distinct signatures (the reduced context of formal
# concept analysis), so any layout gives the same asymmetries: cl_r(P), the
# columns true at every point of r satisfying the premises P, is the AND of
# the r-signatures containing P.  Callers re-check every hit through the
# deciders above.


def _add_levels(acc: Sequence[int], t: Sequence[int], want: Sequence[int]) -> list[int]:
    """The level sets of v + v' (mod p) at the residues in want, from the
    level sets acc of v and t of v' (t[b] is the mask where v' = b); a
    negative index wraps mod p."""
    return [sum([acc[r - b] & t[b] for b in range(len(t))]) for r in want]


def _word_values(
    rep: Representation, points: Sequence[tuple[int, ...]], letters: tuple, memo: dict
) -> list[int]:
    """The element the word with these letters takes at each y-point: its
    one-letter-shorter prefix's values times y_v^(+-1), memoised."""
    if ("vals", letters) not in memo:
        vals = [0] * len(points)
        if letters:
            v, e = letters[-1]
            step = 1 if e > 0 else -1
            prefix = _word_values(rep, points, letters[:-1] + ((v, e - step),) * (e != step), memo)
            ys = map(itemgetter(v), points)
            ys = ys if e > 0 else map(rep.group.inverses.__getitem__, ys)
            vals = list(map(getitem, map(rep.group.table.__getitem__, prefix), ys))
        memo["vals", letters] = vals
    return memo["vals", letters]


def _term_levels(
    rep: Representation, points: Sequence[tuple[int, ...]], n: int, i: int, letters: tuple, memo: dict
) -> list:
    """The level sets of c * x_i * w, indexed by c, for the word w with
    these letters: built once per (i, w's values), which words with equal
    values share, and memoised under (i, letters) (see _spelled_mask)."""
    p, dim = rep.p, rep.dim
    key = "levels", i, tuple(_word_values(rep, points, letters, memo))
    if key not in memo:
        ones, size = (1 << p**n) - 1, p**n * len(points)
        levels, inds = [0] * p, {}  # g -> the mask with bit j * p^n set where w takes g at y-point j
        for j, g in enumerate(key[2]):
            inds[g] = inds.get(g, 0) | 1 << j * p**n
        for g, ind in inds.items():
            for d in range(dim):
                col = tuple(row[d] for row in rep.act[g])
                if ("block", i, col) not in memo:  # the level sets of x_i . col on a block
                    acc = [ones] + [0] * (p - 1)
                    for k, a in enumerate(col):
                        if a:  # add a times x's digit i * dim + k
                            run = p ** (n - 1 - i * dim - k)
                            repunit, inv = ones // ((1 << p * run) - 1), pow(a, -1, p)
                            digit = [((1 << run) - 1 << r * inv % p * run) * repunit for r in range(p)]
                            acc = _add_levels(acc, digit, range(p))
                    memo["block", i, col] = acc
                for r, b in enumerate(memo["block", i, col]):
                    levels[r] += b * ind << d * size
        memo[key] = [[levels[r * pow(c, -1, p) % p] for r in range(p)] if c else None
                     for c in range(p)]
    memo[i, letters] = memo[key]
    return memo[key]


def _spelled_mask(
    rep: Representation, points: Sequence[tuple[int, ...]], n: int, spelling, memo: dict
) -> int:
    """The y-major mask of the assignments at the given y-points where an
    atom holds, spelled as its word's letters (a group atom) or a list of
    (x index, word letters, coefficient) terms, n being the flat x-length:
    built for all points at once from level sets, the masks where a linear
    form takes each residue mod p.

    A group atom holds on the whole block of each y-point at which its
    word is the identity.  A module atom u = sum_t c_t * x_(i_t) * w_t
    holds where every coordinate d of sum_t c_t * x_(i_t) . act[w_t(y)] is
    0.  Flat coordinate m of x has weight p^(n-1-m) in the x-major index,
    so its level set at v is a run of p^(n-1-m) ones repeating with period
    p^(n-m): the run times a repunit.  Summing x_i's digits gives the block
    level sets of x_i . col.  A term's level set at r and coordinate d is
    the sum over g of the block level set for col_d(act[g]) times w_t's
    indicator of g; a block level set is below 2^block and the indicators
    are disjoint, so the products and the sum carry nothing.  The dim
    coordinates sit side by side in one int, a mask length apart.
    _add_levels sums the terms, and the mask is the AND of the coordinates
    of u's level set at 0.  Each step is an exact identity of point sets,
    so the bits equal those of a point-by-point evaluation.

    memo serves one representation in one scan context, with the same
    y-points on every call; its keys hold word letters, which hash faster
    than words."""
    if not isinstance(spelling, list):
        vals, block = _word_values(rep, points, spelling, memo), rep.p**n
        return ((1 << block) - 1) * sum([1 << j * block for j, g in enumerate(vals) if not g])
    size = rep.p**n * len(points)
    mask = (1 << size) - 1
    terms = [(memo.get((i, w)) or _term_levels(rep, points, n, i, w, memo))[c] for i, w, c in spelling]
    if terms:
        acc = terms[0]
        for t in terms[1:-1]:
            acc = _add_levels(acc, t, range(rep.p))
        zero = _add_levels(acc, terms[-1], (0,))[0] if len(terms) > 1 else acc[0]
        for d in range(rep.dim):
            mask &= zero >> d * size
    return mask


def _atom_sat_mask(
    rep: Representation, points: Sequence[tuple[int, ...]], a: Atom, memo: dict
) -> int:
    """The y-major mask of the assignments at the given y-points where a
    holds (see _spelled_mask)."""
    spelling = a.word.letters if isinstance(a, GroupAtom) else [
        (i, w.letters, c) for i, ring in a.element.parts for w, c in ring.terms]
    return _spelled_mask(rep, points, len(a.context.xvars) * rep.dim, spelling, memo)


def _signatures(masks: Sequence[int], full: int) -> list[int]:
    """The distinct point signatures as column bitsets: bit c of a point's
    signature is set when masks[c] holds there.  Splitting the points in
    full on each mask in turn leaves one class per signature."""
    classes = [(full, 0)]  # (points, signature so far)
    for c, m in enumerate(masks):
        split = []
        for pts, sig in classes:
            inside = pts & m
            if inside:
                split.append((inside, sig | 1 << c))
            if inside != pts:
                split.append((pts ^ inside, sig))
        classes = split
    return [sig for _, sig in classes]


def _closure(sigs: Sequence[int], prem: int, top: int) -> int:
    """The columns true at every point that satisfies prem: the AND of the
    signatures containing prem, or top when none does."""
    for sig in sigs:
        if sig & prem == prem:
            top &= sig
    return top


def _same_closed_sets(sigs_r: Sequence[int], sigs_s: Sequence[int], top: int) -> bool:
    """Whether r and s have the same closed sets over the columns top.  The
    cl_r-closed sets are the intersections of r's signatures (the empty one
    being top), and they determine cl_r.  If every signature of r is
    s-closed, so is every r-closed set; with the converse the families and
    the closure operators are equal.  If the families are equal, every
    signature of r, being r-closed, is s-closed: the answer is exact."""
    return all(_closure(sigs_s, sig, top) == sig for sig in sigs_r) and all(
        _closure(sigs_r, sig, top) == sig for sig in sigs_s
    )


def _atom_pool(ctx: FreeContext, field, bounds: SearchBounds, qid: bool) -> list[Atom]:
    """find_separating_qid's pool (qid: the bounded atoms and the paper's
    witness atoms, in atom_key order) or find_at_witness's (module atoms)."""
    if not qid:
        return [ModuleAtom(u) for u in bounded_module_elements(ctx, field, bounds)]
    atoms, wq = bounded_atoms(ctx, field, bounds), paper_witness_qid(ctx, field)
    for a in (*wq.premises, wq.conclusion):
        i = bisect_left(atoms, atom_key(a), key=atom_key)
        if atoms[i : i + 1] != [a]:
            atoms.insert(i, a)
    return atoms


def _scan_asymmetries(
    r: Representation,
    s: Representation,
    bounds: SearchBounds,
    caps: EnumerationCaps,
    qid: bool,
) -> Iterator[tuple[FreeContext, tuple[Atom, ...], Atom, bool, bool]]:
    """Every (context, premises, conclusion, implied on r, implied on s)
    where the two implications differ, in scan order: contexts by x- then
    y-count, premise sets () then combinations of the pool
    (_atom_pool(ctx, field, bounds, qid)) by size up to max_premises for a
    qid or max_system otherwise, and conclusions in pool order.

    On r, P => c holds exactly when c's column is in cl_r(P), so P's
    asymmetries are the atoms whose column is in cl_r(P) ^ cl_s(P).  A
    context in which r and s have the same closed sets is skipped, since no
    premise set of any size separates them.  That is decided on the class
    pool of linear forms: every form with at most max_terms nonzero entries
    that leads with 1; the zero form, when two bounded words share a class
    and max_terms >= 2; and for a qid every class and the paper atoms'
    forms.  Each pool atom has one of these forms and each form has a pool
    atom, so the class pool has exactly the atom pool's columns.  Only a
    context that is not skipped builds its atom pool, and each atom takes
    its form's column."""
    if r.field != s.field:
        raise FieldMismatch("representations over different fields")
    p, field = r.p, r.field
    max_premises = bounds.max_premises if qid else bounds.max_system

    for nx in range(1, bounds.max_xvars + 1):
        for ny in range(1, bounds.max_yvars + 1):
            ctx = scan_context(nx, ny)
            for rep in (r, s):
                _check_inputs(rep, ctx, (), caps)
            sides = [(rep, list(product(range(rep.group.order), repeat=ny)), nx * rep.dim, {})
                     for rep in (r, s)]  # rep, y-points, flat x-length, memo
            classes: dict = {}  # (values on r, values on s) -> (word class, its first letters)
            @cache
            def word_class(letters: tuple) -> int:
                vals = tuple(tuple(_word_values(rep, pts, letters, memo)) for rep, pts, _, memo in sides)
                return classes.setdefault(vals, (len(classes), letters))[0]

            def form(a: Atom):  # a group atom's word class, a module atom's linear form
                if isinstance(a, GroupAtom):
                    return word_class(a.word.letters)
                sums: dict = {}  # (x index, word class) -> coefficient sum
                for i, ring in a.element.parts:
                    for w, c in ring.terms:
                        slot = i, word_class(w.letters)
                        sums[slot] = (sums.get(slot, 0) + c) % p
                terms = sorted((slot, c) for slot, c in sums.items() if c)
                inv = pow(terms[0][1], -1, p) if terms else 0
                return tuple([(i, k, c * inv % p) for (i, k), c in terms])

            words = bounded_words(ctx, bounds.max_word_len)
            nk = len({word_class(w.letters) for w in words})  # the words' classes are 0..nk-1
            slots = [(i, k) for i in range(nx) for k in range(nk)]
            keys: list = [tuple([(i, k, c) for (i, k), c in zip(chosen, (1, *cs))])
                          for m in range(1, bounds.max_terms + 1) for chosen in combinations(slots, m)
                          for cs in product(range(1, p), repeat=m - 1)]
            if bounds.max_terms > 1 and nk < len(words):  # c*x_i*w - c*x_i*w' for w ~ w'
                keys.append(())
            if qid:
                wq = paper_witness_qid(ctx, field)
                keys += [*range(nk), *map(form, (*wq.premises, wq.conclusion))]
            firsts = [letters for _, letters in classes.values()]
            col_of: dict = {}  # form -> column
            cols: dict[tuple[int, int], int] = {}  # (mask on r, mask on s) -> column
            for key in keys:
                if key not in col_of:
                    spelling = (firsts[key] if isinstance(key, int)
                                else [(i, firsts[k], c) for i, k, c in key])
                    pair = tuple(_spelled_mask(rep, pts, n, spelling, memo)
                                 for rep, pts, n, memo in sides)
                    col_of[key] = cols.setdefault(pair, len(cols))
            sigs_r, sigs_s = (_signatures([pair[j] for pair in cols], (1 << rep.p**n * len(pts)) - 1)
                              for j, (rep, pts, n, _) in enumerate(sides))
            top = (1 << len(cols)) - 1
            if _same_closed_sets(sigs_r, sigs_s, top):
                continue
            atoms = _atom_pool(ctx, field, bounds, qid)
            bits = [1 << col_of[form(a)] for a in atoms]  # per atom, its column's bit
            for k in range(max_premises + 1):
                for prems in combinations(range(len(atoms)), k):
                    prem = sum({bits[i] for i in prems})  # the OR of distinct powers of 2
                    cl_r, cl_s = _closure(sigs_r, prem, top), _closure(sigs_s, prem, top)
                    if diff := cl_r ^ cl_s:
                        premises = tuple(atoms[i] for i in prems)
                        for c, b in enumerate(bits):
                            if diff & b:
                                yield ctx, premises, atoms[c], bool(cl_r & b), bool(cl_s & b)


# ---------------------------------------------------------------------------
# Separation certificates (the finite form of embeddings into powers)


@dataclass(frozen=True)
class SeparationCertificate:
    """A hom family that is jointly injective on every sort of the source.

    For groups: every distinct pair of elements gets distinct images
    under some listed hom.  For representations additionally the joint
    matrix kernel is trivial.
    """

    source: object
    target: object
    homs: tuple
    notes: tuple[str, ...]


@dataclass(frozen=True)
class InseparabilityWitness:
    direction: str  # "forward" (source into a target power fails) or "backward"
    sort: str  # "group" or "vector"
    pair: tuple
    separating_qid: Optional[QuasiIdentity] = None


def _split_kernel(g: FiniteGroup, kernel: list[int], image: Sequence[int], label: str):
    """Cut the joint kernel K of the chosen homs (its non-identity elements,
    ascending) by one more hom.  The pairs i < j still joined are those with
    i^-1 j in K; it separates those with j = i k, k in K off its kernel."""
    moved = [k for k in kernel if image[k]]
    if not moved:  # O(|K|) for a hom that separates nothing new
        return kernel, []
    pairs = sorted((i, row[k]) for i, row in enumerate(g.table) for k in moved if i < row[k])
    notes = [f"{label} ({g.names[i]}, {g.names[j]})" for i, j in pairs]
    return [k for k in kernel if not image[k]], notes


def separates_points(
    source, target, caps: EnumerationCaps = DEFAULT_CAPS
) -> SeparationCertificate | InseparabilityWitness:
    """Choose homs from the in-order stream while they cut the joint kernel
    on the group elements or, for representations, on the vectors; groups
    have no vector kernel.  Returns the certificate, or a "forward" witness:
    a pair that no hom separates.

    For representations, each group hom beta gives the zero matrix and then
    its RREF intertwiner basis b_0..b_{k-1}, last first: what its whole span
    gives, as only a cut of the vector kernel chooses a second matrix, and
    once span_elements passes b_i, no combination of b_i..b_{k-1} cuts it."""
    if isinstance(source, FiniteGroup) and isinstance(target, FiniteGroup):
        g, image, pair, basis = source, attrgetter("image"), "", []
        homs = _group_homs(source, target, caps)
    elif isinstance(source, Representation) and isinstance(target, Representation):
        if source.field != target.field:
            raise FieldMismatch("representations over different fields")
        g, image, pair = source.group, attrgetter("grouphom.image"), " group pair"
        basis = kernel_of_matrix_family(source.p, [], source.dim)  # of the joint vector kernel
        zero, betas = zero_vec(source.dim * target.dim), _group_homs(source.group, target.group, caps)
        homs = _drawn(source, target, betas, lambda b: [zero, *b[::-1]])
    else:
        raise InvalidInput("source and target must both be groups or both representations")
    kernel = list(range(1, g.order))
    chosen: list = []
    notes: list[str] = []
    for h in homs:
        kernel, new = _split_kernel(g, kernel, image(h), f"hom {len(chosen)} separates{pair}")
        if basis and any(any(vec_mat(source.p, v, h.matrix)) for v in basis):
            mats = [c.matrix for c in chosen] + [h.matrix]
            basis = kernel_of_matrix_family(source.p, mats, source.dim)
            new.append(f"hom {len(chosen)} cuts joint kernel to dim {len(basis)}")
        if new:
            chosen.append(h)
            notes += new
        if not kernel and not basis:
            break
    if kernel:
        return InseparabilityWitness("forward", "group", (g.names[0], g.names[kernel[0]]))
    if basis:
        return InseparabilityWitness("forward", "vector", (basis[0], zero_vec(source.dim)))
    return SeparationCertificate(source, target, tuple(chosen), tuple(notes))


def validate_separation_certificate(cert: SeparationCertificate) -> bool:
    """Re-check a certificate independently of the greedy construction:
    every hom by direct sweep, injectivity pair by pair and, for
    representations, a zero joint vector kernel by one elimination."""
    src = cert.source
    if isinstance(src, FiniteGroup):
        g, images = src, [h.image for h in cert.homs]
        if any(hom_defect(src, cert.target, h.image) is not None for h in cert.homs):
            return False
    else:
        g, images = src.group, [h.grouphom.image for h in cert.homs]
        if not all(check_rep_hom(h) for h in cert.homs):
            return False
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if not any(image[i] != image[j] for image in images):
                return False
    return isinstance(src, FiniteGroup) or not kernel_of_matrix_family(
        src.p, [h.matrix for h in cert.homs], src.dim
    )


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Equivalent:
    certificate: object


@dataclass(frozen=True)
class NotEquivalent:
    witness: object


@dataclass(frozen=True)
class Unknown:
    bounds: SearchBounds


Verdict = Equivalent | NotEquivalent | Unknown


@dataclass(frozen=True)
class GeoCertificate:
    forward: SeparationCertificate  # A embeds into a power of B
    backward: SeparationCertificate  # B embeds into a power of A


def geo_equivalent(
    a,
    b,
    caps: EnumerationCaps = DEFAULT_CAPS,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    search_qid: bool = True,
) -> Verdict:
    """Geometric equivalence via mutual embeddings into Cartesian powers,
    decided as point separation by the full hom family (exact for finite
    structures)."""
    witness = separates_points(a, b, caps)
    if isinstance(witness, SeparationCertificate):  # only then can the backward run decide
        fwd, witness = witness, separates_points(b, a, caps)
        if isinstance(witness, SeparationCertificate):
            return Equivalent(GeoCertificate(fwd, witness))
        witness = replace(witness, direction="backward")
    if search_qid and isinstance(a, Representation) and isinstance(b, Representation):
        witness = replace(witness, separating_qid=find_separating_qid(a, b, bounds, caps))
    return NotEquivalent(witness)


@dataclass(frozen=True)
class AtChainCertificate:
    """Equivalence chain: R ~at its faithful image, the faithful images
    are geometrically (hence action-type) equivalent, and symmetrically."""

    faithful_first: object  # FaithfulImage
    faithful_second: object
    quotient_geo: Equivalent


@dataclass(frozen=True)
class AtWitness:
    """An action-type system and candidate whose closure membership
    differs between the two representations."""

    system: EquationSystem
    candidate: ModuleElement
    in_first: bool
    in_second: bool


def validate_at_witness(
    r: Representation, s: Representation, w: AtWitness, caps: EnumerationCaps = DEFAULT_CAPS
) -> bool:
    return (
        in_at_closure(r, w.system, w.candidate, caps) == w.in_first
        and in_at_closure(s, w.system, w.candidate, caps) == w.in_second
        and w.in_first != w.in_second
    )


def find_at_witness(
    r: Representation,
    s: Representation,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> Optional[AtWitness]:
    """Deterministic bounded scan over action-type systems and candidates;
    first asymmetry wins and is re-checked before return."""

    for ctx, t, u, in_r, in_s in _scan_asymmetries(r, s, bounds, caps, qid=False):
        w = AtWitness(equation_system(ctx, [a.element for a in t]), u.element, in_r, in_s)
        if validate_at_witness(r, s, w, caps):
            return w
    return None


def at_equivalent(
    r: Representation,
    s: Representation,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> Verdict:
    """Action-type equivalence, as a semi-decision.

    Equivalent only via the faithful-image chain; NotEquivalent only via
    a concrete bounded witness; otherwise Unknown.
    """
    fi_r = faithful_image(r)
    fi_s = faithful_image(s)
    g = geo_equivalent(fi_r.quotient, fi_s.quotient, caps, bounds, search_qid=False)
    if isinstance(g, Equivalent):
        return Equivalent(AtChainCertificate(fi_r, fi_s, g))
    w = find_at_witness(r, s, bounds, caps)
    if w is not None:
        return NotEquivalent(w)
    return Unknown(bounds)


@cache
def paper_witness_qid(ctx: FreeContext, field) -> QuasiIdentity:
    """The one-variable implication (x.y - x = 0) => (y = 1)."""
    y = reduce_word(ctx, [(0, 1)])
    one = identity_word(ctx)
    u = module_from_terms(ctx, field, [(0, y, 1), (0, one, -1)])
    return QuasiIdentity((ModuleAtom(u),), GroupAtom(y))


def find_separating_qid(
    r: Representation,
    s: Representation,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> Optional[QuasiIdentity]:
    """First bounded quasi-identity on which the two representations
    disagree, scanning premises and conclusions over the bounded atom
    space.  The audit's witness implication is always in the scan."""

    for _, prems, concl, _, _ in _scan_asymmetries(r, s, bounds, caps, qid=True):
        q = QuasiIdentity(prems, concl)
        # re-verify through the direct evaluator
        if fulfills_qid(r, q, caps)[0] != fulfills_qid(s, q, caps)[0]:
            return q
    return None
