"""Canonical arithmetic in the free two-sorted model and its evaluation.

The two sorts are: reduced words of the free group on the y-variables,
and elements of the free module over the group ring, spanned by the
x-variables.  Everything is stored in canonical form so equality is
structural.  Each sort has one canonical builder, and every operation
and the formula parser go through it once, over a flat list of terms:
``reduce_word`` for words, ``ring_from_terms`` for ring elements and
``module_from_terms`` for module elements.  The one exception is the
bounded scan pools (``geometry.bounded_module_elements``), which build
their canonical tuples directly, already in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContextMismatch, FieldMismatch, InvalidInput
from .groups import FiniteGroup
from .linalg import PrimeField, Vector, vec_add, vec_scale, zero_vec
from .reps import Representation


@dataclass(frozen=True)
class FreeContext:
    xvars: tuple[str, ...]
    yvars: tuple[str, ...]

    def __post_init__(self):
        names = self.xvars + self.yvars
        if len(set(names)) != len(names):
            raise InvalidInput("variable names not distinct")
        # each name's index, and the hash that every word's hash takes, once
        object.__setattr__(self, "_xindex", {v: i for i, v in enumerate(self.xvars)})
        object.__setattr__(self, "_yindex", {v: i for i, v in enumerate(self.yvars)})
        object.__setattr__(self, "_hash", hash((self.xvars, self.yvars)))

    def __hash__(self) -> int:
        return self._hash

    def xindex(self, name: str) -> int:
        try:
            return self._xindex[name]
        except KeyError:
            raise InvalidInput(f"no x-variable {name!r}") from None

    def yindex(self, name: str) -> int:
        try:
            return self._yindex[name]
        except KeyError:
            raise InvalidInput(f"no y-variable {name!r}") from None


def _same_ctx(a, b) -> None:
    if a.context != b.context:
        raise ContextMismatch("operands built over different contexts")


def _check_pair(a, b, sort: str) -> None:
    """Two ring or two module elements over one context and one field."""
    _same_ctx(a, b)
    if a.field != b.field:
        raise FieldMismatch(f"{sort} elements over different fields")


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word, run-length encoded as (yvar index, exponent)."""

    context: FreeContext
    letters: tuple[tuple[int, int], ...]

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)


def reduce_word(ctx: FreeContext, raw: Iterable[tuple[int, int]]) -> GroupWord:
    stack: list[list[int]] = []
    for v, e in raw:
        if not 0 <= v < len(ctx.yvars):
            raise InvalidInput(f"y-variable index {v} out of range")
        if e == 0:
            continue
        if stack and stack[-1][0] == v:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([v, e])
    return GroupWord(ctx, tuple((v, e) for v, e in stack))


def identity_word(ctx: FreeContext) -> GroupWord:
    return GroupWord(ctx, ())


def ygen(ctx: FreeContext, i: int, e: int = 1) -> GroupWord:
    return reduce_word(ctx, [(i, e)])


def multiply_words(u: GroupWord, v: GroupWord) -> GroupWord:
    _same_ctx(u, v)
    return reduce_word(u.context, list(u.letters) + list(v.letters))


def invert_word(u: GroupWord) -> GroupWord:
    return reduce_word(u.context, [(v, -e) for v, e in reversed(u.letters)])


def word_key(w: GroupWord) -> tuple:
    """Shortlex key: total length first, then the letters (v, e < 0) in
    order, compared run by run so that no run is expanded.  A run of n
    letters l adds l, d, -n if d else n, where d = 1 when the next run's
    letter is greater (it has another variable, the word being reduced):
    of two runs of l, the longer is the greater exactly when the shorter
    goes on to a smaller letter."""
    letters = w.letters
    key = [sum(abs(e) for _, e in letters)]
    for (v, e), (u, _) in zip(letters, letters[1:] + ((-1, 0),)):
        n = abs(e)
        key += (v, e < 0, 1, -n) if u > v else (v, e < 0, 0, n)
    return tuple(key)


@dataclass(frozen=True)
class RingElement:
    """Group-ring element: finite sum of coefficient * reduced word."""

    context: FreeContext
    field: PrimeField
    terms: tuple[tuple[GroupWord, int], ...]  # sorted by word_key, coeffs in [1, p)

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)


def ring_zero(ctx: FreeContext, field: PrimeField) -> RingElement:
    return RingElement(ctx, field, ())


def ring_from_terms(
    ctx: FreeContext, field: PrimeField, pairs: Iterable[tuple[GroupWord, int]]
) -> RingElement:
    """The canonical ring element sum(c * w): like words added up,
    coefficients taken mod p, zero terms dropped, words in word_key order."""
    acc: dict[GroupWord, int] = {}
    for w, c in pairs:
        if w.context != ctx:
            raise ContextMismatch("word over a different context")
        acc[w] = acc.get(w, 0) + c
    p = field.p
    terms = sorted(((w, c % p) for w, c in acc.items() if c % p), key=lambda t: word_key(t[0]))
    return RingElement(ctx, field, tuple(terms))


def ring_one(ctx: FreeContext, field: PrimeField) -> RingElement:
    return ring_from_terms(ctx, field, [(identity_word(ctx), 1)])


def ring_add(r: RingElement, s: RingElement) -> RingElement:
    _check_pair(r, s, "ring")
    return ring_from_terms(r.context, r.field, r.terms + s.terms)


def ring_scale(lam: int, r: RingElement) -> RingElement:
    return ring_from_terms(r.context, r.field, [(w, lam * c) for w, c in r.terms])


def ring_mul(r: RingElement, s: RingElement) -> RingElement:
    _check_pair(r, s, "ring")
    return ring_from_terms(
        r.context, r.field, [(multiply_words(w1, w2), c1 * c2) for w1, c1 in r.terms for w2, c2 in s.terms]
    )


def ring_key(r: RingElement) -> tuple:
    return (len(r.terms), tuple((word_key(w), c) for w, c in r.terms))


@dataclass(frozen=True)
class ModuleElement:
    """Free-module element: x-variable -> nonzero ring coefficient."""

    context: FreeContext
    field: PrimeField
    parts: tuple[tuple[int, RingElement], ...]  # sorted by x index

    def is_zero(self) -> bool:
        return not self.parts

    def num_terms(self) -> int:
        return sum(r.num_terms() for _, r in self.parts)


def module_zero(ctx: FreeContext, field: PrimeField) -> ModuleElement:
    return ModuleElement(ctx, field, ())


def module_from_terms(
    ctx: FreeContext, field: PrimeField, triples: Iterable[tuple[int, GroupWord, int]]
) -> ModuleElement:
    """The canonical module element sum(c * x.w) over (x index, w, c)
    triples: each x's terms go through ring_from_terms, and the nonzero
    parts are kept in x order."""
    acc: dict[int, list[tuple[GroupWord, int]]] = {}
    for x, w, c in triples:
        if not 0 <= x < len(ctx.xvars):
            raise InvalidInput(f"x-variable index {x} out of range")
        acc.setdefault(x, []).append((w, c))
    parts = ((x, ring_from_terms(ctx, field, acc[x])) for x in sorted(acc))
    return ModuleElement(ctx, field, tuple((x, r) for x, r in parts if not r.is_zero()))


def module_term(ctx: FreeContext, field: PrimeField, x: int, r: RingElement) -> ModuleElement:
    if not 0 <= x < len(ctx.xvars):
        raise InvalidInput(f"x-variable index {x} out of range")
    if r.context != ctx:
        raise ContextMismatch("ring element over a different context")
    if r.field != field:
        raise FieldMismatch("ring element over a different field")
    return module_from_terms(ctx, field, [(x, w, c) for w, c in r.terms])


def xgen(ctx: FreeContext, field: PrimeField, x: int) -> ModuleElement:
    return module_from_terms(ctx, field, [(x, identity_word(ctx), 1)])


def module_add(u: ModuleElement, v: ModuleElement) -> ModuleElement:
    _check_pair(u, v, "module")
    return module_from_terms(u.context, u.field, [(x, w, c) for x, r in u.parts + v.parts for w, c in r.terms])


def module_scale(lam: int, u: ModuleElement) -> ModuleElement:
    return module_from_terms(u.context, u.field, [(x, w, lam * c) for x, r in u.parts for w, c in r.terms])


def module_act(u: ModuleElement, r: RingElement) -> ModuleElement:
    if u.context != r.context:
        raise ContextMismatch("operands built over different contexts")
    if u.field != r.field:
        raise FieldMismatch("module/ring field mismatch")
    return module_from_terms(
        u.context,
        u.field,
        [(x, multiply_words(w1, w2), c1 * c2) for x, s in u.parts for w1, c1 in s.terms for w2, c2 in r.terms],
    )


def module_key(u: ModuleElement) -> tuple:
    return (u.num_terms(), tuple((x, ring_key(r)) for x, r in u.parts))


# ---------------------------------------------------------------------------
# Atoms, quasi-identities, equation systems


@dataclass(frozen=True)
class ModuleAtom:
    """The equation u = 0."""

    element: ModuleElement

    @property
    def context(self) -> FreeContext:
        return self.element.context


@dataclass(frozen=True)
class GroupAtom:
    """The equation w = 1."""

    word: GroupWord

    @property
    def context(self) -> FreeContext:
        return self.word.context


Atom = ModuleAtom | GroupAtom


def atom_key(a: Atom) -> tuple:
    if isinstance(a, GroupAtom):
        return (0, word_key(a.word))
    return (1, module_key(a.element))


@dataclass(frozen=True)
class QuasiIdentity:
    premises: tuple[Atom, ...]
    conclusion: Atom

    def __post_init__(self):
        ctx = self.conclusion.context
        for a in self.premises:
            if a.context != ctx:
                raise ContextMismatch("quasi-identity atoms over different contexts")

    @property
    def context(self) -> FreeContext:
        return self.conclusion.context


@dataclass(frozen=True)
class EquationSystem:
    """A system (T1, T2); action-type systems have an empty group part."""

    context: FreeContext
    module_part: tuple[ModuleElement, ...]
    group_part: tuple[GroupWord, ...]

    def is_action_type(self) -> bool:
        return not self.group_part


def equation_system(
    ctx: FreeContext,
    module_part: Iterable[ModuleElement] = (),
    group_part: Iterable[GroupWord] = (),
) -> EquationSystem:
    ms = sorted(set(module_part), key=module_key)
    ws = sorted(set(group_part), key=word_key)
    for m in ms:
        if m.context != ctx:
            raise ContextMismatch("system member over a different context")
    for w in ws:
        if w.context != ctx:
            raise ContextMismatch("system member over a different context")
    return EquationSystem(ctx, tuple(ms), tuple(ws))


# ---------------------------------------------------------------------------
# Evaluation under a point of the affine space


@dataclass(frozen=True)
class Assignment:
    """A homomorphism out of the free model: generator images only."""

    rep: Representation
    xmap: tuple[Vector, ...]  # aligned with context.xvars
    ymap: tuple[int, ...]  # aligned with context.yvars; group element indices


def word_value(group: FiniteGroup, ymap: tuple[int, ...], w: GroupWord) -> int:
    """The element w takes when the y-variables map to ymap."""
    acc = 0
    for v, e in w.letters:
        g = ymap[v] if e == 1 else group.inverses[ymap[v]] if e == -1 else group.power(ymap[v], e)
        acc = group.table[acc][g]
    return acc


def eval_word(asg: Assignment, w: GroupWord) -> int:
    return word_value(asg.rep.group, asg.ymap, w)


def eval_module(asg: Assignment, u: ModuleElement) -> Vector:
    rep = asg.rep
    p = rep.p
    out = zero_vec(rep.dim)
    for x, r in u.parts:
        base = asg.xmap[x]
        for w, c in r.terms:
            out = vec_add(p, out, vec_scale(p, c, rep.apply(base, eval_word(asg, w))))
    return out


def eval_atom(asg: Assignment, a: Atom) -> bool:
    if isinstance(a, GroupAtom):
        return eval_word(asg, a.word) == 0
    return eval_module(asg, a.element) == zero_vec(asg.rep.dim)
