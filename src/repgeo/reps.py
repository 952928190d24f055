"""Finite group representations over GF(p): the pair (V, G).

A representation stores one invertible action matrix per group element,
with the row-vector right-action convention v . act[g].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Iterator, Mapping, Sequence

from .config import DEFAULT_CAPS, EnumerationCaps
from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    InvalidInput,
    NotAnAction,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _group_homs,
    compose_group_homs,
    hom_defect,
    quotient_group,
    subgroup,
)
from .linalg import (
    Matrix,
    PrimeField,
    Vector,
    is_invertible,
    kernel_rref,
    mat_identity,
    mat_mul,
    nullspace,
    span_elements,
    vec_mat,
)


@dataclass(frozen=True)
class Representation:
    field: PrimeField
    dim: int
    group: FiniteGroup
    act: tuple[Matrix, ...]  # index-aligned with group elements

    @property
    def p(self) -> int:
        return self.field.p

    def apply(self, v: Vector, g: int) -> Vector:
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != dim")
        if not (isinstance(g, int) and 0 <= g < self.group.order):
            raise InvalidInput(f"element index {g!r} out of range")
        return vec_mat(self.p, v, self.act[g])


def make_representation(
    field: PrimeField,
    dim: int,
    group: FiniteGroup,
    act: Mapping[str | int, Sequence[Sequence[int]]],
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> Representation:
    if not isinstance(dim, int):
        raise InvalidInput(f"dim={dim!r} is not an int")
    if dim < 1 or dim > caps.max_dim:
        raise DimensionMismatch(f"dim must be in [1, {caps.max_dim}]")
    if group.order > caps.max_group_order:
        raise EnumerationCapExceeded(caps.max_group_order, group.order, "group order")
    p = field.p
    mats: list[Matrix | None] = [None] * group.order
    mats[0] = mat_identity(dim)
    for key, m in act.items():
        idx = key if isinstance(key, int) else group.index(key)
        if not 0 <= idx < group.order:
            raise InvalidInput(f"element index {idx} out of range")
        try:  # entries mod p, where p.__rmod__ maps an entry that is not an int to NotImplemented
            rows = tuple(tuple(map(p.__rmod__, r)) for r in m)
            if not set(map(type, chain.from_iterable(rows))) <= {int}:
                raise TypeError
        except TypeError:
            raise InvalidInput(f"matrix for {group.names[idx]} is not rows of int entries") from None
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise DimensionMismatch(
                f"matrix for {group.names[idx]} is not {dim}x{dim}"
            )
        if idx == 0:
            if rows != mat_identity(dim):
                raise NotAnAction("1", "1")
            continue
        mats[idx] = rows
    missing = [group.names[i] for i, m in enumerate(mats) if m is None]
    if missing:
        raise InvalidInput(f"missing action matrices for: {', '.join(missing)}")
    full = tuple(m for m in mats if m is not None)
    # act(g) act(s) = act(g s) at the group's greedy generators s suffices, and
    # makes act invertible: each h is a left-normed product of them and act(1) = I.
    # Only a failure sweeps every pair, to name the first failing one in row order
    gens, n, t = group._generators, group.order, group.table
    if any(mat_mul(p, full[i], full[s]) != full[t[i][s]] for i in range(n) for s in gens):
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if mat_mul(p, full[i], full[j]) != full[t[i][j]])
        raise NotAnAction(group.names[i], group.names[j])
    return Representation(field, dim, group, full)


def stabilizer(rep: Representation, v: Vector) -> Subgroup:
    members = [g for g in range(rep.group.order) if rep.apply(v, g) == tuple(v)]
    return subgroup(rep.group, members)


def rep_kernel(rep: Representation) -> Subgroup:
    """Elements acting as the identity matrix: the kernel of a hom, so a
    subgroup as it stands.

    By linearity this equals the intersection of all stabilizers; the
    equality is exercised in the test suite by brute force.
    """
    ident = mat_identity(rep.dim)
    return Subgroup(rep.group, tuple(g for g in range(rep.group.order) if rep.act[g] == ident))


@dataclass(frozen=True)
class FaithfulImage:
    original: Representation
    quotient: Representation
    sigma: tuple[int, ...]  # original element index -> coset index


def faithful_image(rep: Representation) -> FaithfulImage:
    """G/ker acting on V: a coset acts as any of its members, as the kernel
    acts as I, so the quotient is an action with trivial kernel by definition."""
    q, sigma = quotient_group(rep.group, rep_kernel(rep))
    act: dict[int, Matrix] = {}
    for g, c in enumerate(sigma):
        act.setdefault(c, rep.act[g])
    quotient = Representation(rep.field, rep.dim, q, tuple(map(act.__getitem__, range(q.order))))
    return FaithfulImage(rep, quotient, sigma)


@dataclass(frozen=True)
class RepHom:
    """(alpha, beta): alpha is v -> v . matrix, beta the group hom."""

    source: Representation
    target: Representation
    matrix: Matrix  # dim(source) x dim(target)
    grouphom: GroupHom


def check_rep_hom(h: RepHom) -> bool:
    """Direct definitional sweep, independent of the solver that found h."""
    p = h.source.p
    if h.source.field != h.target.field:
        return False
    for g in range(h.source.group.order):
        if mat_mul(p, h.source.act[g], h.matrix) != mat_mul(
            p, h.matrix, h.target.act[h.grouphom.image[g]]
        ):
            return False
    # beta itself must be a homomorphism
    return hom_defect(h.source.group, h.target.group, h.grouphom.image) is None


def compose_rep_homs(f: RepHom, g: RepHom) -> RepHom:
    if f.target != g.source:
        raise InvalidInput("rep hom composition mismatch")
    return RepHom(
        f.source,
        g.target,
        mat_mul(f.source.p, f.matrix, g.matrix),
        compose_group_homs(f.grouphom, g.grouphom),
    )


def enumerate_rep_homs(
    r: Representation, s: Representation, caps: EnumerationCaps = DEFAULT_CAPS
) -> list[RepHom]:
    """All representation homomorphisms (alpha, beta): R -> S (see _rep_homs)."""
    return list(_rep_homs(r, s, caps))


def _intertwiners(r: Representation, s: Representation, images: Sequence[int]) -> list[Vector]:
    """The RREF basis (linalg.kernel_rref) of the flat dim(r) x dim(s)
    matrices A with act_r(g_j) . A = A . act_s(images[j]) at the greedy
    generators g_j of R's group.  For the images of a group hom beta that is
    beta's whole intertwiner space: act_r, act_s and beta are homs, so if A
    intertwines at g and at a generator t, it does at g * t, and every
    element is reached from 1 along such Cayley-graph edges."""
    nunk = r.dim * s.dim
    rows = []
    for g, y in zip(r.group._generators, images):
        ra, sa = r.act[g], s.act[y]
        for i, j in product(range(r.dim), range(s.dim)):
            row = [0] * nunk  # (act_r(g) . A - A . act_s(y))[i][j], reduced by kernel_rref
            for k in range(r.dim):
                row[k * s.dim + j] += ra[i][k]
            for l in range(s.dim):
                row[i * s.dim + l] -= sa[l][j]
            rows.append(row)
    return kernel_rref(r.p, rows, nunk)


def _drawn(r: Representation, s: Representation, betas: Iterator[GroupHom], draw) -> Iterator[RepHom]:
    """RepHom(r, s, A, beta) for each beta of betas and each flat A that
    draw picks from beta's intertwiner basis."""
    gens = r.group._generators
    return (RepHom(r, s, tuple(zip(*[iter(a)] * s.dim)), beta) for beta in betas
            for a in draw(_intertwiners(r, s, [beta.image[g] for g in gens])))


def _span(p: int, n: int, caps: EnumerationCaps, basis: list[Vector]) -> Iterator[Vector]:
    """The draw that lists a basis's whole span, once its size is checked."""
    if (count := p ** len(basis)) > caps.max_matrices_per_beta:
        raise EnumerationCapExceeded(caps.max_matrices_per_beta, count, "matrices per beta")
    return span_elements(p, basis, n)


def _rep_homs(r: Representation, s: Representation, caps: EnumerationCaps) -> Iterator[RepHom]:
    """The representation homomorphisms (alpha, beta): R -> S, drawn lazily:
    group homs beta in image-table order, each with its whole span (_span)
    in span_elements order (see geometry._least_violation).  Fields and caps
    are checked on the call, max_matrices_per_beta on each beta reached."""
    if r.field != s.field:
        raise FieldMismatch("representations over different fields")
    betas = _group_homs(r.group, s.group, caps)
    return _drawn(r, s, betas, partial(_span, r.p, r.dim * s.dim, caps))


def rep_isomorphic(
    r: Representation, s: Representation, caps: EnumerationCaps = DEFAULT_CAPS
) -> RepHom | None:
    """First isomorphism in enumeration order, or None; solves bijective betas only."""
    if r.field != s.field:
        raise FieldMismatch("representations over different fields")
    if r.dim != s.dim or r.group.order != s.group.order:
        return None
    betas = filter(GroupHom.is_bijective, _group_homs(r.group, s.group, caps))
    isos = _drawn(r, s, betas, partial(_span, r.p, r.dim * s.dim, caps))
    return next((h for h in isos if is_invertible(r.p, h.matrix)), None)


def kernel_of_matrix_family(p: int, mats: Sequence[Matrix], dim: int) -> list[Vector]:
    """Basis of the joint left kernel {v : v . A = 0 for every A}."""
    # the columns of every matrix are the equation rows on v
    return nullspace(p, [col for a in mats for col in zip(*a)], dim)
