"""Seeded generators for small random test instances.

A random representation is a random group homomorphism from a catalog
group into the general linear group GL(dim, p), itself built as a
Cayley-table group so the ordinary hom enumerator applies.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from math import prod

from .config import DEFAULT_BOUNDS, DEFAULT_CAPS
from .errors import EnumerationCapExceeded
from .freemod import (
    EquationSystem,
    FreeContext,
    QuasiIdentity,
    equation_system,
)
from .geometry import bounded_atoms, bounded_module_elements, bounded_words
from .groups import FiniteGroup, _group, cyclic_group, enumerate_group_homs, group_from_table, product_group
from .linalg import PrimeField, is_invertible, mat_mul
from .reps import Representation, make_representation


def symmetric_group_3() -> FiniteGroup:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    idx = {s: i for i, s in enumerate(perms)}
    names = ["1", "s12", "s13", "s23", "r", "r^2"]

    def compose(a, b):  # apply a first, then b
        return tuple(b[a[i]] for i in range(3))

    table = [[idx[compose(a, b)] for b in perms] for a in perms]
    return group_from_table(names, table)


def group_catalog() -> list[FiniteGroup]:
    return [
        cyclic_group(1),
        cyclic_group(2, "a"),
        cyclic_group(3, "c"),
        cyclic_group(4, "d"),
        product_group(cyclic_group(2, "a"), cyclic_group(2, "b")),
        cyclic_group(5, "e"),
        cyclic_group(6, "f"),
        symmetric_group_3(),
    ]


@lru_cache(maxsize=None)
def general_linear_group(p: int, dim: int) -> tuple[FiniteGroup, tuple]:
    """GL(dim, p) as a Cayley-table group, identity first, built from the
    matrix products with no re-validation; returns the group together
    with the index-aligned matrix tuple."""
    if (order := prod(p**dim - p**i for i in range(dim))) > DEFAULT_CAPS.max_group_order:
        raise EnumerationCapExceeded(DEFAULT_CAPS.max_group_order, order, "group order")
    all_mats = []
    for flat in product(range(p), repeat=dim * dim):
        m = tuple(tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim))
        if is_invertible(p, m):
            all_mats.append(m)
    ident = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    all_mats.sort()
    all_mats.remove(ident)
    all_mats.insert(0, ident)
    idx = {m: i for i, m in enumerate(all_mats)}
    names = ["1"] + [f"m{i}" for i in range(1, len(all_mats))]
    table = [[idx[mat_mul(p, a, b)] for b in all_mats] for a in all_mats]
    return _group(names, table), tuple(all_mats)


@lru_cache(maxsize=None)
def _action_homs(group_key: int, p: int, dim: int):
    g = group_catalog()[group_key]
    gl, mats = general_linear_group(p, dim)
    return enumerate_group_homs(g, gl), mats


def random_representation(
    rng: random.Random,
    primes: tuple[int, ...] = (2, 3),
    dims: tuple[int, ...] = (1, 2),
    group_keys: tuple[int, ...] = tuple(range(8)),
) -> Representation:
    key, p, dim = rng.choice(group_keys), rng.choice(primes), rng.choice(dims)
    homs, mats = _action_homs(key, p, dim)
    hom = rng.choice(homs)  # its domain is the catalog group _action_homs keeps
    act = {i: mats[x] for i, x in enumerate(hom.image) if i}
    return make_representation(PrimeField(p), dim, hom.domain, act)


def random_system(rng: random.Random, ctx: FreeContext, field: PrimeField) -> EquationSystem:
    mod_pool = bounded_module_elements(ctx, field, DEFAULT_BOUNDS)
    word_pool = bounded_words(ctx, DEFAULT_BOUNDS.max_word_len)
    ms = rng.sample(mod_pool, rng.randint(0, min(2, len(mod_pool))))
    ws = rng.sample(word_pool, rng.randint(0, min(1, len(word_pool))))
    return equation_system(ctx, ms, ws)


def random_qid(rng: random.Random, ctx: FreeContext, field: PrimeField) -> QuasiIdentity:
    atoms = bounded_atoms(ctx, field, DEFAULT_BOUNDS)
    n = rng.randint(0, DEFAULT_BOUNDS.max_premises)
    premises = tuple(rng.choice(atoms) for _ in range(n))
    return QuasiIdentity(premises, rng.choice(atoms))
