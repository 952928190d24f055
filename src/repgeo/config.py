"""Resource caps and search bounds.

Every exhaustive enumeration in the package is guarded by a cap; hitting
one raises instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput


@dataclass(frozen=True)
class EnumerationCaps:
    max_group_order: int = 64
    max_dim: int = 8
    # candidate generator-image tuples when enumerating group homs
    max_hom_candidates: int = 2**20
    # intertwiners listed per group hom: checked by the rep hom listing on each
    # group hom it reaches, and by rep_isomorphic on each bijective one
    max_matrices_per_beta: int = 2**20
    # points |V|^|X| * |G|^|Y| of an assignment space, checked before any
    # decider looks at one (the deciders then visit only the |G|^|Y| group
    # assignments; the witness scans keep one bit per point in each mask)
    max_search_space: int = 2**24


@dataclass(frozen=True)
class SearchBounds:
    """Bounds for the witness / separating-formula scans.

    The defaults are just large enough to contain the one-variable
    two-term implication used by the counterexample audit.
    """

    max_xvars: int = 1
    max_yvars: int = 1
    max_system: int = 1
    max_terms: int = 2
    max_word_len: int = 2
    max_premises: int = 2

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise InvalidInput(f"{name} must be >= 0, got {value}")


DEFAULT_CAPS = EnumerationCaps()
DEFAULT_BOUNDS = SearchBounds()
