"""Each input error the package reports names its cause: the exception type
and message of every precondition check that the other tests do not reach."""

import re

import pytest

from repgeo import (
    ContextMismatch,
    DimensionMismatch,
    EnumerationCapExceeded,
    EnumerationCaps,
    FieldMismatch,
    FreeContext,
    GroupAtom,
    GroupHom,
    InvalidInput,
    PrimeField,
    QuasiIdentity,
    RepHom,
    Subgroup,
    check_rep_hom,
    compose_rep_homs,
    cyclic_group,
    equation_system,
    find_at_witness,
    group_from_table,
    identity_word,
    in_closure,
    make_representation,
    quotient_group,
    reduce_word,
    rep_isomorphic,
    separates_points,
    subgroup,
    trivial_group,
    xgen,
)
from repgeo.audit import build_demo_reps
from repgeo.groups import compose_group_homs
from repgeo.linalg import mat_mul, vec_mat

CTX = FreeContext(("x",), ("y",))
OTHER = FreeContext(("x", "z"), ("y",))
GF2, GF3 = PrimeField(2), PrimeField(3)
Z2 = cyclic_group(2, "a")


def _swap(field):
    """Z2 on GF(p)^2 by the coordinate swap."""
    return make_representation(field, 2, Z2, {"a": [[0, 1], [1, 0]]})


def _identity_hom(rep):
    return RepHom(rep, rep, ((1, 0), (0, 1)), GroupHom(rep.group, rep.group, (0, 1)))


CASES = {
    "FreeContext duplicate names": (
        lambda: FreeContext(("x", "y"), ("y",)), InvalidInput, "variable names not distinct"),
    "reduce_word index out of range": (
        lambda: reduce_word(CTX, [(1, 1)]), InvalidInput, "y-variable index 1 out of range"),
    "QuasiIdentity contexts": (
        lambda: QuasiIdentity((GroupAtom(identity_word(OTHER)),), GroupAtom(identity_word(CTX))),
        ContextMismatch, "quasi-identity atoms over different contexts"),
    "equation_system contexts": (
        lambda: equation_system(CTX, [xgen(OTHER, GF2, 0)]),
        ContextMismatch, "system member over a different context"),
    "in_closure contexts": (
        lambda: in_closure(_swap(GF2), equation_system(CTX), GroupAtom(identity_word(OTHER))),
        InvalidInput, "atom context differs from system context"),
    "find_at_witness fields": (
        lambda: find_at_witness(_swap(GF2), _swap(GF3)),
        FieldMismatch, "representations over different fields"),
    "separates_points group against representation": (
        lambda: separates_points(Z2, _swap(GF2)),
        InvalidInput, "source and target must both be groups or both representations"),
    "group_from_table no names": (
        lambda: group_from_table([], []), InvalidInput, "empty element list"),
    "group_from_table duplicate names": (
        lambda: group_from_table(["e", "e"], [[0, 1], [1, 0]]),
        InvalidInput, "element names not distinct"),
    "cyclic_group order 0": (lambda: cyclic_group(0), InvalidInput, "order must be >= 1"),
    "compose_group_homs": (
        lambda: compose_group_homs(GroupHom(Z2, Z2, (0, 1)), GroupHom(trivial_group(), Z2, (0,))),
        InvalidInput, "hom composition domain mismatch"),
    "compose_rep_homs": (
        lambda: compose_rep_homs(_identity_hom(_swap(GF2)), _identity_hom(_swap(GF3))),
        InvalidInput, "rep hom composition mismatch"),
    "mat_mul shapes": (
        lambda: mat_mul(2, ((1, 0),), ((1,),)), DimensionMismatch, "matrix product shape mismatch"),
    "vec_mat shapes": (
        lambda: vec_mat(2, (1, 0), ((1,),)), DimensionMismatch, "vector/matrix shape mismatch"),
    "apply vector length": (
        lambda: _swap(GF2).apply((1,), 1), DimensionMismatch, "vector length != dim"),
    "apply element index": (
        lambda: _swap(GF2).apply((1, 0), 2), InvalidInput, "element index 2 out of range"),
    "make_representation group order cap": (
        lambda: make_representation(GF2, 1, cyclic_group(8), {}, EnumerationCaps(max_group_order=4)),
        EnumerationCapExceeded, "group order needs 8 > cap 4"),
    "make_representation element index": (
        lambda: make_representation(GF2, 1, Z2, {2: [[1]]}),
        InvalidInput, "element index 2 out of range"),
    "make_representation float entry": (
        lambda: make_representation(GF2, 1, Z2, {"a": [[1.0]]}),
        InvalidInput, "matrix for a is not rows of int entries"),
    "make_representation str entry": (
        lambda: make_representation(GF2, 1, Z2, {"a": [["1"]]}),
        InvalidInput, "matrix for a is not rows of int entries"),
    "make_representation None entry": (
        lambda: make_representation(GF2, 1, Z2, {"a": [[None]]}),
        InvalidInput, "matrix for a is not rows of int entries"),
    "make_representation row not a sequence": (
        lambda: make_representation(GF2, 1, Z2, {"a": [1]}),
        InvalidInput, "matrix for a is not rows of int entries"),
    "make_representation float key": (
        lambda: make_representation(GF2, 1, Z2, {1.0: [[1]]}),
        InvalidInput, "no element named 1.0"),
    "make_representation float dim": (
        lambda: make_representation(GF2, 1.0, Z2, {"a": [[1]]}),
        InvalidInput, "dim=1.0 is not an int"),
    "subgroup element index": (
        lambda: subgroup(cyclic_group(2), [0, 5]), InvalidInput, "element index 5 out of range"),
    "quotient_group element index": (
        lambda: quotient_group(Z2, Subgroup(Z2, (0, 7))), InvalidInput, "element index 7 out of range"),
    "rep_isomorphic fields": (
        lambda: rep_isomorphic(_swap(GF2), _swap(GF3)),
        FieldMismatch, "representations over different fields"),
    "build_demo_reps p=7": (
        lambda: build_demo_reps(7), InvalidInput, "demo supports p in (2, 3, 5)"),
}


@pytest.mark.parametrize("call,error,message", CASES.values(), ids=CASES.keys())
def test_precondition_errors_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_check_rep_hom_across_fields_is_false():
    # the field check is a verdict, not an error: no matrix is multiplied
    h = _identity_hom(_swap(GF2))
    assert check_rep_hom(h)
    assert not check_rep_hom(RepHom(h.source, _swap(GF3), h.matrix, h.grouphom))
