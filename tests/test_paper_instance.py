"""An instance of the paper's claim under the package's own deciders: two
representations that are action-type equivalent, whose groups are
geometrically equivalent, and that are geometrically not equivalent.

R: Z4 x Z2 = <a> x <b> acts on GF(p) by a -> 1, b -> -1.
S: Z4 = <a> acts on GF(p) by a -> -1.

A rep hom R -> S maps b to an element of order at most 2, and those (1 and
a^2) act trivially in S, so every intertwiner kills V_R.  The separating
quasi-identity needs the premise y^2 = 1, a group atom, which action-type
formulas cannot state.  Every verdict is re-checked by an independent path.
"""

import pytest

from repgeo import (
    Equivalent,
    NotEquivalent,
    PrimeField,
    at_equivalent,
    cyclic_group,
    fulfills_qid,
    geo_equivalent,
    make_representation,
    product_group,
    serialize_qid,
    validate_separation_certificate,
)
from repgeo import geometry

from naive import naive_separate


def _pair(p):
    minus = ((p - 1,),)
    one = ((1,),)
    z4z2 = product_group(cyclic_group(4, "a"), cyclic_group(2, "b"))
    z4 = cyclic_group(4, "a")
    # a^i b^j sits at index 2i + j in the product
    r = make_representation(PrimeField(p), 1, z4z2, {e: minus if e % 2 else one for e in range(1, 8)})
    s = make_representation(PrimeField(p), 1, z4, {e: minus if e % 2 else one for e in range(1, 4)})
    return r, s


def _check_faithful_image(fi):
    rep, q = fi.original, fi.quotient
    g = rep.group
    assert len(set(q.act)) == q.group.order  # faithful
    for x in range(g.order):
        assert rep.act[x] == q.act[fi.sigma[x]]
        for y in range(g.order):
            assert fi.sigma[g.table[x][y]] == q.group.table[fi.sigma[x]][fi.sigma[y]]


@pytest.mark.parametrize("p", [3, 5])
def test_paper_claim_instance(p, monkeypatch):
    r, s = _pair(p)

    groups = geo_equivalent(r.group, s.group)
    assert isinstance(groups, Equivalent)
    assert validate_separation_certificate(groups.certificate.forward)
    assert validate_separation_certificate(groups.certificate.backward)

    at = at_equivalent(r, s)
    assert isinstance(at, Equivalent)
    chain = at.certificate
    assert (chain.faithful_first.original, chain.faithful_second.original) == (r, s)
    for fi in (chain.faithful_first, chain.faithful_second):
        _check_faithful_image(fi)
        assert fi.quotient.group.order == 2 and fi.quotient.act[1] == ((p - 1,),)
    quotient_geo = chain.quotient_geo.certificate
    assert validate_separation_certificate(quotient_geo.forward)
    assert validate_separation_certificate(quotient_geo.backward)
    assert (quotient_geo.forward.source, quotient_geo.forward.target) == (
        chain.faithful_first.quotient, chain.faithful_second.quotient
    )

    # the separating qid comes from a scan context that is not skipped
    pools = []
    atom_pool = geometry._atom_pool

    def counted(*args):
        pools.append(args)
        return atom_pool(*args)

    monkeypatch.setattr(geometry, "_atom_pool", counted)
    geo = geo_equivalent(r, s)
    assert isinstance(geo, NotEquivalent) and pools
    w = geo.witness
    assert (w.direction, w.sort, w.pair) == ("forward", "vector", ((1,), (0,)))
    naive = naive_separate(r, s)
    assert naive.certificate is None
    assert (naive.inseparable_sort, naive.inseparable_pair) == (w.sort, w.pair)
    assert serialize_qid(w.separating_qid) == "y^2 = 1 => x*(1 - y) = 0"
    assert not fulfills_qid(r, w.separating_qid)[0]
    assert fulfills_qid(s, w.separating_qid)[0]
