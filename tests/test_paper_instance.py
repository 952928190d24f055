"""An instance of the paper's claim under the package's own deciders: two
representations that are action-type equivalent, whose groups are
geometrically equivalent, and that are geometrically not equivalent.

R: Z4 x Z2 = <a> x <b> acts on GF(p) by a -> 1, b -> -1.
S: Z4 = <a> acts on GF(p) by a -> -1.
At p = 2 the pair is 2-dimensional, with J = [[1,1],[0,1]] in place of -1.

A rep hom R -> S maps b to an element of order at most 2, and those (1 and
a^2) act trivially in S, so every intertwiner kills V_R.  The separating
quasi-identity needs the premise y^2 = 1, a group atom, which action-type
formulas cannot state.  Every verdict is re-checked by an independent path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repgeo import (
    Equivalent,
    InseparabilityWitness,
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
from repgeo.textio import parse_group_file, parse_rep_file

from naive import naive_separate


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _flip(p):
    """The image of b in R and of a in S: -1, or J over GF(2)."""
    return ((1, 1), (0, 1)) if p == 2 else ((p - 1,),)


def _pair(p):
    flip = _flip(p)
    dim = len(flip)
    one = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    z4z2 = product_group(cyclic_group(4, "a"), cyclic_group(2, "b"))
    z4 = cyclic_group(4, "a")
    # a^i b^j sits at index 2i + j in the product
    r = make_representation(PrimeField(p), dim, z4z2, {e: flip if e % 2 else one for e in range(1, 8)})
    s = make_representation(PrimeField(p), dim, z4, {e: flip if e % 2 else one for e in range(1, 4)})
    return r, s


def test_example_files_are_the_pair():
    # the files the README's commands and CI run
    r, s = _pair(3)
    assert parse_rep_file((EXAMPLES / "r_p3.rep").read_text(encoding="utf-8")) == r
    assert parse_rep_file((EXAMPLES / "s_p3.rep").read_text(encoding="utf-8")) == s
    assert parse_group_file((EXAMPLES / "z4xz2.grp").read_text(encoding="utf-8")) == r.group
    assert parse_group_file((EXAMPLES / "z4.grp").read_text(encoding="utf-8")) == s.group


def _check_faithful_image(fi):
    rep, q = fi.original, fi.quotient
    g = rep.group
    assert len(set(q.act)) == q.group.order  # faithful
    for x in range(g.order):
        assert rep.act[x] == q.act[fi.sigma[x]]
        for y in range(g.order):
            assert fi.sigma[g.table[x][y]] == q.group.table[fi.sigma[x]][fi.sigma[y]]


@pytest.mark.parametrize("p,pair,qid", [
    (2, ((0, 1), (0, 0)), "y^2 = 1 => x*(1 + y) = 0"),
    (3, ((1,), (0,)), "y^2 = 1 => x*(1 - y) = 0"),
    (5, ((1,), (0,)), "y^2 = 1 => x*(1 - y) = 0"),
], ids=["2", "3", "5"])
def test_paper_claim_instance(p, pair, qid, monkeypatch):
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
        assert fi.quotient.group.order == 2 and fi.quotient.act[1] == _flip(p)
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
    assert (w.direction, w.sort, w.pair) == ("forward", "vector", pair)
    naive = naive_separate(r, s)
    assert isinstance(naive, InseparabilityWitness)
    assert (naive.sort, naive.pair) == (w.sort, w.pair)
    assert serialize_qid(w.separating_qid) == qid
    assert not fulfills_qid(r, w.separating_qid)[0]
    assert fulfills_qid(s, w.separating_qid)[0]


def test_claim_audit_script_reports_the_instance(monkeypatch, capsys):
    path = EXAMPLES.parent / "scripts" / "claim_audit.py"
    spec = importlib.util.spec_from_file_location("claim_audit", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = script.instance_report()["verdicts"]
    assert [(r["computed"], r["status"]) for r in rows] == [
        ("equivalent", "CONFIRMED"), ("equivalent", "CONFIRMED"), ("not-equivalent", "CONFIRMED"),
    ]
    assert rows[2]["separating_qid"] == "y^2 = 1 => x*(1 - y) = 0"
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert script.main() == 0
    assert "CONFIRMED: the representations are not geometrically equivalent" in capsys.readouterr().out
    # a verdict that differs from the expected one makes the script exit 1
    claim, decide, parse, files, _ = script.INSTANCE[2]
    monkeypatch.setattr(script, "INSTANCE", script.INSTANCE[:2] + ((claim, decide, parse, files, "equivalent"),))
    monkeypatch.setattr(sys, "argv", [str(path), "--json"])
    assert script.main() == 1
    assert '"status": "CONTRADICTED"' in capsys.readouterr().out
