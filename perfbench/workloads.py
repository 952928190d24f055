"""Seeded inputs and call lists for the four benchmark workloads.

Each workload is one cycle of decider calls.  The benchmark repeats the
cycle, so the mix of calls in a run never depends on where the clock
stopped.  The seed changes the inputs only in ways that keep the cost of
every call the same: a random change of basis for the vector space,
random element and generator names, relabelled Cayley tables where the
relabelling cannot change a generating set, and the call order.  Every
verdict, hom count and claim status is therefore the same for every
seed, and is checked against the values recorded for seed 0.

Where a call goes through the CLI it runs in-process through
``repgeo.cli.main([..., "--json"])``; the witness scans go through the
library because CLI ``check-at`` never reaches them on equivalent pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import checks
from repgeo import geometry, textio
from repgeo.config import SearchBounds
from repgeo.sampling import general_linear_group as _cached_general_linear_group

Matrix = tuple[tuple[int, ...], ...]

# past the cache, so that every set-up builds and validates the table
general_linear_group = _cached_general_linear_group.__wrapped__


def _unchecked(summary: dict) -> list[str]:
    return []


@dataclass
class Op:
    """One decider call.

    ``argv`` is set for CLI calls and ``fn`` for library calls.  ``check``
    re-checks an outcome independently and returns a list of problems.
    """

    op_id: str
    argv: Optional[list[str]] = None
    fn: Optional[Callable[[], Any]] = None
    check: Callable[[dict], list[str]] = _unchecked


# ---------------------------------------------------------------------------
# Matrices over GF(p), kept separate from repgeo.linalg so that building
# inputs does not exercise the code under test.


def _mul(p: int, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0])))
        for i in range(len(a))
    )


def _inverse(p: int, m: Matrix) -> Optional[Matrix]:
    n = len(m)
    rows = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


def _identity(dim: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def _diag(*entries: int) -> Matrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _random_basis(rng: random.Random, p: int, dim: int) -> tuple[Matrix, Matrix]:
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim))
        inv = _inverse(p, m)
        if inv is not None:
            return m, inv


# ---------------------------------------------------------------------------
# Groups and representations as text


_GEN_NAMES = "abcdfghkmnrstuvw"


def _gen_names(rng: random.Random, k: int) -> list[str]:
    return rng.sample(_GEN_NAMES, k)


def _product_text(orders: list[int], gens: list[str]) -> str:
    if len(orders) == 1:
        return f"group cyclic({orders[0]}) as {gens[0]}"
    factors = ", ".join(f"cyclic({n}) as {g}" for n, g in zip(orders, gens))
    return f"group product({factors})"


def _table_text(names: list[str], table) -> str:
    lines = ["group table", "  elements " + " ".join(names)]
    for row in table:
        lines.append("  row " + " ".join(names[j] for j in row))
    return "\n".join(lines)


@dataclass
class GroupInput:
    """A group file's text plus what the benchmark needs to know about it."""

    text: str
    group: Any  # repgeo FiniteGroup, parsed from text
    gens: list[str]  # generator element names


def product_group_input(orders: list[int], gens: list[str]) -> GroupInput:
    text = _product_text(orders, gens)
    return GroupInput(text, textio.parse_group_file(text), gens)


def table_group_input(
    g, gens: list[str], rng: random.Random, relabel: bool, prefix: str
) -> GroupInput:
    """Group ``g`` written as a Cayley table with fresh element names;
    ``gens`` are the names of its generators, if a representation needs them.

    With ``relabel`` the non-identity elements are also put in a random
    order.  Only do that for a group that is never the domain of a hom
    search: the greedy generating set depends on the element order.
    """
    n = g.order
    order = list(range(1, n))
    if relabel:
        rng.shuffle(order)
    pos = [0] * n  # old index -> new index
    for new, old in enumerate(order, start=1):
        pos[old] = new
    labels = [f"{prefix}{k}" for k in range(1, n)]
    rng.shuffle(labels)
    new_names = ["1"] + labels  # indexed by new index
    inv = [0] * n
    for old in range(n):
        inv[pos[old]] = old
    table = [[pos[g.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    text = _table_text(new_names, table)
    new_gens = [new_names[pos[g.index(s)]] for s in gens]
    return GroupInput(text, textio.parse_group_file(text), new_gens)


def _full_action(group, gens: list[str], images: list[Matrix], p: int, dim: int) -> list[Matrix]:
    """Action matrices of every element, spread from the generator images
    along the Cayley graph (row-vector convention: act[g*s] = act[g]*act[s])."""
    act: list[Optional[Matrix]] = [None] * group.order
    act[0] = _identity(dim)
    gen_idx = [group.index(s) for s in gens]
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for s, m in zip(gen_idx, images):
                f = group.table[e][s]
                if act[f] is None:
                    act[f] = _mul(p, act[e], m)
                    nxt.append(f)
        frontier = nxt
    return act  # type: ignore[return-value]


def rep_text(
    p: int,
    dim: int,
    grp: GroupInput,
    images: list[Matrix],
    basis: Optional[tuple[Matrix, Matrix]] = None,
) -> str:
    """A representation file; ``basis`` = (P, P^-1) conjugates every matrix."""
    if basis is not None:
        m, inv = basis
        images = [_mul(p, _mul(p, inv, a), m) for a in images]
    act = _full_action(grp.group, grp.gens, images, p, dim)
    lines = [f"field p={p}", grp.text, f"dim {dim}"]
    for i in range(1, grp.group.order):
        rows = ",".join("[" + ",".join(str(x) for x in r) + "]" for r in act[i])
        lines.append(f"act {grp.group.names[i]} = [{rows}]")
    return "\n".join(lines) + "\n"


class Files:
    """Writes input files into the work directory and parses them back."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.reps: dict[str, Any] = {}
        self.groups: dict[str, Any] = {}

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def rep(self, name: str, text: str) -> str:
        path = self.write(name, text)
        self.reps[path] = textio.parse_rep_file(text)
        return path

    def group(self, name: str, text: str) -> str:
        path = self.write(name, text)
        self.groups[path] = textio.parse_group_file(text)
        return path


def _cli(op_id: str, argv: list[str], check=_unchecked) -> Op:
    return Op(op_id, argv=argv, check=check)


def _qid(files: Files, op_id: str, rep: str, formula: str) -> Op:
    return _cli(op_id, ["qid", rep, formula], checks.qid_witness(files, rep, formula))


def _pair(files: Files, op_id: str, command: str, a: str, b: str, check, *flags: str) -> Op:
    """A two-input subcommand, re-checked by ``check(files, a, b)``."""
    return _cli(op_id, [command, a, b, *flags], check(files, a, b))


# ---------------------------------------------------------------------------
# Shared representations

SWAP: Matrix = ((0, 1), (1, 0))
C3_GF2: Matrix = ((0, 1), (1, 1))  # companion of x^2 + x + 1, order 3


def _demo_pair(files: Files, rng: random.Random, p: int, tag: str) -> tuple[str, str]:
    """The audit's pair: Z2 swapping e1, e2 and Z2 x Z2 where b acts trivially."""
    a, b = _gen_names(rng, 2)
    z2 = product_group_input([2], [a])
    v4 = product_group_input([2, 2], [a, b])
    r1 = files.rep(f"demo{tag}_1.rep", rep_text(p, 2, z2, [SWAP], _random_basis(rng, p, 2)))
    r2 = files.rep(
        f"demo{tag}_2.rep",
        rep_text(p, 2, v4, [SWAP, _identity(2)], _random_basis(rng, p, 2)),
    )
    return r1, r2


# ---------------------------------------------------------------------------
# cli-mix


def build_cli_mix(rng: random.Random, files: Files) -> list[Op]:
    """37 short CLI calls on small inputs, covering every subcommand."""
    f = files
    d2, d4 = _demo_pair(f, rng, 2, "2")
    d2_3, d4_3 = _demo_pair(f, rng, 3, "3")
    (a,) = _gen_names(rng, 1)
    triv = f.rep("triv.rep", rep_text(2, 2, product_group_input([2], [a]), [_identity(2)]))
    (c,) = _gen_names(rng, 1)
    c3 = f.rep(
        "c3.rep",
        rep_text(2, 2, product_group_input([3], [c]), [C3_GF2], _random_basis(rng, 2, 2)),
    )
    (d,) = _gen_names(rng, 1)
    rot4 = f.rep(
        "rot4.rep",
        rep_text(3, 2, product_group_input([4], [d]), [((0, 1), (2, 0))], _random_basis(rng, 3, 2)),
    )
    gl22, gl22_mats = general_linear_group(2, 2)
    s3 = table_group_input(gl22, [gl22.names[1], gl22.names[2]], rng, relabel=False, prefix="s")
    s3rep = f.rep(
        "s3nat.rep",
        rep_text(2, 2, s3, [gl22_mats[1], gl22_mats[2]], _random_basis(rng, 2, 2)),
    )
    (e,) = _gen_names(rng, 1)
    z6s = f.rep("z6sign.rep", rep_text(3, 1, product_group_input([6], [e]), [((2,),)]))
    a2, b2 = _gen_names(rng, 2)
    v4 = product_group_input([2, 2], [a2, b2])
    v4s = f.rep("v4sign.rep", rep_text(3, 1, v4, [((2,),), ((1,),)]))
    bad = f.write("bad.rep", f"field p=2\ngroup cyclic(2) as {a}\ndim 2\nact {a} = [[0,1],[1,0]\n")

    def grp(name: str, orders: list[int]) -> str:
        return f.group(name, product_group_input(orders, _gen_names(rng, len(orders))).text + "\n")

    z2g = grp("z2.grp", [2])
    v4g = grp("v4.grp", [2, 2])
    z4g = grp("z4.grp", [4])
    z4z2g = grp("z4z2.grp", [4, 2])
    z2_3g = grp("z2cubed.grp", [2, 2, 2])
    z2_4g = grp("z2fourth.grp", [2, 2, 2, 2])
    z2_6g = grp("z2sixth.grp", [2, 2, 2, 2, 2, 2])
    s3g = f.group("s3.grp", s3.text + "\n")
    z8sq_base = product_group_input([8, 8], _gen_names(rng, 2)).group
    z8sqg = f.group("z8sq_table.grp", table_group_input(z8sq_base, [], rng, False, "e").text + "\n")

    sys1 = f.write("t1.sys", "xvars x\nyvars y\nmodule: x*y - x = 0\n")
    sys2 = f.write("t2.sys", "xvars x1 x2\nyvars y\nmodule: x1*y - x2 = 0\n")
    sysg = f.write("tg.sys", "xvars x\nyvars y\nmodule: x*y^2 - x = 0\ngroup: y^2 = 1\n")

    def closure(op_id: str, rep: str, system: str, member: str, *flags: str) -> Op:
        return _cli(op_id, ["closure", rep, "--system", system, "--member", member, *flags])

    paper_qid = "x*y - x = 0 => y = 1"
    ops = [
        _qid(f, "qid-demo2", d2, paper_qid),
        _qid(f, "qid-demo4", d4, paper_qid),
        _qid(f, "qid-demo2-square", d2, "=> x*y^2 - x = 0"),
        _qid(f, "qid-demo4p3-involution", d4_3, "x1*y1 - x2 = 0 => x1*y1*y1 - x1 = 0"),
        _qid(f, "qid-c3-free", c3, paper_qid),
        _qid(f, "qid-rot4", rot4, "x*y^2 + x = 0 => x*y - x*y^3 = 0"),
        _qid(f, "qid-s3-commute", s3rep, "=> x*y1*y2 - x*y2*y1 = 0"),
        _qid(f, "qid-z6-sign", z6s, "x*y - x = 0 & x*y^2 - x = 0 => x*y^3 - x = 0"),
        closure("closure-demo2-member", d2, sys1, "x*y^2 - x = 0"),
        closure("closure-demo2-nonmember", d2, sys1, "y = 1"),
        closure("closure-demo4-at", d4, sys1, "x*y^2 - x = 0", "--action-type"),
        closure("closure-s3-at", s3rep, sys2, "x2*y - x1*y^2 = 0", "--action-type"),
        closure("closure-rot4-group", rot4, sysg, "x*y - x = 0"),
        _pair(f, "check-geo-demo2", "check-geo", d2, d4, checks.geo_certificate),
        _pair(f, "check-geo-demo3", "check-geo", d2_3, d4_3, checks.geo_certificate),
        _pair(f, "check-geo-trivial", "check-geo", d2, triv, checks.geo_certificate),
        _pair(f, "check-geo-c3-s3", "check-geo", c3, s3rep, checks.geo_certificate),
        _pair(f, "check-geo-groups-z2-v4", "check-geo-groups", z2g, v4g, checks.geo_certificate),
        _pair(f, "check-geo-groups-v4-z4", "check-geo-groups", v4g, z4g, checks.geo_certificate),
        _pair(f, "check-geo-groups-z2-z2sixth", "check-geo-groups", z2g, z2_6g,
              checks.geo_certificate),
        _pair(f, "check-geo-groups-s3-z2", "check-geo-groups", s3g, z2g, checks.geo_certificate),
        _pair(f, "check-at-demo2", "check-at", d2, d4, checks.at_verdict),
        _pair(f, "check-at-trivial", "check-at", d2, triv, checks.at_verdict),
        _pair(f, "check-at-c3-demo2", "check-at", c3, d2, checks.at_verdict),
        _cli("faithful-demo4", ["faithful", d4], checks.faithful(f, d4)),
        _cli("faithful-v4-sign", ["faithful", v4s], checks.faithful(f, v4s)),
        _cli("faithful-rot4", ["faithful", rot4], checks.faithful(f, rot4)),
        _pair(f, "homs-v4-s3", "homs", v4g, s3g, checks.homs),
        _pair(f, "homs-z4z2-z2cubed", "homs", z4z2g, z2_3g, checks.homs),
        _pair(f, "homs-s3-s3", "homs", s3g, s3g, checks.homs),
        _pair(f, "homs-z8sq-table-z2", "homs", z8sqg, z2g, checks.homs),
        _pair(f, "homs-reps-demo", "homs", d2, d4, checks.homs, "--reps"),
        _pair(f, "homs-reps-s3", "homs", s3rep, s3rep, checks.homs, "--reps"),
        _cli("paper-demo-p2", ["paper-demo", "--p", "2"], checks.paper_demo),
        _cli("paper-demo-p3", ["paper-demo", "--p", "3"], checks.paper_demo),
        _cli("error-parse", ["qid", bad, paper_qid], checks.error("expected")),
        _cli("error-hom-cap", ["homs", z2_4g, z8sqg], checks.error("hom search")),
    ]
    return ops


# ---------------------------------------------------------------------------
# assignment-space

# Z7 acting on GF(2)^3 through the companion matrix of x^3 + x + 1
C7_GF2: Matrix = ((0, 1, 0), (0, 0, 1), (1, 1, 0))


def build_assignment_space(rng: random.Random, files: Files) -> list[Op]:
    """qid and closure calls over a 25,088-point and a 160,000-point space.

    Only the group tables are relabelled: the x-vectors keep their order,
    so the least violating assignment sits at the same x-position for
    every seed and the early and late exits stay early and late.
    """
    f = files
    gens = _gen_names(rng, 1)
    z7 = table_group_input(product_group_input([7], gens).group, gens, rng, True, "c")
    r7 = f.rep("z7_gf2_dim3.rep", rep_text(2, 3, z7, [C7_GF2]))
    gens = _gen_names(rng, 2)
    z44 = table_group_input(product_group_input([4, 4], gens).group, gens, rng, True, "t")
    r44 = f.rep("z4sq_gf5_diag.rep", rep_text(5, 2, z44, [_diag(2, 1), _diag(1, 2)]))
    sys7 = f.write("z7.sys", "xvars x1 x2 x3\nyvars y1 y2\nmodule: x1*y1 + x2*y2 - x3 = 0\n")
    sys44 = f.write("z4sq.sys", "xvars x1 x2\nyvars y1 y2\nmodule: x1*y1 - x2 = 0\n")

    return [
        _qid(f, "z7-holds-commute", r7,
             "x1*y1 - x1 = 0 & x2*y2 - x2 = 0 => x3*y1*y2 - x3*y2*y1 = 0"),
        _qid(f, "z7-holds-shift", r7, "x1*y1 + x2*y2 - x3 = 0 => x1*y1*y2 + x2*y2*y2 - x3*y2 = 0"),
        _qid(f, "z7-fails-early", r7, "x1*y1 - x1 = 0 & x2*y2 + x3 - x3*y2 = 0 => y1 = 1"),
        _qid(f, "z7-fails-late", r7, "x2 - x1*y1 = 0 & x3 - x1*y2 = 0 => x2 - x3 = 0"),
        _qid(f, "z7-fails-swap", r7, "x1*y1 + x2*y2 + x3 = 0 => x1*y2 + x2*y1 + x3 = 0"),
        _qid(f, "z7-fails-y2", r7, "x1 + x2*y1 + x3*y2 = 0 => y2 = 1"),
        _qid(f, "z7-fails-orbit", r7, "x1*y1 - x2 = 0 & x2*y2 - x3 = 0 => x1 - x3 = 0"),
        _cli("z7-closure-member", ["closure", r7, "--system", sys7, "--member",
                                   "x1*y1*y2 + x2*y2*y2 - x3*y2 = 0"]),
        _cli("z7-closure-at-nonmember", ["closure", r7, "--system", sys7, "--member",
                                         "x1*y2 + x2*y1 - x3 = 0", "--action-type"]),
        _qid(f, "z4sq-holds-commute", r44,
             "x1*y1 - x1 = 0 & x2*y2 - x2 = 0 => x1*y1*y2 - x1*y2*y1 = 0"),
        _qid(f, "z4sq-fails-early", r44, "x1*y1 - x1 = 0 & x2*y2 - x2 = 0 => y1*y2 = 1"),
        _qid(f, "z4sq-fails-late", r44, "x2*y1 - x2*y2 = 0 => x1*y1 - x1*y2 = 0"),
        _qid(f, "z4sq-fails-y2", r44, "x1*y1 - x2*y2 = 0 => y2 = 1"),
        _qid(f, "z4sq-fails-x2", r44, "x1*y1*y2 - x1*y2 = 0 => x2*y1 - x2 = 0"),
        _cli("z4sq-closure-member", ["closure", r44, "--system", sys44, "--member",
                                     "x1*y1*y2 - x2*y2 = 0"]),
    ]


# ---------------------------------------------------------------------------
# witness-scan


def build_witness_scan(rng: random.Random, files: Files) -> list[Op]:
    """Full bounded scans on pairs that have no witness within the bounds."""
    f = files
    pairs = {}
    for p in (2, 3):
        r1, r2 = _demo_pair(f, rng, p, str(p))
        pairs[f"demo{p}"] = (f.reps[r1], f.reps[r2])
    # Z3 on GF(2)^2, and Z3 x Z3 acting through a random projection onto Z3
    c, t = _gen_names(rng, 2)
    z3 = product_group_input([3], [c])
    z3sq = product_group_input([3, 3], [c, t])
    powers = [_identity(2), C3_GF2, _mul(2, C3_GF2, C3_GF2)]
    i, j = rng.choice([(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)])
    s1 = f.rep("z3.rep", rep_text(2, 2, z3, [C3_GF2], _random_basis(rng, 2, 2)))
    s2 = f.rep(
        "z3sq_inflated.rep",
        rep_text(2, 2, z3sq, [powers[i], powers[j]], _random_basis(rng, 2, 2)),
    )
    pairs["z3infl"] = (f.reps[s1], f.reps[s2])
    pairs["demo2-swapped"] = pairs["demo2"][::-1]

    def scan(kind: str, pair: str, nx: int, ny: int) -> Op:
        r, s = pairs[pair]
        bounds = SearchBounds(max_xvars=nx, max_yvars=ny)
        fn_name = "find_at_witness" if kind == "at" else "find_separating_qid"

        def call():
            # looked up at call time so that the tracer's wrapper is used
            return getattr(geometry, fn_name)(r, s, bounds)

        return Op(f"{kind}-{pair}-{nx}x{ny}", fn=call, check=checks.no_witness(r, s, kind))

    return [
        scan("at", "demo2", 2, 2),
        scan("at", "demo2", 1, 1),
        scan("at", "demo3", 1, 1),
        scan("at", "z3infl", 1, 1),
        scan("at", "demo2", 2, 1),
        scan("at", "demo2-swapped", 2, 1),
        scan("at", "demo2", 1, 2),
        scan("at", "demo3", 2, 1),
        scan("at", "z3infl", 2, 1),
        scan("at", "z3infl", 1, 2),
        scan("qid", "demo2", 1, 1),
        scan("qid", "demo2", 2, 1),
        scan("qid", "demo3", 1, 1),
        scan("qid", "z3infl", 1, 1),
        scan("qid", "z3infl", 2, 1),
    ]


# ---------------------------------------------------------------------------
# hom-search


def build_hom_search(rng: random.Random, files: Files) -> list[Op]:
    """Large hom enumerations: every candidate a hom, or almost none.

    Only codomains are relabelled.  The work of a hom search depends on
    the domain's element order (through its greedy generating set), and
    is unchanged by relabelling the codomain.
    """
    f = files
    z4cube = product_group_input([4, 4, 4], _gen_names(rng, 3))
    z4sq = product_group_input([4, 4], _gen_names(rng, 2))
    z4sq_tab = table_group_input(z4sq.group, [], rng, relabel=True, prefix="q")
    z8sq = product_group_input([8, 8], _gen_names(rng, 2))
    z8sq_tab = table_group_input(z8sq.group, [], rng, relabel=True, prefix="w")
    gl23, _ = general_linear_group(3, 2)
    gl_dom = table_group_input(gl23, [], rng, relabel=False, prefix="m")
    gl_cod = table_group_input(gl23, [], rng, relabel=True, prefix="n")
    gl22, _ = general_linear_group(2, 2)
    s3_cod = table_group_input(gl22, [], rng, relabel=True, prefix="s")

    z4cube_g = f.group("z4cube.grp", z4cube.text + "\n")
    z4sq_g = f.group("z4sq.grp", z4sq.text + "\n")
    z4sq_tab_g = f.group("z4sq_table.grp", z4sq_tab.text + "\n")
    z8sq_g = f.group("z8sq.grp", z8sq.text + "\n")
    z8sq_tab_g = f.group("z8sq_table.grp", z8sq_tab.text + "\n")
    gl_dom_g = f.group("gl23.grp", gl_dom.text + "\n")
    gl_cod_g = f.group("gl23_relabelled.grp", gl_cod.text + "\n")
    s3_cod_g = f.group("s3_relabelled.grp", s3_cod.text + "\n")

    # two faithful diagonal representations of Z4 x Z4 on GF(5)^2
    g1 = product_group_input([4, 4], _gen_names(rng, 2))
    g2 = product_group_input([4, 4], _gen_names(rng, 2))
    rep1 = f.rep(
        "z4sq_diag.rep", rep_text(5, 2, g1, [_diag(2, 1), _diag(1, 2)], _random_basis(rng, 5, 2))
    )
    rep2 = f.rep(
        "z4sq_mixed.rep", rep_text(5, 2, g2, [_diag(2, 2), _diag(1, 3)], _random_basis(rng, 5, 2))
    )
    s3_dom_g = f.group("s3.grp", table_group_input(gl22, [], rng, False, "s").text + "\n")

    return [
        _pair(f, "homs-z4cube-z4sq", "homs", z4cube_g, z4sq_tab_g, checks.homs),
        _pair(f, "homs-z8sq-z8sq", "homs", z8sq_g, z8sq_tab_g, checks.homs),
        _pair(f, "homs-gl23-s3", "homs", gl_dom_g, s3_cod_g, checks.homs),
        _pair(f, "homs-gl23-gl23", "homs", gl_dom_g, gl_cod_g, checks.homs),
        _pair(f, "homs-z4sq-z4cube", "homs", z4sq_g, z4cube_g, checks.homs),
        _pair(f, "homs-s3-gl23", "homs", s3_dom_g, gl_cod_g, checks.homs),
        _pair(f, "check-geo-groups-gl23-s3", "check-geo-groups", gl_dom_g, s3_cod_g,
              checks.geo_certificate),
        _pair(f, "check-geo-groups-z4cube-z4sq", "check-geo-groups", z4cube_g, z4sq_g,
              checks.geo_certificate),
        _pair(f, "check-geo-groups-z8sq-z4sq", "check-geo-groups", z8sq_g, z4sq_g,
              checks.geo_certificate),
        _pair(f, "homs-reps-z4sq", "homs", rep1, rep2, checks.homs, "--reps"),
        _pair(f, "check-geo-z4sq-reps", "check-geo", rep1, rep2, checks.geo_certificate),
    ]


BUILDERS = {
    "cli-mix": build_cli_mix,
    "assignment-space": build_assignment_space,
    "witness-scan": build_witness_scan,
    "hom-search": build_hom_search,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate, write and parse the inputs of one workload; returns its
    cycle of calls."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = BUILDERS[name](rng, Files(workdir))
    rng.shuffle(ops)
    return ops
