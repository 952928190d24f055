import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repgeo import (
    GroupHom,
    PrimeField,
    cyclic_group,
    enumerate_group_homs,
    enumerate_rep_homs,
    group_from_table,
    make_representation,
)
from repgeo.cli import _dumps, _same_codomain_homs, main
from repgeo.config import DEFAULT_BOUNDS

R1_FILE = """\
field p=2
group cyclic(2) as a
dim 2
act a = [[0,1],[1,0]]
"""

R2_FILE = """\
field p=2
group product(cyclic(2) as a, cyclic(2) as b)
dim 2
act a = [[0,1],[1,0]]
act b = [[1,0],[0,1]]
act a·b = [[0,1],[1,0]]
"""

TRIVIAL_FILE = """\
field p=2
group cyclic(2) as a
dim 2
act a = [[1,0],[0,1]]
"""

Z2_GRP = "group cyclic(2) as a\n"
V4_GRP = "group product(cyclic(2) as a, cyclic(2) as b)\n"
Z3_GRP = "group cyclic(3) as c\n"

SYS_FILE = "xvars x\nyvars y\nmodule: x*y - x = 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("r1.rep", R1_FILE),
        ("r2.rep", R2_FILE),
        ("triv.rep", TRIVIAL_FILE),
        ("z2.grp", Z2_GRP),
        ("v4.grp", V4_GRP),
        ("z3.grp", Z3_GRP),
        ("t.sys", SYS_FILE),
    ]:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def _json_run(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_qid_witness(files, capsys):
    code, doc = _json_run(
        capsys, ["qid", files["r1.rep"], "x*y - x = 0 => y = 1"]
    )
    assert code == 1
    assert doc["outcome"] == "not-fulfilled"
    assert doc["witness"]["y"] == ["a"]


def test_qid_fulfilled(files, capsys):
    code, doc = _json_run(capsys, ["qid", files["r1.rep"], "=> y*y = 1"])
    assert code == 0 and doc["witness"] is None


def test_check_geo_groups(files, capsys):
    code, doc = _json_run(
        capsys, ["check-geo-groups", files["z2.grp"], files["v4.grp"]]
    )
    assert code == 0 and doc["outcome"] == "equivalent"
    code, doc = _json_run(
        capsys, ["check-geo-groups", files["z2.grp"], files["z3.grp"]]
    )
    assert code == 1 and doc["outcome"] == "not-equivalent"


def test_check_geo_reps(files, capsys):
    code, doc = _json_run(capsys, ["check-geo", files["r1.rep"], files["r2.rep"]])
    assert code == 0
    assert "forward" in doc["certificate"] and "backward" in doc["certificate"]


def test_check_at(files, capsys):
    code, doc = _json_run(capsys, ["check-at", files["r1.rep"], files["r2.rep"]])
    assert code == 0 and doc["outcome"] == "equivalent"
    code, doc = _json_run(capsys, ["check-at", files["r1.rep"], files["triv.rep"]])
    assert code == 1
    assert doc["witness"]["in_first"] != doc["witness"]["in_second"]


def test_check_at_zero_bound_is_used(files, capsys):
    argv = ["check-at", files["r1.rep"], files["triv.rep"], "--max-word-len", "0"]
    code, doc = _json_run(capsys, argv)
    assert doc["bounds"]["max_word_len"] == 0
    assert code == 2 and doc["outcome"] == "unknown"


def test_check_at_negative_bound_exit_3(files, capsys):
    argv = ["check-at", files["r1.rep"], files["triv.rep"], "--max-terms", "-1"]
    code, doc = _json_run(capsys, argv)
    assert code == 3 and doc["outcome"] == "error"
    assert "--max-terms" in doc["error"]


def test_qid_search_space_cap_exit_3(files, capsys):
    # 12 x-variables over GF(2)^2 and one y over Z2: 2^25 points > 2^24
    formula = "x1*y - x1 = 0 => " + " + ".join(f"x{i}" for i in range(1, 13)) + " = 0"
    code, doc = _json_run(capsys, ["qid", files["r1.rep"], formula])
    assert code == 3 and doc["outcome"] == "error"
    assert doc["error"] == f"assignment space {2**25} > cap {2**24}"


def test_product_order_cap_checked_before_building(tmp_path):
    # the order-4096 product would take far longer than the timeout to build
    rep = tmp_path / "big.rep"
    rep.write_text(
        "field p=2\ngroup product(cyclic(64) as a, cyclic(64) as b)\ndim 1\n",
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "repgeo.cli", "--json", "faithful", str(rep)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert done.returncode == 3
    assert "exceeds cap" in json.loads(done.stdout)["error"]


def test_closure(files, capsys):
    args = ["closure", files["r1.rep"], "--system", files["t.sys"], "--member"]
    code, doc = _json_run(capsys, args + ["x*y^2 - x = 0", "--action-type"])
    assert code == 0 and doc["outcome"] == "member"
    code, doc = _json_run(capsys, args + ["x = 0"])
    assert code == 1 and doc["outcome"] == "non-member"


@pytest.mark.parametrize("member, system", [
    ("y = 1", SYS_FILE),
    ("x = 0", SYS_FILE + "group: y^2 = 1\n"),
], ids=["group-atom-member", "group-line-in-system"])
def test_closure_action_type_needs_module_atom_and_action_type_system(member, system, files, tmp_path, capsys):
    path = tmp_path / "g.sys"
    path.write_text(system, encoding="utf-8")
    argv = ["closure", files["r1.rep"], "--system", str(path), "--member", member, "--action-type"]
    code, doc = _json_run(capsys, argv)
    assert code == 3 and doc["outcome"] == "error"
    assert "--action-type needs a module atom" in doc["error"]


def test_faithful(files, capsys, tmp_path):
    out = tmp_path / "quot.rep"
    code, doc = _json_run(
        capsys, ["faithful", files["r2.rep"], "-o", str(out)]
    )
    assert code == 0
    from repgeo import parse_rep_file

    quot = parse_rep_file(out.read_text(encoding="utf-8"))
    assert quot.group.order == 2


def test_homs(files, capsys):
    code, doc = _json_run(capsys, ["homs", files["v4.grp"], files["z2.grp"]])
    assert code == 0 and doc["certificate"]["count"] == 4
    code, doc = _json_run(
        capsys, ["homs", files["r1.rep"], files["r1.rep"], "--reps"]
    )
    assert doc["certificate"]["count"] == 8


def test_paper_demo(files, capsys):
    code, doc = _json_run(capsys, ["paper-demo", "--p", "2"])
    assert code == 0
    statuses = {c["id"]: c["status"] for c in doc["certificate"]["claims"]}
    assert statuses == {
        "C1": "CONFIRMED",
        "C2": "CONFIRMED",
        "C3": "CONFIRMED",
        "C4": "CONTRADICTED",
        "C5": "CONFIRMED",
        "C6": "CONTRADICTED",
    }


def test_parse_error_exit_3(files, capsys, tmp_path):
    bad = tmp_path / "bad.rep"
    bad.write_text("nonsense\n", encoding="utf-8")
    code, doc = _json_run(capsys, ["qid", str(bad), "y = 1"])
    assert code == 3 and doc["outcome"] == "error"
    assert "span" in doc


def test_unreadable_integer_literal_exit_3(files, capsys):
    # "²" passes str.isdigit but not int(): an input error, not a crash
    code, doc = _json_run(capsys, ["qid", files["r1.rep"], "x*y^² = 0 => y = 1"])
    assert code == 3 and doc["outcome"] == "error"
    assert doc["span"] == {"line": 1, "column": 5, "length": 1}


def test_qid_with_a_21_digit_exponent(tmp_path, capsys):
    # Z2 acting trivially on GF(2): y^(10^20) is y^0 = 1, and x*1 = 0 forces x = 0
    path = tmp_path / "r.rep"
    path.write_text("field p=2\ngroup cyclic(2) as a\ndim 1\nact a = [[1]]\n", encoding="utf-8")
    code, doc = _json_run(capsys, ["qid", str(path), "x*y^100000000000000000000 = 0 => x = 0"])
    assert code == 0 and doc["outcome"] == "fulfilled"


def test_non_identifier_variable_name_exit_3(tmp_path, files, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("xvars x\nyvars y q*r\nmodule: x*y - x = 0\n")
    args = ["closure", files["r1.rep"], "--system", str(path), "--member", "x = 0"]
    code, doc = _json_run(capsys, args)
    assert code == 3 and doc["outcome"] == "error"
    assert doc["span"] == {"line": 2, "column": 9, "length": 3}


def test_missing_file_exit_3(capsys):
    code, doc = _json_run(capsys, ["qid", "/nonexistent.rep", "y = 1"])
    assert code == 3


def test_json_stable_modulo_timing(files, capsys):
    def run_once():
        main(["--json", "check-geo", files["r1.rep"], files["r2.rep"]])
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing_ms")
        # inputs contain tmp paths, fine: identical between the two runs
        return json.dumps(doc, sort_keys=True)

    assert run_once() == run_once()


def test_human_output_not_json(files, capsys):
    code = main(["qid", files["r1.rep"], "=> y*y = 1"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "fulfilled"


# Golden CLI output: every subcommand in --json and human mode on the
# fixture files above, compared in full with timing_ms normalised and the
# temporary directory written as TMP; an argument naming a fixture file
# stands for its path.  The recorded outputs live in
# cli_golden.json next to this file.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "cli_golden.json")
CAP_QID = "x1*y - x1 = 0 => " + " + ".join(f"x{i}" for i in range(1, 13)) + " = 0"
GOLDEN_CASES = {
    "check-geo-groups-equivalent": ["check-geo-groups", "z2.grp", "v4.grp"],
    "check-geo-groups-not-equivalent": ["check-geo-groups", "z2.grp", "z3.grp"],
    "check-geo": ["check-geo", "r1.rep", "r2.rep"],
    "check-at-equivalent": ["check-at", "r1.rep", "r2.rep"],
    "check-at-not-equivalent": ["check-at", "r1.rep", "triv.rep"],
    "check-at-unknown": ["check-at", "r1.rep", "triv.rep", "--max-word-len", "0"],
    "qid-fulfilled": ["qid", "r1.rep", "=> y*y = 1"],
    "qid-not-fulfilled": ["qid", "r1.rep", "x*y - x = 0 => y = 1"],
    "closure": ["closure", "r1.rep", "--system", "t.sys", "--member", "x = 0"],
    "closure-action-type": ["closure", "r1.rep", "--system", "t.sys",
                            "--member", "x*y^2 - x = 0", "--action-type"],
    "faithful": ["faithful", "r2.rep"],
    "faithful-output": ["faithful", "r2.rep", "-o", "quot.rep"],
    "homs": ["homs", "v4.grp", "z2.grp"],
    "homs-reps": ["homs", "r1.rep", "r1.rep", "--reps"],
    "paper-demo": ["paper-demo", "--p", "2"],
    "paper-demo-p3": ["paper-demo", "--p", "3"],
    "paper-demo-p5": ["paper-demo", "--p", "5"],
    "error-parse": ["qid", "bad.rep", "y = 1"],
    "error-missing-file": ["qid", "missing.rep", "y = 1"],
    "error-cap": ["qid", "r1.rep", CAP_QID],
}


def test_golden_output(files, tmp_path, capsys):
    (tmp_path / "bad.rep").write_text("field p=2\nnonsense\n", encoding="utf-8")
    paths = dict(files)
    paths.update({name: str(tmp_path / name) for name in ("bad.rep", "missing.rep", "quot.rep")})
    outputs = {}
    for case, argv in GOLDEN_CASES.items():
        argv = [paths.get(a, a) for a in argv]
        for mode, prefix in (("json", ["--json"]), ("human", [])):
            code = main(prefix + argv)
            out = capsys.readouterr().out.replace(str(tmp_path), "TMP")
            out = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out)
            outputs[f"{case} {mode}"] = {"exit": code, "stdout": out}
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        assert outputs == json.load(f)


def test_bound_flags_do_not_leak_between_calls(files, capsys):
    argv = ["check-at", files["r1.rep"], files["triv.rep"]]
    _, doc = _json_run(capsys, argv + ["--max-word-len", "0"])
    assert doc["bounds"]["max_word_len"] == 0
    _, doc = _json_run(capsys, argv)
    assert doc["bounds"] == vars(DEFAULT_BOUNDS)


@pytest.mark.parametrize("argv", [
    [],
    ["qid"],
    ["qid", "r1.rep", "x = 0", "--json"],
    ["check-at", "r1.rep", "r2.rep", "--max-vars", "x"],
    ["paper-demo", "--p", "4"],
    ["no-such-command"],
])
def test_usage_error_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "repgeo" in captured.err and "error:" in captured.err


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["qid", "--help"])
    assert e.value.code == 0
    assert "usage: repgeo qid" in capsys.readouterr().out


def test_non_utf8_file_exit_3(tmp_path, capsys):
    latin = tmp_path / "latin.rep"
    latin.write_bytes(b"field p=2 # caf\xe9\n")
    code, doc = _json_run(capsys, ["qid", str(latin), "=> y = 1"])
    assert code == 3 and doc["outcome"] == "error"
    assert str(latin) in doc["error"] and "UTF-8" in doc["error"]


# strings json must escape (quote, backslash, control characters, non-ASCII,
# astral and lone surrogates), DEL, which it leaves alone, and the empty string
_ODD = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", ""]
_TEXT = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(_ODD), max_size=3).map("".join))
_PAYLOAD = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.lists(_TEXT, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOAD)
@example({"a": [], "b": {}, "c": ()})
@example(["plain", "names"])
@example(["", ""])
@example(['a"b', "c\\d", "é"])
@example(["x", 1, None, True, "", ["y"], {"z": "é"}])
def test_writer_matches_json_dumps(payload):
    assert _dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_homs_json_escapes_element_names(tmp_path, capsys):
    # element names that json must escape, in hom images and in the inputs
    names = ['é', 'a"b', "c\\d"]
    rows = "".join(f"row {' '.join(names[i:] + names[:i])}\n" for i in range(3))
    grp = tmp_path / "odd.grp"
    grp.write_text(f"group table\nelements {' '.join(names)}\n{rows}", encoding="utf-8")
    code = main(["--json", "homs", str(grp), str(grp)])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["certificate"]["count"] == 3
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_writer_renders_group_homs_as_image_lists():
    # codomain names json must escape, homs nested in dicts and lists, and
    # ints beside bools, which json writes as true/false
    names = ["1", 'q"', "b\\", "c\x01", "é"]
    z5 = group_from_table(names, [[(i + j) % 5 for j in range(5)] for i in range(5)])
    homs = enumerate_group_homs(cyclic_group(5, "g"), z5)
    plain_homs = [{"image": [names[x] for x in h.image]} for h in homs]
    payload = {"homs": homs, "count": 5, "flags": [True, 0, False, 1], "one": {"h": homs[2]}}
    plain = {**payload, "homs": plain_homs, "one": {"h": plain_homs[2]}}
    assert _dumps(payload) == json.dumps(plain, sort_keys=True, indent=2)


def test_writer_renders_rep_homs_as_image_and_matrix():
    # rep homs beside group homs, into a codomain whose names json must escape
    names = ["1", 'q"', "é"]
    z3 = group_from_table(names, [[(i + j) % 3 for j in range(3)] for i in range(3)])
    gf3 = PrimeField(3)
    src = make_representation(gf3, 1, cyclic_group(3, "g"), {g: [[1]] for g in range(3)})
    dst = make_representation(gf3, 2, z3, {g: [[1, 0], [0, 1]] for g in range(3)})
    homs = enumerate_rep_homs(src, dst)
    plain_homs = [
        {"group_image": [names[x] for x in h.grouphom.image], "matrix": [list(r) for r in h.matrix]}
        for h in homs
    ]
    assert len(homs) == 27 and homs[-1].matrix == ((2, 2),)
    payload = {"homs": homs, "one": {"h": homs[4]}, "group": [homs[0].grouphom]}
    plain = {"homs": plain_homs, "one": {"h": plain_homs[4]}, "group": [{"image": ["1"] * 3}]}
    assert _dumps(payload) == json.dumps(plain, sort_keys=True, indent=2)


def _plain(obj):
    """``obj`` with every ``GroupHom`` written out as plain JSON data."""
    if isinstance(obj, GroupHom):
        return {"image": [obj.codomain.names[x] for x in obj.image]}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def _codomain(names):
    m = len(names)
    return group_from_table(names, [[(i + j) % m for j in range(m)] for i in range(m)])


@st.composite
def _hom_lists(draw):
    """(homs, whether they share one codomain and image length): random
    images into a codomain of order 1-8 whose names json must escape, with
    lengths around the writer's chunk of 256 homs, and sometimes one item
    that must send the list down the per-item path."""
    order = draw(st.integers(1, 8))
    codomain = _codomain(draw(st.lists(_TEXT, min_size=order, max_size=order, unique=True)))
    length = draw(st.sampled_from([1, 1, 2, 3, 6]))  # 1: a trivial domain
    count = draw(st.sampled_from([1, 2, 5, 255, 256, 257, 513]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def hom(cod, n):
        return GroupHom(cyclic_group(n), cod, tuple(rng.randrange(cod.order) for _ in range(n)))

    homs = [hom(codomain, length) for _ in range(count)]
    odd = draw(st.sampled_from([None, "codomain", "equal names", "length", "value"]))
    if odd == "codomain":
        extra = hom(_codomain(draw(st.lists(_TEXT, min_size=1, max_size=8, unique=True))), length)
    elif odd == "equal names":  # equal names, another tuple: still the per-item path
        extra = hom(_codomain(list(codomain.names)), length)
    elif odd == "length":
        extra = hom(codomain, length + 1)
    elif odd == "value":
        extra = draw(_PAYLOAD)
    if odd is not None:
        homs.insert(draw(st.integers(0, count)), extra)
    return homs, odd is None


@settings(max_examples=150, deadline=None)
@given(_hom_lists(), st.sampled_from(["list", "tuple", "in dict", "in list"]))
def test_writer_matches_json_dumps_on_hom_lists(drawn, wrap):
    homs, same = drawn
    assert _same_codomain_homs(homs) == same
    payload = {
        "list": homs,
        "tuple": tuple(homs),
        "in dict": {"certificate": {"count": len(homs), "homs": homs}, "one": homs[-1]},
        "in list": [homs, [homs[:1]], {"h": homs}],
    }[wrap]
    assert _dumps(payload) == json.dumps(_plain(payload), sort_keys=True, indent=2)


def test_homs_json_4096_product_homs(tmp_path, capsys):
    src = tmp_path / "z4cube.grp"
    src.write_text("group product(cyclic(4) as a, cyclic(4) as b, cyclic(4) as c)\n")
    dst = tmp_path / "z4sq.grp"
    dst.write_text("group product(cyclic(4) as d, cyclic(4) as e)\n")
    code = main(["--json", "homs", str(src), str(dst)])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["certificate"]["count"] == 4096
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
