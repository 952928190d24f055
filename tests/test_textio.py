import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from repgeo import (
    Assignment,
    FreeContext,
    GroupAtom,
    GroupWord,
    ModuleAtom,
    ModuleElement,
    NotAnAction,
    ParseError,
    PrimeField,
    QuasiIdentity,
    SearchBounds,
    SourceSpan,
    bounded_atoms,
    bounded_module_elements,
    bounded_words,
    equation_system,
    eval_module,
    identity_word,
    infer_context,
    parse_atom,
    parse_group_file,
    parse_qid,
    parse_rep_file,
    parse_system_file,
    parse_term,
    parse_word,
    ring_from_terms,
    ring_zero,
    serialize,
    serialize_qid,
    serialize_system,
    ygen,
)
from repgeo.cli import main
from repgeo.errors import InvalidInput, RepGeoError, UnknownVariable
from repgeo.sampling import random_qid, random_representation, random_system

GF2 = PrimeField(2)
GF3 = PrimeField(3)
CTX = FreeContext(("x",), ("y",))
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


R2_FILE = """\
field p=2
group product(cyclic(2) as a, cyclic(2) as b)
dim 2
act a = [[0,1],[1,0]]
act b = [[1,0],[0,1]]
act a·b = [[0,1],[1,0]]
"""


# -- expression grammar ------------------------------------------------------


def test_parse_witness_qid():
    q = parse_qid("x*y - x = 0 => y = 1", CTX, GF2)
    assert isinstance(q, QuasiIdentity)
    assert len(q.premises) == 1
    assert isinstance(q.premises[0], ModuleAtom)
    assert isinstance(q.conclusion, GroupAtom)
    assert serialize_qid(q) == "x*(1 + y) = 0 => y = 1"


def test_parse_tautology_reduces():
    a = parse_atom("y*y^-1 = 1", CTX, GF2)
    assert isinstance(a, GroupAtom)
    assert a.word.is_identity()


def test_parse_ring_coefficients_mod_p():
    u = parse_term("x*(2*y + 1)", CTX, GF3)
    assert isinstance(u, ModuleElement)
    ((xi, r),) = u.parts
    assert xi == 0 and r.num_terms() == 2
    # same expression over GF(2): 2*y vanishes
    v = parse_term("x*(2*y + 1)", CTX, GF2)
    ((_, r2),) = v.parts
    assert r2.num_terms() == 1


def test_parse_word_powers():
    w = parse_word("y^2 * y^-1", CTX)
    assert isinstance(w, GroupWord)
    assert w.letters == ((0, 1),)


@pytest.mark.parametrize("parse, text, expected", [
    (parse_word, "(y*z)*y", "y*z*y"),
    (parse_term, "x*(0)", "0"),
    (parse_term, "x*(y + 0)", "x*y"),
])
def test_parse_parenthesized_words_and_zero_ring_terms(parse, text, expected):
    ctx = FreeContext(("x",), ("y", "z"))
    args = (ctx,) if parse is parse_word else (ctx, GF3)
    assert serialize(parse(text, *args)) == expected


def test_long_word_parses_in_linear_time():
    # 12,002 factors that do not cancel: about 0.1 s when the word is reduced
    # once, half a minute when each "*" reduces the word read so far
    ctx = FreeContext(("x",), ("y", "z"))
    start = time.perf_counter()
    w = parse_word("*".join(["y", "z"] * 6000 + ["z^-1", "y^-1"]), ctx)
    assert time.perf_counter() - start < 5
    assert w.letters == ((0, 1), (1, 1)) * 5999


DEEP = "(" * 5000 + "y*z^-1" + ")" * 5000


def test_deeply_nested_word_parses_as_the_word():
    # parentheses only group: 5,000 of them read in one pass, with no
    # recursion per level, in a module term's word and in a group atom
    ctx = FreeContext(("x",), ("y", "z"))
    deep = parse_qid(f"x*{DEEP} - x = 0 => {DEEP} = 1", ctx, GF3)
    assert deep == parse_qid("x*y*z^-1 - x = 0 => y*z^-1 = 1", ctx, GF3)
    text = "xvars x\nyvars y z\ngroup: {} = 1\n"
    assert parse_system_file(text.format(DEEP), GF3) == parse_system_file(text.format("y*z^-1"), GF3)


def test_deeply_unclosed_word_expects_a_parenthesis_at_the_end():
    text = "=> " + "(" * 5000 + "y"
    with pytest.raises(ParseError) as e:
        parse_qid(text, CTX, GF2)
    assert str(e.value) == f"1:{len(text) + 1}: expected )"


def test_deeply_nested_word_through_the_cli(tmp_path, capsys):
    path = tmp_path / "r.rep"
    path.write_text("field p=2\ngroup cyclic(2) as a\ndim 1\nact a = [[1]]\n", encoding="utf-8")
    deep = "(" * 5000 + "y" + ")" * 5000
    assert main(["--json", "qid", str(path), f"{deep} = 1 => x*y - x = 0"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "fulfilled"
    text = "=> " + "(" * 5000 + "y"
    assert main(["--json", "qid", str(path), text]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "error"
    assert doc["span"] == {"line": 1, "column": len(text) + 1, "length": 1}


@pytest.mark.parametrize("shape", ["x*y^{k}", "x*(y^{k})", "x{k}"])
def test_long_sum_parses_in_linear_time(shape):
    # 4,000 distinct terms, so nothing cancels on the way: about 0.1 s when
    # the sum is canonicalised once, over 15 s when each "+" builds the sum
    # read so far
    n = 4000
    if shape == "x*(y^{k})":
        text = "x*(" + " + ".join(f"y^{k}" for k in range(1, n + 1)) + ")"
    else:
        text = " + ".join(shape.format(k=k) for k in range(1, n + 1))
    ctx = infer_context(text)
    start = time.perf_counter()
    u = parse_term(text, ctx, GF3)
    assert time.perf_counter() - start < 5
    assert u.num_terms() == n


@pytest.mark.parametrize("shape", ["x{k}", "x*y{k}"])
def test_many_distinct_variables_parse_in_linear_time(shape):
    # 32,000 distinct x- or y-variables: about 0.4 s when each name is found
    # in a dict and the context's hash, which every word's hash takes, is
    # computed once; 16,000 x-variables took 5.7 s when each name was
    # searched for in the tuple of names
    n = 32000
    text = " + ".join(shape.format(k=k) for k in range(1, n + 1))
    ctx = infer_context(text)
    start = time.perf_counter()
    u = parse_term(text, ctx, GF3)
    assert time.perf_counter() - start < 5
    assert u.num_terms() == n


def _random_word(rng, depth=0):
    """A word as text, with its letters as read: y and z powers, "1"
    factors and parenthesised words nested up to three deep."""
    texts, letters = [], []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.2 and depth < 3:
            text, inner = _random_word(rng, depth + 1)
            opens = rng.randint(1, 3)
            texts.append("(" * opens + text + ")" * opens)
            letters += inner
        elif roll < 0.3:
            texts.append("1")
        else:
            v, e = rng.randrange(2), rng.choice((1, 1, 2, 3, -1, -2))
            texts.append("yz"[v] + ("" if e == 1 else f"^{e}"))
            letters.append((v, e))
    return "*".join(texts), letters


def _random_sum(rng, p, summand):
    """[+|-] summand {(+|-) summand} as text, with its (letters, c) or
    (x, letters, c) terms, the sign folded into c.  A summand may repeat
    an earlier one, with either sign, so that terms add up and cancel."""
    texts, terms, seen = [], [], []
    for i in range(rng.randint(1, 5)):
        body, body_terms = rng.choice(seen) if seen and rng.random() < 0.3 else summand()
        seen.append((body, body_terms))
        sign = rng.choice((1, -1))
        lead = "-" if sign < 0 else "+" if i or rng.random() < 0.3 else ""
        texts.append(f"{lead} {body}" if lead else body)
        terms += [(*t[:-1], sign * t[-1]) for t in body_terms]
    return " ".join(texts), terms


def _coefficient(rng, p):
    c = rng.choice((None, 0, 1, 2, p - 1, p, p + 1, 2 * p + 3))
    return ("", 1) if c is None else (f"{c}*", c)


def _ring_summand(rng, p):
    if rng.random() < 0.1:
        return "0", []
    prefix, c = _coefficient(rng, p)
    text, letters = _random_word(rng)
    return prefix + text, [(letters, c)]


def _module_summand(rng, p):
    if rng.random() < 0.1:
        return "0", []
    prefix, c = _coefficient(rng, p)
    x = rng.randrange(2)
    name = prefix + ("x1", "x2")[x]
    roll = rng.random()
    if roll < 0.3:
        return name, [(x, [], c)]
    if roll < 0.6:
        text, letters = _random_word(rng)
        # "x*(" opens a ring sum, so a lone word is led by a "1" factor
        return f"{name}*1*{text}", [(x, letters, c)]
    text, terms = _random_sum(rng, p, lambda: _ring_summand(rng, p))
    return f"{name}*({text})", [(x, letters, c * d) for letters, d in terms]


def _value_at(rep, xmap, ymap, terms):
    """sum(c * xmap[x] . act(w)) by table lookups and vector sums: w's
    element by multiplying letter by letter, the vector as the sum of the
    act matrix's rows weighted by xmap[x]'s entries."""
    g, p = rep.group, rep.p
    out = [0] * rep.dim
    for x, letters, c in terms:
        h = 0
        for v, e in letters:
            gen = ymap[v] if e > 0 else g.inverses[ymap[v]]
            for _ in range(abs(e)):
                h = g.table[h][gen]
        for vi, row in zip(xmap[x], rep.act[h]):
            out = [(o + c * vi * a) % p for o, a in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flat_formulas_evaluate_as_their_terms(p):
    rng = random.Random(500 + p)
    ctx = FreeContext(("x1", "x2"), ("y", "z"))
    for _ in range(3):
        rep = random_representation(rng, primes=(p,), dims=(1,))
        points = [
            Assignment(rep, xmap, ymap)
            for xmap in itertools.product(itertools.product(range(rep.p), repeat=rep.dim), repeat=2)
            for ymap in itertools.product(range(rep.group.order), repeat=2)
        ]
        for _ in range(15):
            text, terms = _random_sum(rng, p, lambda: _module_summand(rng, p))
            u = parse_term(text, ctx, rep.field)
            for asg in points:
                assert eval_module(asg, u) == _value_at(rep, asg.xmap, asg.ymap, terms), text


def test_infer_context():
    ctx = infer_context("x1*y - x2 = 0 => z = 1")
    assert ctx.xvars == ("x1", "x2")
    assert set(ctx.yvars) == {"y", "z"}


def _qid(text):
    return serialize_qid(parse_qid(text, CTX, GF2))


def _context(text):
    ctx = infer_context(text)
    return ctx.xvars, ctx.yvars


@pytest.mark.parametrize("parse, text, expected", [
    # a comment does not advance the column
    (_qid, "x = # c", (ParseError, (1, 5, 1), "1:5: expected int")),
    (_qid, "x*y^-\n# c\n = 0 => y = 1", (ParseError, (3, 2, 1), "3:2: expected int")),
    # "½" continues a name, but begins none: it is neither a digit nor a letter
    (_qid, "½ = 1 => y = 1", (ParseError, (1, 1, 1), "1:1: stray character '½'")),
    (_qid, "x*y½ = 0 => y = 1", (UnknownVariable, (1, 3, 2), "1:3: unknown variable 'y½'")),
    (_context, "2x*y½ = 0 => x1 = 0", (("x", "x1"), ("y½",))),
    # a run of digits is read before a name
    (_qid, "2y = 1 => y = 1", (ParseError, (1, 2, 1), "1:2: expected *")),
    # a term takes one sign
    (_qid, "-+x = 0 => y = 1", (ParseError, (1, 2, 1), "1:2: expected an x-variable")),
    # "\r" is a blank, not a line break
    (_qid, "x\r= 0 => y = 1", "x = 0 => y = 1"),
], ids=["comment-at-end", "comment-line", "stray-half", "name-with-half", "context-with-half",
        "digits-before-name", "two-signs", "carriage-return"])
def test_lexer_edge_cases(parse, text, expected):
    if not (isinstance(expected, tuple) and isinstance(expected[0], type)):
        assert parse(text) == expected
        return
    error, span, message = expected
    with pytest.raises(error) as e:
        parse(text)
    assert (e.value.span, str(e.value)) == (SourceSpan(*span), message)


def test_parse_error_has_span():
    with pytest.raises(ParseError) as e:
        parse_qid("x*y - = 0 => y = 1", CTX, GF2)
    assert e.value.span is not None and e.value.span.line == 1


def test_unreadable_integer_literal_is_a_parse_error():
    # "²" is a digit to str.isdigit but not to int(), at every site that
    # reads an integer.  The expression grammar points at the literal
    for text, column in [
        ("x*y^² = 0 => y = 1", 5),
        ("²*x = 0 => y = 1", 1),
        ("x*(y + ²*y) = 0 => y = 1", 8),
        ("=> y^-١٢² = 1", 7),
    ]:
        with pytest.raises(ParseError) as e:
            parse_qid(text, CTX, GF2)
        assert (e.value.span.line, e.value.span.column) == (1, column), text
    # the file formats report it where that line's other bad numbers go
    head = "field p=2\ngroup cyclic(2) as a\n"
    for text, line in [
        ("field p=²\ngroup cyclic(2) as a\ndim 1\n", 1),
        ("field p=2\ngroup product(cyclic(2) as a, cyclic(²) as b)\ndim 1\n", 2),
        (head + "dim ²\n", 3),
        (head + "dim 1\nact a = [[²]]\n", 4),
        (head + "dim 1\nact a = [[-²]]\n", 4),
    ]:
        with pytest.raises(ParseError) as e:
            parse_rep_file(text)
        assert e.value.span.line == line, text
    with pytest.raises(ParseError):
        parse_group_file("group cyclic(²)\n")


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="int() reads a 5,000-digit literal here",
)
def test_literal_longer_than_int_reads_is_a_parse_error():
    digits = "7" * 5000
    with pytest.raises(ParseError) as e:
        parse_word(f"y^{digits}", CTX)
    assert (e.value.span.column, e.value.span.length) == (3, 5000)
    with pytest.raises(ParseError) as e:
        parse_rep_file(f"field p=2\ngroup cyclic(2) as a\ndim {digits}\n")
    assert e.value.span.line == 3


def test_system_file_error_spans_are_file_positions():
    # spans count the line, the indentation and the "module:"/"group:" prefix
    head = "xvars x\nyvars y\n"
    for body, line, column in [
        ("module: x*y - = 0\n", 3, 15),
        ("group: y = 1\n  module: x*y^ = 0\n", 4, 16),
        ("\tgroup:y*(y = 1\n", 3, 13),
        ("module: x*y^² = 0 # note\n", 3, 13),
    ]:
        with pytest.raises(ParseError) as e:
            parse_system_file(head + body, GF2)
        assert (e.value.span.line, e.value.span.column) == (line, column), body
        assert str(e.value).startswith(f"{line}:{column}:")
    with pytest.raises(UnknownVariable) as e:
        parse_system_file(head + "\n  group: q = 1\n", GF2)
    assert (e.value.span.line, e.value.span.column) == (4, 10)


def test_system_file_variable_names_are_identifiers():
    # a name the expression grammar cannot read as one variable is an
    # error at its own column; element names of group files stay free
    head = "xvars x\n"
    for header, column, length in [
        ("yvars y +z\n", 9, 2),
        ("yvars y q*r\n", 9, 3),
        ("  yvars ab1 1\n", 13, 1),
    ]:
        with pytest.raises(ParseError) as e:
            parse_system_file(head + header + "group: y = 1\n", GF2)
        assert e.value.span == SourceSpan(2, column, length), header
        assert e.value.expected == "a variable name"
    with pytest.raises(ParseError) as e:
        parse_system_file("xvars x 2x\nyvars y\n", GF2)
    assert e.value.span == SourceSpan(1, 9, 2)
    g = parse_group_file("group table\nelements 1 g^2 a·b\nrow 1 g^2 a·b\n"
                         "row g^2 a·b 1\nrow a·b 1 g^2\n")
    assert g.names == ("1", "g^2", "a·b")


def test_system_file_header_takes_a_tokenizer_identifier():
    # "²" continues an identifier in the expression grammar, so the
    # header accepts the name the atoms read as one variable
    ctx, system = parse_system_file("xvars x\nyvars y²\ngroup: y²*y² = 1\n", GF2)
    assert ctx.yvars == ("y²",)
    assert len(system.group_part) == 1


def test_system_file_header_rejects_a_combining_mark():
    # a decomposed "é" (e + U+0301) passes str.isidentifier, but the
    # tokenizer stops at the combining mark: the header rejects it
    with pytest.raises(ParseError) as e:
        parse_system_file("xvars x\nyvars e\u0301\ngroup: e\u0301 = 1\n", GF2)
    assert e.value.span == SourceSpan(2, 7, 2)
    assert e.value.expected == "a variable name"


def test_group_file_generator_name_follows_the_identifier_rule():
    # "as NAME" takes the names the headers take: "g²" is one identifier
    # token, a decomposed "é" (e + U+0301) is not
    assert parse_group_file("group cyclic(2) as g²\n").names == ("1", "g²")
    with pytest.raises(ParseError) as e:
        parse_group_file("group cyclic(2) as e\u0301\n")
    assert (e.value.span, e.value.expected) == (SourceSpan(1, 1, 21), '"as NAME"')


def test_product_factor_holding_a_comma(tmp_path, capsys):
    # a factor cyclic(N) [as NAME] holds no comma, so a product splits at
    # every comma and "cyclic(2" lacks its ")"
    text = "group product(cyclic(2,3) as a, cyclic(2) as b)\n"
    with pytest.raises(ParseError) as e:
        parse_group_file(text)
    assert (e.value.span, e.value.expected) == (SourceSpan(1, 1, 47), '")"')
    path = tmp_path / "bad.grp"
    path.write_text(text, encoding="utf-8")
    assert main(["--json", "check-geo-groups", str(path), str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "error"
    assert doc["span"] == {"line": 1, "column": 1, "length": 47}


def test_rep_file_generator_name_follows_the_identifier_rule():
    rep = parse_rep_file("field p=2\ngroup product(cyclic(2) as g², cyclic(2) as h)\n"
                         "dim 1\nact g² = [[1]]\nact h = [[1]]\nact g²·h = [[1]]\n")
    assert rep.group.names == ("1", "h", "g²", "g²·h")
    with pytest.raises(ParseError) as e:
        parse_rep_file("field p=2\n  group cyclic(2) as e\u0301\ndim 1\n")
    assert (e.value.span, e.value.expected) == (SourceSpan(2, 3, 21), '"as NAME"')


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_word("q", CTX)


def test_cli_reports_an_unknown_variables_position(tmp_path, capsys):
    # as for a ParseError: a line:column prefix, and a span in --json output
    system = tmp_path / "t.sys"
    system.write_text("xvars x\nyvars y\n  group: q = 1\n", encoding="utf-8")
    argv = ["closure", str(EXAMPLES / "r_p3.rep"), "--system", str(system), "--member", "x = 0"]
    assert main(argv) == 3
    assert capsys.readouterr().out == "error: 3:10: unknown variable 'q'\n"
    assert main(["--json"] + argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "3:10: unknown variable 'q'"
    assert doc["span"] == {"line": 3, "column": 10, "length": 1}


# -- files -------------------------------------------------------------------


def test_parse_r2_file(r2):
    rep = parse_rep_file(R2_FILE)
    assert rep.field == r2.field and rep.dim == 2
    assert set(rep.group.names) == set(r2.group.names)
    for name in rep.group.names:
        assert rep.act[rep.group.index(name)] == r2.act[r2.group.index(name)]


REP_HEAD = "field p=2\ngroup cyclic(2) as a\ndim 2\n"
EYE = "[[1,0],[0,1]]"
ORDER_65 = " ".join(["1"] + [f"g{i}" for i in range(1, 65)])


def _parse_gf2_system(text):
    return parse_system_file(text, GF2)


@pytest.mark.parametrize("parse, text, span, match, via_cli", [
    # rep-file act lines
    (parse_rep_file, REP_HEAD + f"  mat a = {EYE}\n", (4, 3, 21), '"act <element>', False),
    (parse_rep_file, REP_HEAD + f"act a {EYE}\n", (4, 1, 19), '"="', False),
    (parse_rep_file, REP_HEAD + f"act b = {EYE}\n", (4, 1, 21), "got 'b'", False),
    (parse_rep_file, REP_HEAD + f"act a = {EYE}\nact a = {EYE}\n", (5, 1, 21), "at most once", True),
    # group tables
    (parse_group_file, f"group table\nelements {ORDER_65}\n", None, "order 65 exceeds cap 64", False),
    (parse_group_file, "group table\n  elements 1 a a\n", (2, 3, 14), "distinct", False),
    (parse_group_file, "group table\nelements 1 a\nrow 1 a\nrow a b\n", (4, 1, 7), "got 'b'", False),
    # cyclic factors
    (parse_group_file, "group product(cyclic(2) as a, cycle(2) as b)\n", (1, 1, 44), "cyclic", False),
    (parse_group_file, "group cyclic(2 as a\n", (1, 1, 19), '"\\)"', False),
    (parse_group_file, "group cyclic(0) as a\n", None, r"order 0 outside \[1, 64\]", False),
    (parse_group_file, "group cyclic(65) as a\n", None, r"order 65 outside \[1, 64\]", False),
    (parse_group_file, "group cyclic(2) as 2a\n", (1, 1, 21), '"as NAME"', False),
    (parse_group_file, "group product(cyclic(2) as a)\n", (1, 1, 29), "two product factors", False),
    # atoms of the wrong sort
    (_parse_gf2_system, "xvars x\nyvars y\nmodule: y = 1\n", (3, 1, 13), "module equation", False),
    (_parse_gf2_system, "xvars x\nyvars y\ngroup: x = 0\n", (3, 1, 12), "group equation", False),
], ids=["no-act", "no-equals", "unknown-element", "element-twice", "table-over-cap",
        "repeated-names", "unknown-row-name", "not-cyclic", "no-paren", "order-0", "order-65",
        "bad-as-name", "one-factor-product", "group-after-module", "module-after-group"])
def test_text_layer_input_errors(parse, text, span, match, via_cli, tmp_path, capsys):
    # ParseErrors carry the span of their line; InvalidInput has none
    with pytest.raises(RepGeoError, match=match) as e:
        parse(text)
    assert getattr(e.value, "span", None) == (span and SourceSpan(*span))
    if via_cli:
        path = tmp_path / "bad.rep"
        path.write_text(text, encoding="utf-8")
        assert main(["--json", "qid", str(path), "y = 1"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "error"
        assert doc["span"] == {"line": span[0], "column": span[1], "length": span[2]}


def test_rep_file_not_an_action():
    bad = "field p=2\ngroup cyclic(2) as a\ndim 2\nact a = [[0,1],[1,1]]\n"
    with pytest.raises(NotAnAction):
        parse_rep_file(bad)


def test_empty_rep_file():
    # also group and system files, and files holding only comments
    parsers = [
        (parse_rep_file, "field"),
        (parse_group_file, "group"),
        (lambda text: parse_system_file(text, PrimeField(2)), "xvars"),
    ]
    for parse, first in parsers:
        for text in ("", "# nothing here\n\n"):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert (e.value.span.line, e.value.span.column) == (1, 1)
            assert e.value.expected == first


def test_bad_matrix_literal_column():
    head = "field p=2\ngroup cyclic(2) as a\ndim 2\n"
    for act, column in [("act a = a", 9), ("act a =  [[1,0],[0,1]", 10), ("act a=[[1,0]]x", 7)]:
        with pytest.raises(ParseError) as e:
            parse_rep_file(head + act + "\n")
        assert (e.value.span.line, e.value.span.column) == (4, column), act


def test_group_file_table_form():
    text = (
        "group table\n"
        "  elements 1 a\n"
        "  row 1 a\n"
        "  row a 1\n"
    )
    g = parse_group_file(text)
    assert g.order == 2 and g.names == ("1", "a")


def test_system_file_roundtrip(gf2):
    text = "xvars x\nyvars y\nmodule: x*y - x = 0\ngroup: y^2 = 1\n"
    ctx, sys = parse_system_file(text, gf2)
    assert ctx == CTX
    assert len(sys.module_part) == 1 and len(sys.group_part) == 1
    again = parse_system_file(serialize_system(ctx, sys), gf2)
    assert again == (ctx, sys)


# -- round-trip properties ---------------------------------------------------


def test_roundtrip_bounded_values():
    bounds = SearchBounds(1, 1, 2, 2, 2, 2)
    for w in bounded_words(CTX, 2):
        assert parse_word(serialize(w), CTX) == w
    for field in (GF2, GF3):
        for u in bounded_module_elements(CTX, field, bounds):
            assert parse_term(serialize(u), CTX, field) == u
        for a in bounded_atoms(CTX, field, bounds):
            assert parse_atom(serialize(a), CTX, field) == a


def test_roundtrip_random_values():
    rng = random.Random(77)
    for _ in range(200):
        field = rng.choice((GF2, GF3))
        q = random_qid(rng, CTX, field)
        assert parse_qid(serialize(q), CTX, field) == q


def test_roundtrip_random_reps():
    rng = random.Random(78)
    for _ in range(10):
        rep = random_representation(rng)
        assert parse_rep_file(serialize(rep)) == rep


def test_roundtrip_random_systems():
    rng = random.Random(79)
    for _ in range(20):
        field = rng.choice((GF2, GF3))
        sys = random_system(rng, CTX, field)
        assert parse_system_file(serialize_system(CTX, sys), field) == (CTX, sys)


def test_serialize_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    for _ in range(20):
        a = random_qid(rng1, CTX, GF3)
        b = random_qid(rng2, CTX, GF3)
        assert serialize(a) == serialize(b)


@pytest.mark.parametrize("value, expected", [
    (ring_zero(CTX, GF3), "0"),
    (ring_from_terms(CTX, GF3, [(ygen(CTX, 0), 2), (identity_word(CTX), 1)]), "1 - y"),
    (equation_system(CTX, group_part=[ygen(CTX, 0, 2)]), "xvars x\nyvars y\ngroup: y^2 = 1\n"),
    (3, None),
])
def test_serialize_values(value, expected):
    if expected is None:
        with pytest.raises(InvalidInput, match="cannot serialize int"):
            serialize(value)
    else:
        assert serialize(value) == expected


def test_serialize_idempotent_on_files():
    text = serialize(parse_rep_file(R2_FILE))
    assert serialize(parse_rep_file(text)) == text


# -- fuzzing -----------------------------------------------------------------


def test_fuzz_expression_parser_no_crash():
    from repgeo.errors import RepGeoError

    rng = random.Random(99)
    alphabet = "xy*^+-()=>& 0123456789#\n\t qz[²١é ½\r\x0b"
    for _ in range(3000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        try:
            parse_qid(s, CTX, GF2)
        except RepGeoError:
            pass


def test_fuzz_file_parsers_no_crash():
    from repgeo.errors import RepGeoError

    rng = random.Random(101)
    lines = [
        "field p=2", "field p=4", "group cyclic(2) as a", "group table",
        "elements 1 a", "row 1 a", "row a 1", "dim 2",
        "act a = [[0,1],[1,0]]", "act a = [[0,1]", "garbage", "", "# note",
        "xvars x", "yvars y", "module: x*y - x = 0", "group: y = 1",
    ]
    for _ in range(1000):
        text = "\n".join(rng.choice(lines) for _ in range(rng.randint(0, 8)))
        for fn in (parse_rep_file, parse_group_file):
            try:
                fn(text)
            except RepGeoError:
                pass
        try:
            parse_system_file(text, GF2)
        except RepGeoError:
            pass
