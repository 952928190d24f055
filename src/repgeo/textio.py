"""Text formats: groups, representations, systems, terms, and
quasi-identities.

Serialization is canonical (equal values give byte-identical text) and
parse(serialize(v)) == v structurally.  Every parse error carries a
1-based source span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Iterator, NamedTuple, Optional

from .config import DEFAULT_CAPS, EnumerationCaps
from .errors import InvalidInput, ParseError, UnknownVariable
from .freemod import (
    Atom,
    EquationSystem,
    FreeContext,
    GroupAtom,
    GroupWord,
    ModuleAtom,
    ModuleElement,
    QuasiIdentity,
    RingElement,
    equation_system,
    identity_word,
    module_from_terms,
    reduce_word,
)
from .groups import FiniteGroup, cyclic_group, group_from_table, product_group
from .linalg import PrimeField
from .reps import Representation, make_representation


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


# ---------------------------------------------------------------------------
# Expression tokenizer


# One lexeme per match: a newline, other blanks, a comment, a symbol, a \w
# run or a stray character.  \w is exactly str.isalnum() or "_", and \s is
# str.isspace().
_LEXEME = re.compile(r"(?P<nl>\n)|[^\S\n]+|(?P<comment>#.*)|(?P<sym>=>|[\^*+\-()=&])|(?P<run>\w+)|(?P<stray>.)")


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | symbol itself | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(len(self.text), 1))


def _tokenize(text: str, line0: int = 1, col0: int = 1) -> list[_Token]:
    toks: list[_Token] = []
    line, origin = line0, -col0  # text[i] is at column i - origin
    m = None
    for m in _LEXEME.finditer(text):
        kind, lexeme, col = m.lastgroup, m[0], m.start() - origin
        if kind == "nl":
            line, origin = line + 1, m.start()
        elif kind == "sym":
            toks.append(_Token(lexeme, lexeme, line, col))
        elif kind == "run":
            # a run of digits comes first, so "2y" is 2 then y.  They are
            # str.isdigit() digits, which \d is not: "y^²" reads an int
            # that int() rejects
            k = len(lexeme) if lexeme.isdigit() else next(i for i, c in enumerate(lexeme) if not c.isdigit())
            if k:
                toks.append(_Token("int", lexeme[:k], line, col))
            if k < len(lexeme):
                if lexeme[k].isalpha() or lexeme[k] == "_":
                    toks.append(_Token("ident", lexeme[k:], line, col + k))
                else:  # a \w character that begins no name, such as "½"
                    kind, lexeme, col = "stray", lexeme[k], col + k
        if kind == "stray":
            raise ParseError(SourceSpan(line, col, 1), "a term token", f"{line}:{col}: stray character {lexeme!r}")
    # a comment does not advance the column
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    toks.append(_Token("eof", "", line, end - origin))
    return toks


def _integer(text: str, err: Callable[[], ParseError]) -> int:
    """The integer rule of every format: a run of digits that int() reads.
    Anything else raises err(), digits that int() rejects included: "²", or
    more of them than sys.get_int_max_str_digits()."""
    if text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    raise err()


class _ExprParser:
    def __init__(self, toks: list[_Token], ctx: FreeContext, field: PrimeField):
        self.toks = toks
        self.pos = 0
        self.ctx = ctx
        self.field = field

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def accept(self, kind: str) -> Optional[_Token]:
        """The next token, consumed, if it is of ``kind``."""
        t = self.toks[self.pos]
        if t.kind != kind:
            return None
        self.pos += 1
        return t

    def fail(self, expected: str):
        raise ParseError(self.peek().span, expected)

    def expect(self, kind: str) -> _Token:
        return self.accept(kind) or self.fail(kind)

    def integer(self) -> int:
        t = self.expect("int")
        return _integer(t.text, lambda: ParseError(t.span, "a decimal integer"))

    def full(self, production):
        v = production()
        if self.peek().kind != "eof":
            self.fail("end of input")
        return v

    # -- words -------------------------------------------------------------

    def word(self) -> GroupWord:
        """factor {"*" factor}, where a factor is a y-variable [^ [-]int],
        "1" or "(" word ")".  Parentheses only group, so they are counted,
        not recursed into; and the letters are reduced once at the end, as
        reducing at every "*" costs n^2 for n factors."""
        ctx, letters, depth = self.ctx, [], 0
        while True:
            while self.accept("("):
                depth += 1
            t = self.peek()
            if t.kind == "ident" and t.text in ctx._yindex:
                self.pos += 1
                e = 1
                if self.accept("^"):
                    e = -self.integer() if self.accept("-") else self.integer()
                letters.append((ctx.yindex(t.text), e))
            elif t.text == "1":  # only an int reads "1"
                self.pos += 1
            elif t.kind == "ident" and t.text not in ctx._xindex:
                raise UnknownVariable(t.text, t.span)
            else:
                self.fail("a y-variable" if t.kind == "ident" else "a word factor")
            # after a factor: "*" and the next factor, or the ")" of each open "("
            while not self.accept("*"):
                if not depth:
                    return reduce_word(ctx, letters)
                self.expect(")")
                depth -= 1

    # -- sums --------------------------------------------------------------

    def signed_sum(self, term) -> list:
        """[+|-] term {(+|-) term}, as one list of terms: term(sign) reads a
        summand and returns its terms, the sign taken into their coefficients."""
        terms = []
        while True:
            # one sign per term: "-+x" fails at the "+"
            terms += term(1 if self.accept("+") else -1 if self.accept("-") else 1)
            if self.peek().kind not in ("+", "-"):
                return terms

    def ringterm(self, sign: int) -> list[tuple[GroupWord, int]]:
        c = sign
        if self.peek().kind == "int" and self.toks[self.pos + 1].kind == "*":
            c *= self.integer()
            self.pos += 1  # "*"
        elif self.peek().text == "0":
            self.pos += 1
            return []
        return [(self.word(), c)]

    def modexpr(self) -> ModuleElement:
        return module_from_terms(self.ctx, self.field, self.signed_sum(self.modterm))

    def modterm(self, sign: int) -> list[tuple[int, GroupWord, int]]:
        c = sign
        if self.peek().kind == "int":
            if self.peek().text == "0" and self.toks[self.pos + 1].kind != "*":
                self.pos += 1
                return []
            c *= self.integer()
            self.expect("*")
        t = self.peek()
        if t.kind != "ident" or t.text not in self.ctx._xindex:
            if t.kind == "ident" and t.text not in self.ctx._yindex:
                raise UnknownVariable(t.text, t.span)
            self.fail("an x-variable")
        self.pos += 1
        x = self.ctx.xindex(t.text)
        if not self.accept("*"):
            return [(x, identity_word(self.ctx), c)]
        if not self.accept("("):
            return [(x, self.word(), c)]
        terms = self.signed_sum(self.ringterm)
        self.expect(")")
        return [(x, w, c * d) for w, d in terms]

    # -- atoms and quasi-identities ----------------------------------------

    def module_or_word(self, module_form, word_form):
        """The module form or, failing that, the word form from the same
        token; when both fail, the error of the one that read further."""
        start = self.pos
        try:
            return module_form()
        except ParseError as mod_err:
            mod_pos, self.pos = self.pos, start
            try:
                return word_form()
            except ParseError as word_err:
                raise word_err if self.pos >= mod_pos else mod_err

    def equals(self, side, rhs: str):
        v = side()
        self.expect("=")
        t = self.expect("int")
        if t.text != rhs:
            raise ParseError(t.span, f'"{rhs}"')
        return v

    def atom(self) -> Atom:
        return self.module_or_word(
            lambda: ModuleAtom(self.equals(self.modexpr, "0")),
            lambda: GroupAtom(self.equals(self.word, "1")),
        )

    def qid(self) -> QuasiIdentity:
        premises: list[Atom] = []
        if self.peek().kind != "=>":
            premises.append(self.atom())
            while self.accept("&"):
                premises.append(self.atom())
        self.expect("=>")
        concl = self.atom()
        return QuasiIdentity(tuple(premises), concl)


def parse_word(text: str, ctx: FreeContext) -> GroupWord:
    p = _ExprParser(_tokenize(text), ctx, PrimeField(2))
    return p.full(p.word)


def parse_term(text: str, ctx: FreeContext, field: PrimeField):
    """A module expression or, failing that, a group word."""
    p = _ExprParser(_tokenize(text), ctx, field)
    return p.module_or_word(lambda: p.full(p.modexpr), lambda: p.full(p.word))


def parse_atom(text: str, ctx: FreeContext, field: PrimeField) -> Atom:
    p = _ExprParser(_tokenize(text), ctx, field)
    return p.full(p.atom)


def parse_qid(text: str, ctx: FreeContext, field: PrimeField) -> QuasiIdentity:
    p = _ExprParser(_tokenize(text), ctx, field)
    return p.full(p.qid)


def infer_context(text: str) -> FreeContext:
    """Inline convention: identifiers starting with "x" are x-variables,
    everything else is a y-variable."""
    xs, ys = set(), set()
    for t in _tokenize(text):
        if t.kind == "ident":
            (xs if t.text.startswith("x") else ys).add(t.text)
    return FreeContext(tuple(sorted(xs)), tuple(sorted(ys)))


# ---------------------------------------------------------------------------
# Line-oriented files


def _line_error(lineno: int, line: str, expected: str) -> ParseError:
    col = len(line) - len(line.lstrip()) + 1
    return ParseError(SourceSpan(lineno, col, max(len(line.strip()), 1)), expected)


class _LineReader:
    """A file's lines that hold more than blanks, with their 1-based
    numbers, read in order; a "#" comment runs to the end of its line."""

    def __init__(self, text: str):
        lines = [
            (i, line)
            for i, raw in enumerate(text.split("\n"), start=1)
            if (line := raw.split("#", 1)[0].rstrip())
        ]
        self.end = lines[-1][0] + 1 if lines else 1  # a missing line is reported here
        self.unread = iter(lines)

    def require(self, expected: str) -> tuple[int, str]:
        item = next(self.unread, None)
        if item is None:
            raise ParseError(SourceSpan(self.end, 1, 1), expected)
        return item

    def rest(self) -> Iterator[tuple[int, str]]:
        return self.unread


def _is_identifier(name: str) -> bool:
    """Whether the expression tokenizer reads ``name`` as one identifier."""
    try:
        toks = _tokenize(name)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0].kind == "ident" and toks[0].text == name


def _names_line(
    reader: _LineReader, keyword: str, variables: bool = True
) -> tuple[int, str, tuple[str, ...]]:
    """A header line: the keyword followed by at least one name.  A
    variable name must be one identifier token of the expression grammar."""
    lineno, line = reader.require(keyword)
    parts = list(re.finditer(r"\S+", line))
    if len(parts) < 2 or parts[0][0] != keyword:
        raise _line_error(lineno, line, f'"{keyword}" followed by names')
    bad = next((m for m in parts[1:] if variables and not _is_identifier(m[0])), None)
    if bad:
        raise ParseError(SourceSpan(lineno, bad.start() + 1, len(bad[0])), "a variable name")
    return lineno, line, tuple(m[0] for m in parts[1:])


def _parse_matrix_literal(lineno: int, line: str, text: str) -> list[list[int]]:
    """``text`` is what follows the first "=" of ``line``."""
    s = text.replace(" ", "")
    col = line.index("=") + len(text) - len(text.lstrip()) + 2
    err = partial(ParseError, SourceSpan(lineno, col, max(len(text.strip()), 1)), "a matrix literal [[..],[..]]")
    if not (s.startswith("[[") and s.endswith("]]")):
        raise err()
    rows = []
    for chunk in s[2:-2].split("],["):
        row = []
        for ent in chunk.split(","):
            v = _integer(ent.removeprefix("-"), err)
            row.append(-v if ent.startswith("-") else v)
        rows.append(row)
    return rows


def _parse_cyclic_factor(lineno: int, line: str, spec_text: str, caps: EnumerationCaps) -> FiniteGroup:
    s = spec_text.strip()
    if not (s.startswith("cyclic(")):
        raise _line_error(lineno, line, 'cyclic(N) as NAME')
    rest = s[len("cyclic("):]
    if ")" not in rest:
        raise _line_error(lineno, line, '")"')
    num, _, tail = rest.partition(")")
    n = _integer(num.strip(), partial(_line_error, lineno, line, "a positive integer order"))
    if n < 1 or n > caps.max_group_order:
        raise InvalidInput(f"cyclic order {n} outside [1, {caps.max_group_order}]")
    gen = "g"
    tail = tail.strip()
    if tail:
        parts = tail.split()
        if len(parts) != 2 or parts[0] != "as" or not _is_identifier(parts[1]):
            raise _line_error(lineno, line, '"as NAME"')
        gen = parts[1]
    return cyclic_group(n, gen)


def _parse_group_block(reader: _LineReader, caps: EnumerationCaps) -> FiniteGroup:
    lineno, line = reader.require("group")
    stripped = line.strip()
    if not stripped.startswith("group"):
        raise _line_error(lineno, line, '"group"')
    spec_text = stripped[len("group"):].strip()
    if spec_text == "table":
        lineno2, line2, names = _names_line(reader, "elements", variables=False)
        n = len(names)
        if n > caps.max_group_order:
            raise InvalidInput(f"group order {n} exceeds cap {caps.max_group_order}")
        index = {nm: i for i, nm in enumerate(names)}
        if len(index) != n:
            raise _line_error(lineno2, line2, "distinct element names")
        table = []
        for _ in range(n):
            lineno3, line3 = reader.require('"row" line')
            rparts = line3.split()
            if not rparts or rparts[0] != "row" or len(rparts) != n + 1:
                raise _line_error(lineno3, line3, f'"row" with {n} entries')
            try:
                table.append(list(map(index.__getitem__, rparts[1:])))
            except KeyError as e:
                raise _line_error(lineno3, line3, f"an element name (got {e.args[0]!r})") from None
        return group_from_table(names, table)
    if spec_text.startswith("cyclic("):
        return _parse_cyclic_factor(lineno, line, spec_text, caps)
    if spec_text.startswith("product(") and spec_text.endswith(")"):
        inner = spec_text[len("product("):-1]
        # a factor cyclic(N) [as NAME] holds no comma
        factors = [_parse_cyclic_factor(lineno, line, a, caps) for a in inner.split(",")]
        if len(factors) < 2:
            raise _line_error(lineno, line, "at least two product factors")
        # before multiplying: building an oversized product is the expensive part
        order = prod(h.order for h in factors)
        if order > caps.max_group_order:
            raise InvalidInput(f"group order {order} exceeds cap {caps.max_group_order}")
        return product_group(*factors)
    raise _line_error(lineno, line, '"table", "cyclic(...)", or "product(...)"')


def parse_group_file(text: str, caps: EnumerationCaps = DEFAULT_CAPS) -> FiniteGroup:
    reader = _LineReader(text)
    g = _parse_group_block(reader, caps)
    for lineno, line in reader.rest():
        raise _line_error(lineno, line, "end of file")
    return g


def parse_rep_file(text: str, caps: EnumerationCaps = DEFAULT_CAPS) -> Representation:
    reader = _LineReader(text)
    lineno, line = reader.require("field")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "field" or not parts[1].startswith("p="):
        raise _line_error(lineno, line, '"field p=<prime>"')
    field = PrimeField(_integer(parts[1][2:], partial(_line_error, lineno, line, "a prime modulus")))
    group = _parse_group_block(reader, caps)
    lineno, line = reader.require("dim")
    parts, err = line.split(), partial(_line_error, lineno, line, '"dim <n>"')
    if len(parts) != 2 or parts[0] != "dim":
        raise err()
    dim = _integer(parts[1], err)
    act: dict[str, list[list[int]]] = {}
    for lineno, line in reader.rest():
        stripped = line.strip()
        if not stripped.startswith("act"):
            raise _line_error(lineno, line, '"act <element> = <matrix>"')
        rest = stripped[len("act"):].strip()
        if "=" not in rest:
            raise _line_error(lineno, line, '"="')
        name, _, mat_text = rest.partition("=")
        name = name.strip()
        if name not in group.names:
            raise _line_error(lineno, line, f"an element of the group (got {name!r})")
        if name in act:
            raise _line_error(lineno, line, f"each element at most once (got {name!r} again)")
        act[name] = _parse_matrix_literal(lineno, line, mat_text)
    return make_representation(field, dim, group, act, caps)


def parse_system_file(text: str, field: PrimeField) -> tuple[FreeContext, EquationSystem]:
    reader = _LineReader(text)
    xvars = _names_line(reader, "xvars")[2]
    ctx = FreeContext(xvars, _names_line(reader, "yvars")[2])
    module_part: list[ModuleElement] = []
    group_part: list[GroupWord] = []
    for lineno, line in reader.rest():
        stripped = line.strip()
        head, colon, body = stripped.partition(":")
        if not colon or head not in ("module", "group"):
            raise _line_error(lineno, line, '"module:" or "group:"')
        # spans count the indentation and the "module:"/"group:" prefix
        p = _ExprParser(_tokenize(body, lineno, len(line) - len(stripped) + len(head) + 2), ctx, field)
        a = p.full(p.atom)
        if head == "module" and isinstance(a, ModuleAtom):
            module_part.append(a.element)
        elif head == "group" and isinstance(a, GroupAtom):
            group_part.append(a.word)
        else:
            raise _line_error(lineno, line, "a module equation u = 0" if head == "module" else "a group equation w = 1")
    return ctx, equation_system(ctx, module_part, group_part)


# ---------------------------------------------------------------------------
# Serialization


def serialize_word(w: GroupWord) -> str:
    if not w.letters:
        return "1"
    parts = []
    for v, e in w.letters:
        name = w.context.yvars[v]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _signed_piece(p: int, c: int, body: str) -> tuple[bool, str]:
    """c * body with c taken in (-p/2, p/2]: (negative, "|c|*body")."""
    c %= p
    neg = c > p // 2
    mag = p - c if neg else c
    return neg, body if mag == 1 else f"{mag}*{body}"


def _join_signed(pieces: list[tuple[bool, str]]) -> str:
    """"a - b + c" from (negative, body) pairs, or "0" when there are none."""
    if not pieces:
        return "0"
    text = " ".join(("- " if neg else "+ ") + body for neg, body in pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def serialize_ring(r: RingElement) -> str:
    return _join_signed([_signed_piece(r.field.p, c, serialize_word(w)) for w, c in r.terms])


def serialize_module(u: ModuleElement) -> str:
    pieces = []
    for x, r in u.parts:
        xname = u.context.xvars[x]
        if r.num_terms() == 1:
            (w, c), = r.terms
            neg, body = _signed_piece(u.field.p, c, xname)
            pieces.append((neg, body if w.is_identity() else f"{body}*{serialize_word(w)}"))
        else:
            pieces.append((False, f"{xname}*({serialize_ring(r)})"))
    return _join_signed(pieces)


def serialize_atom(a: Atom) -> str:
    if isinstance(a, GroupAtom):
        return f"{serialize_word(a.word)} = 1"
    return f"{serialize_module(a.element)} = 0"


def serialize_qid(q: QuasiIdentity) -> str:
    if not q.premises:
        return f"=> {serialize_atom(q.conclusion)}"
    left = " & ".join(serialize_atom(a) for a in q.premises)
    return f"{left} => {serialize_atom(q.conclusion)}"


def serialize_group(g: FiniteGroup) -> str:
    lines = ["group table", "  elements " + " ".join(g.names)]
    for i in range(g.order):
        lines.append("  row " + " ".join(g.names[j] for j in g.table[i]))
    return "\n".join(lines) + "\n"


def _matrix_literal(m) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m) + "]"


def serialize_rep(rep: Representation) -> str:
    lines = [f"field p={rep.p}"]
    lines.append(serialize_group(rep.group).rstrip("\n"))
    lines.append(f"dim {rep.dim}")
    for i in range(1, rep.group.order):
        lines.append(f"act {rep.group.names[i]} = {_matrix_literal(rep.act[i])}")
    return "\n".join(lines) + "\n"


def serialize_system(ctx: FreeContext, sys: EquationSystem) -> str:
    lines = ["xvars " + " ".join(ctx.xvars), "yvars " + " ".join(ctx.yvars)]
    for u in sys.module_part:
        lines.append(f"module: {serialize_module(u)} = 0")
    for w in sys.group_part:
        lines.append(f"group: {serialize_word(w)} = 1")
    return "\n".join(lines) + "\n"


def serialize(value) -> str:
    if isinstance(value, Representation):
        return serialize_rep(value)
    if isinstance(value, FiniteGroup):
        return serialize_group(value)
    if isinstance(value, QuasiIdentity):
        return serialize_qid(value)
    if isinstance(value, (ModuleAtom, GroupAtom)):
        return serialize_atom(value)
    if isinstance(value, ModuleElement):
        return serialize_module(value)
    if isinstance(value, RingElement):
        return serialize_ring(value)
    if isinstance(value, GroupWord):
        return serialize_word(value)
    if isinstance(value, EquationSystem):
        return serialize_system(value.context, value)
    raise InvalidInput(f"cannot serialize {type(value).__name__}")
