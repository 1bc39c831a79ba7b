"""A small expression language for motive expressions and atlas constructors.

Grammar (whitespace-insensitive, '+' binds looser than '*'):

    expr   := term ('+' term)*
    term   := factor ('*' twist)*
    factor := ident | builtin '(' args ')' | '(' expr ')'
    twist  := 'L' ('^' nat)? | '(' poly ')'
    poly   := mono ('+' mono)*
    mono   := nat ('*'? 'L' ('^' nat)?)? | 'L' ('^' nat)?

Parser.parse_polynomial reads a whole 'poly', e.g. the M1 of ``solve``.

Builtins: P(n), Q(n), Gr(k,n), Hilb2(atom), PB(e,r), Bl(a,c,codim),
Fib(e,k), Prod(a,b).  'K3' is a plain identifier registering the K3 atlas
entry; other identifiers resolve against the atom registry.  'L^0' is the
unit twist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tatepoly import ONE, TatePolynomial
from .motive import Atom, MotiveExpr, Sum, TensorTwist
from .atlas import Atlas
from .formulas import blow_up, kunneth, projective_bundle


class DslError(ValueError):
    """Base for parser diagnostics; carries a 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class UnknownIdentifierError(DslError):
    pass


class ArityError(DslError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | NAT | SYM | END
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"\s*(?:(?P<NAT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[+*^(),]))")

BUILTINS = {"P", "Q", "Gr", "Hilb2", "PB", "Bl", "Fib", "Prod"}

# deepest nesting of parentheses and builtin arguments the parser accepts;
# each level costs up to four Python frames
MAX_DEPTH = 200


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based (line, column); END sits just past the text, on
    its last line."""
    tokens = []
    pos = 0
    line, line_start = 1, 0  # line of `pos` and its start offset; tokens hold no newline
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # only whitespace, then the end or a bad character
            start = len(text) - len(text[pos:].lstrip())
        else:
            start = m.start(m.lastgroup)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, start) + 1
        col = start - line_start + 1
        if m is None:
            if start < len(text):
                raise DslSyntaxError(f"unexpected character {text[start]!r}", line, col)
            tokens.append(Token("END", "", line, col))
            return tokens
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()


class Parser:
    """Recursive-descent parser evaluating atlas builtins eagerly, so the
    returned tree only contains registered atoms."""

    def __init__(self, atlas: Atlas | None = None):
        self.atlas = atlas if atlas is not None else Atlas()

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _next(self) -> Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            got = tok.text or "end of input"
            raise DslSyntaxError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return tok

    def _nat(self, what: str) -> int:
        tok = self._next()
        if tok.kind != "NAT":
            raise DslSyntaxError(
                f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col
            )
        return int(tok.text)

    # -- grammar -----------------------------------------------------------

    def parse(self, text: str) -> MotiveExpr:
        """Parse a whole expression."""
        return self._parse_all(text, self._expr)

    def parse_polynomial(self, text: str) -> TatePolynomial:
        """Parse a whole twist polynomial, in the syntax of a ``* (...)``
        twist, e.g. ``1 + 2L + L^2``; ``0`` is the zero polynomial."""
        return self._parse_all(text, self._polynomial)

    def _parse_all(self, text: str, rule):
        self._tokens = tokenize(text)
        self._i = 0
        self._depth = 0
        result = rule()
        tok = self._peek()
        if tok.kind != "END":
            raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return result

    def _expr(self) -> MotiveExpr:
        if self._depth == MAX_DEPTH:
            tok = self._peek()
            raise DslSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok.line, tok.col
            )
        self._depth += 1
        terms = [self._term()]
        while self._peek().text == "+":
            self._next()
            terms.append(self._term())
        self._depth -= 1
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def _term(self) -> MotiveExpr:
        e = self._factor()
        while self._peek().text == "*":
            star = self._next()
            twist = self._twist()
            if not twist:
                raise ArityError("twist factor must be nonzero", star.line, star.col)
            e = TensorTwist(e, twist) if twist != ONE else e
        return e

    def _factor(self) -> MotiveExpr:
        tok = self._next()
        if tok.text == "(":
            e = self._expr()
            self._expect(")")
            return e
        if tok.kind != "NAME":
            got = tok.text or "end of input"
            raise DslSyntaxError(f"expected expression, got {got!r}", tok.line, tok.col)
        if tok.text == "L":
            raise DslSyntaxError("'L' is only valid as a twist factor", tok.line, tok.col)
        if tok.text in BUILTINS:
            return self._builtin(tok)
        if tok.text == "K3":
            self.atlas.k3()
        if tok.text in self.atlas.registry:
            return Atom(tok.text)
        raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.line, tok.col)

    def _builtin(self, tok: Token) -> MotiveExpr:
        name = tok.text
        self._expect("(")

        def err(msg: str):
            raise ArityError(f"{name}: {msg}", tok.line, tok.col)

        if name == "P":
            n = self._nat("a dimension")
            self._expect(")")
            return Atom(self.atlas.projective_space(n).atom.name)
        if name == "Q":
            n = self._nat("a dimension")
            self._expect(")")
            if n < 1:
                err("dimension must be >= 1")
            return Atom(self.atlas.quadric(n).atom.name)
        if name == "Gr":
            k = self._nat("a subspace dimension")
            self._expect(",")
            n = self._nat("an ambient dimension")
            self._expect(")")
            if not 1 <= k < n:
                err("need 1 <= k < n")
            return Atom(self.atlas.grassmannian(k, n).atom.name)
        if name == "Hilb2":
            inner = self._expr()
            self._expect(")")
            if not isinstance(inner, Atom) or self.atlas.get(inner.name) is None:
                err("argument must name an atlas surface")
            return Atom(self.atlas.hilb2(inner.name).atom.name)
        if name == "PB":
            base = self._expr()
            self._expect(",")
            r = self._nat("a bundle rank")
            self._expect(")")
            if r < 1:
                err("rank must be >= 1")
            return projective_bundle(base, r)
        if name == "Fib":
            base = self._expr()
            self._expect(",")
            k = self._nat("a fiber dimension")
            self._expect(")")
            return projective_bundle(base, k + 1)
        if name == "Bl":
            ambient = self._expr()
            self._expect(",")
            center = self._expr()
            self._expect(",")
            c = self._nat("a codimension")
            self._expect(")")
            if c < 2:
                err("codimension must be >= 2")
            return blow_up(ambient, center, c, self.atlas.registry)
        if name == "Prod":
            a = self._expr()
            self._expect(",")
            b = self._expr()
            self._expect(")")
            return kunneth(a, b, self.atlas)
        raise AssertionError(name)

    def _twist(self) -> TatePolynomial:
        tok = self._next()
        if tok.kind == "NAME" and tok.text == "L":
            k = 1
            if self._peek().text == "^":
                self._next()
                k = self._nat("an exponent")
            return TatePolynomial({k: 1}) if k else ONE
        if tok.text == "(":
            poly = self._polynomial()
            self._expect(")")
            return poly
        got = tok.text or "end of input"
        raise DslSyntaxError(f"expected a twist, got {got!r}", tok.line, tok.col)

    def _polynomial(self) -> TatePolynomial:
        coeffs: dict[int, int] = {}
        while True:
            tok = self._peek()
            a = 1
            k = 0
            saw = False
            if tok.kind == "NAT":
                a = int(self._next().text)
                saw = True
                if self._peek().text == "*":
                    self._next()
            tok = self._peek()
            if tok.kind == "NAME" and tok.text == "L":
                self._next()
                k = 1
                saw = True
                if self._peek().text == "^":
                    self._next()
                    k = self._nat("an exponent")
            if not saw:
                raise DslSyntaxError(
                    f"expected a polynomial term, got {tok.text or 'end of input'!r}",
                    tok.line,
                    tok.col,
                )
            coeffs[k] = coeffs.get(k, 0) + a
            if self._peek().text == "+":
                self._next()
            else:
                return TatePolynomial(coeffs)


def print_twist(poly: TatePolynomial) -> str:
    """Render a nonzero twist factor as it follows ``*`` in DSL source."""
    items = poly.items()
    if len(items) == 1 and items[0][1] == 1 and items[0][0] >= 1:
        k = items[0][0]
        return "L" if k == 1 else f"L^{k}"
    return f"({poly})"


def print_expr(e: MotiveExpr) -> str:
    """Render a tree back to DSL source; reparsing yields an expression with
    the same normal form."""
    out: list[str] = []
    stack: list[MotiveExpr | str] = [e]  # nodes and literal text; leftmost on top
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Atom):
            out.append(node.name)
        elif isinstance(node, Sum):
            for c in reversed(node.children[1:]):
                stack += (c, " + ")
            stack.append(node.children[0])
        elif isinstance(node, TensorTwist):
            twist = f" * {print_twist(node.twist)}"
            if isinstance(node.child, Sum):
                stack += (")" + twist, node.child, "(")
            else:
                stack += (twist, node.child)
        else:
            raise TypeError(f"not a MotiveExpr: {node!r}")
    return "".join(out)
