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

import collections
import re
import sys

from .tatepoly import ONE, TatePolynomial
from .motive import Atom, MotiveExpr, Sum, TensorTwist
from .atlas import Atlas
from .formulas import blow_up, kunneth, projective_bundle, projective_fibration


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


# kind is NAME, NAT, SYM or END
Token = collections.namedtuple("Token", "kind text line col")

# one alternative per token kind, then a newline, a run of other whitespace
# (no group) and any other single character
_TOKEN_RE = re.compile(
    r"(?P<NAT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[+*^(),])"
    r"|(?P<NL>\n)|[^\S\n]+|(?P<BAD>.)"
)

# argument kind of a builtin: EXPR reads an expression, a string reads a
# natural number and names it in errors
EXPR = None


def _hilb2(atlas: Atlas, inner: MotiveExpr) -> MotiveExpr:
    if not isinstance(inner, Atom) or atlas.get(inner.name) is None:
        raise ValueError("argument must name an atlas surface")
    return Atom(atlas.hilb2(inner.name).name)


# name -> (argument kinds, constructor taking the atlas and the arguments);
# the constructors check the argument values
BUILTINS = {
    "P": (("a dimension",), lambda atlas, n: Atom(atlas.projective_space(n).name)),
    "Q": (("a dimension",), lambda atlas, n: Atom(atlas.quadric(n).name)),
    "Gr": (
        ("a subspace dimension", "an ambient dimension"),
        lambda atlas, k, n: Atom(atlas.grassmannian(k, n).name),
    ),
    "Hilb2": ((EXPR,), _hilb2),
    "PB": ((EXPR, "a bundle rank"), lambda atlas, e, r: projective_bundle(e, r)),
    "Fib": ((EXPR, "a fiber dimension"), lambda atlas, e, k: projective_fibration(e, k)),
    "Bl": (
        (EXPR, EXPR, "a codimension"),
        lambda atlas, a, c, codim: blow_up(a, c, codim, atlas.registry),
    ),
    "Prod": ((EXPR, EXPR), lambda atlas, a, b: kunneth(a, b, atlas)),
}

# deepest nesting of parentheses and builtin arguments the parser accepts;
# each level costs up to four Python frames
MAX_DEPTH = 200


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based (line, column); END sits just past the text, on
    its last line."""
    tokens = []
    line, line_start = 1, 0  # current line and its start offset
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind == "BAD":
            col = m.start() - line_start + 1
            raise DslSyntaxError(f"unexpected character {m.group()!r}", line, col)
        elif kind:
            tokens.append(Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(Token("END", "", line, len(text) - line_start + 1))
    return tokens


class Parser:
    """Recursive-descent parser evaluating atlas builtins eagerly, so the
    returned tree only contains registered atoms."""

    def __init__(self, atlas: Atlas):
        self.atlas = atlas

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _next(self) -> Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the next token if it reads `text`."""
        if self._tokens[self._i].text == text:
            self._i += 1
            return True
        return False

    def _expect(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            got = tok.text or "end of input"
            raise DslSyntaxError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return tok

    def _nat(self, what: str) -> int:
        # the one place numerals are converted
        tok = self._next()
        if tok.kind != "NAT":
            raise DslSyntaxError(
                f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col
            )
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python's int-conversion limit
            n, limit = len(tok.text), sys.get_int_max_str_digits()
            raise DslSyntaxError(f"numeral has {n} digits, more than {limit}", tok.line, tok.col)

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
        while self._accept("+"):
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
        kinds, construct = BUILTINS[tok.text]
        self._expect("(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self._expect(",")
            args.append(self._expr() if kind is EXPR else self._nat(kind))
        self._expect(")")
        try:
            return construct(self.atlas, *args)
        except ValueError as exc:
            raise ArityError(f"{tok.text}: {exc}", tok.line, tok.col) from exc

    def _exponent(self) -> int:
        # the power of an 'L' just read: ('^' nat)?, default 1
        return self._nat("an exponent") if self._accept("^") else 1

    def _twist(self) -> TatePolynomial:
        if self._accept("L"):
            k = self._exponent()
            return TatePolynomial({k: 1}) if k else ONE
        tok = self._next()
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
            a, k = 1, 0
            if tok.kind == "NAT":
                a = self._nat("a coefficient")
                if self._accept("*"):
                    self._expect("L")
                    k = self._exponent()
                elif self._accept("L"):
                    k = self._exponent()
            elif self._accept("L"):
                k = self._exponent()
            else:
                got = tok.text or "end of input"
                raise DslSyntaxError(
                    f"expected a polynomial term, got {got!r}", tok.line, tok.col
                )
            coeffs[k] = coeffs.get(k, 0) + a
            if not self._accept("+"):
                return TatePolynomial(coeffs)


def print_twist(poly: TatePolynomial) -> str:
    """Render a nonzero twist factor as it follows ``*`` in DSL source."""
    items = poly.items()
    if len(items) == 1 and items[0][1] == 1 and items[0][0] >= 1:
        k = items[0][0]
        return "L" if k == 1 else f"L^{k}"
    return f"({poly})"
