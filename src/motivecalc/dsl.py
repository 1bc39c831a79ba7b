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
entry; other identifiers resolve against the atom registry, and every atom
is the registry's shared node for its name.  'L^0' is the unit twist.
"""

from __future__ import annotations

import collections
import re
import sys

from .tatepoly import ONE, TatePolynomial, ladder
from .motive import Atom, MotiveExpr, Sum, TensorTwist, UnregisteredAtomError
from .atlas import Atlas, AtlasEntry
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


Token = collections.namedtuple("Token", "text line col")

# a token's text; a symbol, a numeral (NAT) or an identifier (NAME)
_TOKEN_RE = re.compile(r"[+*^(),]|\d+|[A-Za-z][A-Za-z0-9_]*")
# every token's text, and a one-character text for each other non-blank character
_TEXT_RE = re.compile(_TOKEN_RE.pattern + r"|\S")

# argument kind of a builtin: EXPR reads an expression, a string reads a
# natural number and names it in errors
EXPR = None


def _atom(atlas: Atlas, entry: AtlasEntry) -> Atom:
    return atlas.registry.atom(entry.name)  # add() registered it: one node per name


def _hilb2(atlas: Atlas, inner: MotiveExpr) -> MotiveExpr:
    if not isinstance(inner, Atom) or atlas.get(inner.name) is None:
        raise ValueError("argument must name an atlas surface")
    return _atom(atlas, atlas.hilb2(inner.name))


# name -> (argument kinds, constructor taking the atlas and the arguments);
# the constructors check the argument values
BUILTINS = {
    "P": (("a dimension",), lambda atlas, n: _atom(atlas, atlas.projective_space(n))),
    "Q": (("a dimension",), lambda atlas, n: _atom(atlas, atlas.quadric(n))),
    "Gr": (
        ("a subspace dimension", "an ambient dimension"),
        lambda atlas, k, n: _atom(atlas, atlas.grassmannian(k, n)),
    ),
    "Hilb2": ((EXPR,), _hilb2),
    "PB": ((EXPR, "a bundle rank"), lambda atlas, e, r: projective_bundle(e, r)),
    "Fib": ((EXPR, "a fiber dimension"), lambda atlas, e, k: projective_fibration(e, k)),
    "Bl": ((EXPR, EXPR, "a codimension"), lambda atlas, a, c, codim: blow_up(a, c, codim)),
    "Prod": ((EXPR, EXPR), lambda atlas, a, b: kunneth(a, b, atlas)),
}

# deepest nesting of parentheses and builtin arguments the parser accepts;
# each level costs up to three Python frames: _expr, _factor and _builtin
MAX_DEPTH = 200


def tokenize(text: str) -> list[Token]:
    """(text, line, column) of each token, 1-based; END, with text "", sits
    just past the text, on its last line."""
    tokens = []
    lines = text.split("\n")  # not splitlines: '\r', '\x0b', '\x1c' are blanks
    for line, chars in enumerate(lines, 1):
        for m in _TEXT_RE.finditer(chars):
            t, col = m.group(), m.start() + 1
            if not _TOKEN_RE.match(t):
                raise DslSyntaxError(f"unexpected character {t!r}", line, col)
            tokens.append(Token(t, line, col))
    tokens.append(Token("", len(lines), len(lines[-1]) + 1))
    return tokens


def _lex(text: str) -> tuple[list[str], dict[int, tuple[str, int]]]:
    """The token texts, ``_TEXT_RE.findall(text) + [""]`` ("" is END, and a
    '+' is always a token of its own), and start -> (key, end) of each
    summand between '+'s outside all parentheses: its token texts joined by
    blanks, which no token holds, and the index of its '+' or END.  Each
    distinct summand text is scanned once."""
    tokens, spans, scanned, group, depth = [], {}, {}, [], 0
    for piece in text.split("+"):
        group.append(piece)
        depth += piece.count("(") - piece.count(")")
        if depth <= 0:
            raw = "+".join(group)
            if raw not in scanned:
                texts = _TEXT_RE.findall(raw)
                scanned[raw] = texts, " ".join(texts)
            texts, key = scanned[raw]
            spans[len(tokens)] = key, len(tokens) + len(texts)
            tokens += texts
            tokens.append("+")
            group = []
    if group:  # a trailing group whose parentheses never close: no span
        tokens += _TEXT_RE.findall("+".join(group))
    else:
        tokens.pop()  # the '+' after the last summand
    tokens.append("")
    return tokens, spans


class Parser:
    """Recursive-descent parser evaluating atlas builtins eagerly, so the
    returned tree only contains registered atoms."""

    def __init__(self, atlas: Atlas):
        self.atlas = atlas

    # -- token plumbing ----------------------------------------------------

    def _error(self, i: int, message: str, cls=DslSyntaxError) -> DslError:
        """The error at token i, placed by tokenize; a bad character anywhere
        in the text makes tokenize raise first, so it is reported first."""
        tok = tokenize(self._text)[i]
        return cls(message, tok.line, tok.col)

    @staticmethod
    def _quote(token: str) -> str:
        """How an error names a token: whole up to 32 characters, else cut and measured."""
        return repr(token) if len(token) <= 32 else f"{token[:32]!r}... ({len(token)} characters)"

    def _unexpected(self, i: int, what: str) -> DslError:
        return self._error(i, f"expected {what}, got {self._quote(self._t[i] or 'end of input')}")

    def _accept(self, text: str) -> bool:
        """Consume the next token if it reads `text`."""
        if self._t[self._i] == text:
            self._i += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            raise self._unexpected(self._i, repr(text))

    def _nat(self, what: str) -> int:
        # the one place numerals are converted; a NAT starts with a \d
        i = self._i
        text = self._t[i]
        if not text[:1].isdecimal():
            raise self._unexpected(i, what)
        self._i += 1
        try:
            return int(text)
        except ValueError:  # more digits than Python's int-conversion limit
            n, limit = len(text), sys.get_int_max_str_digits()
            raise self._error(i, f"numeral has {n} digits, more than {limit}")

    # -- grammar -----------------------------------------------------------

    def parse(self, text: str) -> MotiveExpr:
        """Parse a whole expression. A top-level summand whose tokens repeat
        an earlier summand's is that summand's node; it is not read again."""
        return self._parse_all(text, self._expr)

    def parse_polynomial(self, text: str) -> TatePolynomial:
        """Parse a whole twist polynomial, in the syntax of a ``* (...)``
        twist, e.g. ``1 + 2L + L^2``; ``0`` is the zero polynomial."""
        return self._parse_all(text, lambda spans: self._polynomial())

    def _parse_all(self, text: str, rule):
        # the rules read token texts only; "" is END
        self._text = text
        self._t, spans = _lex(text)
        self._i = 0
        self._depth = 0
        result = rule(spans)
        if self._t[self._i]:
            raise self._error(self._i, f"trailing input {self._quote(self._t[self._i])}")
        return result

    def _expr(self, spans: dict[int, tuple[str, int]] | None = None) -> MotiveExpr:
        if self._depth == MAX_DEPTH:
            raise self._error(self._i, f"expression nested deeper than {MAX_DEPTH} levels")
        self._depth += 1
        t = self._t
        terms, shared = [], {}  # key -> node of a summand read up to its end
        while True:
            key, end = spans.get(self._i, (None, -1)) if spans else (None, -1)
            if key in shared:
                e, self._i = shared[key], end
            else:
                e = self._factor()
                while t[self._i] == "*":
                    star = self._i
                    self._i += 1
                    twist = self._twist()
                    if not twist:
                        raise self._error(star, "twist factor must be nonzero", ArityError)
                    e = TensorTwist(e, twist) if twist != ONE else e
                if self._i == end:  # the parse read exactly the summand's tokens
                    shared[key] = e
            terms.append(e)
            if t[self._i] != "+":
                break
            self._i += 1
        self._depth -= 1
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def _factor(self) -> MotiveExpr:
        i = self._i
        name = self._t[i]
        if name == "(":
            self._i += 1
            e = self._expr()
            self._expect(")")
            return e
        if name in BUILTINS:
            self._i += 1
            return self._builtin(i)
        if not (name[:1].isalpha() and name.isascii()):  # a NAME starts with [A-Za-z]
            raise self._unexpected(i, "expression")
        if name == "L":
            raise self._error(i, "'L' is only valid as a twist factor")
        self._i += 1
        if name == "K3":
            try:
                self.atlas.k3()
            except ValueError as exc:
                raise self._error(i, f"K3: {exc}", ArityError) from exc
        try:
            return self.atlas.registry.atom(name)
        except UnregisteredAtomError:
            quoted = self._quote(name)
            raise self._error(i, f"unknown identifier {quoted}", UnknownIdentifierError) from None

    def _builtin(self, at: int) -> MotiveExpr:
        t = self._t
        kinds, construct = BUILTINS[t[at]]
        args, sep = [self.atlas], "("
        for kind in kinds:
            if t[self._i] != sep:
                raise self._unexpected(self._i, repr(sep))
            self._i += 1
            args.append(self._expr() if kind is EXPR else self._nat(kind))
            sep = ","
        if t[self._i] != ")":
            raise self._unexpected(self._i, "')'")
        self._i += 1
        try:
            return construct(*args)
        except ValueError as exc:
            raise self._error(at, f"{t[at]}: {exc}", ArityError) from exc

    def _exponent(self) -> int:
        # the power of an 'L' just read: ('^' nat)?, default 1
        return self._nat("an exponent") if self._accept("^") else 1

    def _twist(self) -> TatePolynomial:
        if self._accept("L"):
            k = self._exponent()
            return ladder(k, k)
        if self._accept("("):
            poly = self._polynomial()
            self._expect(")")
            return poly
        raise self._unexpected(self._i, "a twist")

    def _polynomial(self) -> TatePolynomial:
        coeffs: dict[int, int] = {}
        while True:
            a, k = 1, 0
            if self._t[self._i][:1].isdecimal():
                a = self._nat("a coefficient")
                if self._accept("*"):
                    self._expect("L")
                    k = self._exponent()
                elif self._accept("L"):
                    k = self._exponent()
            elif self._accept("L"):
                k = self._exponent()
            else:
                raise self._unexpected(self._i, "a polynomial term")
            coeffs[k] = coeffs.get(k, 0) + a
            if not self._accept("+"):
                return TatePolynomial(coeffs)


def print_twist(poly: TatePolynomial) -> str:
    """Render a nonzero twist factor as it follows ``*`` in DSL source."""
    (k, a), *rest = poly.items()
    return str(poly) if not rest and a == 1 and k >= 1 else f"({poly})"
