import importlib.util
from pathlib import Path

import hypothesis.strategies as st

from motivecalc import Atom, Atlas, MotiveExpr, Sum, TatePolynomial, TensorTwist
from motivecalc.dsl import print_twist


def tate_polys(max_exp=8, max_coeff=9, min_size=0, max_size=6):
    return st.dictionaries(
        st.integers(0, max_exp),
        st.integers(1, max_coeff),
        min_size=min_size,
        max_size=max_size,
    ).map(TatePolynomial)


def nonzero_tate_polys(**kw):
    kw.setdefault("min_size", 1)
    return tate_polys(**kw)


# coefficients at the edges of one, two, four and eight packed bytes
EDGE_COEFFS = (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64)


def dense_tate_polys():
    """Polynomials dense enough for tatepoly's packed path: 16 to 40 terms,
    at most two zero coefficients between neighbours (so they span fewer than
    4 degrees per term), starting at L^0, L^1, L^7 or L^(10^12)."""

    def build(lo, terms):
        out, k = {}, lo
        for gap, a in terms:
            out[k + gap] = a
            k += gap + 1
        return TatePolynomial(out)

    coeff = st.one_of(st.integers(1, 9), st.sampled_from(EDGE_COEFFS))
    terms = st.lists(st.tuples(st.integers(0, 2), coeff), min_size=16, max_size=40)
    return st.builds(build, st.sampled_from((0, 1, 7, 10**12)), terms)


def at(p: TatePolynomial, x: int) -> int:
    """p evaluated at the integer x."""
    return sum(a * x**k for k, a in p.coeffs.items())


def carried(q: TatePolynomial, d: TatePolynomial, width: int = 1) -> TatePolynomial:
    """The polynomial whose coefficients are the base-2^(8 width) digits of
    q(B) * d(B), B = 2^(8 width): the product q * d with its carries done.
    Its value at B is a multiple of d(B) even when it is no multiple of d."""
    base = 1 << 8 * width
    n, digits, k = at(q, base) * at(d, base), {}, 0
    while n:
        n, digits[k] = divmod(n, base)
        k += 1
    return TatePolynomial(digits)


# the atoms of session_atlas and their dimensions
ATOM_DIMS = {"P2": 2, "P4": 4, "Q6": 6, "K3": 2, "Gr(2,5)": 6}


def session_atlas() -> Atlas:
    atlas = Atlas()
    atlas.projective_space(2)
    atlas.projective_space(4)
    atlas.quadric(6)
    atlas.k3()
    atlas.grassmannian(2, 5)
    return atlas


def motive_exprs(max_leaves=12):
    base = st.sampled_from(list(ATOM_DIMS.items())).map(lambda nd: Atom(*nd))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=4).map(lambda cs: Sum(tuple(cs))),
            st.tuples(children, nonzero_tate_polys(max_exp=4, max_coeff=4)).map(
                lambda t: TensorTwist(*t)
            ),
        ),
        max_leaves=max_leaves,
    )


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


PERFBENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def bulk_program(seed: int, terms: int) -> str:
    """The text of perfbench's dsl-bulk program; gen.py imports no motivecalc."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.dsl_program(seed, terms)["text"]


def top_level_summands(text: str) -> list[str]:
    """The texts between the '+'s outside all parentheses, blanks kept."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and not depth:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out
