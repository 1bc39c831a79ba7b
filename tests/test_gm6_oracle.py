"""An independent oracle for the Betti numbers and Euler number of a smooth
Gushel-Mukai sixfold X.

X is a double cover of G = Gr(2,5) branched along a GM fivefold Z, a smooth
divisor in |2H| (Debarre-Kuznetsov), so chi(X) = 2 chi(G) - chi(Z).  The
Euler numbers come from Schubert calculus by the Chern roots x1, x2 of S^v
on G, in two-variable series with Fraction coefficients.  The Betti
numbers below the middle degree are G's by Lefschetz for GM varieties, and
G's come from counting its Schubert cells; Poincare duality gives the upper
half and chi gives b6.

The oracle shares no code with motivecalc, which is imported only for the
comparison target: the full report of the default scenario.
"""

import math
from fractions import Fraction

import motivecalc.gm as gm
from motivecalc.hodge import HodgeDiamond

N = 5  # G = Gr(2, N)
DIM = 2 * (N - 2)  # dim G = dim X = 6
TOP = 2 * (N - 1)  # degree of the top monomial x1^(N-1) x2^(N-1)


# -- two-variable series: {(i, j): coefficient of x1^i x2^j}, degree <= TOP

ONE = {(0, 0): Fraction(1)}


def mul(a, b):
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            if i + j + k + l <= TOP:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
    return out


def add(a, b):
    out = dict(a)
    for m, v in b.items():
        out[m] = out.get(m, 0) + v
    return out


def power(a, n):
    out = ONE
    for _ in range(n):
        out = mul(out, a)
    return out


def geometric(u):
    """1 / (1 - u) for a series u without constant term."""
    out = term = ONE
    for _ in range(TOP):
        term = mul(term, u)
        out = add(out, term)
    return out


def part(a, d):
    return {(i, j): v for (i, j), v in a.items() if i + j == d}


X1, X2 = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
H = add(X1, X2)  # c1(S^v), the Plucker hyperplane class
DIFF_SQ = power(add(X1, {(0, 1): Fraction(-1)}), 2)  # (x1 - x2)^2


def integrate(phi):
    """The integral over G of the degree-DIM part of phi:
    1/2! [x1^(N-1) x2^(N-1)] (phi_DIM * -(x1 - x2)^2)."""
    top = mul(part(phi, DIM), DIFF_SQ)
    return -top.get((N - 1, N - 1), 0) / math.factorial(2)


def chern_tangent():
    """c(T_G) = c(S^v (x) C^N) / c(S^v (x) S) = ((1+x1)(1+x2))^N / (1 - (x1-x2)^2)."""
    return mul(power(mul(add(ONE, X1), add(ONE, X2)), N), geometric(DIFF_SQ))


def euler_grassmannian():
    return integrate(chern_tangent())


def euler_branch_divisor():
    """chi(Z) for Z in |2H|: the integral of [c(T_G) / (1 + 2H)]_(DIM-1) * 2H."""
    two_h = {m: 2 * v for m, v in H.items()}
    c_z = mul(chern_tangent(), geometric({m: -v for m, v in two_h.items()}))
    return integrate(mul(part(c_z, DIM - 1), two_h))


def euler_sixfold():
    return 2 * euler_grassmannian() - euler_branch_divisor()


def schubert_cells(d):
    """Partitions of d in a 2 x (N-2) box: the cells of G of dimension d."""
    return sum(1 for a in range(N - 1) for b in range(a + 1) if a + b == d)


def betti_sixfold():
    below = [schubert_cells(k // 2) if k % 2 == 0 else 0 for k in range(DIM)]
    middle = euler_sixfold() - 2 * sum((-1) ** k * b for k, b in enumerate(below))
    return below + [middle] + below[::-1]


def oracle():
    return {"betti": betti_sixfold(), "euler": euler_sixfold()}


def target():
    report = gm.full_report(gm.GMScenario())
    return {"betti": report["betti"], "euler": report["euler"]}


def test_schubert_calculus_self_checks():
    assert integrate(power(H, DIM)) == 5  # the degree of G in the Plucker embedding
    assert euler_grassmannian() == 10  # its Schubert cells: C(5, 2)
    assert sum(schubert_cells(d) for d in range(DIM + 1)) == math.comb(N, 2)


def test_branch_divisor_and_cover():
    assert euler_branch_divisor() == -12
    assert euler_sixfold() == 32


def test_report_matches_the_oracle():
    assert target() == oracle()


def test_oracle_rejects_a_wrong_k3(monkeypatch):
    # Y's h^{1,1} = 19 instead of 20: b6 drops to 23 and chi to 31
    build = gm.realization_table

    def wrong_k3():
        table = build()
        y = table["Y"]
        h = {(p, q): v for p, q, v in y.entries()}
        h[1, 1] = 19
        table["Y"] = HodgeDiamond(y.n, h)
        return table

    monkeypatch.setattr(gm, "realization_table", wrong_k3)
    got = target()
    assert (got["betti"][DIM], got["euler"]) == (23, 31)
    assert got != oracle()
