"""An independent oracle for the Betti numbers, Euler number and Hodge
numbers of a smooth Gushel-Mukai sixfold X.

X is a double cover of G = Gr(2,5) branched along a GM fivefold Z, a smooth
divisor in |2H| (Debarre-Kuznetsov), so chi(X) = 2 chi(G) - chi(Z).  The
Euler numbers come from Schubert calculus by the Chern roots x1, x2 of S^v
on G, in two-variable series with Fraction coefficients.  The Betti
numbers below the middle degree are G's by Lefschetz for GM varieties, and
G's come from counting its Schubert cells; Poincare duality gives the upper
half and chi gives b6.

The Hodge numbers come from chi_y(X) = sum_p y^p chi(X, Omega^p_X) by
Hirzebruch-Riemann-Roch on G.  For the double cover pi: X -> G,
pi_* Omega^p_X = Omega^p_G + Omega^p_G(log Z)(-H) (Esnault-Viehweg), and the
residue sequence 0 -> Omega^p_G -> Omega^p_G(log Z) -> Omega^(p-1)_Z -> 0
with lambda_y Omega_Z = lambda_y Omega_G|_Z / (1 + y O_Z(-2H)) leaves only
integrals over G.  They are evaluated at y = 1..7 and interpolated.  Below
the middle degree h^{p,q}(X) = h^{p,q}(G), Serre duality gives the upper
half, and each chi(X, Omega^p_X) fixes one middle entry.

The oracle shares no code with motivecalc, which is imported only for the
comparison target: the full report of the default scenario.  A wrong K3
(h^{1,1}(Y) = 19) must fail the comparison.
"""

import math
from fractions import Fraction

import motivecalc.gm as gm
from motivecalc.atlas import AtlasEntry
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


def scale(a, c):
    return {m: c * v for m, v in a.items()}


def inverse(a):
    """1 / a for a series a with a nonzero constant term."""
    a0 = a[0, 0]
    return scale(geometric({m: -v / a0 for m, v in a.items() if m != (0, 0)}), 1 / a0)


def exp(a):
    """e^a for a series a without constant term."""
    out = term = ONE
    for k in range(1, TOP + 1):
        term = scale(mul(term, a), Fraction(1, k))
        out = add(out, term)
    return out


def todd_root(a):
    """a / (1 - e^-a) = 1 / sum_k (-a)^k / (k+1)! for a series a without
    constant term."""
    out = term = ONE
    for k in range(1, TOP + 1):
        term = scale(mul(term, a), Fraction(-1, k + 1))
        out = add(out, term)
    return inverse(out)


def part(a, d):
    return {(i, j): v for (i, j), v in a.items() if i + j == d}


X1, X2 = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
H = add(X1, X2)  # c1(S^v), the Plucker hyperplane class
DIFF = add(X1, scale(X2, -1))  # x1 - x2
DIFF_SQ = power(DIFF, 2)


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
    two_h = scale(H, 2)
    c_z = mul(chern_tangent(), geometric(scale(two_h, -1)))
    return integrate(mul(part(c_z, DIM - 1), two_h))


def euler_sixfold():
    return 2 * euler_grassmannian() - euler_branch_divisor()


def todd_grassmannian():
    """td(T_G) = td(S^v (x) C^N) / td(S^v (x) S)
    = td(x1)^N td(x2)^N / (td(x1 - x2) td(x2 - x1))."""
    num = power(mul(todd_root(X1), todd_root(X2)), N)
    return mul(num, inverse(mul(todd_root(DIFF), todd_root(scale(DIFF, -1)))))


def one_plus(y, a):
    """1 + y e^a, the Chern character of lambda_y of a line bundle with c1 = a."""
    return add(ONE, scale(exp(a), y))


def lambda_cotangent(y):
    """ch(lambda_y Omega_G) = ((1 + y e^-x1)(1 + y e^-x2))^N
    / ((1 + y)^2 (1 + y e^(x1-x2)) (1 + y e^(x2-x1))), for y != -1."""
    num = power(mul(one_plus(y, scale(X1, -1)), one_plus(y, scale(X2, -1))), N)
    den = mul(one_plus(y, DIFF), one_plus(y, scale(DIFF, -1)))
    return scale(mul(num, inverse(den)), Fraction(1, (1 + y) ** 2))


def interpolate(values):
    """Coefficients, lowest first, of the polynomial of degree < len(values)
    taking values[i] at y = i + 1."""
    ys = range(1, len(values) + 1)
    coeffs = [Fraction(0)] * len(values)
    for yi, v in zip(ys, values):
        basis = [Fraction(1)]  # prod over yj != yi of (y - yj) / (yi - yj)
        for yj in ys:
            if yj != yi:
                shifted = [Fraction(0)] + basis
                basis = [(s - yj * b) / (yi - yj) for s, b in zip(shifted, basis + [0])]
        coeffs = [c + v * b for c, b in zip(coeffs, basis)]
    return coeffs


def chi_y(integrand):
    """The polynomial sum_p y^p chi_p whose value at y is the integral over G
    of integrand(y) * td(G)."""
    td = todd_grassmannian()
    return interpolate([integrate(mul(integrand(y), td)) for y in range(1, DIM + 2)])


def chi_y_sixfold():
    """chi_y(G) + chi_y(Omega_G(-H)) + y chi_y(Omega_Z(-H)), with
    chi(Z, F|_Z) = the integral over G of ch(F) (1 - e^-2H) td(G)."""
    e_h, e_2h = exp(scale(H, -1)), exp(scale(H, -2))

    def integrand(y):
        on_z = mul(mul(e_h, add(ONE, scale(e_2h, -1))), inverse(one_plus(y, scale(H, -2))))
        return mul(lambda_cotangent(y), add(add(ONE, e_h), scale(on_z, y)))

    return chi_y(integrand)


def schubert_cells(d):
    """Partitions of d in a 2 x (N-2) box: the cells of G of dimension d."""
    return sum(1 for a in range(N - 1) for b in range(a + 1) if a + b == d)


def betti_sixfold():
    below = [schubert_cells(k // 2) if k % 2 == 0 else 0 for k in range(DIM)]
    middle = euler_sixfold() - 2 * sum((-1) ** k * b for k, b in enumerate(below))
    return below + [middle] + below[::-1]


def hodge_sixfold():
    """[p, q, h^{p,q}(X)] for every nonzero entry, p then q ascending."""
    chi = chi_y_sixfold()  # chi[p] = chi(X, Omega^p_X) = sum_q (-1)^q h^{p,q}
    h = {}
    for p in range(DIM + 1):
        for q in range(DIM - p):  # Lefschetz below the middle, Serre above
            h[p, q] = h[DIM - p, DIM - q] = schubert_cells(p) if p == q else 0
    for p in range(DIM + 1):
        rest = sum((-1) ** q * h[p, q] for q in range(DIM + 1) if q != DIM - p)
        h[p, DIM - p] = (-1) ** (DIM - p) * (chi[p] - rest)
    return [[p, q, v] for (p, q), v in sorted(h.items()) if v]


def oracle():
    return {"betti": betti_sixfold(), "euler": euler_sixfold(), "hodge": hodge_sixfold()}


def target():
    report = gm.full_report(gm.GMScenario())
    return {"betti": report["betti"], "euler": report["euler"], "hodge": report["hodge"]["h"]}


def test_schubert_calculus_self_checks():
    assert integrate(power(H, DIM)) == 5  # the degree of G in the Plucker embedding
    assert euler_grassmannian() == 10  # its Schubert cells: C(5, 2)
    assert sum(schubert_cells(d) for d in range(DIM + 1)) == math.comb(N, 2)


def test_branch_divisor_and_cover():
    assert euler_branch_divisor() == -12
    assert euler_sixfold() == 32


def test_hirzebruch_riemann_roch_self_checks():
    assert integrate(todd_grassmannian()) == 1  # chi(O_G)
    # G has only h^{p,p}, one per Schubert cell of dimension p
    assert chi_y(lambda_cotangent) == [(-1) ** p * schubert_cells(p) for p in range(DIM + 1)]


def test_chi_y_of_the_sixfold():
    # 1 - y + 3y^2 - 22y^3 + 3y^4 - y^5 + y^6; chi_y(-1) = chi(X)
    chi = chi_y_sixfold()
    assert chi == [1, -1, 3, -22, 3, -1, 1]
    assert sum((-1) ** p * c for p, c in enumerate(chi)) == euler_sixfold()


def test_oracle_diamond_has_hodge_symmetry():
    h = {(p, q): v for p, q, v in hodge_sixfold()}
    assert all(h.get((q, p)) == v for (p, q), v in h.items())
    assert h[3, 3] == 22
    betti = [sum(v for (p, q), v in h.items() if p + q == k) for k in range(2 * DIM + 1)]
    assert betti == betti_sixfold()


def test_report_matches_the_oracle():
    assert target() == oracle()


def test_oracle_rejects_a_wrong_k3(monkeypatch):
    # Y's h^{1,1} = 19 instead of 20: b6 drops to 23, chi to 31 and h^{3,3} to 21
    y = gm.ATOMS["Y"].entry
    h = {(p, q): v for p, q, v in y.diamond.entries()}
    h[1, 1] = 19
    wrong = AtlasEntry(y.name, HodgeDiamond(y.diamond.n, h), y.torsion_free, y.provenance)
    monkeypatch.setitem(gm.ATOMS, "Y", gm.ATOMS["Y"]._replace(entry=wrong))
    got = target()
    assert (got["betti"][DIM], got["euler"]) == (23, 31)
    assert [3, 3, 21] in got["hodge"]
    want = oracle()
    assert got != want
    assert got["hodge"] != want["hodge"]
