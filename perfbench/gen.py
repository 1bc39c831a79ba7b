"""Seeded workload inputs and the oracles that check the program's outputs.

Nothing here imports motivecalc: every expected value is computed from
plain int dicts and lists with textbook formulas (the q-binomial product
formula, Goettsche's generating function for Hilbert squares, the
blow-up / bundle / Kuenneth rules), so an oracle shares no code with the
implementation it checks.

A twist polynomial is a dict {exponent: coefficient} without zeros.  An
expression is a tuple tree:

    ("P", n) ("Q", n) ("Gr", k, n) ("K3",) ("Hilb2K3",)
    ("PB", e, r) ("Fib", e, k) ("Bl", ambient, center, codim)
    ("Prod", a, b) ("Tw", e, poly) ("Sum", (e1, e2, ...))
"""

from __future__ import annotations

import json
import random

# -- twist polynomials ------------------------------------------------------


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def pmul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def ladder(lo: int, hi: int) -> dict:
    return {k: 1 for k in range(lo, hi + 1)}


def ppow(a: dict, m: int) -> dict:
    out = {0: 1}
    for _ in range(m):
        out = pmul(out, a)
    return out


def qbinom(n: int, k: int) -> dict:
    """[n choose k]_q by the product formula prod (1 - q^(n-k+i)) / (1 - q^i)."""
    c = [1]
    for i in range(1, k + 1):
        e = n - k + i
        c = c + [0] * e
        for j in range(len(c) - 1, e - 1, -1):
            c[j] -= c[j - e]
        for j in range(i, len(c)):  # divide by (1 - q^i)
            c[j] += c[j - i]
        while c and c[-1] == 0:
            c.pop()
    return {j: v for j, v in enumerate(c) if v}


def poly_text(p: dict) -> str:
    """The program's rendering of a twist polynomial, e.g. '1 + 2L + L^3'."""
    if not p:
        return "0"
    parts = []
    for k in sorted(p):
        a = p[k]
        if k == 0:
            parts.append(str(a))
        else:
            var = "L" if k == 1 else f"L^{k}"
            parts.append(var if a == 1 else f"{a}{var}")
    return " + ".join(parts)


def parse_poly(text: str) -> dict:
    """Inverse of poly_text."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    for term in text.split(" + "):
        head, _, tail = term.partition("L")
        if "L" not in term:
            k, a = 0, int(term)
        else:
            a = int(head) if head else 1
            k = int(tail[1:]) if tail else 1
        out[k] = out.get(k, 0) + a
    return out


def parse_nf_text(text: str) -> dict:
    """Parse the text form '{K3: L^2, Q6: 1}' of a normal form."""
    inner = text.strip()[1:-1]
    out = {}
    for item in filter(None, _split_top(inner)):
        name, _, poly = item.rpartition(": ")
        out[name] = parse_poly(poly)
    return out


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    parts.append(cur.strip())
    return parts


# -- atoms ------------------------------------------------------------------

K3_BETTI = [1, 0, 22, 0, 1]


def hilb2_betti(b: list[int]) -> list[int]:
    """Betti numbers of the Hilbert square of a surface without odd
    cohomology, as the t^2 coefficient of Goettsche's generating function
    prod_k prod_i (1 - z^(2k-2+i) t^k)^(-b_i)."""
    series = {0: {0: 1}}  # t-degree -> z-polynomial, truncated at t^2
    for k in (1, 2):
        for i, bi in enumerate(b):
            for _ in range(bi):  # multiply by 1/(1 - z^(2k-2+i) t^k)
                zk = 2 * k - 2 + i
                new = {t: dict(p) for t, p in series.items()}
                for t in sorted(series):
                    for m in range(1, 3):
                        if t + m * k <= 2:
                            acc = new.setdefault(t + m * k, {})
                            for e, c in series[t].items():
                                acc[e + m * zk] = acc.get(e + m * zk, 0) + c
                series = new
    p = series[2]
    return [p.get(d, 0) for d in range(max(p) + 1)]


def atom_betti(name: str) -> list[int]:
    if name == "K3":
        return list(K3_BETTI)
    if name == "Hilb2K3":
        return hilb2_betti(K3_BETTI)
    return _diag_betti(atom_cells(name))


def _diag_betti(cells: dict) -> list[int]:
    out = [0] * (2 * max(cells) + 1)
    for k, a in cells.items():
        out[2 * k] = a
    return out


def atom_cells(name: str) -> dict | None:
    """Poincare polynomial in L of a cellular atom, None otherwise."""
    if name.startswith("Gr("):
        k, n = map(int, name[3:-1].split(","))
        return qbinom(n, k)
    if name[0] in "PQ" and name[1:].isdigit():
        n = int(name[1:])
        cells = ladder(0, n)
        if name[0] == "Q" and n % 2 == 0:
            cells = padd(cells, {n // 2: 1})
        return cells
    return None


def atom_dim(name: str) -> int:
    if name == "K3":
        return 2
    if name == "Hilb2K3":
        return 4
    return max(atom_cells(name))


# -- expressions --------------------------------------------------------------


def atom_name(e: tuple) -> str | None:
    tag = e[0]
    if tag in ("P", "Q"):
        return f"{tag}{e[1]}"
    if tag == "Gr":
        return f"Gr({e[1]},{e[2]})"
    if tag in ("K3", "Hilb2K3"):
        return tag
    return None


def render(e: tuple) -> str:
    tag = e[0]
    if tag in ("P", "Q"):
        return f"{tag}({e[1]})"
    if tag == "Gr":
        return f"Gr({e[1]},{e[2]})"
    if tag == "K3":
        return "K3"
    if tag == "Hilb2K3":
        return "Hilb2(K3)"
    if tag in ("PB", "Fib"):
        return f"{tag}({render(e[1])}, {e[2]})"
    if tag == "Bl":
        return f"Bl({render(e[1])}, {render(e[2])}, {e[3]})"
    if tag == "Prod":
        return f"Prod({render(e[1])}, {render(e[2])})"
    if tag == "Tw":
        inner = render(e[1])
        if e[1][0] == "Sum":
            inner = f"({inner})"
        p = e[2]
        if len(p) == 1 and next(iter(p.values())) == 1 and next(iter(p)) >= 1:
            return f"{inner} * L^{next(iter(p))}"
        return f"{inner} * ({poly_text(p)})"
    if tag == "Sum":
        return " + ".join(render(c) for c in e[1])
    raise ValueError(tag)


def normal_form(e: tuple) -> dict:
    """Atom name -> twist polynomial."""
    name = atom_name(e)
    if name is not None:
        return {name: {0: 1}}
    tag = e[0]
    if tag == "PB":
        return nf_scale(normal_form(e[1]), ladder(0, e[2] - 1))
    if tag == "Fib":
        return nf_scale(normal_form(e[1]), ladder(0, e[2]))
    if tag == "Bl":
        return nf_add(normal_form(e[1]), nf_scale(normal_form(e[2]), ladder(1, e[3] - 1)))
    if tag == "Prod":
        # the cellular factor contributes its cells; the second one wins
        a, b = e[1], e[2]
        cb = atom_cells(atom_name(b)) if atom_name(b) else None
        if cb is not None:
            return nf_scale(normal_form(a), cb)
        return nf_scale(normal_form(b), atom_cells(atom_name(a)))
    if tag == "Tw":
        return nf_scale(normal_form(e[1]), e[2])
    if tag == "Sum":
        out: dict = {}
        for c in e[1]:
            out = nf_add(out, normal_form(c))
        return out
    raise ValueError(tag)


def nf_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for name, p in b.items():
        out[name] = padd(out.get(name, {}), p)
    return out


def nf_scale(a: dict, p: dict) -> dict:
    return {name: pmul(q, p) for name, q in a.items()}


def nf_dim(nf: dict) -> int:
    return max(atom_dim(n) + max(p) for n, p in nf.items())


def nf_betti(nf: dict) -> list[int]:
    out = [0] * (2 * nf_dim(nf) + 1)
    for name, p in nf.items():
        b = atom_betti(name)
        for k, a in p.items():
            for d, v in enumerate(b):
                out[d + 2 * k] += a * v
    return out


def betti_euler(b: list[int]) -> int:
    return sum(v if d % 2 == 0 else -v for d, v in enumerate(b))


def expectation(e: tuple) -> dict:
    nf = normal_form(e)
    b = nf_betti(nf)
    return {"nf": nf, "dim": nf_dim(nf), "betti": b, "euler": betti_euler(b)}


# -- dsl-bulk -------------------------------------------------------------------

DSL_N = 500  # terms of the size-n program; the large one has 4 * DSL_N


def _bl(r, ambient_tag):
    a = r.randint(3, 8)
    c = r.randint(0, a - 2)
    return ("Bl", (ambient_tag, a), ("P", c), a - c)


# Each template keeps every parameter to one digit, so a program's length in
# characters does not depend on the seed, only on DSL_N.
TEMPLATES = [
    lambda r: ("Tw", ("P", r.randint(0, 6)), {r.randint(1, 9): 1}),
    lambda r: ("Tw", ("Q", r.randint(1, 6)), {0: 1, r.randint(2, 9): 2}),
    lambda r: ("Tw", ("Gr", 2, r.randint(4, 6)), {r.randint(1, 9): 1}),
    lambda r: ("Tw", ("K3",), {0: 1, r.randint(2, 9): 1}),
    lambda r: ("Tw", ("Hilb2K3",), {r.randint(1, 9): 1}),
    lambda r: ("Tw", ("PB", ("P", r.randint(0, 6)), r.randint(1, 4)), {r.randint(1, 9): 1}),
    lambda r: ("Fib", ("Tw", ("Q", r.randint(1, 6)), {r.randint(1, 9): 1}), r.randint(1, 3)),
    lambda r: _bl(r, "P"),
    lambda r: ("Tw", ("Prod", ("K3",), ("P", r.randint(0, 6))), {r.randint(1, 9): 1}),
    lambda r: ("Prod", ("P", r.randint(1, 6)), ("Hilb2K3",)),
    lambda r: ("PB", ("Tw", _bl(r, "Q"), {r.randint(1, 9): 1}), r.randint(1, 4)),
    lambda r: ("Prod", ("Gr", 2, r.randint(4, 5)), ("Fib", ("K3",), r.randint(1, 3))),
]


def dsl_program(seed: int, terms: int) -> dict:
    """A sum of `terms` generated terms with its expected results."""
    rng = random.Random(f"dsl-bulk/{seed}/{terms}")
    items = [TEMPLATES[i % len(TEMPLATES)](rng) for i in range(terms)]
    rng.shuffle(items)
    tree = ("Sum", tuple(items))
    return {"text": render(tree), **expectation(tree)}


# -- cellular-wide ----------------------------------------------------------------

CELL_K = 12  # Gr(k, 2k) of dimension k^2; the large size doubles k


def cellular_instance(seed: int, k: int) -> dict:
    """One big Grassmannian expression plus an exact-cancellation problem."""
    rng = random.Random(f"cellular-wide/{seed}/{k}")
    tree = ("Sum", (
        ("Tw", ("Gr", k, 2 * k), {0: 1, 3: 1}),
        ("Tw", ("Hilb2K3",), {5: 1}),
        ("P", 4),
    ))
    exp = expectation(tree)
    r, m = k // 2, k // 3
    m1 = ppow(ladder(0, r), m)
    deg = k * k
    quotient = {
        name: {j: rng.randint(1, 3) for j in range(deg + 1) if rng.random() < 0.8}
        for name in exp["nf"]
    }
    rhs = nf_add(nf_scale(quotient, m1), exp["nf"])
    bad_atom = rng.choice(sorted(rhs))
    bad = dict(rhs)
    bad[bad_atom] = padd(rhs[bad_atom], {rng.randint(0, deg): 1})
    return {
        "text": render(tree),
        **exp,
        "gr": (k, 2 * k),
        "gr_cells": qbinom(2 * k, k),
        "r": r,
        "m": m,
        "m1": m1,
        "rhs": rhs,
        "quotient": quotient,
        "bad_rhs": bad,
    }


# -- gm-inproc -----------------------------------------------------------------

GM_BETTI = [1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1]
GM_EULER = 32
GM_MIDDLE_ROW = [0, 0, 1, 22, 1, 0, 0]
GM_SOLVED = {"B": "1", "Y": "L^2"}
GM_FINAL_LINE = "identity: OK; M(X) = Q(6) + K3*L^2; torsion: FREE"


def gm_order(seed: int, n: int) -> list[int]:
    """Seeded order in which the n single-fact perturbations are probed."""
    order = list(range(n))
    random.Random(f"gm-inproc/{seed}").shuffle(order)
    return order


def check_gm_report(rep: dict) -> str | None:
    """Compare a full_report dict with the paper's numbers."""
    if not rep.get("identity_ok"):
        return f"identity not ok: {rep.get('message')}"
    if rep["solved"] != GM_SOLVED:
        return f"solved {rep['solved']}"
    if rep["betti"] != GM_BETTI or rep["euler"] != GM_EULER:
        return f"betti {rep['betti']} euler {rep['euler']}"
    h = {(p, q): v for p, q, v in rep["hodge"]["h"]}
    row = [h.get((p, 6 - p), 0) for p in range(6, -1, -1)]
    if rep["hodge"]["n"] != 6 or row != GM_MIDDLE_ROW:
        return f"middle row {row}"
    if rep["torsion"]["conclusion"] != "free":
        return f"torsion {rep['torsion']['conclusion']}"
    return None


# -- cli-cold ------------------------------------------------------------------

README_EXPR = ("Sum", (("Q", 6), ("Tw", ("K3",), {2: 1})))


def _random_expr(rng) -> tuple:
    return ("Sum", tuple(TEMPLATES[rng.randrange(len(TEMPLATES))](rng) for _ in range(3)))


def cli_ops(seed: int) -> list[dict]:
    """One cycle of the cold-CLI mix.  Each op: argv, optional stdin, and
    what to expect (exit code plus a check name and its data)."""
    rng = random.Random(f"cli-cold/{seed}")
    readme = render(README_EXPR)
    big = _random_expr(rng)
    ops = [
        {"argv": ["verify-gm6"], "code": 0, "check": "verify_text"},
        {"argv": ["verify-gm6", "--quiet"], "code": 0, "check": "verify_quiet"},
        {"argv": ["verify-gm6", "--json"], "code": 0, "check": "verify_json"},
        {"argv": ["atlas-dump"], "code": 0, "check": "atlas_dump"},
        {"argv": ["dim", "Bl(Prod(Q(6), P(4)), Fib(Hilb2QY, 1), 6)"], "code": 0,
         "check": "text", "want": "10"},
        {"argv": ["dim", "Hilb2QY * (1 + L)"], "code": 0, "check": "text", "want": "4"},
    ]
    for tree in (README_EXPR, big):
        text = render(tree)
        exp = expectation(tree)
        ops += [
            {"argv": ["normalize", text], "code": 0, "check": "nf_text", "want": exp["nf"]},
            {"argv": ["normalize", "--json", text], "code": 0, "check": "nf_json",
             "want": exp["nf"]},
            {"argv": ["hodge", text], "code": 0, "check": "pretty", "want": exp["betti"]},
            {"argv": ["betti", text], "code": 0, "check": "text",
             "want": " ".join(map(str, exp["betti"]))},
            {"argv": ["euler", text], "code": 0, "check": "text", "want": str(exp["euler"])},
            {"argv": ["dim", "-"], "stdin": text, "code": 0, "check": "text",
             "want": str(exp["dim"])},
        ]
    # solve X*m1 + m2 = rhs with a seeded quotient
    m1 = {0: 1, rng.randint(1, 3): rng.randint(1, 2)}
    quot = normal_form(_random_expr(rng))
    m2 = ("P", rng.randint(1, 5))
    rhs_nf = nf_add(nf_scale(quot, m1), normal_form(m2))
    rhs = " + ".join(f"{_atom_src(n)} * ({poly_text(p)})" for n, p in sorted(rhs_nf.items()))
    ops.append({"argv": ["solve", poly_text(m1), render(m2), rhs], "code": 0,
                "check": "nf_text", "want": quot})
    # malformed input: exit 2, a one-line message, no traceback
    for argv in (
        ["normalize", readme + " +"],
        ["hodge", "Foo"],
        ["betti", "Gr(3,2)"],
        ["dim", "P(2) * L^"],
        ["euler", "Bl(P(4), P(1), 2)"],
        ["solve", "1 + x", "P(1)", "P(1)"],
    ):
        ops.append({"argv": argv, "code": 2, "check": "input_error"})
    rng.shuffle(ops)
    return ops


def _atom_src(name: str) -> str:
    if name == "Hilb2K3":
        return "Hilb2(K3)"
    if name[0] in "PQ" and name[1:].isdigit():
        return f"{name[0]}({name[1:]})"
    return name


def hostile_ops(atlas_path: str) -> list[dict]:
    """Inputs from the exit-code contract's known defects; each should
    fail fast with exit 2 and no traceback."""
    return [
        {"argv": ["solve", "0", "P(1)", "P(1)"], "code": 2, "check": "input_error"},
        {"argv": ["normalize", "--atlas", atlas_path, "P(1)"], "code": 2,
         "check": "input_error"},
        {"argv": ["dim", "(" * 3000 + "P(1)" + ")" * 3000], "code": 2,
         "check": "input_error"},
    ]


HOSTILE_ATLAS = [{"name": "S", "dim": "2", "h": [[0, 0, 1], [1, 1, 1], [2, 2, 1]]}]


def check_cli(op: dict, code: int, out: str, err: str) -> str | None:
    """None if a CLI run matches its expectation, else the reason."""
    if code != op["code"]:
        last = err.strip().splitlines()[-1:] or [""]
        return f"exit {code}, want {op['code']}: {last[0][:200]}"
    if "Traceback" in err:
        return "traceback on stderr"
    kind = op["check"]
    want = op.get("want")
    if kind == "input_error":
        lines = err.strip().splitlines()
        ok = out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        return None if ok else f"bad error report {err!r}"
    if kind == "text":
        return None if out.strip() == want else f"got {out.strip()!r}, want {want!r}"
    if kind == "nf_text":
        got = parse_nf_text(out)
        return None if got == want else f"normal form {got}"
    if kind == "nf_json":
        got = {n: parse_poly(p) for n, p in json.loads(out)["normal_form"].items()}
        return None if got == want else f"normal form {got}"
    if kind == "pretty":
        return check_pretty(out.rstrip("\n"), want)
    if kind == "verify_quiet":
        return None if out == GM_FINAL_LINE + "\n" else f"got {out!r}"
    if kind == "verify_text":
        lines = out.splitlines()
        if lines[-1] != GM_FINAL_LINE:
            return f"final line {lines[-1]!r}"
        if "Betti numbers: " + " ".join(map(str, GM_BETTI)) not in lines:
            return "betti line missing"
        if f"Euler characteristic: {GM_EULER}" not in lines:
            return "euler line missing"
        rows = [ln.split() for ln in lines]
        if [str(v) for v in GM_MIDDLE_ROW] not in rows:
            return "middle row missing"
        return None
    if kind == "verify_json":
        return check_gm_report(json.loads(out))
    if kind == "atlas_dump":
        return check_atlas_dump(json.loads(out))
    raise ValueError(kind)


def check_pretty(text: str, betti: list[int]) -> str | None:
    """A diamond layout has 2n+1 rows whose entries add up to the Betti sum."""
    lines = text.split("\n")
    if len(lines) != len(betti):
        return f"{len(lines)} rows, want {len(betti)}"
    if sum(int(x) for x in text.split()) != sum(betti):
        return "diamond entries do not add up to the Betti numbers"
    return None


def check_atlas_dump(doc: dict) -> str | None:
    entries = {e["name"]: e for e in doc["entries"]}
    if sorted(entries) != ["Gr(2,5)", "Hilb2K3", "K3", "P4", "Q6"]:
        return f"entries {sorted(entries)}"
    for name, e in entries.items():
        b = [0] * (2 * e["dim"] + 1)
        for p, q, v in e["diamond"]["h"]:
            b[p + q] += v
        if b != atom_betti(name):
            return f"{name} betti {b}"
        cells = atom_cells(name)
        if cells is not None and parse_poly(e["cells"]) != cells:
            return f"{name} cells {e['cells']}"
    return None

