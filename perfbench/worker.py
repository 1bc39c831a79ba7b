"""In-process side of the benchmark: one worker process per run.

    python3 perfbench/worker.py run   WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace WORKLOAD SEED SECONDS

`run` drives one in-process workload as a closed loop (one client, the
next op starts when the previous one returned) and checks every output
against the oracles in gen.py.  `trace` runs the per-layer census: every
layer's calls on the inputs of the workload whose latency it should move,
with a span around each call, plus the tracing overhead on WORKLOAD
(on every census workload if WORKLOAD is `all`).
Each mode prints one JSON object on stdout.  motivecalc must be importable
(run.py puts src on PYTHONPATH).
"""

from __future__ import annotations

import gc
import io
import json
import math
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from time import perf_counter

import calib
import gen
from tracer import Tracer

OP_TIMEOUT_S = 60.0
IN_PROCESS = ("dsl-bulk", "cellular-wide", "gm-inproc")


# Bound by load(); set-up itself is timed by probe.py in a fresh process.
mc = None


def load() -> None:
    global mc
    import motivecalc
    import motivecalc.cli
    import motivecalc.dsl

    mc = motivecalc


def scenario_atlas():
    """A fresh Atlas with the scenario atoms that cli.main registers."""
    atlas = mc.Atlas()
    atlas.registry.register(mc.MotiveAtom("Hilb2QY", 3, frozenset({"smooth_projective"})))
    atlas.registry.register(mc.MotiveAtom("X", 6, frozenset({"unknown"})))
    return atlas


def prewarm(atlas, names) -> None:
    """Register each atom through the Atlas's public constructors."""
    for name in names:
        if name.startswith("Gr("):
            atlas.grassmannian(*map(int, name[3:-1].split(",")))
        elif name in ("K3", "Hilb2K3"):
            atlas.k3()
            if name == "Hilb2K3":
                atlas.hilb2("K3")
        elif name[0] == "P":
            atlas.projective_space(int(name[1:]))
        else:
            atlas.quadric(int(name[1:]))


def nf_dict(nf) -> dict:
    return {name: poly.coeffs for name, poly in nf.terms.items()}


# -- ops: each returns raw outputs; checks run outside the timed region ------


def dsl_op(inp: dict, tr: Tracer) -> dict:
    atlas = scenario_atlas()
    if tr.census:
        with tr.span("dsl.tokenize"):
            tokens = mc.dsl.tokenize(inp["text"])
        tr.count("dsl.tokens", len(tokens))
        del tokens
        with tr.span("atlas.prewarm"):
            prewarm(atlas, inp["nf"])
    with tr.span("dsl.parse"):
        expr = mc.Parser(atlas).parse(inp["text"])
    with tr.span("motive.normalize"):
        nf = mc.normalize(expr)
    with tr.span("motive.dim_of"):
        dim = mc.dim_of(expr, atlas.registry)
    with tr.span("hodge.realize"):
        diamond = mc.realize_hodge(nf, atlas.diamond_table())
    with tr.span("hodge.betti"):
        betti, euler = diamond.betti(), diamond.euler()
    with tr.span("hodge.pretty"):
        pretty = diamond.pretty()
    if tr.census:
        tr.count("motive.nf_poly_terms", sum(len(p.items()) for p in nf.terms.values()))
    return {"nf": nf, "dim": dim, "betti": betti, "euler": euler, "pretty": pretty}


def check_dsl(out: dict, inp: dict) -> str | None:
    if nf_dict(out["nf"]) != inp["nf"]:
        return "normal form differs from the oracle"
    if out["dim"] != inp["dim"]:
        return f"dim {out['dim']}, want {inp['dim']}"
    if list(out["betti"]) != inp["betti"] or out["euler"] != inp["euler"]:
        return f"betti/euler differ (euler {out['euler']}, want {inp['euler']})"
    return gen.check_pretty(out["pretty"], inp["betti"])


def cellular_op(inp: dict, tr: Tracer) -> dict:
    atlas = mc.Atlas()
    if tr.census:
        k, n = inp["gr"]
        with tr.span("atlas.gaussian_binomial"):
            mc.gaussian_binomial(n, k)
        with tr.span("atlas.grassmannian"):
            atlas.grassmannian(k, n)
        with tr.span("atlas.hilb2"):
            atlas.k3()
            atlas.hilb2("K3")
    with tr.span("dsl.parse"):
        expr = mc.Parser(atlas).parse(inp["text"])
    with tr.span("motive.normalize"):
        nf = mc.normalize(expr)
    with tr.span("hodge.realize"):
        diamond = mc.realize_hodge(nf, atlas.diamond_table())
    with tr.span("hodge.pretty"):
        pretty = diamond.pretty()
    tr.count("hodge.pretty_chars", len(pretty))
    with tr.span("hodge.betti"):
        betti, euler = diamond.betti(), diamond.euler()
    with tr.span("tatepoly.pow"):
        m1 = mc.ladder(0, inp["r"]) ** inp["m"]
    with tr.span("tatepoly.mul"):
        rhs = mc.NormalForm({name: q * m1 for name, q in inp["N"].terms.items()}) + nf
    with tr.span("motive.solve"):
        solved = mc.solve_tensor_factor("X", m1, nf, rhs)
    with tr.span("motive.solve_refused"):
        try:
            mc.solve_tensor_factor("X", m1, nf, inp["bad"])
            refused = False
        except mc.NotDivisibleError:
            refused = True
    return {"nf": nf, "betti": betti, "euler": euler, "pretty": pretty, "m1": m1,
            "rhs": rhs, "solved": solved.normal_form, "refused": refused}


def check_cellular(out: dict, inp: dict) -> str | None:
    if nf_dict(out["nf"]) != inp["nf"]:
        return "normal form differs from the oracle"
    if list(out["betti"]) != inp["betti"] or out["euler"] != inp["euler"]:
        return "betti/euler differ from the q-binomial product formula"
    if out["m1"].coeffs != inp["m1"] or nf_dict(out["rhs"]) != inp["rhs"]:
        return "tensor factor or right-hand side differs"
    if nf_dict(out["solved"]) != inp["quotient"]:
        return "quotient differs from the generated N"
    if not out["refused"]:
        return "non-divisible instance was not refused"
    return gen.check_pretty(out["pretty"], inp["betti"])


def gm_op(inp: dict, tr: Tracer) -> dict:
    with tr.span("gm.scenario"):
        s = mc.GMScenario()
    if tr.census:
        with tr.span("gm.verify"):
            mc.verify_identity(s)
        with tr.span("gm.solve"):
            mc.solve_mx(s)
        with tr.span("gm.torsion"):
            mc.torsion_report(s)
    with tr.span("gm.full_report"):
        report = mc.full_report(s)
    with tr.span("gm.control"):
        accepted = [p for p in inp["perturbations"] if mc.verify_identity(mc.perturbed(s, **p)).ok]
    return {"report": report, "accepted": accepted}


def check_gm(out: dict, inp: dict) -> str | None:
    if out["accepted"]:
        return f"perturbed scenarios accepted: {out['accepted']}"
    return gen.check_gm_report(out["report"])


def cli_inproc_op(op: dict, tr: Tracer) -> dict:
    with tr.span("cli.argparse"):
        mc.cli.build_arg_parser().parse_args(op["argv"])
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(op.get("stdin", ""))
    try:
        with redirect_stdout(out), redirect_stderr(err), tr.span("cli.main"):
            code = mc.cli.main(op["argv"])
    finally:
        sys.stdin = stdin
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def check_cli_inproc(out: dict, op: dict) -> str | None:
    return gen.check_cli(op, out["code"], out["out"], out["err"])


# -- inputs -------------------------------------------------------------------


def inputs(workload: str, seed: int) -> dict:
    """Size tag -> input for one workload."""
    if workload == "dsl-bulk":
        return {"n": gen.dsl_program(seed, gen.DSL_N), "4n": gen.dsl_program(seed, 4 * gen.DSL_N)}
    if workload == "cellular-wide":
        out = {}
        for tag, k in (("n", gen.CELL_K), ("4n", 2 * gen.CELL_K)):
            inp = gen.cellular_instance(seed, k)
            inp["N"] = to_nf(inp["quotient"])
            inp["bad"] = to_nf(inp["bad_rhs"])
            out[tag] = inp
        return out
    if workload == "gm-inproc":
        base = mc.GMScenario()
        perts = [
            {f.name: getattr(base, f.name) + d}
            for f in fields(mc.GMScenario)
            if f.init and f.type == "int"
            for d in (-1, 1)
            if getattr(base, f.name) + d >= 0
        ]
        return {"n": {"perturbations": [perts[i] for i in gen.gm_order(seed, len(perts))]}}
    raise ValueError(workload)


def to_nf(d: dict):
    return mc.NormalForm({name: mc.TatePolynomial(p) for name, p in d.items()})


OPS = {
    "dsl-bulk": (dsl_op, check_dsl),
    "cellular-wide": (cellular_op, check_cellular),
    "gm-inproc": (gm_op, check_gm),
    "cli-cold": (cli_inproc_op, check_cli_inproc),
}

# One cycle of the closed loop, as size tags.  A run measures whole cycles,
# so the mix of sizes, and with it throughput, does not depend on where the
# deadline falls.
CYCLES = {
    "dsl-bulk": ["n"] * 4 + ["4n"],
    "cellular-wide": ["n"] * 8 + ["4n"],
    "gm-inproc": ["n"] * 20,
}


def timed(op, check, inp, tr) -> tuple[float, str | None]:
    # Every op starts from a collected heap, so collections triggered by
    # earlier ops' garbage do not land at random points of later ones.
    gc.collect()
    t0 = perf_counter()
    try:
        out = op(inp, tr)
    except Exception as exc:  # an op that raises counts as failed
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if dt > OP_TIMEOUT_S:
        return dt, f"timed out after {dt:.1f} s"
    return dt, check(out, inp)


def run(workload: str, seed: int, seconds: float) -> dict:
    load()
    op, check = OPS[workload]
    ins = inputs(workload, seed)
    null = Tracer(enabled=False)
    op(ins["n"], null)  # warm-up: regex compilation and lazy imports
    lat: dict[str, list[float]] = {tag: [] for tag in ins}
    raw: dict[str, list[float]] = {tag: [] for tag in ins}
    errors: list[str] = []
    clock = calib.Clock()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for tag in CYCLES[workload]:
            dt, err = timed(op, check, ins[tag], null)
            lat[tag].append(dt * clock.factor())
            raw[tag].append(dt)
            if err:
                errors.append(f"{tag}: {err}")
    return {
        "latencies": lat,
        "raw_p50_s": {tag: statistics.median(v) for tag, v in raw.items()},
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# -- per-layer census ----------------------------------------------------------

# Ops per census pass, as (size tag, repeats).
CENSUS = {
    "dsl-bulk": [("n", 1), ("4n", 1)],
    "cellular-wide": [("n", 3), ("4n", 1)],
    "gm-inproc": [("n", 20)],
}


def census_ops(workload: str, ins: dict) -> list[tuple[str, dict]]:
    if workload == "cli-cold":  # the whole mix, once, in process
        return [("n", op) for op in ins["n"]]
    return [(tag, ins[tag]) for tag, reps in CENSUS[workload] for _ in range(reps)]


def trace(workload: str, seed: int, seconds: float) -> dict:
    load()
    all_inputs = {w: inputs(w, seed) for w in IN_PROCESS}
    all_inputs["cli-cold"] = {"n": gen.cli_ops(seed)}
    tr = Tracer()
    # Same calls as the traced ops, census calls included, with no spans:
    # the baseline of trace.overhead_ratio.
    untraced = Tracer(enabled=False, census=True)
    ratio_for = list(all_inputs) if workload == "all" else [workload]
    attempted, errors = 0, []
    ratios: dict[str, list[float]] = {w: [] for w in ratio_for}
    clock = calib.Clock()
    deadline = perf_counter() + seconds
    npass = 0
    while npass == 0 or perf_counter() < deadline:
        for w, ins in all_inputs.items():
            op, check = OPS[w]
            traced_s = untraced_s = 0.0
            for i, (tag, inp) in enumerate(census_ops(w, ins)):
                # The untraced twin of a traced op runs right before or right
                # after it, in turns, so neither side always gets the warmer heap.
                if w in ratios and (npass + i) % 2:
                    untraced_s += timed(op, check, inp, untraced)[0] * clock.factor()
                tr.op = f"{w}/{tag}/{npass}.{i}"
                with tr.span(f"op.{w}"):
                    dt, err = timed(op, check, inp, tr)
                tr.scale[tr.op] = clock.factor()
                traced_s += dt * tr.scale[tr.op]
                attempted += 1
                if err:
                    errors.append(f"{w}/{tag}: {err}")
                if w in ratios and not (npass + i) % 2:
                    untraced_s += timed(op, check, inp, untraced)[0] * clock.factor()
            if w in ratios:
                ratios[w].append(traced_s / untraced_s)
        npass += 1
    tr.op = None
    return {
        "metrics": layer_metrics(tr),
        "overhead_ratios": {w: statistics.median(v) for w, v in ratios.items()},
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "trace": tr.export(),
    }


def growth(small: float, large: float) -> float:
    """Exponent of the time growth for 4x the input: log4(large / small).
    A self time is a difference of two medians and can come out at or below
    zero on a noisy machine; it is floored at 1 us so a run still reports."""
    return math.log(max(large, 1e-6) / max(small, 1e-6), 4)


def layer_metrics(tr: Tracer) -> dict:
    """Times and counts on the large input, growth between the two sizes."""
    dn, d4, cn, c4 = "dsl-bulk/n/", "dsl-bulk/4n/", "cellular-wide/n/", "cellular-wide/4n/"

    def parse_self(prefix):
        return tr.median("dsl.parse", prefix) - tr.median("dsl.tokenize", prefix)

    def grow(name, small, large):
        return growth(tr.median(name, small), tr.median(name, large))

    ms = 1000.0
    return {
        "dsl.tokenize_s": tr.median("dsl.tokenize", d4),
        "dsl.tokens": tr.count_of("dsl.tokens", d4),
        "dsl.tokenize.growth_exp": grow("dsl.tokenize", dn, d4),
        "dsl.parse_self_s": parse_self(d4),
        "dsl.parse.growth_exp": growth(parse_self(dn), parse_self(d4)),
        "motive.normalize_s": tr.median("motive.normalize", d4),
        "motive.normalize.growth_exp": grow("motive.normalize", dn, d4),
        "motive.nf_poly_terms": tr.count_of("motive.nf_poly_terms", d4),
        "motive.dim_of_s": tr.median("motive.dim_of", d4),
        "motive.solve_s": tr.median("motive.solve", c4),
        "tatepoly.pow_s": tr.median("tatepoly.pow", c4),
        "tatepoly.pow.growth_exp": grow("tatepoly.pow", cn, c4),
        "tatepoly.mul_s": tr.median("tatepoly.mul", c4),
        "atlas.grassmannian_s": tr.median("atlas.grassmannian", c4),
        "atlas.gaussian_binomial_s": tr.median("atlas.gaussian_binomial", c4),
        "atlas.grassmannian.growth_exp": grow("atlas.grassmannian", cn, c4),
        "atlas.hilb2_s": tr.median("atlas.hilb2", "cellular-wide/"),
        "hodge.realize_s": tr.median("hodge.realize", c4),
        "hodge.pretty_s": tr.median("hodge.pretty", c4),
        "hodge.pretty_chars": tr.count_of("hodge.pretty_chars", c4),
        "hodge.pretty.growth_exp": grow("hodge.pretty", cn, c4),
        "gm.scenario_ms": tr.median("gm.scenario", "gm-inproc/") * ms,
        "gm.verify_ms": tr.median("gm.verify", "gm-inproc/") * ms,
        "gm.solve_ms": tr.median("gm.solve", "gm-inproc/") * ms,
        "gm.torsion_ms": tr.median("gm.torsion", "gm-inproc/") * ms,
        "gm.full_report_ms": tr.median("gm.full_report", "gm-inproc/") * ms,
        "gm.control_ms": tr.median("gm.control", "gm-inproc/") * ms,
        "cli.argparse_ms": tr.median("cli.argparse", "cli-cold/") * ms,
        "cli.main_ms": tr.median("cli.main", "cli-cold/") * ms,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode in ("run", "trace"):
        workload, seed, seconds = argv[1], int(argv[2]), float(argv[3])
        result = (run if mode == "run" else trace)(workload, seed, seconds)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
