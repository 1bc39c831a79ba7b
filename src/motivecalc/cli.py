"""Command-line front end.

Exit codes: 0 on success, 1 on a verification/cancellation failure, 2 on
input errors (syntax, unknown names, missing realizations, bad files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .tatepoly import ONE, NotDivisibleError
from .motive import (
    MotiveAtom,
    NotASummandError,
    UnregisteredAtomError,
    dim_of,
    normalize,
    solve_tensor_factor,
)
from .hodge import HodgeDiamond, MissingRealizationError, realize_hodge
from .atlas import Atlas, AtlasEntry
from .formulas import DimensionMismatchError, NonCellularFactorError, InvalidRankError
from .dsl import DslError, Parser, print_twist
from .gm import GMScenario, full_report, verify_identity

SCHEMA = "motive-calc/1"

INPUT_ERRORS = (
    DslError,
    UnregisteredAtomError,
    MissingRealizationError,
    DimensionMismatchError,
    NonCellularFactorError,
    InvalidRankError,
    ValueError,
    KeyError,
    OSError,
)


def _load_extra_atlas(atlas: Atlas, path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for item in data:
        h = {(p, q): v for p, q, v in item["diamond"]["h"]} if "diamond" in item else {
            (p, q): v for p, q, v in item["h"]
        }
        entry = AtlasEntry(
            atom=MotiveAtom(item["name"], item["dim"], frozenset({"smooth_projective"})),
            diamond=HodgeDiamond(item["dim"], h),
            torsion_free=bool(item.get("torsion_free", False)),
            provenance=f"user atlas file {path}",
        )
        atlas.add(entry)


def _read_expr_arg(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--quiet", action="store_true", help="only print the final line")
    common.add_argument("--atlas", metavar="FILE", help="extra atlas entries (JSON)")

    ap = argparse.ArgumentParser(
        prog="motivecalc",
        description="Exact calculus of motive decompositions with Hodge realizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, hlp in [
        ("normalize", "print the normal form of an expression"),
        ("hodge", "print the Hodge diamond of an expression"),
        ("betti", "print the Betti vector of an expression"),
        ("euler", "print the Euler characteristic of an expression"),
        ("dim", "print the top weight of an expression"),
    ]:
        p = sub.add_parser(name, parents=[common], help=hlp)
        p.add_argument("expr", help="DSL expression, or - for stdin")
    p = sub.add_parser("solve", parents=[common], help="solve N*m1 + m2 = rhs for N")
    p.add_argument("m1", help="twist polynomial, e.g. '1 + 2L + L^2'")
    p.add_argument("m2", help="DSL expression for the common summand")
    p.add_argument("rhs", help="DSL expression for the right-hand side")
    sub.add_parser("verify-gm6", parents=[common], help="run the sixfold pipeline")
    sub.add_parser("atlas-dump", parents=[common], help="dump all atlas entries as JSON")
    return ap


def _cmd_expr(args, atlas: Atlas) -> int:
    parser = Parser(atlas)
    expr = parser.parse(_read_expr_arg(args.expr))
    nf = normalize(expr)
    if args.command == "normalize":
        _emit(args, {"command": "normalize", "normal_form": nf.to_dict()}, str(nf))
        return 0
    if args.command == "dim":
        d = dim_of(expr, atlas.registry)
        _emit(args, {"command": "dim", "dim": d}, str(d))
        return 0
    diamond = realize_hodge(nf, atlas.diamond_table())
    if args.command == "hodge":
        _emit(
            args,
            {"command": "hodge", "hodge": diamond.to_json_dict()},
            diamond.pretty(),
        )
        return 0
    if args.command == "betti":
        b = list(diamond.betti())
        _emit(args, {"command": "betti", "betti": b}, " ".join(map(str, b)))
        return 0
    if args.command == "euler":
        _emit(args, {"command": "euler", "euler": diamond.euler()}, str(diamond.euler()))
        return 0
    raise AssertionError(args.command)


def _cmd_solve(args, atlas: Atlas) -> int:
    parser = Parser(atlas)
    m1 = parser.parse_polynomial(args.m1)
    m2 = normalize(parser.parse(_read_expr_arg(args.m2)))
    rhs = normalize(parser.parse(_read_expr_arg(args.rhs)))
    try:
        solved = solve_tensor_factor("X", m1, m2, rhs)
    except (NotDivisibleError, NotASummandError) as exc:
        _emit(
            args,
            {"command": "solve", "ok": False, "error": type(exc).__name__, "detail": str(exc)},
            f"solve failed: {type(exc).__name__}: {exc}",
        )
        return 1
    _emit(
        args,
        {
            "command": "solve",
            "ok": True,
            "solved": solved.normal_form.to_dict(),
            "note": solved.note,
        },
        str(solved.normal_form),
    )
    return 0


def _cmd_verify(args) -> int:
    s = GMScenario()
    if args.json:
        report = full_report(s)
        print(json.dumps({**report, "command": "verify-gm6"}, sort_keys=True))
        return 0 if report["identity_ok"] else 1
    derivation = verify_identity(s)
    if not derivation.ok:
        print(f"identity: FAILED; {derivation.message}")
        return 1
    solved, diamond, cert = derivation.answer()
    nf = solved.normal_form
    if not args.quiet:
        print("left normal form:  " + json.dumps(derivation.lhs.to_dict()))
        print("right normal form: " + json.dumps(derivation.rhs.to_dict()))
        print(f"solved M(X) = {json.dumps(nf.to_dict())}")
        print(f"note: {solved.note}")
        print("Hodge diamond:")
        print(diamond.pretty())
        print("Betti numbers: " + " ".join(map(str, diamond.betti())))
        print(f"Euler characteristic: {diamond.euler()}")
        for name, status in sorted(cert.atom_status.items()):
            print(f"torsion of {name}: {status}")
    alias = {"B": "Q(6)", "Y": "K3"}
    terms = [(alias.get(n, n), nf.coefficient(n)) for n in nf.atoms()]
    solution = " + ".join(a if p == ONE else f"{a}*{print_twist(p)}" for a, p in terms)
    print(f"identity: OK; M(X) = {solution}; torsion: {cert.conclusion.upper()}")
    return 0


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    atlas = Atlas()
    # atoms of the sixfold scenario, usable by name in expressions
    atlas.registry.register(MotiveAtom("Hilb2QY", 3, frozenset({"smooth_projective"})))
    atlas.registry.register(MotiveAtom("X", 6, frozenset({"unknown"})))
    try:
        if getattr(args, "atlas", None):
            _load_extra_atlas(atlas, args.atlas)
        if args.command in ("normalize", "hodge", "betti", "euler", "dim"):
            return _cmd_expr(args, atlas)
        if args.command == "solve":
            return _cmd_solve(args, atlas)
        if args.command == "verify-gm6":
            return _cmd_verify(args)
        if args.command == "atlas-dump":
            # make the dump useful even with an empty session
            atlas.projective_space(4)
            atlas.quadric(6)
            atlas.grassmannian(2, 5)
            atlas.k3()
            atlas.hilb2("K3")
            payload = atlas.dump()
            print(json.dumps({"schema": SCHEMA, "entries": payload}, sort_keys=True))
            return 0
        raise AssertionError(args.command)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
