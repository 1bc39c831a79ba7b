"""Command-line front end.

Exit codes: 0 on success, 1 on a verification/cancellation failure, 2 on
input errors (syntax, unknown names, missing realizations, bad files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .tatepoly import ONE, NotDivisibleError
from .motive import CANCELLATION_NOTE, MotiveAtom, NotASummandError, normalize
from .motive import solve_tensor_factor
from .hodge import HodgeDiamond, diagonal, realize_hodge
from .atlas import Atlas, AtlasEntry
from .dsl import DslError, Parser, print_twist
from .gm import ATOMS, GMScenario, full_report, verify_identity

SCHEMA = "motive-calc/1"

# every package input error (DslError, UnregisteredAtomError, ...) subclasses
# ValueError or KeyError
INPUT_ERRORS = (ValueError, KeyError, OSError)


def _load_extra_atlas(atlas: Atlas, path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"atlas file {path}: nested too deeply to read") from None
    if not isinstance(data, list):
        raise ValueError(f"atlas file {path}: top level must be a list of objects")

    def bad(field: str, want: str) -> ValueError:
        return ValueError(f"{field!r} must be {want}")

    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"atlas file {path}: item {i} must be an object")
        try:  # a refusal of a field, of the values built from them or of a clash names the item
            name, dim = item.get("name"), item.get("dim")
            if not isinstance(name, str):
                raise bad("name", "a string")
            if type(dim) is not int or dim < 0:
                raise bad("dim", "a nonnegative integer")
            field, h = "h", item.get("h")
            if "diamond" in item:
                diamond = item["diamond"] if isinstance(item["diamond"], dict) else {}
                field, h = "diamond.h", diamond.get("h")
                if (type(n := diamond.get("n", dim)), n) != (int, dim):
                    raise bad("diamond.n", "absent or equal to 'dim'")
            if not isinstance(h, list) or not all(
                isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t) for t in h
            ):
                raise bad(field, "a list of [p, q, v] integer triples")
            table = {(p, q): v for p, q, v in h}
            if len(table) < len(h):
                raise bad(field, "a list of [p, q, v] integer triples with no (p, q) twice")
            torsion_free = item.get("torsion_free", False)
            if not isinstance(torsion_free, bool):
                raise bad("torsion_free", "a boolean")
            diamond = HodgeDiamond(dim, table)
            cells = item.get("cells")
            if cells is not None:
                if not isinstance(cells, str):
                    raise bad("cells", "null or a twist polynomial")
                try:
                    cells = Parser(atlas).parse_polynomial(cells)
                except DslError as exc:
                    raise bad("cells", f"a twist polynomial: {exc}") from None
                if not cells or diagonal(cells) != diamond:
                    raise bad("cells", f"a twist polynomial whose diagonal diamond is {field!r}")
            atlas.add(AtlasEntry(name, diamond, torsion_free, f"user atlas file {path}", cells))
        except ValueError as exc:
            raise ValueError(f"atlas file {path}: item {i}: {exc}") from None


def _read_expr_arg(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
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
        p.set_defaults(run=_cmd_expr)
    p = sub.add_parser("solve", parents=[common], help="solve N*m1 + m2 = rhs for N")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("m1", help="twist polynomial, e.g. '1 + 2L + L^2'")
    p.add_argument("m2", help="DSL expression for the common summand")
    p.add_argument("rhs", help="DSL expression for the right-hand side")
    verify = sub.add_parser("verify-gm6", parents=[common], help="run the sixfold pipeline")
    verify.set_defaults(run=_cmd_verify)
    dump = sub.add_parser("atlas-dump", parents=[common], help="dump all atlas entries as JSON")
    dump.set_defaults(run=_cmd_atlas_dump)
    return ap


def _cmd_expr(args, atlas: Atlas) -> int:
    parser = Parser(atlas)
    expr = parser.parse(_read_expr_arg(args.expr))
    if args.command == "dim":
        _emit(args, {"dim": expr.top}, str(expr.top))
        return 0
    nf = normalize(expr)
    if args.command == "normalize":
        _emit(args, {"normal_form": nf.to_dict()}, str(nf))
        return 0
    diamond = realize_hodge(nf, atlas.diamond_table())
    if args.command == "hodge":
        _emit(args, {"hodge": diamond.to_json_dict()}, "" if args.json else diamond.pretty())
        return 0
    if args.command == "betti":
        b = list(diamond.betti())
        _emit(args, {"betti": b}, " ".join(map(str, b)))
        return 0
    _emit(args, {"euler": diamond.euler()}, str(diamond.euler()))
    return 0


def _cmd_solve(args, atlas: Atlas) -> int:
    if args.m2 == args.rhs == "-":  # stdin can be read only once
        raise ValueError("at most one of m2 and rhs may be '-'")
    parser = Parser(atlas)
    m1 = parser.parse_polynomial(args.m1)
    m2 = normalize(parser.parse(_read_expr_arg(args.m2)))
    rhs = normalize(parser.parse(_read_expr_arg(args.rhs)))
    try:
        solved = solve_tensor_factor("X", m1, m2, rhs)
    except (NotDivisibleError, NotASummandError) as exc:
        _emit(
            args,
            {"ok": False, "error": type(exc).__name__, "detail": str(exc)},
            f"solve failed: {type(exc).__name__}: {exc}",
        )
        return 1
    payload = {"ok": True, "solved": solved.normal_form.to_dict(), "note": CANCELLATION_NOTE}
    _emit(args, payload, str(solved.normal_form))
    return 0


def _cmd_verify(args, atlas: Atlas) -> int:
    s = GMScenario()
    if args.json:
        report = full_report(s)
        _emit(args, report, "")
        return 0 if report["identity_ok"] else 1
    derivation = verify_identity(s)
    if not derivation.ok:
        print(f"identity: FAILED; {derivation.message}")
        return 1
    nf, diamond, cert = derivation.answer()
    if not args.quiet:
        print("left normal form:  " + json.dumps(derivation.lhs.to_dict()))
        print("right normal form: " + json.dumps(derivation.rhs.to_dict()))
        print(f"solved M(X) = {json.dumps(nf.to_dict())}")
        print(f"note: {CANCELLATION_NOTE}")
        print("Hodge diamond:")
        print(diamond.pretty())
        print("Betti numbers: " + " ".join(map(str, diamond.betti())))
        print(f"Euler characteristic: {diamond.euler()}")
        for name, status in sorted(cert["atoms"].items()):
            print(f"torsion of {name}: {status}")
    terms = [(ATOMS[n].spelling, nf.coefficient(n)) for n in nf.atoms()]
    solution = " + ".join(a if p == ONE else f"{a}*{print_twist(p)}" for a, p in terms)
    print(f"identity: OK; M(X) = {solution}; torsion: {cert['conclusion'].upper()}")
    return 0


def _cmd_atlas_dump(args, atlas: Atlas) -> int:
    # make the dump useful even with an empty session
    atlas.projective_space(4)
    atlas.quadric(6)
    atlas.grassmannian(2, 5)
    atlas.k3()
    atlas.hilb2("K3")
    print(json.dumps({"schema": SCHEMA, "entries": atlas.dump()}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    atlas = Atlas()
    # the sixfold atoms with no DSL spelling are usable by their own names
    for name, atom in ATOMS.items():
        if atom.spelling is None:
            atlas.registry.register(MotiveAtom(name, atom.dim))
    try:
        if args.atlas:
            _load_extra_atlas(atlas, args.atlas)
        return args.run(args, atlas)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
