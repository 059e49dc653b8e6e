"""Command-line front end.

Exit codes follow one discipline everywhere: 0 means verified success,
1 means a mathematical property came back false (a non-spanning
certificate, a factorization that provably does not exist, a failed
verify suite), 2 means the input or usage was bad or a resource guard
stopped the run (an output entry too long to print among them).

Matrices are read as JSON ``{"field": "Q" | {"Fp": p}, "rows": [[...]]}``;
rationals are strings like ``"-2/3"`` and F_p entries are ints.  A
``--field`` flag can supply (or must then agree with) the file's field.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, verify
from .decomp import bruhat_decompose, ulp_decompose
from .envelope import envelope_certificate, verify_certificate
from .errors import BorelenvError, InvalidInput, ResourceGuard, UlpInfeasible
from .flags import flag_from_matrix, relative_position, tangent_sum_check
from .linalg import FieldSpec, Matrix
from .weyl import Permutation, bruhat_leq, length

__all__ = ["main"]

WEYL_LIMIT = 2000  # entries per permutation; bruhat_leq takes 0.4 s at 2,000, 1.6 s at 4,000


def _parse_field(text: str) -> FieldSpec:
    if text.lower() == "q":
        return FieldSpec.rational()
    if text.lower().startswith("fp:"):
        try:
            return FieldSpec.prime(int(text[3:]))
        except ValueError as exc:
            raise InvalidInput(f"bad field argument {text!r}") from exc
    raise InvalidInput(f"bad field argument {text!r} (want q or fp:<p>)")


def _load_matrix(path: str, field_arg: str | None) -> Matrix:
    field = _parse_field(field_arg) if field_arg else None
    return jsonio.matrix_from_json(jsonio.load_json_file(path), field)


def _parse_perm(text: str) -> Permutation:
    try:
        return Permutation(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise InvalidInput(f"bad permutation {text!r}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_envelope(args) -> int:
    g = _load_matrix(args.matrix, args.field)
    weyl_set = None
    if args.weyl_set:
        data = jsonio.load_json_file(args.weyl_set)
        if not isinstance(data, list):
            raise InvalidInput("weyl set file must hold a JSON array of permutations")
        weyl_set = [jsonio.perm_from_json(x) for x in data]
    cert = envelope_certificate(g, weyl_set, restricted=args.restricted)
    if not verify_certificate(cert):
        raise BorelenvError("certificate failed self-verification")
    _emit(jsonio.certificate_to_json(cert))
    return 0 if cert.spans else 1


def _cmd_decomp(args) -> int:
    m = _load_matrix(args.matrix, args.field)
    if args.kind == "bruhat":
        factors = bruhat_decompose(m)
        _emit(jsonio.bruhat_to_json(factors))
        return 0
    try:
        factors = ulp_decompose(m, args.normalize)
    except UlpInfeasible as exc:
        _emit({"kind": "ulp", "normalization": args.normalize, "infeasible": True})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(jsonio.ulp_to_json(factors))
    return 0


def _cmd_relpos(args) -> int:
    f1 = flag_from_matrix(_load_matrix(args.flag1, args.field))
    f2 = flag_from_matrix(_load_matrix(args.flag2, args.field))
    w = relative_position(f1, f2)
    _emit({"w": jsonio.perm_to_json(w)})
    return 0


def _cmd_weyl(args) -> int:
    arity, op = {"leq": (2, bruhat_leq), "length": (1, length)}[args.op]  # argparse choices
    if len(args.args) != arity:
        raise InvalidInput(f"weyl {args.op} takes {arity} permutation(s), got {len(args.args)}")
    perms = [_parse_perm(a) for a in args.args]
    if any(w.n > WEYL_LIMIT for w in perms):
        raise ResourceGuard(f"weyl {args.op} guarded at {WEYL_LIMIT} entries per permutation")
    _emit({"result": op(*perms)})
    return 0


def _cmd_tangent_sum(args) -> int:
    h = _load_matrix(args.matrix, args.field)
    holds, ledger = tangent_sum_check(h)
    _emit({
        "holds": holds,
        "ledger": [{"w": jsonio.perm_to_json(w), "dim": d} for w, d in ledger],
    })
    return 0 if holds else 1


def _cmd_verify(args) -> int:
    fields = tuple(_parse_field(f) for f in args.fields.split(","))
    try:
        lo, hi = (int(x) for x in args.n.split(".."))
    except ValueError as exc:
        raise InvalidInput(f"bad --n range {args.n!r} (want lo..hi)") from exc
    config = verify.RunConfig(args.seed, args.trials, fields, (lo, hi), args.mode)
    report = verify.run_suites(config, suites=tuple(args.suite.split(",")))
    sys.stdout.write(verify.report_json(report))
    return 0 if report["pass"] else 1


_JSON_HELP = """\
wire formats:
  matrix   {"field": "Q" | {"Fp": p}, "rows": [[entry, ...], ...]}
           rational entries are strings "num/den" (or "num"); F_p entries
           are ints in [0, p)
  flag     its adapted basis, in the matrix format
  weyl set JSON array of permutations, each a 1-based image array [2,1,3]

exit codes: 0 verified success, 1 a mathematical property reported false,
2 bad input or usage.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelenv",
        description="Exact Borel-envelope computations: certificates, factorizations, flags.",
        epilog=_JSON_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="certificate that borel(g) is spanned by tagged vectors")
    p.add_argument("--matrix", required=True, help="path to matrix JSON")
    p.add_argument("--field", help="q or fp:<p>; must agree with the file when both present")
    p.add_argument("--restricted", action="store_true",
                   help="use the witness route over the computed small translate")
    p.add_argument("--weyl-set", dest="weyl_set", help="path to a JSON array of permutations")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("decomp", help="bruhat or ulp factorization")
    p.add_argument("--matrix", required=True)
    p.add_argument("--field")
    p.add_argument("--kind", choices=("bruhat", "ulp"), required=True)
    p.add_argument("--normalize", choices=("upper", "lower"), default="lower",
                   help="which ULP factor is unipotent")
    p.set_defaults(func=_cmd_decomp)

    p = sub.add_parser("relpos", help="relative position of two flags")
    p.add_argument("--flag1", required=True, help="adapted basis matrix JSON")
    p.add_argument("--flag2", required=True)
    p.add_argument("--field")
    p.set_defaults(func=_cmd_relpos)

    p = sub.add_parser("weyl", help="Bruhat order and length on one-line permutations")
    p.add_argument("op", choices=("leq", "length"))
    p.add_argument("args", nargs="+", help="permutations as comma-separated images, e.g. 2,1,3")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("tangent-sum", help="tangent cover check over the coordinate flags")
    p.add_argument("--matrix", required=True)
    p.add_argument("--field")
    p.set_defaults(func=_cmd_tangent_sum)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--fields", default="fp:2,fp:3,fp:5,q")
    p.add_argument("--n", default="2..4", help="size range lo..hi")
    p.add_argument("--suite", default="all", help="comma list of all|weyl|decomp|envelope|flag")
    p.add_argument("--mode", choices=("full", "restricted"), default="full")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BorelenvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
