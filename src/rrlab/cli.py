"""Command-line front end.

Subcommands:
    eval        evaluate R, S, G, H, phi (theta), chi, or the cf2 fraction
    values      list or check the special-value registry
    verify      run identity verifications (one id or "all")
    schur       classify R at primitive n-th roots of unity
    series      print exact series expansions of G, H, R as JSON
    asymptotic  small-x approximation record for the cf2 fraction

Exit codes: 0 all checks pass; 1 verification failure; 2 usage error;
3 numeric non-convergence.  A reader that closes stdout early changes none of
them.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Optional

from . import cf as _cf
from . import identities as _id
from . import qseries as _qs
from . import special_values as _sv
from .numerics import Nome, PrecisionContext, RootMode, certify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGE = 3


class UsageError(Exception):
    pass


def _context(args) -> PrecisionContext:
    return PrecisionContext(args.bits, args.guard_bits, args.max_iter)


def _out(*args, **kwargs) -> None:
    """print to stdout.  Once the reader has closed it, stdout points at
    os.devnull, so the command runs on to the exit code it decides and
    neither later writes nor the interpreter's final flush raise."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _eval_target(target: str, nome: Optional[Nome], mode: RootMode, ctx: PrecisionContext):
    """Returns (value, iterations), iterations None for the series and products;
    cf2 takes no nome, and every other target gets the Nome itself, which the
    fixed-point kernels convert at their own width.  A route that stops short
    raises ConvergenceError."""
    if target == "cf2":
        return _id.cf2_value(ctx)
    if target == "R":
        res = _cf.rr_cf(nome, ctx, mode)
        return res.require("R continued fraction"), res.iterations
    fn = {"S": _qs.S, "G": _qs.G, "H": _qs.H, "phi": _qs.theta_phi, "chi": _qs.chi}[target]
    return fn(nome, ctx), None


def cmd_eval(args) -> int:
    if args.mode is not None and args.target != "R":
        raise UsageError("--mode is only for eval R")
    if args.target == "cf2" and args.nome is not None:
        raise UsageError("cf2 takes no nome: drop --q, --exp-arg, --exp-sqrt")
    if args.target != "cf2" and args.nome is None:
        raise UsageError("one of --q, --exp-arg, --exp-sqrt is required")
    ctx = _context(args)
    mode = RootMode.REAL_ODD if args.mode == "real-odd" else RootMode.PRINCIPAL
    iterations = []  # of the run at ctx, then of the self-check

    def value_at(c: PrecisionContext):
        value, n = _eval_target(args.target, args.nome, mode, c)
        iterations.append(n)
        return value

    value, bits_ok = certify(value_at, ctx)
    # a proven radius spares the doubled run
    bits_by = "proof" if len(iterations) == 1 else "doubling"
    iterations = iterations[0]
    payload = {
        "target": args.target,
        "value": ctx.decimal(value),
        "iterations": iterations,
        "status": "converged",
        "agree_bits": bits_ok,
        "bits_by": bits_by,
    }
    if args.format == "json":
        _out(json.dumps(payload, sort_keys=True))
    else:
        _out(payload["value"])
        extra = f"status: converged  agree_bits: {bits_ok}  bits_by: {bits_by}"
        if iterations is not None:
            extra += f"  iterations: {iterations}"
        _out(extra)
    if not ctx.passes(bits_ok):
        need = ctx.bits - ctx.guard_bits
        print(f"warning: precision self-check got {bits_ok} bits (< {need})", file=sys.stderr)
        return EXIT_NO_CONVERGE
    return EXIT_OK


def cmd_values(args) -> int:
    if args.action == "list":
        if args.name not in (None, "all"):
            raise UsageError(f"values list takes no entry name: drop {args.name!r}")
        rows = [
            {
                "name": e.name,
                "kind": e.kind,
                "closed_form": _sv.expr_str(e.closed_form),
                "provenance": e.provenance,
            }
            for e in _sv.registry()
        ]
        if args.format == "json":
            _out(json.dumps(rows, sort_keys=True, indent=2))
        else:
            for r in rows:
                _out(f"{r['name']:<20} {r['kind']:<14} {r['provenance']}")
                _out(f"{'':<20} = {r['closed_form']}")
        return EXIT_OK
    ctx = _context(args)
    names = None if args.name in (None, "all") else [args.name]
    records = _sv.verify_registry(ctx, names)  # an unknown name: KeyError, exit 2
    ok = all(r["passed"] for r in records)
    if args.format == "json":
        out = [
            {
                "name": r["name"],
                "closed": ctx.decimal(r["closed"]),
                "abs_dev": ctx.mp.nstr(r["abs_dev"], 8),
                "agree_bits": r["agree_bits"],
                "passed": r["passed"],
            }
            for r in records
        ]
        _out(json.dumps(out, sort_keys=True, indent=2))
    else:
        for r in records:
            flag = "pass" if r["passed"] else "FAIL"
            _out(
                f"[{flag}] {r['name']:<20} dev={ctx.mp.nstr(r['abs_dev'], 8)} "
                f"agree_bits={r['agree_bits']}"
            )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    ctx = _context(args)
    ids = _id.identity_ids() if args.id == "all" else [args.id]
    # an unknown id raises UnknownIdentityError, a KeyError: exit 2
    reports = [_id.verify(i, ctx, args.samples, args.series_order) for i in ids]
    ok = all(rep.status == "pass" for rep in reports)
    payload = [rep.to_json(ctx) for rep in reports]
    if args.format == "json":
        _out(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        import csv as _csv

        text = io.StringIO()
        writer = _csv.DictWriter(
            text,
            fieldnames=["id", "point", "lhs", "rhs", "abs_dev", "agree_bits", "status"],
        )
        writer.writeheader()
        for rep in payload:
            for r in rep["records"]:
                writer.writerow({"id": rep["id"], **r, "status": rep["status"]})
        _out(text.getvalue(), end="")
    else:
        for rep in payload:
            mark = "pass" if rep["status"] == "pass" else "FAIL"
            _out(
                f"[{mark}] {rep['id']:<22} records={len(rep['records'])} "
                f"max_dev={rep['max_deviation']}"
            )
            for note in rep["excluded"]:
                _out(f"       excluded: {note}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_schur(args) -> int:
    cls = _cf.schur_classify(args.n)
    if args.format == "json":
        payload = {
            "n": cls.n,
            "diverges": cls.diverges,
            "lambda": cls.lam,
            "rho": cls.rho,
            "exponent": cls.exponent,
        }
        _out(json.dumps(payload, sort_keys=True))
    elif cls.diverges:
        _out(f"n={cls.n}: diverges (5 divides n)")
    else:
        _out(
            f"n={cls.n}: lambda={cls.lam:+d} rho={cls.rho} exponent={cls.exponent} "
            f"=> R(q) = lambda * q^exponent * R(lambda)"
        )
    return EXIT_OK


def cmd_series(args) -> int:
    order = args.order if args.order is not None else args.series_order
    if order < 1:
        raise UsageError("--order must be >= 1")
    fn = {"G": _qs.series_G, "H": _qs.series_H, "R": _qs.series_R}[args.which]
    series = fn(order)
    if args.format == "json":
        _out(json.dumps(series.to_json(), sort_keys=True))
    else:
        coeffs = ",".join(str(c) for c in series.coeffs)
        _out(f"lowest_exponent={series.offset} order={series.order}")
        _out(f"coefficients {coeffs}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    ctx = _context(args)
    x = args.x.arg  # parsed by Nome.rational, the CLI's one rational parser
    record = _id.asymptotic_check(x, ctx)
    payload = {k: ctx.decimal(v) for k, v in record.items()}
    payload["x"] = str(x)
    if args.format == "json":
        _out(json.dumps(payload, sort_keys=True))
    else:
        _out(f"x={x}  approx={payload['approx']}")
        _out(f"reference={payload['reference']}")
        _out(f"error={payload['error']}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, trailing: bool):
    """Options accepted both before and after the subcommand."""
    d = (lambda v: argparse.SUPPRESS) if trailing else (lambda v: v)
    parser.add_argument("--bits", type=int, default=d(256), help="working precision in bits (>= 64)")
    parser.add_argument("--guard-bits", type=int, default=d(32))
    parser.add_argument("--max-iter", type=int, default=d(10**6))
    parser.add_argument("--format", choices=("text", "json", "csv"), default=d("text"))
    parser.add_argument("--samples", type=int, default=d(10))
    parser.add_argument("--series-order", type=int, default=d(150))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrlab",
        description="Evaluate and verify the Rogers-Ramanujan continued fraction "
        "and its special values and identities at arbitrary precision.",
    )
    _add_common(parser, trailing=False)

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a nome")
    p_eval.add_argument("target", choices=("R", "S", "G", "H", "phi", "chi", "cf2"))
    nome = p_eval.add_mutually_exclusive_group()
    nome.add_argument(
        "--q", dest="nome", metavar="Q", type=Nome.rational,
        help="nome as an exact rational, e.g. 1/10 or 1; write a negative one as "
        "--q=-1/2 or --q -0.5, since a bare -1/2 reads as an option",
    )
    nome.add_argument(
        "--exp-arg", dest="nome", metavar="EXP_ARG", type=Nome.exp,
        help="rational s: q = exp(-pi*s)",
    )
    nome.add_argument(
        "--exp-sqrt", dest="nome", metavar="EXP_SQRT", type=Nome.exp_sqrt,
        help="rational n: q = exp(-pi*sqrt(n))",
    )
    p_eval.add_argument(
        "--mode", choices=("principal", "real-odd"), default=None,
        help="fifth root of q for R (default principal); no other target takes it",
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_values = sub.add_parser("values", help="list or check special values")
    p_values.add_argument("action", choices=("list", "check"))
    p_values.add_argument("name", nargs="?", default=None, help="entry name or 'all'")
    p_values.set_defaults(fn=cmd_values)

    p_verify = sub.add_parser("verify", help="verify an identity (or 'all')")
    p_verify.add_argument("id")
    p_verify.set_defaults(fn=cmd_verify)

    p_schur = sub.add_parser("schur", help="classify R at primitive n-th roots of unity")
    p_schur.add_argument("n", type=int)
    p_schur.set_defaults(fn=cmd_schur)

    p_series = sub.add_parser("series", help="exact series expansion of G, H, or R")
    p_series.add_argument("which", choices=("G", "H", "R"))
    p_series.add_argument("--order", type=int, default=None)
    p_series.set_defaults(fn=cmd_series)

    p_asym = sub.add_parser("asymptotic", help="small-x approximation of the cf2 fraction")
    p_asym.add_argument("x", type=Nome.rational, help="rational x in (0, 1/2]")
    p_asym.set_defaults(fn=cmd_asymptotic)

    for p in (p_eval, p_values, p_verify, p_schur, p_series, p_asym):
        _add_common(p, trailing=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main() call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.bits < 64:
            raise UsageError("precision_bits must be >= 64")
        # every command, including those that build no context, takes the same settings
        PrecisionContext.check(args.bits, args.guard_bits, args.max_iter)
        if args.series_order < 10:
            raise UsageError("series_order must be >= 10")
        if args.samples < 1:
            raise UsageError("samples must be >= 1")
        if args.format == "csv" and args.command != "verify":
            raise UsageError("--format csv is only for verify")
        code = args.fn(args)
        _out(end="", flush=True)  # a closed stdout raises here, not at exit
        return code
    except (UsageError, ValueError, ZeroDivisionError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGE


if __name__ == "__main__":
    sys.exit(main())
