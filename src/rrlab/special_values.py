"""Closed-form special values, class invariants, and the quintic machinery.

Closed forms are plain data in one prefix format: nested tuples over
integers, the constants pi, e and the golden ratio, and roots and rational
powers, so they can be evaluated at any precision.  Every registry entry
pairs a Nome with its closed form.  The check is one (points, sides) table on
the package's one driver, ``numerics.check_tables``: its points are the
entries, and its sides the direct route (continued fraction or, where
defined, infinite product) farthest from the closed form against it.

The theta quotient reads the class invariants G_1 = 1 and G_25 = phi from a
fixed table; class_invariant evaluates the defining product
2^(-1/4) * q^(-1/24) * chi(q) at the Nome q = exp(-pi*sqrt(n)) that the tests
check them against; theta_quotient_direct divides theta_phi at two such Nomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import cf as _cf
from . import qseries as _qs
from .numerics import Nome, PrecisionContext, RootMode, _log2, check_tables, golden_phi, root

__all__ = [
    "evaluate",
    "expr_str",
    "SpecialValueEntry",
    "registry",
    "verify_registry",
    "class_invariant",
    "theta_quotient",
    "p_value",
    "quintic_uv",
    "quintic_alpha_beta",
]


# -- closed forms ----------------------------------------------------------------
#
# A closed form is plain data: an int, one of the names in _CONSTANTS, or a
# tuple (op, *args) with op one of
#     ("+", x, y, ...)   ("-", x)   ("*", x, y, ...)   ("/", x, y)
#     ("root", k, x)     ("^", x, Fraction)

_CONSTANTS = ("pi", "e", "phi")


def evaluate(expr, ctx: PrecisionContext):
    """Numeric value of a closed form at context precision (deterministic).

    Each sum measures the bits it cancels, log2(max |term| / |sum|).  A closed
    form whose sums lose more than guard_bits in all is evaluated once more on
    the context widened by that loss and rounded back.
    """
    losses = []
    value = _evaluate(expr, ctx, losses)
    if sum(losses) > ctx.guard_bits:
        wide = _evaluate(expr, ctx.widened(math.ceil(sum(losses))), [])
        value = (ctx.mp.mpc if hasattr(wide, "_mpc_") else ctx.mp.mpf)(wide)
    return value


def _evaluate(expr, ctx: PrecisionContext, losses: list):
    """The value of a closed form at the context; each sum appends the bits it
    cancels to losses (all of them, ctx.bits, when it cancels to 0)."""
    mp = ctx.mp
    if isinstance(expr, int):
        return mp.mpf(expr)
    if isinstance(expr, str) and expr in _CONSTANTS:
        return golden_phi(ctx) if expr == "phi" else +getattr(mp, expr)
    op, *args = expr if isinstance(expr, tuple) and expr else (None,)
    if op == "+":
        terms = [_evaluate(t, ctx, losses) for t in args]
        total = mp.mpf(0)
        for t in terms:
            total += t
        top = max((_log2(t) for t in terms if t), default=0.0)
        losses.append(max(top - _log2(total), 0.0) if total else ctx.bits)
        return total
    if op == "*":
        total = mp.mpf(1)
        for f in args:
            total *= _evaluate(f, ctx, losses)
        return total
    if op == "-":
        return -_evaluate(args[0], ctx, losses)
    if op == "/":
        return _evaluate(args[0], ctx, losses) / _evaluate(args[1], ctx, losses)
    if op == "root":
        return root(_evaluate(args[1], ctx, losses), args[0], RootMode.PRINCIPAL, ctx)
    if op == "^":
        base, e = _evaluate(args[0], ctx, losses), args[1]
        if e.denominator == 1:
            return base**e.numerator
        return root(base, e.denominator, RootMode.PRINCIPAL, ctx) ** e.numerator
    raise TypeError(f"not a closed form: {expr!r}")


def expr_str(expr) -> str:
    """Infix text of a closed form, as `values list` prints it."""
    if isinstance(expr, int) or (isinstance(expr, str) and expr in _CONSTANTS):
        return str(expr)
    op, *args = expr if isinstance(expr, tuple) and expr else (None,)
    if op == "+":
        return "(" + " + ".join(map(expr_str, args)) + ")"
    if op == "*":
        return "*".join(map(expr_str, args))
    if op == "-":
        return f"-{expr_str(args[0])}"
    if op == "/":
        return f"({expr_str(args[0])}/{expr_str(args[1])})"
    if op == "root":
        k, x = args
        return f"sqrt({expr_str(x)})" if k == 2 else f"root({k}, {expr_str(x)})"
    if op == "^":
        return f"{expr_str(args[0])}^({args[1]})"
    raise TypeError(f"not a closed form: {expr!r}")


def _sub(a, b):
    return ("+", a, ("-", b))


SQRT5 = ("root", 2, 5)


# -- parametrized value machinery -----------------------------------------------


def _c_expr(a, b):
    """c with 2c = 1 + ((a+b)/(a-b)) * sqrt(5); needs a != b."""
    return ("/", ("+", 1, ("*", ("/", ("+", a, b), _sub(a, b)), SQRT5)), 2)


def _value_from_c_expr(c):
    """sqrt(c^2 + 1) - c; strictly decreasing, maps (0, inf) into (0, 1)."""
    return _sub(("root", 2, ("+", ("*", c, c), 1)), c)


# -- class invariants -----------------------------------------------------------


# G_n for the n that theta_quotient reads; an untabulated n raises KeyError.
_INVARIANTS = {Fraction(1): 1, Fraction(25): "phi"}


def class_invariant(n, ctx: PrecisionContext):
    """G_n = 2^(-1/4) * q^(-1/24) * chi(q) at q = exp(-pi*sqrt(n))."""
    mp = ctx.mp
    nome = Nome.exp_sqrt(n)
    return mp.root(2, 4) ** -1 * ctx.number(nome) ** (-mp.mpf(1) / 24) * _qs.chi(nome, ctx)


def theta_quotient(n, ctx: PrecisionContext):
    """(1/sqrt(5)) * (1 + 2*G_{25n}/G_n^5)^(1/2) from tabulated invariants."""
    n = Fraction(n)
    g_n = evaluate(_INVARIANTS[n], ctx)
    g_25n = evaluate(_INVARIANTS[25 * n], ctx)
    mp = ctx.mp
    return mp.sqrt(1 + 2 * g_25n / g_n**5) / mp.sqrt(5)


def theta_quotient_direct(n, ctx: PrecisionContext):
    """Direct theta-series ratio phi(e^(-5 pi sqrt n)) / phi(e^(-pi sqrt n))."""
    return _qs.theta_phi(Nome.exp_sqrt(25 * n), ctx) / _qs.theta_phi(Nome.exp_sqrt(n), ctx)


# -- quintic (p, u, v) machinery -------------------------------------------------


def p_value(q, ctx: PrecisionContext):
    """p = 4q * chi(q) / chi(q^5)^5 for 0 < |q| < 1."""
    q = ctx.number(q)
    if q == 0 or abs(q) >= 1:
        raise ValueError("p_value requires 0 < |q| < 1")
    return 4 * q * _qs.chi(q, ctx) / _qs.chi(q**5, ctx) ** 5


def quintic_uv(p, ctx: PrecisionContext):
    """u (+ sign) and v (- sign) from the explicit radical display.

    u, v = {(p/2) * ((p-1)^2 + 7 +- (4-p)*(4+p^2)^(1/2))}^(1/5), real fifth
    roots; valid for real p in (0, 4).
    """
    p = ctx.number(p)
    if isinstance(p, ctx.mp.mpc) or not (0 < p < 4):
        raise ValueError("quintic_uv requires real p in (0, 4)")
    alpha, beta = quintic_alpha_beta(p, ctx)
    return root(p * alpha, 5, RootMode.REAL_ODD, ctx), root(p * beta, 5, RootMode.REAL_ODD, ctx)


def quintic_alpha_beta(p, ctx: PrecisionContext):
    """Roots alpha >= beta of x^2 - ((p-1)^2 + 7)x + p^3 = 0.

    The constant term is p^3, not p^2: only then do u = (alpha*p)^(1/5) and
    v = (beta*p)^(1/5) reproduce the explicit radical display and satisfy
    u*v = p.  (With constant term p^2 the root product would force
    u*v = p^(4/5), contradicting the two quotient expressions for R.)
    beta = p^3/alpha (Vieta), not the difference of the two terms of the
    root formula, which cancels and loses 13 bits at q = e^-pi.
    """
    p = ctx.number(p)
    alpha = ((p - 1) ** 2 + 7 + (4 - p) * ctx.mp.sqrt(4 + p * p)) / 2
    return alpha, p**3 / alpha


# -- the special-value registry ---------------------------------------------------


@dataclass(frozen=True)
class SpecialValueEntry:
    """A named nome, its closed form, and where the value was first recorded."""

    name: str
    kind: str  # "R-value", "S-value", "theta-quotient"
    nome: Nome
    closed_form: object  # a closed form, see evaluate
    provenance: str


def _registry_entries() -> tuple:
    inv_phi = ("/", _sub(SQRT5, 1), 2)

    eq2 = SpecialValueEntry(
        name="eq2",
        kind="R-value",
        nome=Nome.exp_sqrt(4),  # q = exp(-2 pi)
        closed_form=_sub(("root", 2, ("/", ("+", 5, SQRT5), 2)), "phi"),
        provenance="first letter to Hardy, 16 January 1913",
    )
    eq3 = SpecialValueEntry(
        name="eq3",
        kind="S-value",
        nome=Nome.exp_sqrt(1),  # S at exp(-pi)
        closed_form=_sub(("root", 2, ("/", _sub(5, SQRT5), 2)), inv_phi),
        provenance="first letter to Hardy, 16 January 1913",
    )
    eq5_inner = _sub(("*", ("^", 5, Fraction(3, 4)), ("^", inv_phi, Fraction(5, 2))), 1)
    eq5 = SpecialValueEntry(
        name="eq5",
        kind="R-value",
        nome=Nome.exp_sqrt(20),  # q = exp(-2 pi sqrt 5)
        closed_form=_sub(("/", SQRT5, ("+", 1, ("root", 5, eq5_inner))), "phi"),
        provenance="second letter to Hardy, 27 February 1913 (case n = 20)",
    )
    golden_r = SpecialValueEntry(
        name="golden-r",
        kind="R-value",
        nome=Nome.rational(1),
        closed_form=inv_phi,
        provenance="elementary evaluation at q = 1",
    )
    golden_s = SpecialValueEntry(
        name="golden-s",
        kind="S-value",
        nome=Nome.rational(1),
        closed_form="phi",
        provenance="elementary evaluation at q = 1",
    )
    a7 = ("^", 5, Fraction(1, 4))
    eq7 = SpecialValueEntry(
        name="eq7",
        kind="R-value",
        nome=Nome.exp_sqrt(16),  # q = exp(-4 pi)
        closed_form=_value_from_c_expr(_c_expr(a7, 1)),
        provenance="first notebook, page 311 (a = 5^(1/4), b = 1)",
    )
    a8 = ("^", 60, Fraction(1, 4))
    b8 = ("+", 2, ("-", ("root", 2, 3)), SQRT5)
    eq8 = SpecialValueEntry(
        name="eq8",
        kind="R-value",
        nome=Nome.exp_sqrt(36),  # q = exp(-6 pi)
        closed_form=_value_from_c_expr(_c_expr(a8, b8)),
        provenance="first notebook, page 311 (a = 60^(1/4), b = 2 - sqrt(3) + sqrt(5))",
    )
    eq7_num = _sub(("root", 2, _sub(("*", 5, SQRT5), 10)), 1)
    eq7_den = ("+", 1, ("root", 2, _sub(5, ("*", 2, SQRT5))))
    eq7_explicit = SpecialValueEntry(
        name="eq7-explicit",
        kind="R-value",
        nome=Nome.exp_sqrt(16),
        closed_form=("*", "phi", ("/", eq7_num, eq7_den)),
        provenance="explicit radical form of the value at exp(-4 pi)",
    )
    chan_s3 = SpecialValueEntry(
        name="chan-s-3",
        kind="S-value",
        nome=Nome.exp_sqrt(3),  # S at exp(-pi sqrt 3)
        closed_form=(
            "/",
            ("+", ("-", 3), ("-", SQRT5), ("root", 2, ("*", 6, ("+", 5, SQRT5)))),
            4,
        ),
        provenance="Chan (1995), via modular equations",
    )
    # This value is sometimes printed with the radical in the nome inverted
    # (exp(-pi*sqrt(5/3))); that form misses by ~0.22, while at
    # exp(-pi*sqrt(3/5)) the identity holds to full precision.
    cb_sum = ("+", ("-", ("*", 5, SQRT5)), ("-", 3), ("root", 2, ("*", 30, ("+", 5, SQRT5))))
    chan_berndt = SpecialValueEntry(
        name="chan-berndt-s-3-5",
        kind="S-value",
        nome=Nome.exp_sqrt(Fraction(3, 5)),  # S at exp(-pi sqrt(3/5))
        closed_form=("^", ("/", cb_sum, 4), Fraction(1, 5)),
        provenance="Berndt-Chan (1995), p. 899",
    )
    theta1 = SpecialValueEntry(
        name="theta-ratio-1",
        kind="theta-quotient",
        nome=Nome.exp_sqrt(1),
        closed_form=("/", 1, ("root", 2, _sub(("*", 5, SQRT5), 10))),
        provenance="theta quotient at n = 1 after algebraic simplification",
    )
    return (
        eq2, eq3, eq5, golden_r, golden_s, eq7, eq8, eq7_explicit,
        chan_s3, chan_berndt, theta1,
    )


_REGISTRY = _registry_entries()


def registry() -> tuple:
    """All special-value entries, in a fixed order."""
    return _REGISTRY


def _direct_values(entry: SpecialValueEntry, ctx: PrecisionContext) -> dict:
    """Direct evaluations for an entry: CF route and, when defined, product route."""
    out = {}
    if entry.kind == "theta-quotient":
        n = entry.nome.arg
        out["theta-series-ratio"] = theta_quotient_direct(n, ctx)
        out["invariant-formula"] = theta_quotient(n, ctx)
        return out
    q = ctx.number(entry.nome)
    if entry.kind == "R-value":
        out["cf"] = _cf.rr_cf(q, ctx).require("R continued fraction")
        if abs(q) < 1:
            out["product"] = _qs.R_product(q, ctx)
    else:  # S-value
        out["cf"] = _qs.S(q, ctx, method="cf")
        if q < 1:
            out["product"] = _qs.S(q, ctx, method="product")
    return out


def _entry_sides(entry: SpecialValueEntry, ctx: PrecisionContext):
    """The direct route farthest from the closed form (the last on a tie) against it."""
    closed = evaluate(entry.closed_form, ctx)
    routes = _direct_values(entry, ctx).values()
    yield "", max(reversed(routes), key=lambda v: abs(v - closed)), closed


def verify_registry(ctx: PrecisionContext, names: Optional[list] = None) -> list:
    """Verify selected entries (all by default), each a point labelled by its name."""
    missing = set(names or ()) - {e.name for e in _REGISTRY}
    if missing:
        raise KeyError(f"unknown special-value entries: {sorted(missing)}")
    points = [(e.name, e) for e in _REGISTRY if not names or e.name in names]
    return check_tables(ctx, [(points, _entry_sides)])
