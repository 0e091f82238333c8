import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext

import rrlab
from rrlab import cf, cli, numerics, qseries
from rrlab.cli import main
from rrlab.identities import identity_ids, verify
from rrlab.numerics import PrecisionContext
from rrlab.special_values import verify_registry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_r_at_one(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "1")
    assert code == 0
    assert out.startswith("0.6180339887498948482")


def test_eval_r_exp_arg_two(capsys):
    code, out, _ = run(capsys, "eval", "R", "--exp-arg", "2")
    assert code == 0
    assert out.startswith("0.284079043840412296")
    assert "agree_bits" in out


def test_eval_phi_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "phi", "--q", "0")
    assert code == 0
    assert out.splitlines()[0] == "1.0"


def test_eval_s_at_one(capsys):
    code, out, _ = run(capsys, "eval", "S", "--q", "1")
    assert code == 0
    assert out.startswith("1.6180339887498948482")


def test_eval_requires_argument(capsys):
    code, _, err = run(capsys, "eval", "R")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize(
    "argv, says",
    [
        pytest.param(("eval", t, "--q", "99/100", "--max-iter", "50"), "", id=t)
        for t in ("G", "chi")
    ]
    + [
        # near q = 1 R and S take the modular relation, whose fraction at the
        # transformed nome needs 3 steps
        pytest.param(("eval", t, "--q", "99/100", "--max-iter", "2"), "", id=t)
        for t in ("R", "S")
    ]
    + [
        # phi's direct sum at 99/100 needs about 127 terms; from about 0.997 on at
        # 256 bits it takes the transformed sums, one term each
        pytest.param(("eval", "phi", "--q", "99/100", "--max-iter", "50"), "", id="phi"),
        pytest.param(("eval", "cf2", "--max-iter", "100"), "", id="cf2"),
        # the fraction at q converges in 14 iterations at 256 bits; the 512-bit
        # self-check, which needs 19, runs out (cf2 proves its radius and runs
        # no self-check, see test_eval_reports_how_bits_were_earned)
        pytest.param(("eval", "R", "--q", "1/10", "--max-iter", "16"), "512", id="R-self-check"),
        pytest.param(("verify", "jims", "--max-iter", "100"), "", id="verify-jims"),
        pytest.param(("asymptotic", "1/20", "--max-iter", "100"), "", id="asymptotic"),
        pytest.param(("values", "check", "eq3", "--max-iter", "5"), "", id="values-eq3"),
    ]
    + [
        # (x; x)_inf at x = (1/2)^(1/5) cannot stop within 20 terms of the pentagonal sum
        pytest.param(("verify", i, "--max-iter", "20", "--samples", "2"), "", id=i)
        for i in ("factorization-1", "factorization-product")
    ],
)
def test_eval_nonconvergence_exit_code(capsys, argv, says):
    code, _, err = run(capsys, *argv)
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ") and "did not converge" in lines[0], err
    assert says in lines[0], err


def test_capped_series_job_refuses_before_its_first_term(capsys, monkeypatch):
    # G at 1 - 10^-6 cannot stop before term 481,208; with a cap of 200,000 the
    # job exits 3 without running the loop
    counted = []
    bounded = cf.bounded

    def counting(route, ctx, start=1):
        for k in bounded(route, ctx, start):
            counted.append(k)
            yield k

    monkeypatch.setattr(cf, "bounded", counting)
    code, out, err = run(capsys, "eval", "G", "--q", "999999/1000000", "--max-iter", "200000")
    assert (code, out, counted) == (3, "", [])
    lines = err.splitlines()
    assert len(lines) == 1 and "did not converge" in lines[0], err
    assert lines[0].startswith("error: G series did not converge: max-iterations predicted, needs at least 4812")
    assert lines[0].endswith(" iterations (max_iter 200000), none run")


def test_bits_floor_is_usage_error(capsys):
    code, _, err = run(capsys, "--bits", "32", "eval", "R", "--q", "1")
    assert code == 2
    assert "precision_bits" in err


@pytest.mark.parametrize(
    "flags, says",
    [
        (("--bits", "63"), "precision_bits must be >= 64"),
        (("--series-order", "9"), "series_order must be >= 10"),
        (("--samples", "0"), "samples must be >= 1"),
        # 64 - 61 = 3 bits earn no decimal digit
        (("--bits", "64", "--guard-bits", "61"), "bits (64) must exceed guard_bits (61) by at least 4"),
    ],
)
def test_range_checks_are_usage_errors(capsys, flags, says):
    code, out, err = run(capsys, *flags, "verify", "jims")
    assert (code, out, err) == (2, "", f"error: {says}\n")


@pytest.mark.parametrize(
    "argv, says",
    [
        (("eval", "cf2", "--q", "1/2"), "cf2 takes no nome: drop --q, --exp-arg, --exp-sqrt"),
        (("eval", "cf2", "--exp-arg", "1"), "cf2 takes no nome: drop --q, --exp-arg, --exp-sqrt"),
        (("eval", "R", "--q", "1/2", "--format", "csv"), "--format csv is only for verify"),
        (("values", "check", "eq2", "--format", "csv"), "--format csv is only for verify"),
        (("--format", "csv", "values", "list"), "--format csv is only for verify"),
        (("schur", "7", "--format", "csv"), "--format csv is only for verify"),
        (("series", "G", "--format", "csv"), "--format csv is only for verify"),
        (("asymptotic", "1/20", "--format", "csv"), "--format csv is only for verify"),
        # every command checks the context settings, also those that build no context
        (("schur", "7", "--bits", "64", "--guard-bits", "63"),
         "bits (64) must exceed guard_bits (63) by at least 4"),
        (("series", "G", "--order", "20", "--guard-bits", "0"), "bits and guard_bits must be positive"),
        (("schur", "7", "--max-iter", "0"), "max_iter must be positive"),
        (("values", "list", "--max-iter", "-1"), "max_iter must be positive"),
        (("values", "list", "nope"), "values list takes no entry name: drop 'nope'"),
        # only R reads the fifth-root mode; S always takes the real fifth root
        (("eval", "G", "--q", "1/2", "--mode", "real-odd"), "--mode is only for eval R"),
        (("eval", "S", "--q", "1/2", "--mode", "principal"), "--mode is only for eval R"),
        (("eval", "cf2", "--mode", "real-odd"), "--mode is only for eval R"),
    ],
)
def test_ignored_inputs_are_usage_errors(capsys, argv, says):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {says}\n")


def test_values_list_includes_eq5(capsys):
    code, out, _ = run(capsys, "values", "list")
    assert code == 0
    assert "eq5" in out
    assert "second letter" in out


def test_values_check_eq2(capsys):
    code, out, _ = run(capsys, "values", "check", "eq2")
    assert code == 0
    assert "[pass] eq2" in out


def test_values_check_unknown(capsys):
    code, _, err = run(capsys, "values", "check", "nothere")
    assert code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (("values", "check", "nope"), "error: unknown special-value entries: ['nope']"),
        (("verify", "nope"), "error: unknown identity 'nope'; known: " + ", ".join(identity_ids())),
    ],
)
def test_unknown_names_print_unquoted(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    assert run(capsys, "schur", "7")[0] == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    assert run(capsys, "schur", "7", "--format", "json")[0] == 0


def test_one_guard_bit_with_few_iterations(capsys):
    # fewer fixed-point bits than stop bits once raised a negative shift count;
    # q = 1/10 keeps R on the fraction at q, at 64 bits and in the self-check.
    # W = 72 lies below stop_bits = 75, so the loop stops only on three equal
    # F's: the W-bit powers of q move them by a unit or two until step 18
    code, out, err = run(capsys, "eval", "R", "--q", "1/10", "--bits", "64", "--guard-bits", "1",
                         "--max-iter", "100")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "status: converged  agree_bits: 64  bits_by: doubling  iterations: 18"


def test_verify_modular_relation(capsys):
    code, out, _ = run(capsys, "verify", "modular-relation", "--samples", "4")
    assert code == 0
    assert "[pass] modular-relation" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown identity" in err


def test_schur_divergent(capsys):
    code, out, _ = run(capsys, "schur", "5")
    assert code == 0
    assert "diverges" in out


def test_schur_convergent(capsys):
    code, out, _ = run(capsys, "schur", "3")
    assert code == 0
    assert "lambda=-1" in out and "exponent=-2" in out


def test_series_g_coefficients(capsys):
    code, out, _ = run(capsys, "series", "G", "--order", "20")
    assert code == 0
    assert "coefficients 1,1,1,1,2,2,3,3,4,5," in out


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "R", "--order", "12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lowest_exponent"] == 1
    assert data["coeffs"][0] == "1"
    assert data["order"] == 12


def test_asymptotic_command(capsys):
    code, out, _ = run(capsys, "asymptotic", "1/10")
    assert code == 0
    assert "error=" in out


def test_asymptotic_domain_error(capsys):
    code, _, err = run(capsys, "asymptotic", "3/4")
    assert code == 2


def test_asymptotic_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotic", "1/0"])
    assert exc.value.code == 2
    assert "argument x: invalid rational value: '1/0'" in capsys.readouterr().err


def test_json_output_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "json", "verify", "jims")
    _, out2, _ = run(capsys, "--format", "json", "verify", "jims")
    assert out1 == out2


def test_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "cubic", "--samples", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,point,lhs,rhs,abs_dev,agree_bits,status"
    assert len(lines) == 3


def test_verify_all_at_minimum_bits(capsys):
    # every identity holds to the contract tol = 2^-(bits - guard_bits)
    code, out, _ = run(capsys, "--bits", "64", "verify", "all")
    assert code == 0
    assert "FAIL" not in out and out.count("[pass]") == 15


@pytest.mark.parametrize("flags", [(), ("--bits", "1024"), ("--guard-bits", "8")])
def test_verify_all_builds_at_most_two_mpmath_contexts(capsys, flags):
    # the context's precision and its widened one: a route that builds a
    # context at an exact, unrounded width shows here as extra misses.  The
    # count is asserted, not the exit code (guard bits 8 fail quintic-corollary)
    numerics._mp_at.cache_clear()
    run(capsys, *flags, "verify", "all")
    assert numerics._mp_at.cache_info().misses <= 2


def test_one_command_computes_each_theta_quotient_once(capsys, monkeypatch):
    calls, evaluations = [], []
    quotient, route = qseries._theta_quotient, qseries._quotient_route

    def listening(q, ctx, name):
        calls.append((name, type(q), q, ctx))
        return quotient(q, ctx, name)

    def choosing(q, ctx, name):  # a quotient chooses its route once it is computed
        evaluations.append(name)
        return route(q, ctx, name)

    monkeypatch.setattr(qseries, "_theta_quotient", listening)
    monkeypatch.setattr(qseries, "_quotient_route", choosing)
    for _ in range(2):  # the second command shares nothing with the first
        calls.clear()
        evaluations.clear()
        assert main(["verify", "all", "--samples", "3"]) == 0
        assert len(evaluations) == len(set(calls)) < len(calls)
    assert numerics._MEMO.get() is None


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [("verify", "schur-consistency"), ("eval", "R", "--q", "1/2")])
def test_closed_stdout_keeps_the_exit_code(argv, unbuffered):
    # a reader that is gone before the first write, as in `rrlab verify all | true`
    env = dict(os.environ, PYTHONPATH=str(Path(rrlab.__file__).parents[1]), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rrlab", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "1/10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"target", "value", "iterations", "status", "agree_bits", "bits_by"}
    assert data["status"] == "converged"


@pytest.mark.parametrize(
    "argv, bits_by",
    [
        (("cf2",), "proof"),
        (("G", "--q", "1/2"), "proof"),
        (("H", "--exp-arg", "1/2"), "proof"),
        (("chi", "--q=-1/2"), "proof"),
        (("phi", "--exp-sqrt", "3"), "proof"),
        # R and S by the modular relation, phi near q = 1 by the transformed sums
        (("R", "--q", "1/2"), "proof"),
        (("S", "--q", "1/2"), "proof"),
        (("R", "--q", "99999/100000"), "proof"),
        (("S", "--q", "99999/100000"), "proof"),
        (("phi", "--q", "99999/100000"), "proof"),
        (("phi", "--q=-99999/100000"), "proof"),
        # R at q < 0: root(-1, 5) times S's relation, the radius carried through
        (("R", "--q=-1/2"), "proof"),
        (("R", "--q=-1/2", "--mode", "real-odd"), "proof"),
        (("R", "--q=-999/1000"), "proof"),
        (("R", "--q=-999/1000", "--mode", "real-odd"), "proof"),
        (("R", "--q=-9999999/10000000", "--mode", "real-odd", "--bits", "1024"), "proof"),
        # no proof on these routes: R and S on the continued fraction at q (R at
        # q < 0 too), phi at q < 0 on the alternating sum, G and H at q < 0
        (("R", "--q", "1/10"), "doubling"),
        (("S", "--q", "1/10"), "doubling"),
        (("R", "--q=-1/10"), "doubling"),
        (("phi", "--q=-1/2"), "doubling"),
        (("G", "--q=-1/2"), "doubling"),
    ],
)
def test_eval_reports_how_bits_were_earned(capsys, argv, bits_by):
    code, out, _ = run(capsys, "eval", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bits_by"] == bits_by and data["agree_bits"] >= 224
    code, out, _ = run(capsys, "eval", *argv)
    assert f"agree_bits: {data['agree_bits']}  bits_by: {bits_by}" in out
    if "real-odd" in argv:  # R(q) = -S(|q|): the negation rounds nothing, so R earns S's bits
        code, out, _ = run(capsys, "eval", "S", "--q", argv[1].split("=-")[1], *argv[4:], "--format", "json")
        assert code == 0 and json.loads(out)["agree_bits"] == data["agree_bits"]


def test_eval_near_the_boundary_earns_proven_bits(capsys):
    # the exact nome reaches the kernel at its width, so G(1 - 1e-5) proves
    # more than the contract's 224 bits without a 512-bit run
    code, out, _ = run(capsys, "eval", "G", "--q", "99999/100000", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["bits_by"] == "proof" and data["agree_bits"] >= 225


def test_eval_and_record_judge_one_pair_alike(capsys, ctx, ctx512):
    # G(99/100) is about 2.3e28: its 256- and 512-bit values differ by about
    # 3e-44, far above tol but within tol * |G|, and eval and record both
    # judge by the bits relative to max(|x|, |y|, 1)
    code, out, _ = run(capsys, "eval", "G", "--q", "99/100", "--format", "json")
    assert code == 0 and json.loads(out)["agree_bits"] >= 224
    nome = numerics.Nome.rational("99/100")
    rec = numerics.record(ctx, "G(99/100)", qseries.G(nome, ctx), qseries.G(nome, ctx512))
    assert rec["abs_dev"] > ctx.tol and rec["passed"]


# The identity records that fail at 256 bits and 1 or 2 guard bits: rounding
# in sides that do not cancel loses more than the guard leaves (CHANGES.md)
_SHORT_RECORDS = {
    1: {
        ("R-identity-2", "q=1/20"),
        ("R-identity-2", "q=1/5"),
        ("factorization-1", "q=2/5"),
        ("factorization-1", "q=9/20"),
    },
    2: {("R-identity-2", "q=1/5")},
}


@pytest.mark.parametrize("guard", range(1, 13))
def test_guard_bit_sweep(capsys, guard):
    # at 256 bits every special value passes and values check all exits 0 from
    # 1 guard bit up.  Every cancelling identity side is widened by the bits it
    # measures, so R-identity-1, cubic and factorization-product pass from 1 up
    # too; exactly the records in _SHORT_RECORDS fail at 1 and 2, and verify
    # all exits 0 from 3 up
    ctx = PrecisionContext(256, guard)
    assert [r["point"] for r in verify_registry(ctx) if not r["passed"]] == []
    failed = {(i, r["point"]) for i in identity_ids() for r in verify(i, ctx).records if not r["passed"]}
    assert failed == _SHORT_RECORDS.get(guard, set())
    assert run(capsys, "verify", "all", "--guard-bits", str(guard))[0] == (1 if failed else 0)
    assert run(capsys, "values", "check", "all", "--guard-bits", str(guard))[0] == 0


def test_eval_real_odd_mode(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "-1", "--mode", "real-odd")
    assert code == 0
    assert out.startswith("-1.6180339887498948482")


def test_eval_principal_at_minus_one_is_complex(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "-1")
    assert code == 0
    assert out.startswith("(1.309016994374947424") and "j)" in out.splitlines()[0]


def test_complex_verify_record_prints_like_eval(capsys):
    # one decimal format for a complex value, (re + imj) with the digits earned:
    # verify's record of R at exp(2 pi i/3) and eval's R(-1)
    ctx = PrecisionContext()
    mp, digits = ctx.mp, ctx.digits

    def printed(z):
        return f"({mp.nstr(z.real, digits)} + {mp.nstr(z.imag, digits)}j)"

    _, out, _ = run(capsys, "verify", "schur-consistency", "--format", "json")
    rec = next(r for r in json.loads(out)[0]["records"] if r["point"] == "n=3: direct vs formula")
    assert rec["lhs"] == printed(cf.rr_root_of_unity_direct(3, 1, ctx).value)
    _, out, _ = run(capsys, "eval", "R", "--q", "-1")
    assert out.splitlines()[0] == printed(cf.rr_cf(numerics.Nome.rational(-1), ctx=ctx).value)


def test_eval_domain_error_is_usage(capsys):
    code, _, err = run(capsys, "eval", "G", "--q", "2")
    assert code == 2
    assert "|q| < 1" in err


def test_schur_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "schur", "10")
    assert code == 0
    data = json.loads(out)
    assert data == {"diverges": True, "exponent": None, "lambda": None, "n": 10, "rho": None}


@pytest.mark.parametrize(
    "nome",
    [
        ("--q", "1/2", "--exp-arg", "2"),
        ("--exp-sqrt", "3", "--q", "1/2"),
        ("--q", "1/0"),
        ("--exp-arg", "-1"),
    ],
)
def test_bad_nome_arguments_are_usage_errors(capsys, nome):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "R", *nome])
    assert exc.value.code == 2


def test_eval_negative_rational_nome(capsys):
    code, out, _ = run(capsys, "eval", "chi", "--q=-1/2")
    assert code == 0
    assert out.startswith("0.4")


def _product_reference(target: str, q: Fraction, mp):
    """target at the exact rational q from mpmath's q-Pochhammer products alone."""
    if target == "S":  # S(q) = -R(-q) with the real fifth root
        return -_product_reference("R", -q, mp)
    x = mp.mpf(q.numerator) / q.denominator
    x2, x5 = x**2, x**5
    if target == "chi":
        return mp.qp(-x, x2)
    if target == "phi":  # Jacobi triple product
        return mp.qp(x2, x2) * mp.qp(-x, x2) ** 2
    g = 1 / (mp.qp(x, x5) * mp.qp(x**4, x5))
    h = 1 / (mp.qp(x2, x5) * mp.qp(x**3, x5))
    if target == "G":
        return g
    if target == "H":
        return h
    return mp.sign(x) * mp.root(abs(x), 5) * h / g  # R with the real fifth root of q


def _printed_relative_error(out: str, want, mp):
    return abs(mp.mpf(out.splitlines()[0]) - want) / abs(want)


@pytest.mark.parametrize("q", ["-1/2", "-9/10", "-99/100"])
@pytest.mark.parametrize("target", ["R", "G", "H", "chi", "phi"])
def test_negative_nome_sweep(capsys, target, q):
    # every printed digit holds at q < 0, where theta's sum cancels and G, H alternate
    ctx = PrecisionContext()
    mp = MPContext()
    mp.prec = 2 * ctx.bits + 64
    mode = ("--mode", "real-odd") if target == "R" else ()
    code, out, _ = run(capsys, "eval", target, f"--q={q}", *mode)
    assert code == 0
    want = _product_reference(target, Fraction(q), mp)
    assert _printed_relative_error(out, want, mp) <= mp.mpf(10) ** -(ctx.digits - 1)


@pytest.mark.parametrize("target, q", [
    pytest.param(target, q, id=f"{target}-{q}")
    for target in ("R", "S", "G", "H", "chi", "phi")
    for q in ("9/10", "99/100") + (("999/1000", "99999/100000") if target in ("G", "H", "chi") else ())
])
def test_near_boundary_nome_sweep(capsys, poisson, target, q):
    # every printed digit holds in relative terms near q = 1, where G(99/100) is
    # about 2.3e28 and G(99999/100000) about 1.7e28575.  From 999/1000 on the
    # reference is Poisson summation: mpmath's qp stops there with
    # NoConvergence after its default 50 * prec factors, and allowed more, one
    # product takes about 2.5 s at 576 bits
    ctx = PrecisionContext()
    mp = MPContext()
    mp.prec = 2 * ctx.bits + 64
    code, out, _ = run(capsys, "eval", target, f"--q={q}")
    assert code == 0
    if q in ("9/10", "99/100"):
        want = _product_reference(target, Fraction(q), mp)
    else:
        want = poisson(target, Fraction(q), mp)
    assert _printed_relative_error(out, want, mp) <= mp.mpf(10) ** -(ctx.digits - 1)


@pytest.mark.parametrize("target, line", [
    ("G", '{"agree_bits": 236, "bits_by": "proof", "iterations": null, "status": "converged", "target": "G", '
          '"value": "1.653510378774883130955758213988752403083691530004004544865520142857e+28575"}'),
    ("H", '{"agree_bits": 236, "bits_by": "proof", "iterations": null, "status": "converged", "target": "H", '
          '"value": "1.021927658697083354643770308386044520076604005613293324697670773385e+28575"}'),
    ("chi", '{"agree_bits": 236, "bits_by": "proof", "iterations": null, "status": "converged", "target": "chi", '
            '"value": "3.59260622571301983775942179774105683720560708695103085612769360751e+17859"}'),
])
def test_eval_next_to_one_is_byte_identical(capsys, target, line):
    # the Euler sums' product head changes the work, not the bytes: these are
    # the lines the loop from n = 0 printed, with all 236 bits by proof
    code, out, _ = run(capsys, "eval", target, "--q", "99999/100000", "--format", "json")
    assert (code, out) == (0, line + "\n")


def test_phi_next_to_minus_one(capsys):
    # phi(-e^(-pi t)) = t^(-1/2) theta_2(e^(-pi/t)); mpmath's qp does not converge here
    # and its jtheta(3, 0, q) is wrong, so the reference is the transformed theta
    ctx = PrecisionContext()
    mp = MPContext()
    mp.prec = 2 * ctx.bits + 64
    t = -mp.log(mp.mpf(999) / 1000) / mp.pi
    want = mp.jtheta(2, 0, mp.exp(-mp.pi / t)) / mp.sqrt(t)
    code, out, _ = run(capsys, "eval", "phi", "--q=-999/1000")
    assert code == 0
    assert out.startswith("1.01552941415138858085077598340")
    assert _printed_relative_error(out, want, mp) <= mp.mpf(10) ** -(ctx.digits - 1)


def test_eval_R_next_to_one_takes_the_relation(capsys):
    # the fraction at the transformed nome: 3 steps, where the one at q took 172
    code, out, _ = run(capsys, "eval", "R", "--q", "99999/100000", "--format", "json")
    data = json.loads(out)
    assert (code, data["iterations"], data["agree_bits"]) == (0, 3, 256)
    assert data["value"].startswith("0.618033988749894848204586834365638117720309179805762862135448622705")


@pytest.mark.parametrize("q, steps", [("99999/100000", 3), ("1/10", 14), ("1", 2)])
def test_eval_S_reports_the_steps_of_its_fraction(capsys, q, steps):
    # S runs R's alternating fraction: at the transformed nome near q = 1,
    # where the fraction at q takes 345 steps, at q itself elsewhere, and at
    # q = 1 from its one period of 2 terms
    code, out, _ = run(capsys, "eval", "S", "--q", q, "--format", "json")
    data = json.loads(out)
    assert (code, data["iterations"]) == (0, steps)
    assert run(capsys, "eval", "S", "--q", q)[1].splitlines()[1].endswith(f"  iterations: {steps}")


@pytest.mark.parametrize("q", ["2", "0", "-1/2"])
def test_eval_S_keeps_its_domain(capsys, q):
    code, _, err = run(capsys, "eval", "S", f"--q={q}")
    assert (code, err) == (2, "error: S(q) requires real q in (0, 1]\n")


@pytest.mark.parametrize("bits", ["64", "256", "1024"])
def test_checks_never_take_the_relation(capsys, monkeypatch, bits):
    # identities and special values name rr_cf, R_product, S(method=...) and
    # theta_phi at q < 0 or below the crossover, so no check compares the modular
    # relation or phi's transformation with itself; eval R, S and phi near 1 do
    calls = []
    for name in ("rr_value", "_by_relation"):
        fn = getattr(cf, name)
        monkeypatch.setattr(cf, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    transformed, phi = qseries._poisson_quotient, qseries._THETA_ROUTES["phi+"][1]

    def listening(x, w, c, route, sums):
        if sums == phi:
            calls.append("phi+")
        return transformed(x, w, c, route, sums)

    monkeypatch.setattr(qseries, "_poisson_quotient", listening)
    for argv in (("verify", "all"), ("values", "check", "all")):
        assert run(capsys, *argv, "--bits", bits)[0] == 0
    assert "_by_relation" not in calls and "phi+" not in calls
    calls.clear()
    for target in ("R", "S", "phi"):
        assert run(capsys, "eval", target, "--q", "99999/100000", "--bits", bits)[0] == 0
    # one evaluation each: the relation and the transformed sums prove their radii
    assert calls == ["rr_value", "_by_relation"] * 2 + ["phi+"]
