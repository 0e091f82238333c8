import json
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from rrlab import cf
from rrlab.cli import main
from rrlab.numerics import PrecisionContext


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
        for t in ("R", "S", "G", "chi")
    ]
    + [
        pytest.param(("eval", "phi", "--q", "999/1000", "--max-iter", "50"), "", id="phi"),
        pytest.param(("eval", "cf2", "--max-iter", "100"), "", id="cf2"),
        # 256 bits converge in 6,864 iterations; the 512-bit self-check runs out
        pytest.param(("eval", "cf2", "--max-iter", "10000"), "512", id="cf2-self-check"),
        pytest.param(("verify", "jims", "--max-iter", "100"), "", id="verify-jims"),
        pytest.param(("asymptotic", "1/20", "--max-iter", "100"), "", id="asymptotic"),
        pytest.param(("values", "check", "eq3", "--max-iter", "5"), "", id="values-eq3"),
    ]
    + [
        pytest.param(("verify", i, "--max-iter", "500", "--samples", "2"), "", id=i)
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

    def counting(route, ctx):
        for k in bounded(route, ctx):
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


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "1/10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"target", "value", "iterations", "status", "agree_bits"}
    assert data["status"] == "converged"


def test_eval_real_odd_mode(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "-1", "--mode", "real-odd")
    assert code == 0
    assert out.startswith("-1.6180339887498948482")


def test_eval_principal_at_minus_one_is_complex(capsys):
    code, out, _ = run(capsys, "eval", "R", "--q", "-1")
    assert code == 0
    assert out.startswith("(1.309016994374947424") and "j)" in out.splitlines()[0]


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
    return -mp.root(-x, 5) * h / g  # R with the real fifth root of q < 0


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
