import json

import pytest

from rrlab.cli import main


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


def test_bits_floor_is_usage_error(capsys):
    code, _, err = run(capsys, "--bits", "32", "eval", "R", "--q", "1")
    assert code == 2
    assert "precision_bits" in err


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


def test_invariants_config_flag(tmp_path, capsys):
    cfg = tmp_path / "inv.json"
    cfg.write_text(json.dumps([{"n": "5", "closed_form": ["root", 4, "phi"]}]))
    code, out, _ = run(capsys, "--invariants", str(cfg), "values", "check", "eq2")
    assert code == 0


def test_invariants_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps([{"n": "2", "closed_form": 2}]))
    code, _, err = run(capsys, "--invariants", str(cfg), "values", "check", "eq2")
    assert code == 2
    assert "chi-product" in err


@pytest.mark.parametrize(
    "entry",
    [
        # JSON true is a Python int; the config must not read it as 1
        {"n": "1", "closed_form": True},
        {"n": "25", "closed_form": ["*", True, "phi"]},
        {"n": True, "closed_form": 1},
        {"n": "25", "closed_form": ["/", 1, 0]},
    ],
    ids=["bool-closed-form", "bool-factor", "bool-n", "divides-by-zero"],
)
def test_invariants_config_rejects_bad_entry(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps([entry]))
    code, _, err = run(capsys, "--invariants", str(cfg), "values", "check", "eq2")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.strip() != "error:"  # the line names what is wrong


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


@pytest.mark.parametrize("path", ["missing.json", "."])
def test_unreadable_invariants_is_usage_error(tmp_path, capsys, path):
    code, _, err = run(capsys, "--invariants", str(tmp_path / path), "values", "check", "eq2")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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
