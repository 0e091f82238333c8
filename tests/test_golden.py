"""Golden CLI outputs: stdout must match the stored files byte for byte.

Each case runs ``rrlab.cli.main(argv)`` in-process and compares its stdout
with ``tests/golden/<name>.out`` and its exit code with 0.  Regenerate the
files (only when an output change is intended and explained) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rrlab.cli import main
from rrlab.identities import identity_ids

GOLDEN = Path(__file__).parent / "golden"

_NOMES = {"q": ("--q", "1/10"), "exparg": ("--exp-arg", "2"), "expsqrt": ("--exp-sqrt", "3")}


def _cases() -> dict:
    cases = {
        "values-list": ["values", "list", "--format", "json"],
        "values-check-all": ["values", "check", "all", "--format", "json"],
        "eval-R-q-minus-1-real-odd": ["eval", "R", "--q", "-1", "--mode", "real-odd"],
    }
    for which in ("G", "H", "R"):
        cases[f"series-{which}"] = ["series", which, "--order", "60", "--format", "json"]
    for n in ("3", "5", "10"):
        cases[f"schur-{n}"] = ["schur", n, "--format", "json"]
    for target in ("R", "S", "G", "H", "phi", "chi"):
        for nome, flag in _NOMES.items():
            for fmt in ("text", "json"):
                cases[f"eval-{target}-{nome}-{fmt}"] = ["eval", target, *flag, "--format", fmt]
    for ident in identity_ids():
        cases[f"verify-{ident}"] = [
            "verify", ident, "--samples", "2", "--series-order", "40", "--format", "json",
        ]
    return cases


CASES = _cases()


def _run(argv) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_verify_all_is_the_identity_files_joined():
    """One command computes each theta quotient once for all its identities,
    and that changes no byte of any identity's report."""
    code, out = _run(["verify", "all", "--samples", "2", "--series-order", "40", "--format", "json"])
    assert code == 0
    reports = [r for i in identity_ids() for r in json.loads((GOLDEN / f"verify-{i}.out").read_bytes())]
    assert out == json.dumps(reports, sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
