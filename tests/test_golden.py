"""Golden CLI outputs: stdout of fixed jobs, compared byte for byte.

Each job covers one command on inputs whose coefficients mix the formal
parameters, so a change to the internal representation that alters any
text or JSON form fails here.  The files under ``tests/golden/`` hold the
expected stdout; ``python tests/test_golden.py`` rewrites them from the
current package, which is only right when an output change is intended.
"""

import json
import sys
from pathlib import Path

import pytest

from starquant.cli import main, run_job

GOLDEN = Path(__file__).parent / "golden"

LAMBDA_2 = [["0", "1"], ["-1", "0"]]
SO3 = [["0", "z2", "-z1"], ["-z2", "0", "z0"], ["z1", "-z0", "0"]]

# name -> (job, expected exit code)
JOBS = {
    "star_mixed_text": (
        {
            "command": "star",
            "context": {"n": 2, "lambda": LAMBDA_2, "coupling": "mu/2"},
            "inputs": {
                "f": "z0*(mu + hbar - tau) + mu^-1*z1",
                "g": "z0^2*z1 + i*tau*z1^2 - 3/2*mu^2 + (1/2 + i)*hbar*z0",
            },
        },
        0,
    ),
    "star_mixed_json_coupling": (
        {
            "command": "star",
            "context": {
                "n": 2,
                "lambda": LAMBDA_2,
                "coupling": [
                    {"params": {"mu": 1}, "value": "1/2"},
                    {"params": {"hbar": 1, "tau": 1}, "value": "-1/3*i"},
                ],
            },
            "inputs": {
                "f": "z0*(mu + hbar - tau) + mu^-1*z1",
                "g": "z0*z1^2 - i*mu*z1 + tau",
            },
        },
        0,
    ),
    "star_so3_mu": (
        {
            "command": "star",
            "context": {"n": 3, "lambda": SO3, "coupling": "mu/2"},
            "inputs": {
                "f": "z0*z1 + mu*z2^2 - hbar",
                "g": "z2^2 - mu^-1*z0",
                "mu": "2/3+i",
            },
        },
        0,
    ),
    "star_exp": (
        {
            "command": "star-exp",
            "inputs": {
                "lambda": LAMBDA_2,
                "A": [["1", "1/2"], ["1/2", "-2"]],
            },
            "truncation": 6,
        },
        0,
    ),
    "star_exp_complex_n4": (
        {
            "command": "star-exp",
            "inputs": {
                "lambda": [
                    ["0", "1/7", "2", "0"],
                    ["-1/7", "0", "0", "1/3*i"],
                    ["-2", "0", "0", "5/11"],
                    ["0", "-1/3*i", "-5/11", "0"],
                ],
                "A": [
                    ["1", "i", "0", "0"],
                    ["i", "2/3", "0", "1/2"],
                    ["0", "0", "-1", "0"],
                    ["0", "1/2", "0", "1/2"],
                ],
            },
            "truncation": 6,
        },
        0,
    ),
    "riccati": (
        {
            "command": "riccati",
            "inputs": {"a": "1", "b": "2", "c": "1/2+i"},
            "truncation": 6,
        },
        0,
    ),
    "ordering_g": (
        {
            "command": "ordering",
            "inputs": {
                "K": [["0", "1"], ["1", "0"]],
                "f": "z0^2*z1 + mu*z1 - i*tau",
                "g": "z0*z1 - tau + mu^-1*z1^2",
            },
        },
        0,
    ),
    "grade_mu_powers": (
        {
            "command": "grade",
            "context": {
                "n": 3,
                "lambda": [["0"] * 3 for _ in range(3)],
                "coupling": "mu/2",
            },
            "inputs": {
                "f": "mu^-1*z0^2 + z1 + hbar*z1 + mu*z0*z2 + mu^2*(z1^3 + 1/2*i*hbar) - tau*mu^2*z2^3",
            },
        },
        0,
    ),
    "verify_cayley": (
        {"command": "verify", "inputs": {"suite": "cayley", "seed": 7, "cases": 1}},
        0,
    ),
    "verify_lambda_relation_fails": (
        {
            "command": "verify",
            "inputs": {
                "suite": "lambda-relation",
                "lambda": [["0", "z0 + mu*z1"], ["-z0 - mu*z1", "0"]],
                "n": 2,
                "d_max": 2,
                "k_max": 3,
            },
        },
        1,
    ),
    "verify_jacobi_fails": (
        {
            "command": "verify",
            "inputs": {
                "suite": "jacobi",
                "lambda": [
                    ["0", "(1+i)*mu*z2^2", "0", "z3"],
                    ["-(1+i)*mu*z2^2", "0", "0", "0"],
                    ["0", "0", "0", "mu^-1*z1"],
                    ["-z3", "0", "-mu^-1*z1", "0"],
                ],
                "n": 4,
                "d_max": 2,
            },
        },
        1,
    ),
    "verify_jacobi_so3_passes": (
        {
            "command": "verify",
            "inputs": {
                "suite": "jacobi",
                "lambda": [
                    ["0", "(1/2+i)*mu*z2", "-3*z1"],
                    ["(-1/2-i)*mu*z2", "0", "mu^-1*z0"],
                    ["3*z1", "-mu^-1*z0", "0"],
                ],
                "n": 3,
                "d_max": 3,
            },
        },
        0,
    ),
}


def _run(name: str, job: dict, tmp_dir: Path, capsys) -> tuple:
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_stdout(name, tmp_path, capsys):
    job, want_code = JOBS[name]
    code, out = _run(name, job, tmp_path, capsys)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_stdout_is_indented_json_dumps(name, tmp_path, capsys):
    # the CLI's own writer prints what json.dumps prints with indent=2
    job, _ = JOBS[name]
    _, out = _run(name, job, tmp_path, capsys)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(JOBS))
def test_run_job_returns_the_printed_data(name, tmp_path, capsys):
    # run_job's envelope is the JSON data main prints, term lists included
    job, want_code = JOBS[name]
    _, out = _run(name, job, tmp_path, capsys)
    envelope, code, _ = run_job(job)
    assert code == want_code
    assert envelope == json.loads(out)


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (job, want_code) in sorted(JOBS.items()):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(job))
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["--job", str(path)])
            if code != want_code:
                sys.exit(f"{name}: exit {code}, expected {want_code}")
            (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
            print(f"wrote {name}.out", file=sys.stderr)
