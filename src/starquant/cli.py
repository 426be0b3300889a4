"""Batch command-line front end.

One job per process invocation, described either by flags or by a JSON job
file.  All input and output is exact; outputs are deterministic for a fixed
job (sorted keys, fixed seeds, exact arithmetic).

Exit codes: 0 success / all checks passed, 1 verification failure, 2 input
schema error, 3 mathematical precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import PreconditionError, SchemaError
from .grading import (
    check_jacobi,
    check_lambda_relation,
    decompose,
    h0_dim,
    specialize_mu,
)
from .matrices import (
    SqMatrix,
    closed_form_vs_oracle,
    closed_star_exponential,
    expand_closed_form,
    riccati_1d,
    riccati_vs_moyal,
)
from .parsing import parse_poly, parse_scalar
from .poly import HALF_MU, MultiPoly
from .scalars import PARAM_NAMES, GaussianRational
from .star import OrderingK, StarContext, intertwine, star, star_k_ordered
from .verify import SUITES, run_suite

COMMANDS = ("star", "star-exp", "riccati", "ordering", "grade", "verify")

_JOB_KEYS = {"command", "context", "inputs", "truncation", "output_path"}
_CONTEXT_KEYS = {"n", "lambda", "coupling", "params"}

_INPUT_KEYS = {
    "star": {"f", "g", "mu"},
    "star-exp": {"lambda", "A"},
    "riccati": {"a", "b", "c"},
    "ordering": {"K", "f", "g"},
    "grade": {"f", "mu"},
    "verify": {"suite", "seed", "cases", "lambda", "n", "d_max", "k_max"},
}


# caps on the size fields, next to the degree cap of max_input_degree
MAX_TRUNCATION = 32
MAX_CASES = 1000


def max_input_degree() -> int:
    raw = os.environ.get("STARQUANT_MAX_DEGREE", "16")
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"STARQUANT_MAX_DEGREE must be an integer, got {raw!r}") from exc


def _required(data: dict, key: str, where: str):
    if key not in data:
        raise SchemaError(f"{where} is missing {key!r}")
    return data[key]


def _int_field(
    value, label: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    # bool is a subclass of int, but true/false is never a count or a seed
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{label} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{label} must be an integer >= {minimum}")
    if maximum is not None and value > maximum:
        raise SchemaError(f"{label} must be an integer <= {maximum}")
    return value


def _guard_degree(p: MultiPoly, label: str) -> MultiPoly:
    cap = max_input_degree()
    if p.degree() > cap:
        raise SchemaError(
            f"{label} has degree {p.degree()} above the cap {cap} "
            "(raise STARQUANT_MAX_DEGREE to override)"
        )
    return p


def _poly_input(value, n: int, label: str) -> MultiPoly:
    if isinstance(value, str):
        return _guard_degree(parse_poly(value, n), label)
    if isinstance(value, list):
        try:
            return _guard_degree(MultiPoly.from_json(n, value), label)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed polynomial JSON for {label}: {exc}") from exc
    raise SchemaError(f"{label} must be an expression string or a JSON term list")


def _scalar_input(value, label: str) -> MultiPoly:
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not value.is_integer():
            raise SchemaError(f"{label} must be exact; write it as a string fraction")
        return MultiPoly.from_rat(int(value))
    if isinstance(value, list):
        try:
            return MultiPoly.from_json(0, value)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed scalar JSON for {label}: {exc}") from exc
    raise SchemaError(f"{label} must be a string or a JSON scalar list")


def _gauss_input(value, label: str) -> GaussianRational:
    if isinstance(value, (int,)):
        value = str(value)
    if not isinstance(value, str):
        raise SchemaError(f"{label} must be a scalar string")
    try:
        return GaussianRational.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad scalar for {label}: {exc}") from exc


def _matrix_input(value, label: str) -> tuple:
    """A non-empty square matrix of scalars, as GaussianRational rows."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{label} must be a non-empty matrix (list of rows)")
    rows = []
    for row in value:
        if not isinstance(row, list):
            raise SchemaError(f"{label} rows must be lists")
        rows.append(tuple(_gauss_input(v, label) for v in row))
    if any(len(row) != len(rows) for row in rows):
        raise SchemaError(f"{label}: matrix must be square")
    return tuple(rows)


def _lambda_input(data, n: int | None = None) -> tuple:
    """An n x n matrix of polynomials; n defaults to the number of rows."""
    if not isinstance(data, list) or not data:
        raise SchemaError("lambda must be a non-empty n x n matrix")
    if n is None:
        n = len(data)
    if len(data) != n or any(
        not isinstance(row, list) or len(row) != n for row in data
    ):
        raise SchemaError(f"lambda must be an n x n matrix with n = {n}")
    return tuple(
        tuple(_poly_input(v, n, "lambda entry") for v in row) for row in data
    )


def _context_input(data) -> StarContext:
    if not isinstance(data, dict):
        raise SchemaError("context must be an object")
    unknown = set(data) - _CONTEXT_KEYS
    if unknown:
        raise SchemaError(f"unknown context fields: {sorted(unknown)}")
    n = _int_field(_required(data, "n", "context"), "context n", 1)
    rows = _lambda_input(_required(data, "lambda", "context"), n)
    coupling = _scalar_input(_required(data, "coupling", "context"), "coupling")
    params = data.get("params")
    if params is not None:
        if not isinstance(params, list) or not all(
            isinstance(p, str) for p in params
        ):
            raise SchemaError("context params must be a list of parameter names")
        if not set(params) <= set(PARAM_NAMES):
            raise SchemaError(f"unknown parameters {sorted(set(params) - set(PARAM_NAMES))}")
    return StarContext(n, rows, coupling)


def _poly_payload(p: MultiPoly) -> dict:
    """Text and JSON of a polynomial, or of a scalar when p.n == 0."""
    return {"text": p.text(), "terms": p.to_json()}


def _series_payload(series) -> list:
    return [_poly_payload(c) for c in series.coeffs]


def _graded_payload(f: MultiPoly) -> dict:
    return decompose(f).to_json()


# --- command handlers --------------------------------------------------------


def _run_star(job: dict) -> tuple:
    ctx = _context_input(job.get("context"))
    inputs = job["inputs"]
    f = _poly_input(_required(inputs, "f", "inputs"), ctx.n, "f")
    g = _poly_input(_required(inputs, "g", "inputs"), ctx.n, "g")
    result = star(ctx, f, g)
    payload = {
        "star": _poly_payload(result),
        "graded": _graded_payload(result),
    }
    if "mu" in inputs:
        value = _gauss_input(inputs["mu"], "mu")
        payload["specialized"] = _poly_payload(specialize_mu(result, value))
    return payload, 0


def _run_star_exp(job: dict) -> tuple:
    inputs = job["inputs"]
    n_order = job["truncation"]
    lam = SqMatrix(_matrix_input(_required(inputs, "lambda", "inputs"), "lambda"))
    a_mat = SqMatrix(_matrix_input(_required(inputs, "A", "inputs"), "A"))
    if a_mat.dim != lam.dim:
        raise SchemaError("A must have the size of lambda")
    amplitude, phase = closed_star_exponential(lam, a_mat, n_order)
    expansion = expand_closed_form(lam, a_mat, n_order)
    report = closed_form_vs_oracle(lam, a_mat, n_order)
    table = []
    for k in range(n_order + 1):
        comps = decompose(expansion.coeffs[k]).components
        table.append(
            [{"degree": d, "mu": w} for (d, w) in sorted(comps)]
        )
    payload = {
        "amplitude": _series_payload(amplitude),
        "phase_matrix": [m.to_json() for m in phase.coeffs],
        "oracle_check": report.to_json(),
        "order_table": table,
    }
    return payload, 0 if report.passed else 1


def _run_riccati(job: dict) -> tuple:
    inputs = job["inputs"]
    n_order = job["truncation"]
    a = _gauss_input(inputs.get("a", "0"), "a")
    b = _gauss_input(inputs.get("b", "0"), "b")
    c = _gauss_input(inputs.get("c", "0"), "c")
    g, h = riccati_1d(a, b, c, n_order)
    report = riccati_vs_moyal(a, b, c, n_order)
    d = c * c - a * b
    payload = {
        "discriminant": d.text(),
        "g": _series_payload(g),
        "h": _series_payload(h),
        "oracle_check": report.to_json(),
    }
    return payload, 0 if report.passed else 1


def _run_ordering(job: dict) -> tuple:
    inputs = job["inputs"]
    kmat = OrderingK(_matrix_input(_required(inputs, "K", "inputs"), "K"))
    n = kmat.n
    if n % 2:
        raise SchemaError("ordering matrices act on an even number of variables")
    f = _poly_input(_required(inputs, "f", "inputs"), n, "f")
    payload = {"intertwined_f": _poly_payload(intertwine(kmat, f))}
    if "g" in inputs:
        g = _poly_input(inputs["g"], n, "g")
        ctx = (
            _context_input(job["context"])
            if job.get("context") is not None
            else StarContext.weyl(n // 2)
        )
        if ctx.n != n:
            raise SchemaError("the context n must equal the size of K")
        payload["k_ordered_product"] = _poly_payload(
            star_k_ordered(ctx, kmat, f, g)
        )
    return payload, 0


def _run_grade(job: dict) -> tuple:
    inputs = job["inputs"]
    if job.get("context") is None:
        raise SchemaError("grade requires a context carrying n")
    n = _context_input(job["context"]).n
    if n < 2:
        raise SchemaError("grade requires context n >= 2 (projective dimension n - 1)")
    f = _poly_input(_required(inputs, "f", "inputs"), n, "f")
    if "mu" in inputs:
        f = specialize_mu(f, _gauss_input(inputs["mu"], "mu"))
    graded = decompose(f)
    payload = {
        "graded": graded.to_json(),
        "projective_dimension": n - 1,
        "h0_dims": {
            str(d): h0_dim(n - 1, d) for d in graded.degrees()
        },
    }
    return payload, 0


def _run_verify(job: dict) -> tuple:
    inputs = job["inputs"]
    suite = inputs.get("suite")
    if suite not in SUITES:
        raise SchemaError(f"suite must be one of {sorted(SUITES)}")
    seed = _int_field(inputs.get("seed", 42), "seed")
    cases = inputs.get("cases")
    if cases is not None:
        _int_field(cases, "cases", 1, MAX_CASES)
    if "lambda" in inputs:
        if suite not in ("jacobi", "lambda-relation"):
            raise SchemaError("an explicit lambda is only used by the validator suites")
        n = _int_field(inputs["n"], "n", 1) if "n" in inputs else None
        rows = _lambda_input(inputs["lambda"], n)
        d_max = _int_field(inputs.get("d_max", 4), "d_max", 0, max_input_degree())
        ctx = StarContext(len(rows), rows, HALF_MU)
        if suite == "jacobi":
            report = check_jacobi(ctx, d_max)
        else:
            k_max = _int_field(inputs.get("k_max", 4), "k_max", 2, max_input_degree())
            report = check_lambda_relation(ctx, k_max, d_max)
        return {"report": report.to_json()}, 0 if report.passed else 1
    results = run_suite(suite, seed=seed, cases=cases)
    failed = [r for r in results if not r["pass"]]
    payload = {
        "suite": suite,
        "seed": seed,
        "cases": results,
        "total": len(results),
        "failed": len(failed),
    }
    return payload, 0 if not failed else 1


_HANDLERS = {
    "star": _run_star,
    "star-exp": _run_star_exp,
    "riccati": _run_riccati,
    "ordering": _run_ordering,
    "grade": _run_grade,
    "verify": _run_verify,
}


def validate_job(job: dict) -> dict:
    if not isinstance(job, dict):
        raise SchemaError("job must be a JSON object")
    unknown = set(job) - _JOB_KEYS
    if unknown:
        raise SchemaError(f"unknown job fields: {sorted(unknown)}")
    command = job.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"command must be one of {COMMANDS}")
    truncation = _int_field(job.get("truncation", 8), "truncation", 1, MAX_TRUNCATION)
    inputs = job.get("inputs", {})
    if not isinstance(inputs, dict):
        raise SchemaError("inputs must be an object")
    unknown = set(inputs) - _INPUT_KEYS[command]
    if unknown:
        raise SchemaError(f"unknown inputs for {command}: {sorted(unknown)}")
    out = job.get("output_path")
    if out is not None and not isinstance(out, str):
        raise SchemaError("output_path must be a string")
    return {
        "command": command,
        "context": job.get("context"),
        "inputs": inputs,
        "truncation": truncation,
        "output_path": out,
    }


def run_job(job: dict) -> tuple:
    job = validate_job(job)
    payload, code = _HANDLERS[job["command"]](job)
    envelope = {"command": job["command"], "result": payload}
    return envelope, code, job["output_path"]


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="starquant",
        description="Exact star products, star exponentials and their verifications.",
    )
    ap.add_argument("--job", help="path to a JSON job file")
    ap.add_argument("--command", choices=COMMANDS, help="command to run")
    ap.add_argument("--n", type=int, help="variable count for the context")
    ap.add_argument(
        "--lambda",
        dest="lam",
        help="JSON matrix; polynomial entries for contexts, scalars for star-exp",
    )
    ap.add_argument("--coupling", help="coupling scalar, e.g. 'mu/2' or 'i*hbar/2'")
    ap.add_argument("--f", help="first polynomial")
    ap.add_argument("--g", help="second polynomial")
    ap.add_argument("--A", help="JSON matrix of scalars (quadratic form)")
    ap.add_argument("--K", help="JSON matrix of scalars (ordering matrix)")
    ap.add_argument("--a", help="riccati coefficient a")
    ap.add_argument("--b", help="riccati coefficient b")
    ap.add_argument("--c", help="riccati coefficient c")
    ap.add_argument("--N", type=int, default=8, help="truncation order (default 8)")
    ap.add_argument("--seed", type=int, default=42, help="seed for randomized suites")
    ap.add_argument("--cases", type=int, help="case count for randomized suites")
    ap.add_argument("--suite", help="verification suite name")
    ap.add_argument("--mu", help="specialize mu to this scalar in the output")
    ap.add_argument("--out", help="also write the JSON result to this path")
    return ap


_escape = json.encoder.encode_basestring_ascii


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder;
    this writer dispatches on the exact type and joins each container once.
    ``indent`` is the newline and indentation before the value's closing
    bracket.  Leaves other than ``str`` and ``int`` (bool, None, float) go
    through ``json.dumps``; a non-``str`` dict key raises ``TypeError``.
    """
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_escape(k) + ": " + json_text(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _json_flag(raw: str, label: str):
    try:
        return json.loads(raw)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise SchemaError(f"--{label} must be valid JSON: {exc}") from exc


def job_from_args(args: argparse.Namespace) -> dict:
    command = args.command
    job: dict = {"command": command, "truncation": args.N, "inputs": {}}
    if args.out:
        job["output_path"] = args.out
    inputs = job["inputs"]
    if command == "star":
        if args.n is None or args.lam is None or args.coupling is None:
            raise SchemaError("star requires --n, --lambda and --coupling")
        job["context"] = {
            "n": args.n,
            "lambda": _json_flag(args.lam, "lambda"),
            "coupling": args.coupling,
        }
        if args.f is None or args.g is None:
            raise SchemaError("star requires --f and --g")
        inputs["f"] = args.f
        inputs["g"] = args.g
        if args.mu is not None:
            inputs["mu"] = args.mu
    elif command == "star-exp":
        if args.lam is None or args.A is None:
            raise SchemaError("star-exp requires --lambda and --A")
        inputs["lambda"] = _json_flag(args.lam, "lambda")
        inputs["A"] = _json_flag(args.A, "A")
    elif command == "riccati":
        for name, value in (("a", args.a), ("b", args.b), ("c", args.c)):
            if value is not None:
                inputs[name] = value
    elif command == "ordering":
        if args.K is None or args.f is None:
            raise SchemaError("ordering requires --K and --f")
        inputs["K"] = _json_flag(args.K, "K")
        inputs["f"] = args.f
        if args.g is not None:
            inputs["g"] = args.g
    elif command == "grade":
        if args.n is None or args.f is None:
            raise SchemaError("grade requires --n and --f")
        zero = "0"
        job["context"] = {
            "n": args.n,
            "lambda": [[zero] * args.n for _ in range(args.n)],
            "coupling": "mu/2",
        }
        inputs["f"] = args.f
        if args.mu is not None:
            inputs["mu"] = args.mu
    elif command == "verify":
        if args.suite is None:
            raise SchemaError("verify requires --suite")
        inputs["suite"] = args.suite
        inputs["seed"] = args.seed
        if args.cases is not None:
            inputs["cases"] = args.cases
        if args.lam is not None:
            inputs["lambda"] = _json_flag(args.lam, "lambda")
            if args.n is not None:
                inputs["n"] = args.n
    return job


def main(argv=None) -> int:
    ap = _build_argparser()
    args = ap.parse_args(argv)
    try:
        if bool(args.job) == bool(args.command):
            raise SchemaError("pass exactly one of --job or --command")
        if args.job:
            try:
                with open(args.job, "r", encoding="utf-8") as fh:
                    job = json.load(fh)
            except OSError as exc:
                raise SchemaError(f"cannot read job file: {exc}") from exc
            except ValueError as exc:  # also bad UTF-8 and over-long ints
                raise SchemaError(f"job file is not valid JSON: {exc}") from exc
            if args.out and isinstance(job, dict) and "output_path" not in job:
                job["output_path"] = args.out
        else:
            job = job_from_args(args)
        envelope, code, out_path = run_job(job)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "kind": "schema"}), file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"}), file=sys.stderr)
        return 3
    except ZeroDivisionError as exc:
        print(
            json.dumps({"error": f"division by zero: {exc}", "kind": "precondition"}),
            file=sys.stderr,
        )
        return 3
    text = json_text(envelope)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
