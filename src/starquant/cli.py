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
from contextvars import ContextVar
from math import comb

from .errors import PreconditionError, SchemaError
from .grading import (
    _graded_packed_keys,
    check_jacobi,
    check_lambda_relation,
    graded_terms,
    h0_dim,
    specialize_mu,
)
from .matrices import (
    OrderingK,
    SqMatrix,
    _expansion,
    _riccati_report,
    closed_form_vs_oracle,
    closed_star_exponential,
    riccati_1d,
)
from .parsing import parse_gaussian, parse_poly
from .poly import HALF_MU, MultiPoly, TermRows
from .scalars import GaussianRational
from .star import StarContext, intertwine, star, star_k_ordered
from .verify import SUITES, run_suite

# The one schema of the job fields.  Each command maps to whether it reads a
# context, then to its inputs; a field is REQUIRED, OPTIONAL, or has a default
# that fills it in when absent.  Ordering reads a context only to multiply f
# and g, but checks one that it is given.
REQUIRED, OPTIONAL = object(), object()
SCHEMA = {
    "star": (REQUIRED, {"f": REQUIRED, "g": REQUIRED, "mu": OPTIONAL}),
    "star-exp": (None, {"lambda": REQUIRED, "A": REQUIRED}),
    "riccati": (None, {"a": "0", "b": "0", "c": "0"}),
    "ordering": (OPTIONAL, {"K": REQUIRED, "f": REQUIRED, "g": OPTIONAL}),
    "grade": (REQUIRED, {"f": REQUIRED, "mu": OPTIONAL}),
    "verify": (None, {
        "suite": REQUIRED, "seed": 42, "cases": OPTIONAL, "lambda": OPTIONAL,
        "n": OPTIONAL, "d_max": 4, "k_max": 4,
    }),
}
COMMANDS = tuple(SCHEMA)
CONTEXT_FIELDS = {"n": REQUIRED, "lambda": REQUIRED, "coupling": REQUIRED}
_JOB_FIELDS = {
    "command": REQUIRED, "context": None, "inputs": {}, "truncation": 8, "output_path": None,
}

# caps on the size fields, next to the degree cap of max_input_degree; the
# variable cap bounds n and the rows of lambda, A and K, and the sweep cap
# the monomials comb(n + d_max, n) whose pairs the lambda relation contracts
MAX_TRUNCATION = 32
MAX_CASES = 1000
MAX_VARIABLES = 32
MAX_SWEEP_MONOMIALS = 120


def max_input_degree() -> int:
    raw = os.environ.get("STARQUANT_MAX_DEGREE", "16")
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"STARQUANT_MAX_DEGREE must be an integer, got {raw!r}") from exc


# the degree cap of the running job: _run sets an empty list for the job
# and resets it after, and the job's first use of the cap appends the one
# value read; a context variable, not an argument, because the readers
# and the bounds of _fields that use it sit below handlers of one argument
_JOB_CAP: ContextVar = ContextVar("job_cap")


def _degree_cap() -> int:
    """The degree cap, read from the environment once per job, at its
    first use, so that a job that reads no polynomial never reads it;
    outside a job, on every call."""
    held = _JOB_CAP.get(None)
    if held is None:
        return max_input_degree()
    if not held:
        held.append(max_input_degree())
    return held[0]


# the integer fields, in a job, its context or its inputs: (minimum, maximum),
# where _degree_cap stands for the degree cap of the job
_INT_BOUNDS = {
    "truncation": (1, MAX_TRUNCATION),
    "seed": (None, None),
    "cases": (1, MAX_CASES),
    "n": (1, MAX_VARIABLES),
    "d_max": (0, _degree_cap),
    "k_max": (2, _degree_cap),
}


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


def _fields(data, fields: dict, where: str) -> dict:
    """``data`` checked against ``fields``: an object with no unknown field,
    every required one and integers in bounds, returned with the defaults
    filled in.  Defaults are not checked, so that a degree cap lowered below
    the default d_max or k_max rejects no job that leaves them out."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(data) - set(fields)
    if unknown:
        raise SchemaError(f"unknown {where} fields: {sorted(unknown)}")
    missing = [name for name, spec in fields.items() if spec is REQUIRED and name not in data]
    if missing:
        raise SchemaError(f"{where} is missing {missing}")
    for name in data:
        if name in _INT_BOUNDS:
            low, high = _INT_BOUNDS[name]
            _int_field(data[name], name, low, high() if callable(high) else high)
    defaults = {name: spec for name, spec in fields.items() if spec is not OPTIONAL}
    return {**defaults, **data}


def _poly_input(value, label: str, n: int = 0) -> MultiPoly:
    """A polynomial in n variables, at n = 0 a scalar in the parameters
    such as the coupling, of degree at most the cap, as is each product it
    parses.  A JSON int reads as its decimal text."""
    cap = _degree_cap()
    # a bool is no number and a JSON float is inexact: neither is taken
    if type(value) is int:
        value = str(value)
    if isinstance(value, str):
        try:
            p = parse_poly(value, n, cap)
        except ValueError as exc:
            raise SchemaError(f"bad polynomial for {label}: {exc}") from exc
    elif isinstance(value, list):
        try:
            p = MultiPoly.from_json(n, value)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed polynomial JSON for {label}: {exc}") from exc
    else:
        raise SchemaError(f"{label} must be an expression string, an integer or a JSON term list")
    if p.degree() > cap:
        raise SchemaError(
            f"{label} has degree {p.degree()} above the cap {cap} "
            "(raise STARQUANT_MAX_DEGREE to override)"
        )
    return p


def _gauss_input(value, label: str, n: int = 0) -> GaussianRational:
    """A Gaussian scalar; n is the variable count that a matrix gives its
    entry reader, and a scalar has none."""
    # a bool is no number, as in _poly_input
    if type(value) is int:
        value = str(value)
    if not isinstance(value, str):
        raise SchemaError(f"{label} must be a scalar string")
    try:
        return parse_gaussian(value)
    except ValueError as exc:
        raise SchemaError(f"bad scalar for {label}: {exc}") from exc


def _matrix_input(value, label: str, entry=_gauss_input, n: int | None = None) -> tuple:
    """A non-empty n x n matrix, n its number of rows by default, whose
    rows are tuples of ``entry(v, label, n)``.  The whole shape is checked
    before any entry is read.  Each distinct text is read once, in
    row-major order, and its value kept for this call only; an entry that
    is no string (an int, a term list, or a bool, which hashes like 1) is
    read every time, so the first bad entry is the one refused."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{label} must be a non-empty matrix (list of rows)")
    if len(value) > MAX_VARIABLES:
        raise SchemaError(f"{label} must have at most {MAX_VARIABLES} rows")
    if not all(isinstance(row, list) for row in value):
        raise SchemaError(f"{label} rows must be lists")
    if n is None:
        n = len(value)
    if len(value) != n or any(len(row) != n for row in value):
        raise SchemaError(f"{label} must be a {n} x {n} matrix")
    read: dict = {}

    def value_of(v):
        if type(v) is not str:
            return entry(v, label, n)
        if v not in read:
            read[v] = entry(v, label, n)
        return read[v]

    return tuple(tuple(map(value_of, row)) for row in value)


def _context_input(data) -> StarContext:
    data = _fields(data, CONTEXT_FIELDS, "context")
    n = data["n"]
    rows = _matrix_input(data["lambda"], "lambda", _poly_input, n)
    return StarContext(n, rows, _poly_input(data["coupling"], "coupling"))


def _poly_payload(p: MultiPoly) -> dict:
    """Text and terms of a polynomial, or of a scalar when p.n == 0, from
    one sort and one text per coefficient."""
    rows = p.rows()
    return {"text": p.text(rows), "terms": TermRows(p.n, rows)}


def _series_payload(series) -> list:
    return [_poly_payload(c) for c in series.coeffs]


# --- command handlers --------------------------------------------------------


def _run_star(job: dict) -> tuple:
    ctx = _context_input(job["context"])
    inputs = job["inputs"]
    f = _poly_input(inputs["f"], "f", ctx.n)
    g = _poly_input(inputs["g"], "g", ctx.n)
    result = star(ctx, f, g)
    product = _poly_payload(result)
    payload = {
        "star": product,
        "graded": graded_terms(result.n, product["terms"].rows),
    }
    if "mu" in inputs:
        value = _gauss_input(inputs["mu"], "mu")
        payload["specialized"] = _poly_payload(specialize_mu(result, value))
    return payload, 0


def _run_star_exp(job: dict) -> tuple:
    inputs = job["inputs"]
    n_order = job["truncation"]
    lam = SqMatrix(_matrix_input(inputs["lambda"], "lambda"))
    a_mat = SqMatrix(_matrix_input(inputs["A"], "A"))
    if a_mat.dim != lam.dim:
        raise SchemaError("A must have the size of lambda")
    amplitude, phase = closed_star_exponential(lam, a_mat, n_order)
    triples, w = _expansion(lam, a_mat, n_order)
    report = closed_form_vs_oracle(lam, a_mat, n_order)
    payload = {
        "amplitude": _series_payload(amplitude),
        "phase_matrix": [m.to_json() for m in phase.coeffs],
        "oracle_check": report.to_json(),
        "order_table": [_graded_packed_keys(lam.dim, x, w) for x in triples],
    }
    return payload, 0 if report.passed else 1


def _run_riccati(job: dict) -> tuple:
    inputs = job["inputs"]
    n_order = job["truncation"]
    a, b, c = (_gauss_input(inputs[name], name) for name in "abc")
    g, h = riccati_1d(a, b, c, n_order)
    report = _riccati_report(a, b, c, g, h)
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
    kmat = OrderingK(_matrix_input(inputs["K"], "K"))
    n = kmat.dim
    if n % 2:
        raise SchemaError("ordering matrices act on an even number of variables")
    f = _poly_input(inputs["f"], "f", n)
    payload = {"intertwined_f": _poly_payload(intertwine(kmat, f))}
    g = _poly_input(inputs["g"], "g", n) if "g" in inputs else None
    context = job["context"]
    # a context is checked even when no g is there to use it
    ctx = StarContext.weyl(n // 2) if context is None else _context_input(context)
    if g is not None:
        if ctx.n != n:
            raise SchemaError("the context n must equal the size of K")
        payload["k_ordered_product"] = _poly_payload(star_k_ordered(ctx, kmat, f, g))
    return payload, 0


def _run_grade(job: dict) -> tuple:
    inputs = job["inputs"]
    n = _context_input(job["context"]).n
    if n < 2:
        raise SchemaError("grade requires context n >= 2 (projective dimension n - 1)")
    f = _poly_input(inputs["f"], "f", n)
    if "mu" in inputs:
        f = specialize_mu(f, _gauss_input(inputs["mu"], "mu"))
    graded = graded_terms(n, f.rows())
    degrees = sorted({c["degree"] for c in graded["components"]})
    payload = {
        "graded": graded,
        "projective_dimension": n - 1,
        "h0_dims": {str(d): h0_dim(n - 1, d) for d in degrees},
    }
    return payload, 0


def _run_verify(job: dict) -> tuple:
    inputs = job["inputs"]
    suite = inputs["suite"]
    # a list or an object is no suite name, and is unhashable
    if not isinstance(suite, str) or suite not in SUITES:
        raise SchemaError(f"suite must be one of {sorted(SUITES)}")
    seed = inputs["seed"]
    if "lambda" in inputs:
        if suite not in ("jacobi", "lambda-relation"):
            raise SchemaError("an explicit lambda is only used by the validator suites")
        rows = _matrix_input(inputs["lambda"], "lambda", _poly_input, inputs.get("n"))
        ctx = StarContext(len(rows), rows, HALF_MU)
        if suite == "jacobi":
            report = check_jacobi(ctx, inputs["d_max"])
        else:
            n, d_max = len(rows), inputs["d_max"]
            monomials = comb(n + d_max, n)
            if monomials > MAX_SWEEP_MONOMIALS:
                raise SchemaError(
                    f"the lambda-relation sweep at n = {n} and d_max = {d_max} has "
                    f"{monomials} monomials, above the cap {MAX_SWEEP_MONOMIALS}"
                )
            report = check_lambda_relation(ctx, inputs["k_max"], d_max)
        return {"report": report.to_json()}, 0 if report.passed else 1
    results = run_suite(suite, seed=seed, cases=inputs.get("cases"))
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
    """The job checked against SCHEMA, with the defaults filled in; the
    handlers parse the values."""
    job = _fields(job, _JOB_FIELDS, "job")
    command = job["command"]
    if command not in COMMANDS:
        raise SchemaError(f"command must be one of {COMMANDS}")
    reads_context, inputs = SCHEMA[command]
    job["inputs"] = _fields(job["inputs"], inputs, f"inputs for {command}")
    # a null context is an absent one
    if job["context"] is None and reads_context is REQUIRED:
        raise SchemaError(f"{command} requires a context")
    if job["context"] is not None and reads_context is None:
        raise SchemaError(f"{command} reads no context")
    if job["output_path"] is not None and not isinstance(job["output_path"], str):
        raise SchemaError("output_path must be a string")
    return job


def _run(job: dict) -> tuple:
    """(envelope, exit code, output path) of a job, with each term list in
    the envelope a TermRows, which ``json_text`` prints."""
    token = _JOB_CAP.set([])
    try:
        job = validate_job(job)
        payload, code = _HANDLERS[job["command"]](job)
    finally:
        _JOB_CAP.reset(token)
    envelope = {"command": job["command"], "result": payload}
    return envelope, code, job["output_path"]


def run_job(job: dict) -> tuple:
    """(envelope, exit code, output path) of a job; the envelope is the
    JSON data that ``main`` prints, read back from its text."""
    envelope, code, out_path = _run(job)
    return json.loads(json_text(envelope)), code, out_path


class _ArgumentParser(argparse.ArgumentParser):
    """A bad flag is a schema error: exit 2 with the JSON error, not usage."""

    def error(self, message):
        raise SchemaError(message)


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each flag's dest
    other than job, command, N and out is the job field it fills."""
    ap = _ArgumentParser(
        prog="starquant",
        description="Exact star products, star exponentials and their verifications.",
    )
    ap.add_argument("--job", help="path to a JSON job file")
    ap.add_argument("--command", choices=COMMANDS, help="command to run")
    ap.add_argument("--n", type=int, help="variable count for the context")
    ap.add_argument(
        "--lambda", help="JSON matrix; polynomial entries for contexts, scalars for star-exp"
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
    ap.add_argument("--seed", type=int, help="seed for randomized suites (default 42)")
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
    bracket.  A ``TermRows`` writes the text of its list itself.  Leaves
    other than ``str`` and ``int`` (bool, None, float) go through
    ``json.dumps``; a non-``str`` dict key raises ``TypeError``.
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
    if kind is TermRows:
        return value.json_text(indent)
    return json.dumps(value)


def _json_flag(raw: str, label: str):
    try:
        return json.loads(raw)
    # bad JSON, an int past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"--{label} must be valid JSON: {exc}") from exc


def job_from_args(args: argparse.Namespace) -> dict:
    """The job the flags describe.  A set flag fills the input of its name
    when the command takes one, else the context field of that name; grade's
    zero-lambda context is built from --n, which is checked first."""
    fields = SCHEMA[args.command][1]
    job: dict = {"command": args.command, "truncation": args.N, "inputs": {}}
    context: dict = {}
    for name, value in vars(args).items():
        if value is None or name in ("job", "command", "N", "out"):
            continue
        if name in ("lambda", "A", "K"):
            value = _json_flag(value, name)
        (job["inputs"] if name in fields else context)[name] = value
    if args.command == "grade" and args.n is not None:
        _int_field(args.n, "n", *_INT_BOUNDS["n"])
        zero = [["0"] * args.n for _ in range(args.n)]
        context = {"lambda": zero, "coupling": "mu/2", **context}
    if context:
        job["context"] = context
    if args.out:
        job["output_path"] = args.out
    return job


def main(argv=None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
        if bool(args.job) == bool(args.command):
            raise SchemaError("pass exactly one of --job or --command")
        if args.job:
            try:
                with open(args.job, "r", encoding="utf-8") as fh:
                    job = json.load(fh)
            except OSError as exc:
                raise SchemaError(f"cannot read job file: {exc}") from exc
            # also bad UTF-8, over-long ints and nesting past the recursion limit
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"job file is not valid JSON: {exc}") from exc
            if args.out and isinstance(job, dict) and "output_path" not in job:
                job["output_path"] = args.out
        else:
            job = job_from_args(args)
        envelope, code, out_path = _run(job)
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
