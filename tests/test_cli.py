import json
import math
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from starquant import cli
from starquant.cli import (
    CONTEXT_FIELDS,
    MAX_SWEEP_MONOMIALS,
    MAX_VARIABLES,
    SCHEMA,
    _build_argparser,
    _matrix_input,
    json_text,
    main,
    run_job,
)
from starquant.errors import SchemaError
from starquant.grading import decompose, graded_terms
from starquant.parsing import parse_gaussian, parse_poly
from starquant.poly import HALF_MU, I_HBAR_HALF, MU, MultiPoly, TermRows
from starquant.scalars import GaussianRational, rat


# --- expression parser -------------------------------------------------------


def test_parse_poly_basic():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert parse_poly("z0^2*z1 + 1/2*mu*z1", 2) == (z0 ** 2) * z1 + z1.scale(
        HALF_MU
    )
    assert parse_poly("z0 - z1", 2) == z0 - z1
    assert parse_poly("-(z0 + 2)^2", 2) == -((z0 + MultiPoly.const(2, MultiPoly.from_rat(2))) ** 2)
    assert parse_poly("0", 2).is_zero()


def test_parse_scalar_forms():
    assert parse_poly("mu/2", 0) == HALF_MU
    assert parse_poly("i*hbar/2", 0) == I_HBAR_HALF
    assert parse_poly("3/2-1/3*i", 0) == MultiPoly.from_gaussian(
        GaussianRational(rat(3, 2), rat(-1, 3))
    )
    assert parse_poly("mu^-1", 0) == MU.inverse()
    assert parse_poly("1/mu", 0) == MU.inverse()
    assert parse_poly("i^2", 0) == MultiPoly.from_rat(-1)


def test_parse_errors():
    with pytest.raises(SchemaError):
        parse_poly("z5", 2)  # out of range
    with pytest.raises(SchemaError):
        parse_poly("w0", 2)  # unknown name
    with pytest.raises(SchemaError):
        parse_poly("z0 +", 2)
    with pytest.raises(SchemaError):
        parse_poly("1/z0", 2)  # polynomial divisor
    with pytest.raises(SchemaError):
        parse_poly("hbar^-1", 2)  # would need a non-invertible inverse
    with pytest.raises(SchemaError):
        parse_poly("z0 @ z1", 2)


def test_ascii_whitespace_parses_anywhere():
    # leading, trailing, tab and newline whitespace between tokens is ignored
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    one = MultiPoly.one(2)
    assert parse_poly(" z0 + 1", 2) == z0 + one
    assert parse_poly("z0 + 1 ", 2) == z0 + one
    assert parse_poly("\tz0\t*\tz1\t", 2) == z0 * z1
    assert parse_poly("\n z0 +\n1\n", 2) == z0 + one
    assert parse_poly(" mu / 2 ", 0) == HALF_MU


def _n2(re, im=0, den=1, mu=0):
    """The constant (re + im*i)/den * mu^mu in two variables."""
    return MultiPoly.const(2, MultiPoly.param("mu", mu, GaussianRational(rat(re, den), rat(im, den))))


@pytest.mark.parametrize("text, want", [
    ("0^0", _n2(1)),
    ("z0^0", _n2(1)),
    ("2^-1", _n2(1, den=2)),
    ("(2*i)^-3", _n2(0, 1, 8)),
    ("mu^-2*z0", _n2(1, mu=-2) * MultiPoly.variable(2, 0)),
    ("-(-z0)", MultiPoly.variable(2, 0)),
    ("(z0)^2", MultiPoly.variable(2, 0) * MultiPoly.variable(2, 0)),
    ("((3/4))", _n2(3, den=4)),
    ("(z0 - z0 + 2)^5", _n2(32)),
    (" \t(2/3)*mu*z0^2*z1\n ", _n2(2, den=3, mu=1) * MultiPoly.monomial(2, (2, 1))),
    # x^-0 is x^0, also where x has no inverse
    ("hbar^-0", _n2(1)),
    ("z0^-0", _n2(1)),
    ("0^-0", _n2(1)),
    ("(z0+1)^-0", _n2(1)),
    ("mu^-0*z0", MultiPoly.variable(2, 0)),
])
def test_parse_edge_values(text, want):
    assert parse_poly(text, 2) == want


@pytest.mark.parametrize("text, message", [
    ("0^-1", "cannot evaluate expression '0^-1': inverse of zero scalar"),
    ("1/(0*mu)", "cannot evaluate expression '1/(0*mu)': inverse of zero scalar"),
    ("(1/0)", "cannot evaluate expression '(1/0)': inverse of zero scalar"),
    ("1/hbar", "cannot evaluate expression '1/hbar': parameter 'hbar' is not invertible;"
     " exponent -1 rejected"),
    ("hbar^-1", "cannot evaluate expression 'hbar^-1': parameter 'hbar' is not invertible;"
     " exponent -1 rejected"),
    ("z0/z1", "division requires an invertible scalar divisor"),
    ("7^6000", "a power 6000 of a coefficient would pass the output limit of 4300 digits"),
    ("7^5088*7^5088", "a product of coefficients would pass the output limit of 4300 digits"),
    ("٣*z0", "unexpected character '٣' in expression"),
    ("*z0", "unexpected token '*'"),
    (")", "unexpected token ')'"),
])
def test_parse_edge_refusals(text, message, capsys):
    # each exits 2 with its own message, through the grade command
    argv = ["--command", "grade", "--n", "2", "--f", text]
    assert _schema_exit(argv, capsys) == "bad polynomial for f: " + message


def test_variable_index_has_no_leading_zero(capsys):
    # z01 is no name for z1, nor z007 for z7
    for name in ("z01", "z007", "z00"):
        argv = ["--command", "grade", "--n", "8", "--f", f"{name} + 1"]
        assert _schema_exit(argv, capsys) == f"bad polynomial for f: unknown name {name!r}"
    assert parse_poly("z0 + z7 + z10", 11) == sum(
        (MultiPoly.variable(11, j) for j in (0, 7, 10)), MultiPoly.zero(11)
    )


def test_negative_power_refusal_names_its_exponent(capsys):
    # the refusal names the exponent of the power, as that of a quotient does
    for text, e in (("tau^-2*z0", -2), ("1/tau^2", -2), ("(hbar*mu)^-3", -3), ("hbar^-1", -1)):
        argv = ["--command", "grade", "--n", "2", "--f", text]
        assert _schema_exit(argv, capsys).endswith(f"is not invertible; exponent {e} rejected")


def test_parser_builds_single_terms_without_polynomial_products(monkeypatch):
    # a product and a power of single terms multiply keys and integers: no
    # MultiPoly product or power is formed
    want = _n2(2, den=3, mu=1) * MultiPoly.monomial(2, (2, 1))
    calls = []
    for name in ("__mul__", "__pow__"):
        method = getattr(MultiPoly, name)

        def wrapped(self, other, method=method, name=name):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(MultiPoly, name, wrapped)
    assert parse_poly("(2/3)*mu*z0^2*z1", 2) == want
    assert calls == []
    # a sum of two terms is a MultiPoly, raised and multiplied as one
    parse_poly("(z0 + 1)^2*z1", 2)
    assert calls[0] == "__pow__" and calls[-1] == "__mul__"


# expression trees of the parser's grammar, each node as its text would parse:
# ("sum", term, [(op, term)...]), ("prod", factor, [(op, factor)...]),
# ("sign", op, factor), ("pow", atom, negative, k), ("int", k), ("name", s)
# and ("paren", sum)
def _expr_trees(names=("i", "mu", "hbar", "tau", "z0", "z1")):
    def grow(inner):
        atoms = st.one_of(
            st.integers(0, 9).map(lambda k: ("int", k)),
            st.sampled_from(names).map(lambda s: ("name", s)),
            inner.map(lambda e: ("paren", e)),
        )
        powers = st.one_of(
            atoms, st.tuples(st.just("pow"), atoms, st.booleans(), st.integers(0, 3))
        )
        factors = st.one_of(
            powers,
            st.tuples(st.just("sign"), st.sampled_from("+-"), powers),
            st.tuples(st.just("sign"), st.sampled_from("+-"),
                      st.tuples(st.just("sign"), st.just("-"), powers)),
        )
        terms = st.tuples(
            st.just("prod"), factors, st.lists(st.tuples(st.sampled_from("*/"), factors), max_size=3)
        )
        return st.tuples(
            st.just("sum"), terms, st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=2)
        )

    leaf = st.tuples(
        st.just("sum"),
        st.tuples(st.just("prod"), st.integers(0, 9).map(lambda k: ("int", k)), st.just([])),
        st.just([]),
    )
    return st.recursive(leaf, grow, max_leaves=6)


def _tree_text(node) -> str:
    kind = node[0]
    if kind in ("sum", "prod"):
        return _tree_text(node[1]) + "".join(f" {op} {_tree_text(x)}" for op, x in node[2])
    if kind == "sign":
        return node[1] + _tree_text(node[2])
    if kind == "pow":
        return f"{_tree_text(node[1])}^{'-' if node[2] else ''}{node[3]}"
    if kind == "paren":
        return f"({_tree_text(node[1])})"
    return str(node[1])


class _Refused(Exception):
    pass


def _ring_inverse(p: MultiPoly) -> MultiPoly:
    if not p.is_constant():
        raise _Refused("division by a polynomial")
    return p.inverse()


def _tree_value(node, n: int) -> MultiPoly:
    """The value of a tree by MultiPoly ring operations alone."""
    kind = node[0]
    if kind == "int":
        return MultiPoly.number(n, node[1])
    if kind == "name":
        name = node[1]
        if name == "i":
            return MultiPoly.number(n, 0, 1)
        if name.startswith("z"):
            return MultiPoly.variable(n, int(name[1:]))
        return MultiPoly.const(n, MultiPoly.param(name))
    if kind == "paren":
        return _tree_value(node[1], n)
    if kind == "sign":
        value = _tree_value(node[2], n)
        return -value if node[1] == "-" else value
    if kind == "pow":
        base = _tree_value(node[1], n)
        if node[2] and node[3]:
            base = _ring_inverse(base)
        # a power whose expansion is beyond this test's budget is not drawn
        hypothesis.assume(math.comb(len(base.keys()) + node[3], node[3]) <= 500)
        return base ** node[3]
    value = _tree_value(node[1], n)
    for op, x in node[2]:
        rhs = _tree_value(x, n)
        if op == "+":
            value = value + rhs
        elif op == "-":
            value = value - rhs
        else:
            if op == "/":
                rhs = _ring_inverse(rhs)
            hypothesis.assume(len(value.keys()) * len(rhs.keys()) <= 500)
            value = value * rhs
    return value


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_expr_trees())
def test_parse_poly_agrees_with_ring_operations(tree):
    # the parser and a walk of the same tree through MultiPoly's ring
    # operations give the same value, or both refuse it
    text = _tree_text(tree)
    try:
        want = _tree_value(tree, 2)
    except (ZeroDivisionError, ValueError, _Refused):
        with pytest.raises(SchemaError):
            parse_poly(text, 2)
        return
    assert parse_poly(text, 2) == want, text


_RING_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _gaussian_value(node) -> GaussianRational:
    """The value of a tree without parameters or variables by
    GaussianRational ring operations alone."""
    kind = node[0]
    if kind == "int":
        return GaussianRational(node[1])
    if kind == "name":
        return GaussianRational(0, 1)
    if kind == "paren":
        return _gaussian_value(node[1])
    if kind == "sign":
        value = _gaussian_value(node[2])
        return -value if node[1] == "-" else value
    if kind == "pow":
        return _gaussian_value(node[1]) ** (-node[3] if node[2] else node[3])
    value = _gaussian_value(node[1])
    for op, x in node[2]:
        value = _RING_OPS[op](value, _gaussian_value(x))
    return value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_expr_trees(names=("i",)))
def test_parse_gaussian_agrees_with_ring_operations(tree):
    # a scalar field and a walk of the same tree through GaussianRational's
    # ring operations give the same value, or both refuse it
    text = _tree_text(tree)
    try:
        want = _gaussian_value(tree)
    except ZeroDivisionError:
        with pytest.raises(SchemaError, match="inverse of zero scalar"):
            parse_gaussian(text)
        return
    assert parse_gaussian(text) == want, text


def test_text_parse_roundtrip():
    import random

    from starquant.verify import rand_poly

    rng = random.Random(19)
    for _ in range(25):
        f = rand_poly(rng, 3).scale(MultiPoly.param("mu", rng.randint(-1, 1)))
        assert parse_poly(f.text(), 3) == f


# --- job runner ----------------------------------------------------------------


def star_job():
    return {
        "command": "star",
        "context": {
            "n": 2,
            "lambda": [["0", "1"], ["-1", "0"]],
            "coupling": "mu/2",
        },
        "inputs": {"f": "z0", "g": "z1"},
    }


def test_run_star_job():
    envelope, code, _ = run_job(star_job())
    assert code == 0
    assert envelope["result"]["star"]["text"] == "z0*z1 + 1/2*mu"
    # output parses back into the value that produced it
    back = MultiPoly.from_json(2, envelope["result"]["star"]["terms"])
    assert back.text() == "z0*z1 + 1/2*mu"


def test_job_schema_rejections():
    bad = star_job()
    bad["surprise"] = 1
    with pytest.raises(SchemaError):
        run_job(bad)
    bad = star_job()
    bad["inputs"]["extra"] = 1
    with pytest.raises(SchemaError):
        run_job(bad)
    bad = star_job()
    bad["truncation"] = 0
    with pytest.raises(SchemaError):
        run_job(bad)
    bad = star_job()
    bad["context"]["lambda"] = [["0"], ["-1", "0"]]
    with pytest.raises(SchemaError):
        run_job(bad)
    for bad in malformed_jobs():
        with pytest.raises(SchemaError):
            run_job(bad)


def malformed_jobs():
    """Jobs that each get one field wrong: missing, mistyped (a bool or a
    string where an integer belongs), out of range (including above the
    caps on truncation, cases, d_max and k_max), of the wrong shape, given
    to a command that does not read it, or a JSON number that is a float or
    a bool."""
    lam = [["0", "z0"], ["-z0", "0"]]

    def star_with(**fields):
        job = star_job()
        job.update(fields)
        return job

    def with_coupling(coupling):
        job = star_job()
        job["context"]["coupling"] = coupling
        return job

    def with_f_coef(exps, params):
        job = star_job()
        job["inputs"]["f"] = [{"exps": exps, "coef": {"params": params, "value": "1"}}]
        return job

    def verify_with(suite, **inputs):
        return {"command": "verify", "inputs": {"suite": suite, **inputs}}

    no_g = star_job()
    del no_g["inputs"]["g"]
    bool_n = star_job()
    bool_n["context"]["n"] = True
    int_params = star_job()
    int_params["context"]["params"] = 5
    zero4 = [["0"] * 4 for _ in range(4)]
    context = star_job()["context"]
    swap = [["0", "1"], ["1", "0"]]
    return [
        no_g,
        bool_n,
        int_params,
        {
            "command": "ordering",
            "context": {"n": 4, "lambda": zero4, "coupling": "mu/2"},
            "inputs": {"K": [["0", "1"], ["1", "0"]], "f": "z0", "g": "z1"},
        },
        {
            "command": "star-exp",
            "inputs": {
                "lambda": [["0", "1"], ["-1", "0"]],
                "A": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
        },
        star_with(truncation=True),
        star_with(truncation="8"),
        {"command": "star-exp", "inputs": {"lambda": [["0", "1"], ["-1", "0"]]}},
        {"command": "ordering", "inputs": {"f": "z0"}},
        {
            "command": "grade",
            "context": {"n": 1, "lambda": [["0"]], "coupling": "mu/2"},
            "inputs": {"f": "z0"},
        },
        verify_with("jacobi", **{"lambda": lam, "n": 3}),
        verify_with("jacobi", **{"lambda": lam, "d_max": "4"}),
        verify_with("jacobi", **{"lambda": "oops"}),
        verify_with("lambda-relation", **{"lambda": lam, "k_max": 1}),
        verify_with("lambda-relation", **{"lambda": lam, "k_max": 4.0}),
        verify_with("grading", seed=True),
        verify_with("grading", cases=0),
        # one above each cap, on jobs that finish at once if accepted
        {"command": "riccati", "truncation": 33},
        verify_with("riccati", cases=1001),
        verify_with("jacobi", **{"lambda": [["0"]], "d_max": 17}),
        verify_with("lambda-relation", **{"lambda": [["0"]], "k_max": 17}),
        # fields that no path of the command reads are checked all the same
        {
            "command": "star-exp",
            "context": context,
            "inputs": {"lambda": [["0", "1"], ["-1", "0"]], "A": [["1", "0"], ["0", "1"]]},
        },
        {"command": "riccati", "context": "garbage"},
        {"command": "verify", "context": context, "inputs": {"suite": "riccati"}},
        {"command": "ordering", "context": "junk", "inputs": {"K": swap, "f": "z0"}},
        verify_with("riccati", d_max="x"),
        verify_with("jacobi", **{"lambda": lam, "k_max": "x"}),
        verify_with("riccati", cases=None),
        verify_with(["cayley"]),
        # JSON numbers that are booleans or floats
        with_coupling(True),
        with_coupling(1e23),
        with_f_coef([1.5, 0], {}),
        with_f_coef([True, 0], {}),
        with_f_coef([1, 0], {"mu": 1.5}),
        # JSON term lists whose coefficient, params or value has the wrong type
        with_f_coef([1, 0], []),
        star_with(inputs={"f": [{"exps": [1, 0], "coef": 5}], "g": "z1"}),
        star_with(inputs={"f": [{"exps": [1, 0], "coef": {"value": 5}}], "g": "z1"}),
        # a JSON term list above the degree cap, a matrix A that is empty, no
        # list or has a row that is no list, an unknown command, and an
        # output path that is no string
        with_f_coef([17, 0], {}),
        *(
            {"command": "star-exp", "inputs": {"lambda": swap, "A": a}}
            for a in ([], "x", [["1", "0"], "x"])
        ),
        {"command": "nope"},
        {"command": "riccati", "output_path": 3},
    ]


def test_run_star_exp_job():
    job = {
        "command": "star-exp",
        "inputs": {
            "lambda": [["0", "1"], ["-1", "0"]],
            "A": [["1", "0"], ["0", "1"]],
        },
        "truncation": 6,
    }
    envelope, code, _ = run_job(job)
    assert code == 0
    result = envelope["result"]
    assert result["oracle_check"]["pass"] is True
    assert result["amplitude"][2]["text"] == "1/2"
    assert result["phase_matrix"][1] == [["1", "0"], ["0", "1"]]
    assert result["order_table"][1] == [{"degree": 2, "mu": -1}]
    # round-trip: scalar strings and term lists parse back exactly
    from starquant.matrices import SqMatrix

    for entry in result["phase_matrix"]:
        assert SqMatrix(_matrix_input(entry, "phase_matrix")).to_json() == entry
    for coeff in result["amplitude"]:
        assert MultiPoly.from_json(0, coeff["terms"]).text() == coeff["text"]


def test_run_riccati_job():
    job = {
        "command": "riccati",
        "inputs": {"a": "0", "b": "0", "c": "1"},
        "truncation": 6,
    }
    envelope, code, _ = run_job(job)
    assert code == 0
    assert envelope["result"]["discriminant"] == "1"
    assert envelope["result"]["h"][3]["text"] == "1/3*hbar^2"
    assert envelope["result"]["oracle_check"]["pass"] is True


def test_run_ordering_job():
    job = {
        "command": "ordering",
        "inputs": {
            "K": [["0", "1"], ["1", "0"]],
            "f": "z0*z1",
            "g": "z0",
        },
    }
    envelope, code, _ = run_job(job)
    assert code == 0
    assert envelope["result"]["intertwined_f"]["text"] == "z0*z1 + 1/2*i*hbar"


def test_run_grade_job():
    job = {
        "command": "grade",
        "context": {
            "n": 3,
            "lambda": [["0"] * 3 for _ in range(3)],
            "coupling": "mu/2",
        },
        "inputs": {"f": "z0^2 + mu*z1"},
    }
    envelope, code, _ = run_job(job)
    assert code == 0
    comps = envelope["result"]["graded"]["components"]
    assert [(c["degree"], c["mu"]) for c in comps] == [(1, 1), (2, 0)]
    assert envelope["result"]["h0_dims"] == {"1": 3, "2": 6}


def test_run_verify_job_pass_and_fail():
    envelope, code, _ = run_job(
        {
            "command": "verify",
            "inputs": {"suite": "associativity", "seed": 42, "cases": 6},
        }
    )
    assert code == 0
    assert envelope["result"]["failed"] == 0
    envelope, code, _ = run_job(
        {
            "command": "verify",
            "inputs": {
                "suite": "lambda-relation",
                "lambda": [["0", "z0"], ["-z0", "0"]],
                "n": 2,
            },
        }
    )
    assert code == 1
    assert envelope["result"]["report"]["pass"] is False
    assert envelope["result"]["report"]["first_divergence_order"] == 2


# --- process-level behaviour ---------------------------------------------------


def test_main_deterministic_output(capsys):
    argv = [
        "--command",
        "star",
        "--n",
        "2",
        "--lambda",
        '[["0","1"],["-1","0"]]',
        "--coupling",
        "mu/2",
        "--f",
        "z0^2",
        "--g",
        "z1^2",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "star"


def test_main_exit_codes(capsys, tmp_path):
    # schema error: exit 2
    assert main(["--command", "star", "--n", "2"]) == 2
    capsys.readouterr()
    # precondition error: exit 3 (asymmetric ordering matrix)
    code = main(
        [
            "--command",
            "ordering",
            "--K",
            '[["0","2"],["1","0"]]',
            "--f",
            "z0",
        ]
    )
    assert code == 3
    capsys.readouterr()
    # K is checked before f is parsed: an asymmetric K exits 3 even when f is
    # malformed
    code = main(["--command", "ordering", "--K", '[["0","2"],["1","0"]]', "--f", "z0^^"])
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {
        "error": "ordering matrix must be symmetric", "kind": "precondition"
    }
    # a directory or a missing file as the job file: exit 2
    for path in (tmp_path, tmp_path / "missing.json"):
        assert main(["--job", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith("cannot read job file")
    # verification failure: exit 1
    code = main(
        [
            "--command",
            "verify",
            "--suite",
            "lambda-relation",
            "--lambda",
            '[["0","z0"],["-z0","0"]]',
            "--n",
            "2",
        ]
    )
    assert code == 1
    capsys.readouterr()
    # both or neither of --job/--command: exit 2
    assert main([]) == 2
    capsys.readouterr()
    # malformed job files: exit 2 with a JSON error, never a traceback
    for idx, job in enumerate(malformed_jobs()):
        path = tmp_path / f"bad{idx}.json"
        path.write_text(json.dumps(job))
        assert main(["--job", str(path)]) == 2, job
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "schema"
    # --out writes the same payload
    out = tmp_path / "result.json"
    argv = [
        "--command",
        "riccati",
        "--a",
        "0",
        "--b",
        "0",
        "--c",
        "1",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    # --out fills a job file's output path too
    path = tmp_path / "riccati.json"
    path.write_text(json.dumps({"command": "riccati", "inputs": {"c": "1"}}))
    out.unlink()
    assert main(["--job", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed


def test_division_by_zero_in_a_command_exits_3(monkeypatch, capsys):
    # a ZeroDivisionError that no reader turned into a schema error is a
    # precondition error
    def divide(job):
        raise ZeroDivisionError("inverse of zero")

    monkeypatch.setitem(cli._HANDLERS, "riccati", divide)
    assert main(["--command", "riccati", "--c", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "division by zero: inverse of zero", "kind": "precondition"
    }


def test_main_twice_in_one_process_matches_fresh_processes(tmp_path, capsys):
    # the argparse parser is built once per process and reused by every call
    flags = ["--command", "riccati", "--a", "1", "--b", "2", "--c", "-1", "--N", "4"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(star_job()))
    runs = (flags, ["--job", str(path)])
    in_process = []
    for argv in runs:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "starquant.cli", *argv],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for argv in runs
    ]
    assert in_process == fresh


@pytest.mark.parametrize("text", ["2.5", "1_000", "1e999"])
def test_non_canonical_scalar_text_exits_2(text, capsys, tmp_path):
    # decimal, underscore and exponent notation never reach the rationals
    identity = '[["1","0"],["0","1"]]'
    job = star_job()
    job["inputs"]["f"] = [{"exps": [1, 0], "coef": {"params": {}, "value": text}}]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    runs = [
        ["--job", str(path)],
        ["--command", "riccati", "--a", text, "--b", "1", "--c", "0"],
        ["--command", "star-exp", "--lambda", json.dumps([["0", text], ["-1", "0"]]),
         "--A", identity],
        ["--command", "star-exp", "--lambda", '[["0","1"],["-1","0"]]',
         "--A", json.dumps([[text, "0"], ["0", "1"]])],
        ["--command", "star", "--n", "2", "--lambda", '[["0","1"],["-1","0"]]',
         "--coupling", "mu/2", "--f", "z0", "--g", "z1", "--mu", text],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "schema"


@pytest.mark.parametrize(
    "argv", [["--command", "star", "--n", "abc"], ["--bogus"], ["--command", "nope"]]
)
def test_bad_flags_exit_2_with_the_json_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert set(error) == {"error", "kind"} and error["kind"] == "schema"


def test_every_flag_fills_a_schema_field():
    # flags and the job schema cannot drift apart: each flag's dest is the
    # name of an input of some command or of a context field
    fields = set(CONTEXT_FIELDS).union(*(inputs for _, inputs in SCHEMA.values()))
    dests = set(vars(_build_argparser().parse_args([]))) - {"job", "command", "N", "out"}
    assert dests <= fields


def test_flags_fill_inputs_or_the_context(capsys):
    # a flag that the command takes as an input is one; any other fills the
    # context, which riccati does not read and star does not know --suite in
    lam = '[["0","1"],["-1","0"]]'
    ordering = ["--command", "ordering", "--K", '[["0","1"],["1","0"]]', "--f", "z0", "--g", "z1"]
    assert main(ordering) == 0
    weyl = json.loads(capsys.readouterr().out)["result"]["k_ordered_product"]
    assert main(ordering + ["--n", "2", "--lambda", lam, "--coupling", "mu/2"]) == 0
    product = json.loads(capsys.readouterr().out)["result"]["k_ordered_product"]
    job = {
        "command": "ordering",
        "context": {"n": 2, "lambda": json.loads(lam), "coupling": "mu/2"},
        "inputs": {"K": [["0", "1"], ["1", "0"]], "f": "z0", "g": "z1"},
    }
    assert product == run_job(job)[0]["result"]["k_ordered_product"] != weyl
    assert "reads no context" in _schema_exit(
        ["--command", "riccati", "--a", "1", "--f", "z0"], capsys
    )
    star = ["--command", "star", "--n", "2", "--lambda", lam, "--coupling", "mu/2"]
    assert "suite" in _schema_exit(star + ["--f", "z0", "--g", "z1", "--suite", "x"], capsys)


def test_non_square_ordering_matrix_exits_2(capsys):
    assert main(["--command", "ordering", "--K", '[["0","1"],["1"]]', "--f", "z0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "K must be a 2 x 2 matrix", "kind": "schema"}


# --- field readers ---------------------------------------------------------------

_BAD_TERMS = [{"exps": [1, 0], "coef": {"params": {"nu": 1}, "value": "1"}}]


def _field_job(field: str, value) -> dict:
    """A job that is accepted as it stands, with ``value`` put in ``field``."""
    if field in ("f", "g", "mu"):
        job = star_job()
        job["inputs"][field] = value
    elif field == "coupling":
        job = star_job()
        job["context"]["coupling"] = value
    elif field == "context lambda":
        job = star_job()
        job["context"]["lambda"][0][1] = value
    elif field == "verify lambda":
        lam = [["0", value], ["-z0", "0"]]
        job = {"command": "verify", "inputs": {"suite": "jacobi", "lambda": lam}}
    elif field == "a":
        job = {"command": "riccati", "inputs": {"a": value, "b": "1", "c": "0"}}
    elif field in ("star-exp lambda", "A"):
        matrices = {"lambda": [["0", "1"], ["-1", "0"]], "A": [["1", "0"], ["0", "1"]]}
        matrices[field.split()[-1]][0][1] = value
        job = {"command": "star-exp", "inputs": matrices}
    else:
        job = {"command": "ordering", "inputs": {"K": [["0", value], [value, "0"]], "f": "z0"}}
    return job


@pytest.mark.parametrize("field, value, message", [
    ("f", "z0^^", "bad polynomial for f: expected 'int', found '^'"),
    ("f", _BAD_TERMS, "malformed polynomial JSON for f: unknown parameter 'nu'"),
    ("g", "z0^^", "bad polynomial for g: expected 'int', found '^'"),
    ("g", _BAD_TERMS, "malformed polynomial JSON for g: unknown parameter 'nu'"),
    ("coupling", "z0", "bad polynomial for coupling: variable 'z0' out of range for 0 variables"),
    ("coupling", [{"params": {"nu": 1}, "value": "1"}],
     "malformed polynomial JSON for coupling: unknown parameter 'nu'"),
    ("context lambda", "z0^^", "bad polynomial for lambda: expected 'int', found '^'"),
    ("context lambda", _BAD_TERMS, "malformed polynomial JSON for lambda: unknown parameter 'nu'"),
    ("verify lambda", "z2", "bad polynomial for lambda: variable 'z2' out of range for 2 variables"),
    ("verify lambda", _BAD_TERMS, "malformed polynomial JSON for lambda: unknown parameter 'nu'"),
    ("mu", "z0", "bad scalar for mu: variable 'z0' out of range for 0 variables"),
    ("a", "mu", "bad scalar for a: a scalar field takes no parameter"),
    ("star-exp lambda", "x", "bad scalar for lambda: unknown name 'x'"),
    ("A", "1/0", "bad scalar for A: cannot evaluate expression '1/0': inverse of zero scalar"),
    ("K", "2^", "bad scalar for K: expected 'int', found end of input"),
])
def test_each_refusal_names_its_field(field, value, message, tmp_path, capsys):
    assert _job_exit(_field_job(field, value), tmp_path, capsys) == message


def test_matrix_shape_is_checked_before_any_entry(monkeypatch, tmp_path, capsys):
    # a 100000-entry row is refused by its length, before any entry parses
    calls = []

    def counted(text):
        calls.append(text)
        return parse_gaussian(text)

    monkeypatch.setattr(cli, "parse_gaussian", counted)
    wide = {"command": "ordering", "inputs": {"K": [["0"] * 100000], "f": "z0"}}
    assert _job_exit(wide, tmp_path, capsys) == "K must be a 1 x 1 matrix"
    assert calls == []
    assert run_job(_field_job("K", "1"))[1] == 0
    assert calls == ["0", "1"]


@pytest.mark.parametrize("field, matrix, message", [
    ("K", [[1, "1"], ["1", True]], "K must be a scalar string"),
    ("lambda", [["0", 1], ["1", True]],
     "lambda must be an expression string, an integer or a JSON term list"),
    ("K", [["1", "2^"], ["1/0", "2^"]], "bad scalar for K: expected 'int', found end of input"),
    ("lambda", [["0", "z0^^"], ["1/0", "z0^^"]],
     "bad polynomial for lambda: expected 'int', found '^'"),
])
def test_matrix_refuses_its_first_bad_entry(field, matrix, message, tmp_path, capsys):
    # a JSON true is refused although it equals 1, and of two bad texts the
    # first in row-major order is the one named, also when it repeats
    if field == "K":
        job = {"command": "ordering", "inputs": {"K": matrix, "f": "z0"}}
    else:
        job = star_job()
        job["context"]["lambda"] = matrix
    assert _job_exit(job, tmp_path, capsys) == message


def test_matrix_term_list_entries_read_as_their_text(tmp_path, capsys):
    # a term-list entry, which no text stands for, still parses
    one = [{"exps": [0, 0], "coef": {"params": {}, "value": "1"}}]
    minus_one = [{"exps": [0, 0], "coef": {"params": {}, "value": "-1"}}]
    outputs = []
    for lam in ([["0", one], [minus_one, "0"]], [["0", "1"], ["-1", "0"]]):
        job = star_job()
        job["context"]["lambda"] = lam
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        assert main(["--job", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("field, number, text", [
    ("f", 3, "3"),
    ("coupling", -2, "-2"),
    ("lambda", [[0, 5], [-5, 0]], [["0", "5"], ["-5", "0"]]),
])
def test_json_ints_read_as_their_text(field, number, text, tmp_path, capsys):
    # a JSON int in a polynomial field prints what its decimal text does
    outputs = []
    for value in (number, text):
        job = star_job()
        (job["inputs"] if field == "f" else job["context"])[field] = value
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        assert main(["--job", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("route", ["parens", "minus", "job-file", "flag"])
def test_deep_nesting_exits_2(route, tmp_path, capsys):
    # each reader of text or JSON turns the recursion limit into a schema
    # error: about 200 parentheses in --f, 1000 leading signs in a riccati
    # a from a job file, and 100000 nested arrays in a job file or a flag
    path = tmp_path / "job.json"
    star = ["--command", "star", "--n", "2", "--lambda", '[["0","1"],["-1","0"]]',
            "--coupling", "mu/2", "--g", "z1"]
    if route == "parens":
        argv = star + ["--f", "(" * 200 + "z0" + ")" * 200]
    elif route == "minus":
        path.write_text(json.dumps(_field_job("a", "-" * 1000 + "1")))
        argv = ["--job", str(path)]
    elif route == "job-file":
        path.write_text("[" * 100000 + "]" * 100000)
        argv = ["--job", str(path)]
    else:
        argv = ["--command", "ordering", "--K", "[" * 100000 + "]" * 100000, "--f", "z0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["kind"] == "schema"


def test_long_text_is_quoted_by_its_prefix(capsys):
    # 1000 parentheses in --f: one short JSON line that quotes the start
    star = ["--command", "star", "--n", "2", "--lambda", '[["0","1"],["-1","0"]]',
            "--coupling", "mu/2", "--g", "z1"]
    assert main(star + ["--f", "(" * 1000 + "z0" + ")" * 1000]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and len(lines[0].encode()) <= 300
    error = json.loads(lines[0])
    assert error["kind"] == "schema"
    assert error["error"].startswith(
        "bad polynomial for f: cannot evaluate expression '" + "(" * 60 + "'...: "
    )


def _job_exit(job, tmp_path, capsys) -> str:
    """The error message of a job file that must exit 2 with an empty stdout."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return _schema_exit(["--job", str(path)], capsys)


def test_context_params_is_an_unknown_field(tmp_path, capsys):
    job = star_job()
    job["context"]["params"] = ["mu"]
    assert "params" in _job_exit(job, tmp_path, capsys)


@pytest.mark.parametrize("text", ["\u0663", "\uff13*z0", "1\u00a0+ z0"])
def test_non_ascii_digits_and_spaces_exit_2(text, tmp_path, capsys):
    # an Arabic-Indic three, a fullwidth three and a no-break space are no
    # digits or spaces of the grammar, in polynomials as in scalars
    poly = star_job()
    poly["inputs"]["f"] = text
    coupling = star_job()
    coupling["context"]["coupling"] = text
    for job in (poly, coupling):
        assert "unexpected character" in _job_exit(job, tmp_path, capsys)
    argv = ["--command", "star", "--n", "2", "--lambda", '[["0","1"],["-1","0"]]',
            "--coupling", "mu/2", "--f", text, "--g", "z1"]
    assert "unexpected character" in _schema_exit(argv, capsys)


def test_zero_denominators_exit_2_naming_the_scalar(tmp_path, capsys):
    # a JSON term list of f, of a lambda entry and of the coupling, and a
    # scalar field: each is malformed input, never a precondition (exit 3)
    terms = [{"exps": [1, 0], "coef": {"params": {}, "value": "2+1/0*i"}}]
    f = star_job()
    f["inputs"]["f"] = terms
    entry = star_job()
    entry["context"]["lambda"][0][1] = terms
    coupling = star_job()
    coupling["context"]["coupling"] = [{"params": {"mu": 1}, "value": "2+1/0*i"}]
    riccati = {"command": "riccati", "inputs": {"a": "2+1/0*i", "b": "1", "c": "0"}}
    for job in (f, entry, coupling, riccati):
        assert "cannot evaluate expression '2+1/0*i': inverse of zero scalar" in _job_exit(
            job, tmp_path, capsys
        )


def test_json_booleans_are_no_scalars(tmp_path, capsys):
    job = {"command": "riccati", "inputs": {"a": True, "b": "1", "c": "0"}}
    assert _job_exit(job, tmp_path, capsys) == "a must be a scalar string"
    job = {"command": "star-exp", "inputs": {"lambda": [[False]], "A": [["1"]]}}
    assert _job_exit(job, tmp_path, capsys) == "lambda must be a scalar string"


def test_scalars_skip_the_ascii_whitespace_of_polynomials(capsys):
    # a scalar field skips the whitespace the tokenizer skips, and only that
    def riccati(a):
        return ["--command", "riccati", "--a", a, "--b", "1", "--c", "0"]

    assert main(riccati("1/2")) == 0
    want = capsys.readouterr().out
    for text in ("1\t/2", " 1 /2\n", "\r1\f/\v2"):
        assert main(riccati(text)) == 0
        assert capsys.readouterr().out == want
    # a no-break space is no whitespace of the grammar
    assert _schema_exit(riccati("1\u00a0/2"), capsys) == (
        "bad scalar for a: unexpected character '\\xa0' in expression"
    )
    # whitespace ends a number, as in a polynomial: digits split by it are
    # no one number
    split = (("1 2", 2), ("1 2/3", 2), ("1/2 3", 3), ("1\t2*i", 2), ("3/4+1\n0*i", 0))
    for text, token in split:
        assert _schema_exit(riccati(text), capsys) == f"bad scalar for a: trailing input at {token}"
        with pytest.raises(SchemaError, match="trailing input"):
            parse_poly(text, 0)
    for text, want in ((" 3/4*i ", GaussianRational(0, rat(3, 4))), ("- 1", GaussianRational(-1))):
        assert parse_gaussian(text) == want


def test_scalars_refuse_whitespace_between_a_number_and_its_i(capsys):
    # whitespace ends the number, so the i after it is no suffix of it
    def riccati(a):
        return ["--command", "riccati", "--a", a, "--b", "1", "--c", "0"]

    for text in ("2 i", "1/2 i", "3/4\ti", "1+2\n*i-4 i"):
        assert _schema_exit(riccati(text), capsys) == "bad scalar for a: trailing input at 'i'"
    for text in ("2 i", "1/2 i"):
        with pytest.raises(SchemaError, match="trailing input"):
            parse_poly(text, 0)
    # nor is an i written against its number: "2i" takes a "*" too
    assert _schema_exit(riccati("2i"), capsys) == "bad scalar for a: trailing input at 'i'"
    assert main(riccati("2*i")) == 0
    want = capsys.readouterr().out
    for text in ("2 * i", " 2 *i"):
        assert main(riccati(text)) == 0
        assert capsys.readouterr().out == want


def test_variable_cap(tmp_path, capsys):
    # one above the cap on n and on the rows of lambda, A and K exits 2 before
    # any matrix of that size is built; the zero lambda would be accepted
    n = MAX_VARIABLES + 1
    zeros = [["0"] * n for _ in range(n)]
    job = star_job()
    job["context"] = {"n": n, "lambda": zeros, "coupling": "mu/2"}
    assert f"<= {MAX_VARIABLES}" in _job_exit(job, tmp_path, capsys)
    jacobi = {"command": "verify", "inputs": {"suite": "jacobi", "lambda": zeros, "n": n}}
    assert f"<= {MAX_VARIABLES}" in _job_exit(jacobi, tmp_path, capsys)
    del jacobi["inputs"]["n"]
    assert f"at most {MAX_VARIABLES} rows" in _job_exit(jacobi, tmp_path, capsys)
    assert f"<= {MAX_VARIABLES}" in _schema_exit(
        ["--command", "grade", "--n", str(n), "--f", "z0"], capsys
    )
    big = json.dumps(zeros)
    two = '[["0","1"],["-1","0"]]'
    for argv in (
        ["--command", "ordering", "--K", big, "--f", "z0"],
        ["--command", "star-exp", "--lambda", big, "--A", big],
        ["--command", "star-exp", "--lambda", two, "--A", big],
    ):
        assert f"at most {MAX_VARIABLES} rows" in _schema_exit(argv, capsys)
    # the cap itself is accepted
    assert main(["--command", "grade", "--n", str(MAX_VARIABLES), "--f", "z0"]) == 0
    capsys.readouterr()


def test_lambda_relation_sweep_cap(monkeypatch, tmp_path, capsys):
    # n = 4 with d_max 5 sweeps comb(9, 4) = 126 monomials, the fewest above
    # the cap, and exits 2 before the check runs; n = 3 with d_max 7 sweeps
    # 120, at the cap, and is accepted.  The check is stubbed, so neither
    # job sweeps: the rejected one must not get that far, and the accepted
    # one would take about a second.
    from starquant import cli
    from starquant.reports import CheckReport

    assert MAX_SWEEP_MONOMIALS == 120

    def refuse(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "check_lambda_relation", refuse)

    def job(n, d_max):
        lam = [["0"] * n for _ in range(n)]
        lam[0][1], lam[1][0] = "1", "-1"
        inputs = {"suite": "lambda-relation", "lambda": lam, "d_max": d_max, "k_max": 16}
        return {"command": "verify", "inputs": inputs}

    error = _job_exit(job(4, 5), tmp_path, capsys)
    assert "126 monomials" in error and f"cap {MAX_SWEEP_MONOMIALS}" in error
    # the default d_max 4 counts too
    big = job(32, 4)
    del big["inputs"]["d_max"]
    assert "58905 monomials" in _job_exit(big, tmp_path, capsys)
    # Jacobi sweeps no monomials and has no cap
    jacobi = job(4, 5)
    jacobi["inputs"]["suite"] = "jacobi"
    assert run_job(jacobi)[1] == 0
    monkeypatch.setattr(cli, "check_lambda_relation", lambda *args: CheckReport(passed=True))
    assert run_job(job(3, 7))[1] == 0


def test_jacobi_at_n32_builds_no_monomials(monkeypatch, tmp_path, capsys):
    # {z0, z1} = z2, {z0, z2} = z0 at n = 32 fails the Jacobi rule; its
    # witness comes off the trivector, so building the grlex monomials of
    # a sweep, comb(36, 4) = 58905 of them at d_max 4, fails the job
    from starquant import grading

    def refuse(*args):
        raise AssertionError("the monomial list was built")

    monkeypatch.setattr(grading, "monomials_upto", refuse)
    monkeypatch.setattr(grading, "_exponents_upto", refuse)
    lam = [["0"] * 32 for _ in range(32)]
    lam[0][1], lam[1][0], lam[0][2], lam[2][0] = "z2", "-z2", "z0", "-z0"
    path = tmp_path / "job.json"
    job = {"command": "verify", "inputs": {"suite": "jacobi", "lambda": lam}}
    path.write_text(json.dumps(job))
    assert main(["--job", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)["result"]["report"]
    assert not report["pass"]
    assert report["witness"] == {"f": "z2", "g": "z1", "h": "z0"}


def test_job_file(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(star_job()))
    assert main(["--job", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["star"]["text"] == "z0*z1 + 1/2*mu"
    # an integer coupling prints the bytes of its text
    printed = []
    for coupling in (2, "2"):
        job = star_job()
        job["context"]["coupling"] = coupling
        path.write_text(json.dumps(job))
        assert main(["--job", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_star_with_wide_exponents(monkeypatch, capsys):
    # exponents above the 8 bits of a byte, with the degree cap raised; the
    # CLI output is the JSON of the pairing expansion
    from starquant.verify import pairing_product

    monkeypatch.setenv("STARQUANT_MAX_DEGREE", "300")
    lam = '[["0","1"],["-1","0"]]'
    cases = [
        ("mu/2", "z0^300*mu^-300 + 2/3*z0^41*tau^257", "z1^260*hbar^300"),
        ("mu/2", "mu^-100000*z0*z1", "hbar^70000*z0"),
        ("i*hbar^300/2", "z0^40*mu^-300", "z1^40*hbar^300"),
    ]
    for coupling, f_text, g_text in cases:
        argv = ["--command", "star", "--n", "2", "--lambda", lam,
                "--coupling", coupling, "--f", f_text, "--g", g_text]
        assert main(argv) == 0
        star_out = json.loads(capsys.readouterr().out)["result"]["star"]
        c = parse_poly(coupling, 0)
        pairs = [(0, 1, c), (1, 0, -c)]
        want = pairing_product(pairs, parse_poly(f_text, 2), parse_poly(g_text, 2))
        assert star_out == {"text": want.text(), "terms": want.to_json()}


def test_degree_cap_is_read_once_per_job(monkeypatch, capsys):
    # one environment read for the 16 lambda entries, the coupling, f and
    # g of an n = 4 star job, and for the d_max and k_max bounds and the
    # lambda entries of a lambda-relation job; none for a riccati job
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            if key == "STARQUANT_MAX_DEGREE":
                reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(os, "environ", Environ(os.environ))
    lam = [["0", "1", "-2", "1/2"], ["-1", "0", "3", "0"],
           ["2", "-3", "0", "1"], ["-1/2", "0", "-1", "0"]]
    argv = ["--command", "star", "--n", "4", "--lambda", json.dumps(lam),
            "--coupling", "mu/2", "--f", "z0*z1", "--g", "z2*z3"]
    assert main(argv) == 0
    assert len(reads) == 1
    so3 = [["0", "z2", "-z1"], ["-z2", "0", "z0"], ["z1", "-z0", "0"]]
    job = {"command": "verify", "inputs": {"suite": "lambda-relation", "lambda": so3,
                                           "d_max": 1, "k_max": 2}}
    assert run_job(job)[1] == 0
    assert len(reads) == 2
    # the patched environ is a copy, which monkeypatch drops afterwards
    os.environ["STARQUANT_MAX_DEGREE"] = "x"
    assert main(["--command", "riccati", "--a", "1", "--b", "1", "--c", "0"]) == 0
    assert len(reads) == 2
    capsys.readouterr()


def test_degree_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("STARQUANT_MAX_DEGREE", "3")
    code = main(
        [
            "--command",
            "star",
            "--n",
            "2",
            "--lambda",
            '[["0","1"],["-1","0"]]',
            "--coupling",
            "mu/2",
            "--f",
            "z0^4",
            "--g",
            "z1",
        ]
    )
    assert code == 2
    capsys.readouterr()
    monkeypatch.setenv("STARQUANT_MAX_DEGREE", "abc")
    argv = ["--command", "grade", "--n", "2", "--f", "z0"]
    assert _schema_exit(argv, capsys) == "STARQUANT_MAX_DEGREE must be an integer, got 'abc'"
    monkeypatch.delenv("STARQUANT_MAX_DEGREE")
    # a JSON term list is held to the default cap of 16 as well
    job = star_job()
    job["inputs"]["f"] = [{"exps": [17, 0], "coef": {"params": {}, "value": "1"}}]
    assert _job_exit(job, tmp_path, capsys) == (
        "f has degree 17 above the cap 16 (raise STARQUANT_MAX_DEGREE to override)"
    )


@pytest.mark.parametrize("f", [
    "(z0+z1+z2+z3)^64",
    "(z0+z1+z2+z3)^16*(z0+z1+z2+z3)^16*(z0+z1+z2+z3)^16*(z0+z1+z2+z3)^16",
    "z0^16*z1^16*z2^16*z3^16",
])
def test_degree_cap_rejects_before_expanding(f, capsys):
    # the default cap is 16: each product or power above it is refused
    # before it is multiplied out, so the job fails at once
    start = time.perf_counter()
    assert main(["--command", "grade", "--n", "4", "--f", f]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "schema"


@pytest.mark.parametrize("f", ["7^10000000", "7^100000000", "(1+mu)^2000", "(1+mu)^8000"])
def test_scalar_powers_are_refused_before_computing(f, capsys):
    # a scalar base has degree 0, which the degree cap does not see: a sum
    # of terms takes an exponent of at most the cap (16), and a single term
    # one whose coefficient stays below the int-to-text limit
    start = time.perf_counter()
    assert main(["--command", "grade", "--n", "2", "--f", f]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "schema"


@pytest.mark.parametrize("f, message", [
    pytest.param("(z0+z1+z2+z3+z4+z5+z6)^16", "could have 74613 terms", id="power-n7"),
    pytest.param("(z0+z1+z2+z3+z4+z5+z6)^8*(z0+z1+z2+z3+z4+z5+z6)^8",
                 "3003 and 3003 terms could have 9018009", id="product-n7"),
    pytest.param("*".join(["7^5088"] * 400), "output limit", id="product-chain"),
    pytest.param("7^5088/7^-5088", "output limit", id="quotient"),
])
def test_term_counts_and_product_digits_are_refused_before_computing(f, message, capsys):
    # the degree cap does not bound terms: a power is bounded by the
    # monomials of its degree in the variables that occur, a product by
    # len(lhs) * len(rhs), and a product's integers by its factors' bit
    # lengths, each before it is multiplied out
    start = time.perf_counter()
    assert main(["--command", "grade", "--n", "7", "--f", f]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "schema" and message in error["error"]


def test_products_of_sums_are_capped_per_text_in_the_coupling(capsys):
    # a chain of products of sums grows with the square of its length,
    # nested or not; the coupling, read at n = 0, refuses it at once
    message = (
        "bad polynomial for coupling: "
        "the products of sums in one text multiply {} pairs of terms, above the cap 10000"
    )
    for factor, pairs in (("(1+mu)", 10098), ("((1+mu)*1)", 10096)):
        coupling = "*".join([factor] * 2000)
        argv = ["--command", "star", "--n", "2", "--lambda", '[["0","1"],["-1","0"]]',
                "--coupling", coupling, "--f", "z0", "--g", "z1"]
        start = time.perf_counter()
        assert _schema_exit(argv, capsys) == message.format(pairs)
        assert time.perf_counter() - start < 2.0


def test_term_bound_passes_the_powers_below_the_cap(capsys):
    # 4845 terms, within MAX_TERMS; a sum of Laurent terms in mu is bounded
    # by its exponent range, and a lone term by 1
    for f in ("(z0+z1+z2+z3+z4)^16", "(z0+mu^-1+mu)^16", "(2*z0*mu^-3)^16", "0^0"):
        assert main(["--command", "grade", "--n", "7", "--f", f]) == 0, f
        capsys.readouterr()


def test_powers_of_units_pass_any_exponent(capsys):
    # a unit times parameters keeps its coefficient, so no exponent is too
    # large; each power prints as its reduced form does
    for power, reduced in (("i^1000000001", "i"), ("(-i*mu)^-1000001", "i*mu^-1000001")):
        outputs = []
        for f in (power, reduced):
            assert main(["--command", "grade", "--n", "2", "--f", f]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# --- output limits ---------------------------------------------------------------


def _schema_exit(argv, capsys) -> str:
    """The error message of a job that must exit 2 with an empty stdout."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "schema"
    return error["error"]


def test_coefficient_past_the_int_text_limit_exits_2(capsys):
    # Python prints no int of more than sys.get_int_max_str_digits() digits
    # (4300); such a coefficient is a schema error, not a traceback
    limit = str(sys.get_int_max_str_digits())
    lam = '[["0","1"],["-1","0"]]'
    star = ["--command", "star", "--n", "2", "--lambda", lam, "--coupling", "mu/2"]
    # mu = 3/2 raised to the power -20000 has about 6000 digits
    message = _schema_exit(
        star + ["--f", "mu^-20000*z0*z1", "--g", "z0", "--mu", "3/2"], capsys
    )
    assert "output limit" in message and limit in message
    # two inputs of 2500 digits each, whose product has 5000
    big = "7" * 2500
    message = _schema_exit(star + ["--f", f"{big}*z0", "--g", f"{big}*z0"], capsys)
    assert "output limit" in message and limit in message
    # each input under the limit is fine on its own
    assert main(star + ["--f", f"{big}*z0", "--g", "z0"]) == 0
    text = json.loads(capsys.readouterr().out)["result"]["star"]["text"]
    assert text == f"{big}*z0^2"
    # every output path that formats coefficients: a star product whose
    # only long coefficient is in its contraction term, the graded
    # component of degree 0 and mu weight 1; the grade command, with and
    # without mu; and the series of a riccati job, whose order-10
    # coefficients hold a^5 = 10^5000 while its discriminant -a fits
    wide = ["--command", "star", "--n", "2", "--coupling", "mu/2"]
    wide += ["--lambda", json.dumps([["0", big], ["-" + big, "0"]])]
    failing = [
        wide + ["--f", f"{big}*z0", "--g", "z1"],
        ["--command", "grade", "--n", "2", "--f", "mu^-20000*z0", "--mu", "3/2"],
        ["--command", "grade", "--n", "2", "--f", f"{big}*{big}*z0"],
        ["--command", "riccati", "--a", "1" + "0" * 1000, "--b", "1", "--c", "0",
         "--N", "10"],
    ]
    for argv in failing:
        message = _schema_exit(argv, capsys)
        assert "output limit" in message and limit in message


def test_job_text_past_the_int_limit_or_not_utf8_exits_2(tmp_path, capsys):
    huge = "9" * 5000
    path = tmp_path / "job.json"
    path.write_text(
        '{"command": "verify", "inputs": {"suite": "cayley", "seed": %s}}' % huge
    )
    assert "not valid JSON" in _schema_exit(["--job", str(path)], capsys)
    path.write_bytes(b'{"command": "\xff"}')
    assert "not valid JSON" in _schema_exit(["--job", str(path)], capsys)
    argv = ["--command", "star-exp", "--lambda", f"[[{huge}]]", "--A", '[["1"]]']
    assert "--lambda must be valid JSON" in _schema_exit(argv, capsys)


# --- output writer ---------------------------------------------------------------

# strings with every character json escapes: quotes, backslashes, control
# characters, non-ASCII and astral code points
json_strings = st.one_of(
    st.text(),
    st.sampled_from(('"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "😀", "a\"b\\c")),
)
json_ints = st.one_of(
    st.integers(),
    st.integers(10**999, 10**1000 - 1).flatmap(lambda v: st.sampled_from((v, -v))),
)
json_leaves = st.one_of(
    json_strings, json_ints, st.booleans(), st.none(), st.floats(allow_nan=True)
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(json_trees)
def test_json_text_matches_indented_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_json_text_of_empty_containers_and_bad_keys():
    tree = {"a": [], "b": {}, "c": [{}, [], ()], "d": ({"e": []},)}
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)
    for bad in ({1: "x"}, {"a": {None: 1}}, [{"a": 1, 2: "b"}]):
        with pytest.raises(TypeError):
            json_text(bad)


# polynomials in 0 to 3 variables, empty ones included: mu exponents of
# either sign, hbar and tau on the same terms, and complex coefficients
# whose parts run from one digit to about 60
wide_rationals = st.builds(
    rat, st.integers(-(10**60), 10**60), st.integers(1, 10**40)
)
gaussians = st.builds(GaussianRational, wide_rationals, wide_rationals)


@st.composite
def polys(draw):
    n = draw(st.integers(0, 3))
    keys = st.tuples(
        *[st.integers(0, 3)] * n, st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)
    )
    return MultiPoly(n, draw(st.dictionaries(keys, gaussians, max_size=8)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), st.integers(0, 4))
def test_term_rows_write_their_json_data(p, depth):
    # the writer prints the term list, and each graded component, as
    # json.dumps prints the data form at that indentation
    indent = "\n" + "  " * depth

    def dumps(data):
        return json.dumps(data, indent=2, sort_keys=True).replace("\n", indent)

    rows = p.rows()
    assert json_text(TermRows(p.n, rows), indent) == dumps(p.to_json())
    graded = graded_terms(p.n, rows)
    assert json_text(graded, indent) == dumps(decompose(p).to_json())
