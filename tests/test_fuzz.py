"""Hypothesis fuzz tests of ``star-exp`` and ``star`` jobs through
``cli.main``.

Jobs mix valid and malformed matrices: sizes 1-4, entries drawn from valid
scalars, garbage strings, null, bools and nested lists, non-square rows, an
``A`` of another size than ``lambda``, and truncations that are not
integers in range.  Whatever the job, ``main`` must return an exit code
and never raise:

* 2 comes with an empty stdout and a ``{"kind": "schema"}`` error;
* 3 comes with a ``{"kind": "precondition"}`` error;
* 0 comes with ``oracle_check.pass: true``;
* 1 never happens, because the closed form equals the oracle for every
  valid input.

Valid jobs stay small: n <= 2 at truncation <= 4, or n = 3, 4 at
truncation <= 2.

``star`` jobs draw n from 1 to 4, an antisymmetric structure matrix of
constants or (for small degrees) linear polynomials, a nonzero coupling,
and f and g as sums of two monomials up to the degree cap with powers of mu
(negative ones too), hbar and tau; any of these may be garbage instead.
They have no precondition left to violate, so they exit 2 with an empty
stdout and a ``schema`` error, or 0 with the product; never 1 or 3.

``riccati``, ``ordering`` and ``grade`` jobs draw their scalars, matrices
and polynomials from the same pools, with at most one fault each.  They
exit 2 or 3 as above, or 0; never 1, since ``riccati`` compares two exact
forms that always agree and the other two verify nothing.

``verify`` jobs draw a suite, a seed and a case count (1, 2, or 1000 on
``riccati``, which ignores it) and, for the validator suites, an explicit
lambda with d_max <= 2 and k_max <= 3.  At most one field is faulty: an
unknown suite, a seed or case count that is a bool, a string, a float or
out of range, a mismatched n, a sweep bound out of range, or a lambda
given to a suite that takes none.  A faulty job exits 2; any other exits
1 exactly when a case or the report failed, and 0 for every constant
lambda.

Every exit 0, of every command, prints exactly what ``json.dumps`` with
``indent=2`` and sorted keys prints for the same envelope.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from starquant.cli import main, max_input_degree
from starquant.parsing import parse_gaussian
from starquant.poly import MultiPoly
from starquant.verify import SUITES

VALID_SCALARS = ("0", "1", "-2", "1/3", "-5/7", "i", "2/3*i", "1/2+i", "-i", 3, -1)
GARBAGE = (
    "", "abc", "1/0", "z0", "1//2", "i*i*", "mu", "nan", "2.5", "1_000", "1e999",
)

valid_entry = st.sampled_from(VALID_SCALARS)
entry = st.one_of(
    valid_entry,
    st.sampled_from(GARBAGE),
    st.none(),
    st.booleans(),
    st.lists(valid_entry, max_size=2),
)


@st.composite
def matrix(draw, n: int, shape: str, entries):
    """An n x n matrix drawn from ``entries``: antisymmetric, symmetric, or
    any."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(entries)
            if shape == "antisymmetric":
                if i == j:
                    v = "0"
                rows[i][j] = v
                rows[j][i] = _negated(v)
            elif shape == "symmetric":
                rows[i][j] = rows[j][i] = v
            else:
                rows[i][j], rows[j][i] = v, draw(entries)
    return rows


def _negated(v):
    """-v for a valid scalar; anything else is returned as it is."""
    if isinstance(v, str) and v in VALID_SCALARS:
        return (-parse_gaussian(v)).text()
    if isinstance(v, int) and not isinstance(v, bool):
        return -v
    return v


FAULTS = (
    None, None, None, None,
    "entries", "lambda shape", "A shape", "A size", "ragged row", "truncation",
)


@st.composite
def star_exp_jobs(draw):
    """A job with at most one kind of fault; four in ten have none."""
    fault = draw(st.sampled_from(FAULTS))
    n = draw(st.sampled_from((1, 2, 2, 3, 4, 4)))
    entries = entry if fault == "entries" else valid_entry
    lam_shape = "any" if fault == "lambda shape" else "antisymmetric"
    lam = draw(matrix(n, lam_shape, entries))
    a_dim = draw(st.sampled_from((max(1, n - 1), n + 1))) if fault == "A size" else n
    a_shape = "any" if fault == "A shape" else "symmetric"
    a_mat = draw(matrix(a_dim, a_shape, entries))
    if fault == "ragged row":
        a_mat[draw(st.integers(0, a_dim - 1))].pop()
    if fault == "truncation":
        truncation = draw(st.sampled_from((True, "3", -1, 0, 33)))
    else:
        truncation = draw(st.integers(1, 4 if n <= 2 else 2))
    return {
        "command": "star-exp",
        "inputs": {"lambda": lam, "A": a_mat},
        "truncation": truncation,
    }


def run(job) -> tuple:
    """(exit code, stdout, stderr) of ``main`` on the job; the stdout of an
    exit 0 must be the indented ``json.dumps`` text of its envelope."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--job", str(path)])
    if code == 0:
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return code, out.getvalue(), err.getvalue()


def exit_0_2_or_3(job) -> dict:
    """Run a job that may exit 0, 2 or 3 but never 1; the envelope of an
    exit 0, else None."""
    code, out, err = run(job)
    if code == 0:
        return json.loads(out)
    assert out == ""
    kind = {2: "schema", 3: "precondition"}.get(code)
    assert kind is not None, (code, err, job)
    assert json.loads(err)["kind"] == kind
    return None


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(star_exp_jobs())
def test_star_exp_jobs_exit_with_one_meaning_each(job):
    code, out, err = run(job)
    if code == 2:
        assert out == ""
        assert json.loads(err)["kind"] == "schema"
    elif code == 3:
        assert out == ""
        assert json.loads(err)["kind"] == "precondition"
    else:
        assert code == 0, (code, job)
        assert json.loads(out)["result"]["oracle_check"]["pass"] is True


POLY_GARBAGE = (
    "", "z", "z9", "z0^", "z0^-1", "hbar^-1", "tau^-2", "1/0", "((z0", "2.5",
    "1_000", "1e999", "mu^^2", "z0 z1", None, 7.5, True, [["z0"]],
)
COEFFICIENTS = ("1", "-1", "2/3", "-5/7", "i", "(1/2-3*i)", "mu", "hbar/3")


@st.composite
def monomial(draw, n: int, degree: int):
    """A coefficient, z factors of total degree ``degree`` and parameter
    powers, as text."""
    exps = [0] * n
    for _ in range(degree):
        exps[draw(st.integers(0, n - 1))] += 1
    factors = [draw(st.sampled_from(COEFFICIENTS))]
    factors += [f"z{j}^{e}" for j, e in enumerate(exps) if e]
    mu, hbar, tau = draw(st.integers(-3, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    factors += [f"{name}^{e}" for name, e in (("mu", mu), ("hbar", hbar), ("tau", tau)) if e]
    return "*".join(factors)


@st.composite
def polynomial(draw, n: int, max_degree: int):
    """One or two monomials of degree <= max_degree, the cap and the
    values next to it included, joined by + or -."""
    degrees = st.sampled_from(sorted({0, 1, 2, max_degree // 2, max_degree - 1, max_degree}))
    terms = draw(st.lists(monomial(n, draw(degrees)), min_size=1, max_size=2))
    text = terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from((" + ", " - "))) + t
    return text


@st.composite
def star_jobs(draw):
    """A star job with at most one kind of garbage; half have none."""
    fault = draw(st.sampled_from((None, None, None, "lambda", "coupling", "f", "g", "mu")))
    n = draw(st.integers(1, 4))
    cap = max_input_degree()
    constant = draw(st.booleans())
    # a polynomial lambda multiplies the terms per step: keep its degrees low
    max_degree = cap if constant else 3
    entries = st.sampled_from(("0", "1", "-2/3", "1/2+i", "mu^-1", "3*hbar"))
    if not constant:
        entries = st.one_of(entries, st.builds("z{}".format, st.integers(0, n - 1)))
        entries = st.one_of(entries, st.builds("{}*mu^-2".format, entries))
    lam = [["0"] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            v = draw(entries)
            lam[a][b], lam[b][a] = v, f"-({v})"
    coupling = draw(st.sampled_from(("mu/2", "i*hbar/2", "mu^-1", "2/3*mu^-3+hbar")))
    inputs = {"f": draw(polynomial(n, max_degree)), "g": draw(polynomial(n, max_degree))}
    if draw(st.booleans()):
        inputs["mu"] = draw(st.sampled_from(("-3/2", "2", "i", "1/3-i")))
    garbage = st.sampled_from(POLY_GARBAGE)
    if fault == "lambda" and n > 1:
        lam[0][1] = draw(garbage)
    elif fault == "coupling":
        coupling = draw(garbage)
    elif fault in ("f", "g", "mu"):
        inputs[fault] = draw(garbage)
    return {
        "command": "star",
        "context": {"n": n, "lambda": lam, "coupling": coupling},
        "inputs": inputs,
    }


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(star_jobs())
def test_star_jobs_exit_0_or_2(job):
    code, out, err = run(job)
    if code == 2:
        assert out == ""
        assert json.loads(err)["kind"] == "schema"
    else:
        assert code == 0, (code, err, job)
        product = json.loads(out)["result"]["star"]
        n = job["context"]["n"]
        assert MultiPoly.from_json(n, product["terms"]).text() == product["text"]


# garbage in one input field, or (twice as often) no fault
JOB_FAULTS = ("field", None, None)
poly_or_garbage = st.sampled_from(POLY_GARBAGE)


@st.composite
def riccati_jobs(draw):
    """A riccati job: a, b, c valid scalars, garbage or left out (0)."""
    fault = draw(st.sampled_from(JOB_FAULTS + ("truncation",)))
    inputs = {}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True)):
        inputs[name] = draw(valid_entry)
    if fault == "field":
        inputs[draw(st.sampled_from("abc"))] = draw(entry)
    if fault == "truncation":
        truncation = draw(st.sampled_from((True, "3", -1, 0, 33, 2.0)))
    else:
        truncation = draw(st.integers(1, 6))
    return {"command": "riccati", "inputs": inputs, "truncation": truncation}


@st.composite
def ordering_jobs(draw):
    """An ordering job: a symmetric K (any K, or of odd size, under a
    fault), f, an optional g and an optional context, constant or not, of
    the size of K or another."""
    fault = draw(st.sampled_from(JOB_FAULTS + ("K", "odd", "context")))
    n = draw(st.sampled_from((3 if fault == "odd" else 2, 1 if fault == "odd" else 4)))
    shape = "any" if fault == "K" else "symmetric"
    k_mat = draw(matrix(n, shape, entry if fault == "K" else valid_entry))
    inputs = {"K": k_mat, "f": draw(polynomial(n, 4))}
    job = {"command": "ordering", "inputs": inputs}
    if draw(st.booleans()):
        inputs["g"] = draw(polynomial(n, 4))
        if n > 1 and (draw(st.booleans()) or fault == "context"):
            m = draw(st.sampled_from((2, 4))) if fault == "context" else n
            lam = [["0"] * m for _ in range(m)]
            lam[0][1] = draw(st.sampled_from(("1", "-2/3", "mu^-1", "z0")))
            lam[1][0] = f"-({lam[0][1]})"
            job["context"] = {"n": m, "lambda": lam, "coupling": "i*hbar/2"}
    if fault == "field":
        inputs[draw(st.sampled_from(("f", "g")))] = draw(poly_or_garbage)
    return job


@st.composite
def grade_jobs(draw):
    """A grade job: f up to the degree cap in n = 1..4 variables and an
    optional mu, 0 included."""
    fault = draw(st.sampled_from(JOB_FAULTS + ("context",)))
    n = draw(st.integers(1, 4))
    context = {"n": n, "lambda": [["0"] * n for _ in range(n)], "coupling": "mu/2"}
    if fault == "context":
        context = draw(st.sampled_from((None, {"n": n}, {**context, "n": 0}, "n")))
    inputs = {"f": draw(polynomial(n, max_input_degree()))}
    if draw(st.booleans()):
        # mu = 0 cannot be specialized: a precondition error, exit 3
        inputs["mu"] = draw(st.sampled_from(("-3/2", "2", "i", "0", "0")))
    if fault == "field":
        inputs[draw(st.sampled_from(("f", "mu")))] = draw(poly_or_garbage)
    return {"command": "grade", "context": context, "inputs": inputs}


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(riccati_jobs(), ordering_jobs(), grade_jobs()))
def test_riccati_ordering_and_grade_jobs_never_exit_1(job):
    envelope = exit_0_2_or_3(job)
    if envelope is None:
        return
    result = envelope["result"]
    if job["command"] == "riccati":
        assert result["oracle_check"]["pass"] is True
    elif job["command"] == "ordering":
        n = len(job["inputs"]["K"])
        intertwined = result["intertwined_f"]
        assert MultiPoly.from_json(n, intertwined["terms"]).text() == intertwined["text"]
        assert ("k_ordered_product" in result) == ("g" in job["inputs"])
    else:
        n = job["context"]["n"]
        assert result["projective_dimension"] == n - 1
        degrees = [c["degree"] for c in result["graded"]["components"]]
        assert sorted(int(d) for d in result["h0_dims"]) == sorted(set(degrees))


VALIDATORS = ("jacobi", "lambda-relation")
# values that make a verify input faulty
FAULTY = {
    "suite": ("nope", "", "Cayley", None, 3, ["cayley"], {}),
    "seed": (True, False, "42", 4.0, None),
    "cases": (0, 1001, True, "2", None),
    "n": (0, 4, True, "3"),
    "d_max": (-1, 17, "2", True),
    "k_max": (1, 17, "3", False),
}


@st.composite
def verify_jobs(draw):
    """(job, fault, constant): a verify job with at most one faulty field
    (a key of FAULTY, or "lambda" for a lambda given to a suite that takes
    none) and whether its lambda is constant (None without one)."""
    # half of the jobs have no fault
    fault = draw(st.sampled_from((*FAULTY, "lambda"))) if draw(st.booleans()) else None
    with_lambda = fault in ("n", "lambda") or draw(st.booleans())
    if fault == "lambda":
        suite = draw(st.sampled_from([s for s in sorted(SUITES) if s not in VALIDATORS]))
    else:
        suite = draw(st.sampled_from(VALIDATORS if with_lambda else sorted(SUITES)))
    inputs = {
        "suite": suite,
        "seed": draw(st.integers(-(2**70), 2**70)),
        "cases": draw(st.sampled_from((1, 2, 1000) if suite == "riccati" else (1, 2))),
    }
    constant = None
    if with_lambda:
        n = draw(st.integers(1, 3))
        constant = draw(st.booleans())
        entries = ["1", "-2/3", "1/2+i", "mu^-1", "3*hbar"]
        if not constant:
            entries += ["z0", f"z{n - 1}", f"z0*z{n - 1}", "mu*z0^2"]
        lam = [["0"] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                v = draw(st.sampled_from(entries))
                lam[a][b], lam[b][a] = v, f"-({v})"
        inputs.update({"lambda": lam, "d_max": draw(st.integers(0, 2))})
        inputs["k_max"] = draw(st.integers(2, 3))
        if draw(st.booleans()):
            inputs["n"] = n
    if fault in FAULTY:
        inputs[fault] = draw(st.sampled_from(FAULTY[fault]))
    return {"command": "verify", "inputs": inputs}, fault, constant


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(verify_jobs())
def test_verify_jobs_exit_1_only_on_a_failed_check(case):
    job, fault, constant = case
    code, out, err = run(job)
    if fault is not None:
        assert code == 2, (code, job)
        assert out == ""
        assert json.loads(err)["kind"] == "schema"
        return
    result = json.loads(out)["result"]
    passed = result["report"]["pass"] if "report" in result else result["failed"] == 0
    assert code == (0 if passed else 1), (code, job)
    if constant:
        assert code == 0, job
