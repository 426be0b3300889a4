"""Hypothesis fuzz test of ``star-exp`` jobs through ``cli.main``.

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
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from starquant.cli import main
from starquant.scalars import GaussianRational

VALID_SCALARS = ("0", "1", "-2", "1/3", "-5/7", "i", "2/3*i", "1/2+i", "-i", 3, -1)
GARBAGE = ("", "abc", "1/0", "z0", "1//2", "i*i*", "mu", "nan")

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
        return (-GaussianRational.parse(v)).text()
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


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(star_exp_jobs())
def test_star_exp_jobs_exit_with_one_meaning_each(job):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--job", str(path)])
    if code == 2:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["kind"] == "schema"
    elif code == 3:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["kind"] == "precondition"
    else:
        assert code == 0, (code, job)
        assert json.loads(out.getvalue())["result"]["oracle_check"]["pass"] is True
