"""One grammar for every scalar field.

The Gaussian scalar fields (star-exp's ``lambda`` and ``A``, ordering's
``K``, riccati's ``a``/``b``/``c``, ``mu`` and the ``value`` of every JSON
term list) are read by ``parsing.parse_gaussian``, the polynomial grammar at
n = 0.  These tests pin what that reader takes and refuses through three of
those fields, and check it on every scalar text of the golden jobs, the fuzz
tests and the benchmark's job pools.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from test_fuzz import VALID_SCALARS
from test_golden import JOBS

from starquant.cli import main
from starquant.parsing import parse_gaussian
from starquant.scalars import GaussianRational, rat

JOBGEN = Path(__file__).resolve().parent.parent / "perfbench" / "jobgen.py"

# texts that read as one constant term, with the canonical text of the value
VALUES = [
    ("2*3", "6"),
    ("1/2/3", "1/6"),
    ("i/2", "1/2*i"),
    ("1/-2", "-1/2"),
    ("i*i", "-1"),
    ("2^2", "4"),
    ("(1+i)^2", "2*i"),
    ("1/(1+i)", "1/2-1/2*i"),
    ("mu/mu", "1"),
    ("mu-mu", "0"),
    ("0*mu", "0"),
]

# texts that every scalar field refuses, with the reader's message
REFUSALS = [
    # a number written against its i: the i is no suffix of the number
    ("2i", "trailing input at 'i'"),
    ("1/2i", "trailing input at 'i'"),
    ("-3/4i", "trailing input at 'i'"),
    ("1+2i", "trailing input at 'i'"),
    ("1e3", "trailing input at 'e3'"),
    ("1.5", "unexpected character '.' in expression"),
    ("1/0", "cannot evaluate expression '1/0': inverse of zero scalar"),
    ("0^-1", "cannot evaluate expression '0^-1': inverse of zero scalar"),
    ("1+", "unexpected end of input"),
    ("", "unexpected end of input"),
    ("(1", "expected ')', found end of input"),
    ("2^", "expected 'int', found end of input"),
    ("1 2", "trailing input at 2"),
    ("2 i", "trailing input at 'i'"),
    ("mu", "a scalar field takes no parameter"),
    # refused by the degree cap 0 before the power is expanded
    ("(1+mu)^9999", "a power 9999 of a sum of terms exceeds the cap 0"),
    ("1/(1+mu)", "cannot evaluate expression '1/(1+mu)': only monomial scalars are invertible"),
    ("1\u00a02", "unexpected character '\\xa0' in expression"),
    # refused by the cap on the pairs of terms that the products of sums of
    # one text multiply, nested or not
    pytest.param("*".join(["(1+mu)"] * 2000),
                 "the products of sums in one text multiply 10098 pairs of terms,"
                 " above the cap 10000", id="chain-of-2000-sums"),
    pytest.param("*".join(["((1+mu)*1)"] * 2000),
                 "the products of sums in one text multiply 10096 pairs of terms,"
                 " above the cap 10000", id="nested-chain-of-2000-sums"),
    # a refusal quotes a text of up to 60 characters whole, a longer one by
    # its first 60 and "..."
    pytest.param("1/0" + " " * 57, "cannot evaluate expression '1/0" + " " * 57 + "':"
                 " inverse of zero scalar", id="quoted-60-characters"),
    pytest.param("1/0" + " " * 58, "cannot evaluate expression '1/0" + " " * 57 + "'...:"
                 " inverse of zero scalar", id="quoted-prefix-of-61-characters"),
]


def _riccati(text):
    # "--a=" also passes a text that starts with "-"
    return ["--command", "riccati", f"--a={text}", "--b", "1", "--c", "0", "--N", "3"]


def _star_exp(text):
    return ["--command", "star-exp", "--lambda", '[["0","1"],["-1","0"]]',
            "--A", json.dumps([[text, "0"], ["0", "1"]]), "--N", "3"]


def _term_list(text, tmp_path):
    job = {
        "command": "star",
        "context": {"n": 2, "lambda": [["0", "1"], ["-1", "0"]], "coupling": "mu/2"},
        "inputs": {"f": [{"exps": [1, 0], "coef": {"params": {}, "value": text}}], "g": "z1"},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return ["--job", str(path)]


def _run(argv, capsys) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("text, want", VALUES)
def test_constant_expressions_are_scalars(text, want, tmp_path, capsys):
    assert parse_gaussian(text).text() == want
    for field in (_riccati, _star_exp, lambda t: _term_list(t, tmp_path)):
        got = _run(field(text), capsys)
        assert got[0] == 0, got
        assert got == _run(field(want), capsys)


@pytest.mark.parametrize("text, message", REFUSALS)
def test_scalar_refusals_exit_2_with_the_reader_message(text, message, tmp_path, capsys):
    fields = [
        (_riccati(text), "bad scalar for a: "),
        (_star_exp(text), "bad scalar for A: "),
        (_term_list(text, tmp_path), "malformed polynomial JSON for f: "),
    ]
    for argv, prefix in fields:
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": prefix + message, "kind": "schema"}


# the scalar texts of the inputs below that are not real, with their values
COMPLEX_TEXTS = {
    "i": GaussianRational(0, 1),
    "-i": GaussianRational(0, -1),
    "2/3*i": GaussianRational(0, rat(2, 3)),
    "1/2+i": GaussianRational(rat(1, 2), 1),
    "2/3+i": GaussianRational(rat(2, 3), 1),
    "1/3*i": GaussianRational(0, rat(1, 3)),
    "-1/3*i": GaussianRational(0, rat(-1, 3)),
}


def _scalar_texts(job):
    """The values of a job's Gaussian scalar fields: texts, and ints that
    the CLI reads as their text."""
    inputs = job.get("inputs", {})
    matrices = ("lambda", "A") if job["command"] == "star-exp" else ("K",)
    for name in matrices:
        for row in inputs.get(name, ()):
            yield from row
    for name in ("a", "b", "c", "mu"):
        if name in inputs:
            yield inputs[name]
    yield from _values(job)


def _values(data):
    """The "value" of every JSON term-list entry in data."""
    if isinstance(data, dict):
        if "value" in data:
            yield data["value"]
        for v in data.values():
            yield from _values(v)
    elif isinstance(data, list):
        for v in data:
            yield from _values(v)


def _pool_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobgen", JOBGEN)
    jobgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobgen)
    for workload in jobgen.WORKLOADS:
        for entry in jobgen.all_pool_jobs(workload):
            yield entry["job"]


def test_every_input_scalar_reads_as_its_value():
    texts = set(map(str, VALID_SCALARS))
    for job, _ in JOBS.values():
        texts.update(map(str, _scalar_texts(job)))
    golden = len(texts)
    for job in _pool_jobs():
        texts.update(map(str, _scalar_texts(job)))
    # the pools have scalar texts that the golden and fuzz jobs lack
    assert golden < len(texts)
    for text in texts:
        try:
            want = GaussianRational(Fraction(text))
        except ValueError:
            want = COMPLEX_TEXTS[text]
        assert parse_gaussian(text) == want, text
