"""Deterministic job generator for the starquant benchmark.

Standard library only: nothing here imports starquant, so an edit to the
package cannot change the benchmark's inputs.  Every job is drawn from a
fixed pool -- pool job ``index`` of a ``kind`` is generated from its own
string-seeded ``random.Random`` -- so the stdout digest of each pool job can
be recorded once (``digests.json``) and checked on every later run.  The
workload seed only chooses which pool jobs a run uses and in which order.

A workload's job list is a number of *units*.  A unit is a fixed sequence of
job kinds, so that every job list of a workload has the same mix of job
sizes whatever the seed.  A run repeats the whole job list (see ``run.py``).
"""

from __future__ import annotations

import random
from fractions import Fraction

# workload -> (kinds of one unit, units in the job list of one run); each job
# list takes about 5-10 s to run once on a 2-core host, so a run repeats it
WORKLOADS = {
    # the paper's headline computation; mostly n=4, N=8 plus some n=2, N=12
    "starexp": (("n4", "n4", "n2"), 1),
    # Cayley-calculus suite: matrix series, 0-variable series, Gaussian scalars
    "cayley": (("suite",), 12),
    # polynomial structure matrices on n=3: w-variable star branch, validators
    "poly-lambda": (
        tuple(
            f"{family}-{task}"
            for family in ("so3", "cyclic", "logcan")
            for task in ("star", "star", "jacobi", "lambda")
        ),
        3,
    ),
    # millisecond jobs where per-call overhead dominates
    "small-jobs": (("star2", "ordering", "star4", "grade", "star6", "riccati"), 64),
}

# jobs per kind in the recorded pool; a job list draws without repetition
POOL_SIZE = {
    "starexp": {"n4": 24, "n2": 12},
    "cayley": {"suite": 192},
    "poly-lambda": 16,
    "small-jobs": 384,
}

# Seed kept out of every tuning run; use it to confirm a claimed gain.
HELD_OUT_SEED = 20261017


def pool_size(workload: str, kind: str) -> int:
    sizes = POOL_SIZE[workload]
    return sizes if isinstance(sizes, int) else sizes[kind]


def job_list(workload: str, seed: int) -> list:
    """The job list of a workload for one seed, unit after unit."""
    kinds, units = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    picks = {}
    for kind in dict.fromkeys(kinds):
        need = units * kinds.count(kind)
        picks[kind] = iter(rng.sample(range(pool_size(workload, kind)), need))
    return [
        pool_job(workload, kind, next(picks[kind]))
        for _ in range(units)
        for kind in kinds
    ]


def all_pool_jobs(workload: str) -> list:
    kinds, _ = WORKLOADS[workload]
    return [
        pool_job(workload, kind, i)
        for kind in dict.fromkeys(kinds)
        for i in range(pool_size(workload, kind))
    ]


def pool_job(workload: str, kind: str, index: int) -> dict:
    """Pool job as {"key", "job", "expect", "sizes"}.

    ``expect`` holds the exit code and the ``passed`` value of every embedded
    oracle or validator report, both fixed by the mathematics of the input
    family rather than by any run of the program.
    """
    rng = random.Random(f"{workload}/{kind}/{index}")
    job, expect, sizes = _MAKERS[workload](rng, kind)
    return {
        "key": f"{workload}/{kind}/{index}",
        "job": job,
        "expect": expect,
        "sizes": sizes,
    }


# --- values ----------------------------------------------------------------


def _nonzero(rng: random.Random) -> Fraction:
    """Nonzero rational +-1..3 over 1 or 2: dense inputs keep job cost steady."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _matrix_text(m) -> list:
    return [[str(v) for v in row] for row in m]


def _antisym(rng, n, value=_nonzero) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = value(rng)
            m[i][j], m[j][i] = v, -v
    return m


def _symmetric(rng, n, value=_nonzero) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = value(rng)
    return m


def _det(m) -> Fraction:
    m = [list(r) for r in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def _monomial(rng, n, degree) -> tuple:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _poly_text(rng, n, degree, terms, coef=_nonzero, mu_powers=(0,), low=0) -> str:
    """Random polynomial text of total degree exactly ``degree``.

    The first term carries the top degree, the others a degree from ``low``
    up; coefficients are rational, one in five times imaginary, times mu^k
    for k drawn from ``mu_powers``.
    """
    pieces = []
    for t in range(terms):
        deg = degree if t == 0 else rng.randint(low, degree)
        exps = _monomial(rng, n, deg)
        factors = [f"({coef(rng) or 1})"]
        if rng.random() < 0.2:
            factors.append("i")
        k = rng.choice(mu_powers)
        if k:
            factors.append("mu" if k == 1 else f"mu^{k}")
        factors += [f"z{j}" if e == 1 else f"z{j}^{e}" for j, e in enumerate(exps) if e]
        pieces.append("*".join(factors))
    return " + ".join(pieces)


# --- workloads ---------------------------------------------------------------


def _starexp(rng, kind):
    n, order = (4, 8) if kind == "n4" else (2, 12)
    while True:
        lam = _antisym(rng, n)
        if _det(lam):
            break
    a_mat = _symmetric(rng, n)
    job = {
        "command": "star-exp",
        "truncation": order,
        "inputs": {"lambda": _matrix_text(lam), "A": _matrix_text(a_mat)},
    }
    # the closed form equals the oracle for every invertible lambda
    expect = {"exit": 0, "passed": {"result.oracle_check.pass": True}}
    return job, expect, {"n": n, "N": order}


def _cayley(rng, kind):
    job = {
        "command": "verify",
        "inputs": {"suite": "cayley", "seed": rng.randrange(2**31), "cases": 2},
    }
    # case 0 is n=4, case 1 is n=2, both at the suite's order N=8
    expect = {"exit": 0, "passed": {"result.cases.*.pass": True}}
    return job, expect, {"n": [4, 2], "N": 8, "cases": 2}


def _poly_lambda_matrix(rng, family) -> tuple:
    """Polynomial structure matrix on n=3 and whether Jacobi holds for it.

    so3:    {z0,z1} = c z2, {z1,z2} = a z0, {z2,z0} = b z1 -- a Lie-Poisson
            bracket for every a, b, c, so Jacobi holds.
    cyclic: {z0,z1} = a z2, {z0,z2} = b z0, {z1,z2} = c z1 -- its Jacobi sum
            on (z0, z1, z2) is a(b + c) z2, nonzero since b != -c.
    logcan: {zi,zj} = q_ij zi zj -- log-canonical, Jacobi holds for all q.
    Every entry is non-constant, so the iterated and contracted forms
    differ at order 2 (the lambda relation fails with a witness).
    """
    a, b, c = (_nonzero(rng) for _ in range(3))
    z = ["z0", "z1", "z2"]
    entries = {}
    if family == "so3":
        entries = {(0, 1): (c, z[2]), (1, 2): (a, z[0]), (2, 0): (b, z[1])}
        jacobi = True
    elif family == "cyclic":
        while b == -c:
            c = _nonzero(rng)
        entries = {(0, 1): (a, z[2]), (0, 2): (b, z[0]), (1, 2): (c, z[1])}
        jacobi = False
    else:
        entries = {(0, 1): (a, "z0*z1"), (0, 2): (b, "z0*z2"), (1, 2): (c, "z1*z2")}
        jacobi = True
    m = [["0"] * 3 for _ in range(3)]
    for (i, j), (coef, mono) in entries.items():
        m[i][j] = f"({coef})*{mono}"
        m[j][i] = f"({-coef})*{mono}"
    return m, jacobi


def _poly_lambda(rng, kind):
    family, task = kind.split("-")
    lam, jacobi = _poly_lambda_matrix(rng, family)
    if task == "star":
        df, dg = rng.choice(((5, 5), (5, 6), (6, 5)))
        job = {
            "command": "star",
            "context": {"n": 3, "lambda": lam, "coupling": "mu/2"},
            "inputs": {
                "f": _poly_text(rng, 3, df, 10, low=df - 2),
                "g": _poly_text(rng, 3, dg, 10, low=dg - 2),
            },
        }
        return job, {"exit": 0, "passed": {}}, {"n": 3, "deg": [df, dg]}
    if task == "jacobi":
        inputs = {"suite": "jacobi", "lambda": lam, "n": 3, "d_max": 3}
        passed, sizes = jacobi, {"n": 3, "d_max": 3}
    else:
        inputs = {"suite": "lambda-relation", "lambda": lam, "n": 3,
                  "k_max": 4, "d_max": 3}
        passed, sizes = False, {"n": 3, "k_max": 4, "d_max": 3}
    job = {"command": "verify", "inputs": inputs}
    expect = {"exit": 0 if passed else 1, "passed": {"result.report.pass": passed}}
    return job, expect, sizes


def _small_jobs(rng, kind):
    if kind.startswith("star"):
        n = int(kind[4:])
        degree = {2: 4, 4: 3, 6: 2}[n]
        job = {
            "command": "star",
            "context": {
                "n": n,
                "lambda": _matrix_text(_antisym(rng, n, _small)),
                "coupling": "mu/2",
            },
            "inputs": {
                "f": _poly_text(rng, n, degree, 3, _small, (0, 0, 1)),
                "g": _poly_text(rng, n, degree, 3, _small, (0, 0, 1)),
                "mu": str(_nonzero(rng)),
            },
        }
        return job, {"exit": 0, "passed": {}}, {"n": n, "deg": [degree, degree]}
    if kind == "ordering":
        n = rng.choice((2, 4))
        job = {
            "command": "ordering",
            "inputs": {
                "K": _matrix_text(_symmetric(rng, n, _small)),
                "f": _poly_text(rng, n, 3, 3, _small),
                "g": _poly_text(rng, n, 3, 3, _small),
            },
        }
        return job, {"exit": 0, "passed": {}}, {"n": n, "deg": [3, 3]}
    if kind == "grade":
        n = rng.choice((3, 4))
        job = {
            "command": "grade",
            "context": {"n": n, "lambda": [["0"] * n for _ in range(n)],
                        "coupling": "mu/2"},
            "inputs": {"f": _poly_text(rng, n, 5, 6, _small, (-1, 0, 1, 2))},
        }
        return job, {"exit": 0, "passed": {}}, {"n": n, "deg": [5]}
    # nonzero coefficients: a zero one makes the job several times cheaper,
    # and riccati jobs carry about half of this workload's time
    a, b, c = (_nonzero(rng) for _ in range(3))
    job = {
        "command": "riccati",
        "truncation": 8,
        "inputs": {"a": str(a), "b": str(b), "c": str(c)},
    }
    expect = {"exit": 0, "passed": {"result.oracle_check.pass": True}}
    return job, expect, {"n": 2, "N": 8}


_MAKERS = {
    "starexp": _starexp,
    "cayley": _cayley,
    "poly-lambda": _poly_lambda,
    "small-jobs": _small_jobs,
}
