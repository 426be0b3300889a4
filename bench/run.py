"""Per-layer timings of starquant, written to a BENCH_*.json file.

Usage:
    python3 bench/run.py --out BENCH_<n>.json --before OTHER/src
    python3 bench/run.py --out BENCH_<n>.json

Each case times one layer on fixed seeded inputs, through public functions
only, so that the source tree of an older commit (``--before``) is timed
by the same cases as this one:

* ``star_n2``, ``star_n4``, ``star_n6``: star products of random
  polynomials under a random constant structure matrix (the contraction);
* ``intertwine_n4``: ``intertwine`` of a degree-6 polynomial in 4
  variables under a symmetric K with a complex entry, at the default
  coupling i*hbar/4;
* ``oracle_n4_N8``, ``oracle_n2_N12``: ``ode_star_exponential`` of a
  quadratic Hamiltonian, the term-by-term oracle of the closed forms;
* ``exp_n4_N8``: ``TruncSeries.exp`` of a series with quadratic
  coefficients;
* ``series_mul_n4_N8``: the product of two random series in 4 variables;
* ``inv_sqrt_N12``: ``TruncSeries.inv_sqrt`` of a random scalar series with
  complex coefficients and mu^-1;
* ``series_inverse_n2_N8``: ``TruncSeries.inverse`` of a random series in 2
  variables with a constant t^0 coefficient;
* ``expand_n4_N8``: ``expand_closed_form``, the closed-form star
  exponential expanded in t (amplitude, phase, ``exp`` and the product);
* ``closed_form_n4_N8``: ``closed_star_exponential`` alone, the amplitude
  and phase series, for a random 4x4 lambda with a real and with a complex
  symmetric A;
* ``jacobi_so3_d3``, ``jacobi_cyclic_n4_d3``: ``check_jacobi`` at
  ``d_max`` 3 on the bracket {z_i, z_(i+1)} = z_(i+2), indices mod n: the
  rotation algebra so(3) at n = 3, which passes, and a non-Poisson bracket
  at n = 4, which fails;
* ``lambda_relation_so3_d3``, ``lambda_relation_cyclic_n4_d3``:
  ``check_lambda_relation`` at ``k_max`` 4 and ``d_max`` 3 on the same two
  brackets; both entries are linear, so both fail at order 2;
* ``matmul_n4``: all 256 products of 16 random 4x4 ``SqMatrix``;
* ``matmul_complex_n4``: the same with complex entries;
* ``matseries_inverse_n4_N8``, ``matseries_det_n4_N8``: ``MatSeries.inverse``
  and ``MatSeries.det`` of a random 4x4 matrix series with an invertible
  t^0 coefficient;
* ``matseries_inverse_unit_n4_N8``: ``MatSeries.inverse`` of a random 4x4
  matrix series whose t^0 coefficient is the identity;
* ``matseries_mul_n4_N8``: the product of two random 4x4 matrix series;
* ``cayley_series_n4_N8``: ``cayley`` of a random 4x4 matrix series X with
  an invertible 1 + X_0;
* ``tanh_n4_N8``: ``tanh_series`` of a random 4x4 matrix;
* ``cayley_flows_n4_N8``: ``solve_q`` and ``solve_g`` for random 4x4 a
  and b with an invertible 1 + b, and the three flow residuals of their
  results, which must vanish;
* ``context_n6``: a ``StarContext`` built from the parsed rows of a
  6 x 6 constant lambda, then ``star`` of two constants under it, so that
  its time is mostly the antisymmetry check and the kernel build; its term
  count is the product's;
* ``parse_texts``: ``parse_poly`` on the texts of 64 small jobs in the
  shape of the benchmark's ``small-jobs`` inputs: per job, the n x n
  lambda entries (rationals such as "-3/2"), the coupling "mu/2" and two
  sums of three terms such as "(2/3)*i*mu*z0*z1^2", with n in 2, 3, 4, 6;
  its term count is the number of terms parsed;
* ``cli_star_poly_n3``, ``cli_star_small``, ``cli_star_n6``, ``cli_grade``,
  ``cli_riccati_N8``, ``cli_star_exp_n4_N8``, ``cli_ordering``,
  ``cli_verify_lambda_n3``: a
  fixed job file run end to end through ``cli.main(["--job", FILE])``
  with stdout captured (argparse, the schema checks, the handler and the
  JSON output): a ``star`` job under the so(3) structure matrix with f and
  g of degrees 5 and 6; a millisecond ``star`` job in two variables with
  mixed parameters and ``mu`` specialized; a millisecond ``star`` job in
  the shape of the benchmark's ``star6`` jobs, under the lambda of
  ``context_n6``, whose entry texts repeat; a ``grade`` job in three
  variables with mu powers of both signs; a ``riccati`` job at
  truncation 8; a ``star-exp`` job on a 4x4 structure matrix at
  truncation 8 (closed form, expansion and ODE oracle); an ``ordering``
  job in four variables (the intertwiner of f and the K-ordered product of
  f and g, both of degree 4, in the default Weyl context); and a
  ``lambda-relation`` job under the so(3) matrix at ``k_max`` 4 and
  ``d_max`` 3, which exits 1.  Their term count is the number of terms in
  the printed product (with the specialized one), in the printed graded
  components, in the printed g and h series, in the printed amplitude or
  in the two printed ordering results, and the number of monomials
  swept.

Each side runs in its own worker subprocess, which imports starquant from
its source tree (``--before``, and this checkout's ``src`` as "after") and
times one repeat of a case per request.  With ``--before`` a third worker,
"again", times this checkout's ``src`` too, as an A/A control.  The
workers take turns in the orders of ``ROUNDS``, one order per round, in
turn: every order of the three sides once, so that each side runs first,
second and last equally often, chained so that no side runs two repeats
back to back, also from the last order to the first.  A drift of
the host's speed, or the cost of a position, then falls on every side
alike.  A case repeats until each side has run it ``REPEAT`` times and its
repeats total at least ``MIN_TOTAL_S``, so that a millisecond case is
timed as long as a slow one, and on to the end of the orders of
``ROUNDS``; a side records the median and minimum of its ``time.perf_counter``
wall times, the repeat count and the number of terms of its result.  A
check's term count is the number of monomials it sweeps, and a matrix
case's the number of nonzero matrices or series coefficients it returns.
The reference loop of ``perfbench/hostspeed.py`` runs before the first
round, after each ``MIN_TOTAL_S / REPEAT`` seconds of unsampled repeats
and after the last one; ``scaled_median_s`` is the median scaled by the
factor of those samples to the loop's reference host speed.  The file
holds each side under ``runs["before"]`` and ``runs["after"]`` next to
the backend name, the Python version and the machine, and ``speedup``,
the ratio of their medians per case.  Each round also gives one
before/after ratio of two repeats run back to back, which a drift of the
host's speed moves far less than the medians; ``round_ratio`` holds the
lower quartile, the median and the upper quartile of those ratios per
case, and the number of rounds.  ``aa_round_ratio`` holds the same of the
again/after ratios, the spread of a ratio between two copies of one tree
(Kalibera & Jones, "Rigorous benchmarking in reasonable time", ISMM 2013).
With ``--before`` the whole measurement runs twice, with new workers for
every side each time, since a per-process effect (hash seed, memory
layout) can move one worker's times as a whole: ``rerun`` holds the
second run's ``round_ratio`` and ``aa_round_ratio``.  One run calls a
case "faster" (or "slower") only when its round-ratio quartiles lie above
(below) both 1 and the A/A quartiles; ``verdict`` gives a case that word
only when both runs give it, and "unresolved" otherwise.  Without
``--before`` only this tree is timed, once.  ``--tiny`` shrinks every
case to a smoke test and runs it once.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from operator import truediv
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the least number of repeats, and so of rounds, of a case: the round
# ratios of a 40-200 ms case spread about 10 % (an interquartile range of
# 0.87-1.02 over 12 rounds), so its median ratio needs some 40 rounds to
# resolve 5 %
REPEAT = 40
# the least total time of a case's repeats, in seconds
MIN_TOTAL_S = 0.5
# the turn orders of the sides, one per round, taken in turn; without
# "before" and "again" each is ("after",)
ROUNDS = (
    ("before", "after", "again"),
    ("after", "before", "again"),
    ("before", "again", "after"),
    ("again", "after", "before"),
    ("after", "again", "before"),
    ("again", "before", "after"),
)


def _hostspeed():
    """The benchmark's reference loop, loaded without importing the rest of
    ``perfbench``."""
    spec = importlib.util.spec_from_file_location(
        "hostspeed", ROOT / "perfbench" / "hostspeed.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import(src: Path):
    """Import starquant from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import starquant

    if Path(starquant.__file__).resolve().parent != (src / "starquant").resolve():
        raise SystemExit(f"bench: imported starquant from {starquant.__file__}")
    return starquant


def term_count(p) -> int:
    """The number of terms of a MultiPoly: its keys where the tree stores
    integer numerators (``MultiPoly.keys``), else its ``terms`` map, so that
    no side builds coefficients that the case does not time."""
    return len(p.keys()) if hasattr(p, "keys") else len(p.terms)


def quadratic(multipoly, rows):
    """The polynomial Z M tZ of a matrix of GaussianRational rows, built by
    public MultiPoly operations that every tree has."""
    n = len(rows)
    z = [multipoly.variable(n, j) for j in range(n)]
    total = multipoly.zero(n)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            total = total + (z[i] * z[j]).scale_gauss(v)
    return total


def term_sum_text(rng, n: int, degree: int, terms: int) -> str:
    """A sum of ``terms`` terms, each a parenthesised rational, i one time
    in five, a power of mu from -1 to 2 and a monomial of degree at most
    ``degree`` (the first exactly), as the benchmark's job generator
    writes polynomials."""
    pieces = []
    for t in range(terms):
        exps = [0] * n
        for _ in range(degree if t == 0 else rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        factors = [f"({Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) or 1})"]
        if rng.random() < 0.2:
            factors.append("i")
        k = rng.choice((-1, 0, 0, 1, 2))
        if k:
            factors.append("mu" if k == 1 else f"mu^{k}")
        factors += [f"z{j}" if e == 1 else f"z{j}^{e}" for j, e in enumerate(exps) if e]
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def cases(tiny: bool) -> list:
    """(name, sizes, thunk) for every case; a thunk returns its term count."""
    # OrderingK from the top level, where every tree exports it
    from starquant import OrderingK, cli
    from starquant.grading import check_jacobi, check_lambda_relation
    from starquant.matrices import (
        MatSeries,
        SqMatrix,
        cayley,
        cayley_flow_residual,
        closed_star_exponential,
        expand_closed_form,
        g_flow_residual,
        q_flow_residual,
        solve_g,
        solve_q,
        tanh_series,
    )
    from starquant.parsing import parse_poly
    from starquant.poly import HALF_MU, MU_INV, MultiPoly
    from starquant.scalars import GaussianRational, rat
    from starquant.series import TruncSeries
    from starquant.star import StarContext, intertwine, ode_star_exponential, star
    from starquant.verify import (
        rand_antisym,
        rand_gauss,
        rand_invertible_antisym,
        rand_poly,
        rand_square,
        rand_symmetric,
    )

    out = []
    # star: (n, degree of f and g, products)
    for n, deg in ((2, 12), (4, 7), (6, 6)):
        if tiny:
            deg = 2
        rng = random.Random(1000 + n)
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        pairs = [
            (rand_poly(rng, n, deg, 8), rand_poly(rng, n, deg, 8)) for _ in range(8)
        ]

        def run_star(ctx=ctx, pairs=pairs):
            return sum(term_count(star(ctx, f, g)) for f, g in pairs)

        out.append((f"star_n{n}", {"n": n, "degree": deg, "products": 8}, run_star))
    n = 4
    rng = random.Random(5000)
    kmat = OrderingK(rand_symmetric(rng, n, allow_imag=True).rows)
    f = sum((rand_poly(rng, n, 2 if tiny else 6, 24) for _ in range(3)), MultiPoly.zero(n))
    out.append(
        (f"intertwine_n{n}", {"n": n, "degree": f.degree()},
         lambda kmat=kmat, f=f: term_count(intertwine(kmat, f)))
    )
    for n, order in ((4, 8), (2, 12)):
        if tiny:
            order = 2
        rng = random.Random(2000 + n)
        ctx = StarContext.constant(rand_invertible_antisym(rng, n).rows, HALF_MU)
        h = quadratic(MultiPoly, rand_symmetric(rng, n).rows).scale(MU_INV)

        def run_oracle(ctx=ctx, h=h, order=order):
            return term_count(ode_star_exponential(ctx, h, order).coeffs[-1])

        out.append((f"oracle_n{n}_N{order}", {"n": n, "N": order}, run_oracle))
    n, order = 4, 2 if tiny else 8
    rng = random.Random(3000)
    coeffs = [MultiPoly.zero(n)] + [rand_poly(rng, n, 3, 8) for _ in range(order)]
    series = TruncSeries(n, order, coeffs)
    out.append(
        (f"exp_n{n}_N{order}", {"n": n, "N": order},
         lambda: term_count(series.exp().coeffs[-1]))
    )
    rng = random.Random(3001)
    pair = [
        TruncSeries(n, order, [rand_poly(rng, n, 3, 8) for _ in range(order + 1)])
        for _ in range(2)
    ]
    out.append(
        (f"series_mul_n{n}_N{order}", {"n": n, "N": order},
         lambda: term_count((pair[0] * pair[1]).coeffs[-1]))
    )
    order = 2 if tiny else 12
    rng = random.Random(3002)
    scalars = [MultiPoly.one(0)] + [
        MultiPoly.from_gaussian(
            GaussianRational(rat(rng.randint(-5, 5), rng.randint(1, 9)),
                             rat(rng.randint(-5, 5), rng.randint(1, 9)))
        ).scale(MultiPoly.param("mu", rng.randint(-1, 1)))
        for _ in range(order)
    ]
    scalar_series = TruncSeries(0, order, scalars)
    out.append(
        (f"inv_sqrt_N{order}", {"n": 0, "N": order},
         lambda: term_count(scalar_series.inv_sqrt().coeffs[-1]))
    )
    n, order = 2, 2 if tiny else 8
    rng = random.Random(3003)
    unit = MultiPoly.from_gaussian(GaussianRational(rat(2, 3), rat(1, 5)), n)
    inv_series = TruncSeries(
        n, order, [unit] + [rand_poly(rng, n, 3, 6) for _ in range(order)]
    )
    out.append(
        (f"series_inverse_n{n}_N{order}", {"n": n, "N": order},
         lambda: term_count(inv_series.inverse().coeffs[-1]))
    )
    n, order = 4, 2 if tiny else 8
    rng = random.Random(3004)
    lam, a_mat = rand_invertible_antisym(rng, n), rand_symmetric(rng, n)
    out.append(
        (f"expand_n{n}_N{order}", {"n": n, "N": order},
         lambda lam=lam, a_mat=a_mat, order=order:
         term_count(expand_closed_form(lam, a_mat, order).coeffs[-1]))
    )
    rng = random.Random(3005)
    lam = rand_invertible_antisym(rng, n)
    a_mats = [rand_symmetric(rng, n, allow_imag=imag) for imag in (False, True)]

    def run_closed_form(lam=lam, order=order):
        count = 0
        for a_mat in a_mats:
            amplitude, phase = closed_star_exponential(lam, a_mat, order)
            count += sum(not c.is_zero() for c in amplitude.coeffs + phase.coeffs)
        return count

    out.append((f"closed_form_n{n}_N{order}", {"n": n, "N": order}, run_closed_form))
    d_max = 1 if tiny else 3
    for name, n, passes in (("so3", 3, True), ("cyclic_n4", 4, False)):
        # {z_i, z_(i+1)} = z_(i+2), indices mod n: so(3) at n = 3
        z = [MultiPoly.variable(n, j) for j in range(n)]
        lam = [[MultiPoly.zero(n)] * n for _ in range(n)]
        for i in range(n):
            j = (i + 1) % n
            lam[i][j], lam[j][i] = z[(i + 2) % n], -z[(i + 2) % n]
        ctx = StarContext(n, lam, HALF_MU)

        def run_jacobi(ctx=ctx, n=n, passes=passes, name=name):
            if check_jacobi(ctx, d_max).passed != passes:
                raise SystemExit(f"bench: jacobi_{name} gave the wrong verdict")
            return comb(n + d_max, n)

        out.append((f"jacobi_{name}_d{d_max}", {"n": n, "d_max": d_max}, run_jacobi))

        def run_lambda(ctx=ctx, n=n, name=name):
            # the linear entries fail at order 2 once a monomial has degree 2
            if check_lambda_relation(ctx, 4, d_max).passed != (d_max < 2):
                raise SystemExit(f"bench: lambda_relation_{name} gave the wrong verdict")
            return comb(n + d_max, n)

        out.append(
            (f"lambda_relation_{name}_d{d_max}", {"n": n, "k_max": 4, "d_max": d_max},
             run_lambda)
        )
    n, order = 4, 2 if tiny else 8
    rng = random.Random(4000)
    mats = [rand_square(rng, n) for _ in range(4 if tiny else 16)]
    out.append(
        (f"matmul_n{n}", {"n": n, "products": len(mats) ** 2},
         lambda: sum(not (x * y).is_zero() for x in mats for y in mats))
    )
    m0 = rand_square(rng, n)
    while not m0.det():
        m0 = rand_square(rng, n)
    mseries = MatSeries(n, order, [m0] + [rand_square(rng, n) for _ in range(order)])
    out.append(
        (f"matseries_inverse_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not m.is_zero() for m in mseries.inverse().coeffs))
    )
    out.append(
        (f"matseries_det_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not c.is_zero() for c in mseries.det().coeffs))
    )
    rng = random.Random(4001)
    mpair = [MatSeries(n, order, [rand_square(rng, n) for _ in range(order + 1)]) for _ in range(2)]
    out.append(
        (f"matseries_mul_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not m.is_zero() for m in (mpair[0] * mpair[1]).coeffs))
    )
    x0 = rand_square(rng, n)
    while not (x0.one_like() + x0).det():
        x0 = rand_square(rng, n)
    xseries = MatSeries(n, order, [x0] + [rand_square(rng, n) for _ in range(order)])
    out.append(
        (f"cayley_series_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not m.is_zero() for m in cayley(xseries).coeffs))
    )
    a = rand_square(rng, n)
    out.append(
        (f"tanh_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not m.is_zero() for m in tanh_series(a, order).coeffs))
    )
    rng = random.Random(4002)
    a, b = rand_square(rng, n), rand_square(rng, n)
    while not (b.one_like() + b).det():
        b = rand_square(rng, n)

    def run_flows():
        q, g = solve_q(a, b, order), solve_g(a, b, order)
        residuals = (q_flow_residual(a, q), cayley_flow_residual(a, q), g_flow_residual(a, q, g))
        if not all(r.is_zero() for r in residuals):
            raise SystemExit("bench: cayley_flows has a nonzero residual")
        return sum(not c.is_zero() for c in q.coeffs + g.coeffs)

    out.append((f"cayley_flows_n{n}_N{order}", {"n": n, "N": order}, run_flows))
    rng = random.Random(4003)
    useries = MatSeries(
        n, order, [SqMatrix.identity(n)] + [rand_square(rng, n) for _ in range(order)]
    )
    out.append(
        (f"matseries_inverse_unit_n{n}_N{order}", {"n": n, "N": order},
         lambda: sum(not m.is_zero() for m in useries.inverse().coeffs))
    )
    rng = random.Random(4004)
    cmats = [
        SqMatrix([[rand_gauss(rng) for _ in range(n)] for _ in range(n)])
        for _ in range(4 if tiny else 16)
    ]
    out.append(
        (f"matmul_complex_n{n}", {"n": n, "products": len(cmats) ** 2},
         lambda: sum(not (x * y).is_zero() for x in cmats for y in cmats))
    )
    rng = random.Random(6000)
    texts = []
    for _ in range(4 if tiny else 64):
        n = rng.choice((2, 3, 4, 6))
        texts += [
            (str(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))), n) for _ in range(n * n)
        ]
        texts.append(("mu/2", 0))
        texts += [(term_sum_text(rng, n, 3, 3), n) for _ in range(2)]
    out.append(
        ("parse_texts", {"texts": len(texts)},
         lambda: sum(term_count(parse_poly(text, n, 16)) for text, n in texts))
    )
    # a context built from parsed 6 x 6 rows and used once: the antisymmetry
    # check and the kernel build, with a product of two constants after them
    n = 6
    rng = random.Random(7000)
    lam_texts = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            lam_texts[i][j], lam_texts[j][i] = str(v), str(-v)
    lam_rows = [[parse_poly(text, n, 16) for text in row] for row in lam_texts]
    constants = [MultiPoly.from_gaussian(GaussianRational(rat(2, 3), rat(-1)), n),
                 MultiPoly.from_gaussian(GaussianRational(rat(5), rat(1, 7)), n)]

    def run_context(n=n, rows=lam_rows):
        return term_count(star(StarContext(n, rows, HALF_MU), *constants))

    out.append((f"context_n{n}", {"n": n}, run_context))
    # the job files live as long as the thunks that read them
    jobs = tempfile.TemporaryDirectory(prefix="starquant-bench-")

    def cli_case(name, job, count, exit_code=0):
        path = Path(jobs.name) / f"{name}.json"
        path.write_text(json.dumps(job))

        def run_cli(jobs=jobs):
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli.main(["--job", str(path)])
            if code != exit_code:
                raise SystemExit(f"bench: {name} exited with {code}")
            return count(json.loads(stdout.getvalue())["result"])

        return run_cli

    so3 = [["0", "z2", "-z1"], ["-z2", "0", "z0"], ["z1", "-z0", "0"]]
    if tiny:
        f, g, degrees = "z0*z1 - mu*z2^2", "z1*z2 + 2/3*z0", [2, 2]
    else:
        f = "z0^2*z1*z2^2 - 2/3*mu*z0^3*z1^2 + z1^5 - 1/2*z0*z2^4 + 3*z1^2*z2^3"
        g = "z0^3*z1*z2^2 + 5/7*z1^6 - mu^-1*z0^2*z2^4 + 2*z0*z1^4*z2 - z2^6"
        degrees = [5, 6]
    job = {
        "command": "star",
        "context": {"n": 3, "lambda": so3, "coupling": "mu/2"},
        "inputs": {"f": f, "g": g},
    }
    out.append(
        ("cli_star_poly_n3", {"n": 3, "degrees": degrees},
         cli_case("star", job, lambda result: len(result["star"]["terms"])))
    )
    job = {
        "command": "star",
        "context": {"n": 2, "lambda": [["0", "1"], ["-1", "0"]], "coupling": "mu/2"},
        "inputs": {
            "f": "z0*(mu + hbar - tau) + mu^-1*z1^2" if tiny
            else "z0^2*(mu + hbar - tau) + mu^-1*z1^3 - 2/3*z0*z1",
            "g": "z0*z1^2 - i*mu*z1 + tau" if tiny
            else "z0^2*z1^2 - i*mu*z1^3 + (1/2 + i)*hbar*z0 + tau",
            "mu": "2/3+i",
        },
    }
    out.append(
        ("cli_star_small", {"n": 2},
         cli_case("star_small", job, lambda result: sum(
             len(result[name]["terms"]) for name in ("star", "specialized"))))
    )
    # the shape of the benchmark's star6 jobs: the 6 x 6 lambda of
    # context_n6, whose zeros and rationals repeat, two sums of three terms
    # of degree 2, and mu specialized
    job = {
        "command": "star",
        "context": {"n": 6, "lambda": lam_texts, "coupling": "mu/2"},
        "inputs": {
            "f": term_sum_text(rng, 6, 2, 3), "g": term_sum_text(rng, 6, 2, 3), "mu": "3/2",
        },
    }
    out.append(
        ("cli_star_n6", {"n": 6},
         cli_case("star_n6", job, lambda result: sum(
             len(result[name]["terms"]) for name in ("star", "specialized"))))
    )
    f = "mu^-1*z0^2 + z1 + hbar*z1 + mu*z0*z2 - tau*mu^2*z2^3"
    if not tiny:
        f = f"({f})^3 + 3/7*mu^-2*z1*(z0 + 2*z2 - i*hbar)^4"
    job = {
        "command": "grade",
        "context": {"n": 3, "lambda": [["0"] * 3 for _ in range(3)], "coupling": "mu/2"},
        "inputs": {"f": f},
    }
    out.append(
        ("cli_grade", {"n": 3},
         cli_case("grade", job, lambda result: sum(
             len(c["poly"]) for c in result["graded"]["components"])))
    )
    order = 2 if tiny else 8
    job = {
        "command": "riccati",
        "inputs": {"a": "2/3", "b": "-5/7", "c": "1/2+i"},
        "truncation": order,
    }
    out.append(
        (f"cli_riccati_N{order}", {"N": order},
         cli_case("riccati", job, lambda result: sum(
             len(c["terms"]) for c in result["g"] + result["h"])))
    )
    job = {
        "command": "star-exp",
        "inputs": {
            "lambda": [["0", "1", "-2", "3/2"], ["-1", "0", "1/2", "-3"],
                       ["2", "-1/2", "0", "1"], ["-3/2", "3", "-1", "0"]],
            "A": [["1", "-1/2", "2", "1"], ["-1/2", "3", "1", "-2"],
                  ["2", "1", "-1", "3/2"], ["1", "-2", "3/2", "2"]],
        },
        "truncation": order,
    }
    out.append(
        (f"cli_star_exp_n4_N{order}", {"n": 4, "N": order},
         cli_case("star_exp", job, lambda result: sum(
             len(c["terms"]) for c in result["amplitude"])))
    )
    f = "z0*z2 - 2/3*z1^2" if tiny else "z0^3*z2 - 2/3*z1^2*z3^2 + (1/2 - i)*z0*z1*z2*z3 + 5*z2^4"
    g = "z1*z3 + z0" if tiny else "z1^3*z3 + 3/4*z0^2*z2^2 - i*z0*z3^3 + 2*z1*z2"
    job = {
        "command": "ordering",
        "inputs": {
            "K": [["1", "1/2", "0", "1"], ["1/2", "0", "1", "-1/3"],
                  ["0", "1", "2", "0"], ["1", "-1/3", "0", "-1"]],
            "f": f,
            "g": g,
        },
    }
    out.append(
        ("cli_ordering", {"n": 4},
         cli_case("ordering", job, lambda result: sum(
             len(result[name]["terms"]) for name in ("intertwined_f", "k_ordered_product"))))
    )
    inputs = {"suite": "lambda-relation", "lambda": so3, "n": 3, "k_max": 4, "d_max": d_max}
    out.append(
        ("cli_verify_lambda_n3", {"n": 3, "k_max": 4, "d_max": d_max},
         cli_case("verify_lambda", {"command": "verify", "inputs": inputs},
                  lambda result: comb(3 + d_max, 3), int(d_max >= 2)))
    )
    return out


# the program of a worker: load this file, then serve one side's cases
_WORKER = (
    "import importlib.util, sys\n"
    "spec = importlib.util.spec_from_file_location('bench_run', sys.argv[1])\n"
    "module = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(module)\n"
    "module.serve(sys.argv[2], sys.argv[3] == 'tiny')\n"
)


def serve(src: str, tiny: bool) -> None:
    """Worker loop: import starquant from ``src``, report the run's
    environment, then answer each case name read from stdin with the
    wall time and term count of one repeat, one JSON line each."""
    _import(Path(src).resolve())
    from starquant.scalars import rat

    thunks = {name: (sizes, thunk) for name, sizes, thunk in cases(tiny)}
    backend = type(rat(1))
    print(json.dumps({
        "backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "sizes": {name: sizes for name, (sizes, _) in thunks.items()},
    }), flush=True)
    for line in sys.stdin:
        thunk = thunks[line.strip()][1]
        start = time.perf_counter()
        terms = thunk()
        seconds = time.perf_counter() - start
        print(json.dumps({"s": seconds, "terms": terms}), flush=True)


class _Worker:
    """One side's worker subprocess."""

    def __init__(self, src: Path, tiny: bool):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, __file__, str(src), "tiny" if tiny else "full"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.info = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"bench: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values: list) -> dict:
    """The lower quartile, median and upper quartile of a nonempty list
    (inclusive method: each lies within the values), and its length."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    return {"q1": q1, "median": median, "q3": q3, "rounds": len(values)}


def measure(sides: dict, tiny: bool) -> tuple:
    """Time every case on each side (label -> source tree), the sides
    taking turns; returns the run of each side and, with a "before" side,
    the ratios of each round per case: before/after and, from a second
    worker on the after tree ("again"), the A/A ratio again/after."""
    hostspeed = _hostspeed()
    workers = {label: _Worker(src, tiny) for label, src in sides.items()}
    orders = [[label for label in order if label in workers] for order in ROUNDS]
    try:
        ratios = {}
        runs = {
            label: {**{k: v for k, v in w.info.items() if k != "sizes"}, "cases": {}}
            for label, w in workers.items()
        }
        for name, sizes in workers["after"].info["sizes"].items():
            times = {label: [] for label in workers}
            terms = {}
            samples = [hostspeed.sample()]
            unsampled = 0.0

            def pending():
                return any(
                    not ts or not tiny and (len(ts) < REPEAT or sum(ts) < MIN_TOTAL_S)
                    for ts in times.values()
                )

            rounds = 0
            while pending() or not tiny and rounds % len(orders):
                for label in orders[rounds % len(orders)]:
                    result = workers[label].run(name)
                    times[label].append(result["s"])
                    terms[label] = result["terms"]
                    unsampled += result["s"]
                rounds += 1
                if unsampled >= MIN_TOTAL_S / REPEAT:
                    samples.append(hostspeed.sample())
                    unsampled = 0.0
            samples.append(hostspeed.sample())
            if "before" in times:
                ratios[name] = {
                    label: list(map(truediv, times[label], times["after"]))
                    for label in ("before", "again")
                }
            for label, ts in times.items():
                median = statistics.median(ts)
                runs[label]["cases"][name] = {
                    **sizes,
                    "terms": terms[label],
                    "median_s": median,
                    "scaled_median_s": median * hostspeed.factor(samples),
                    "min_s": min(ts),
                    "repeat": len(ts),
                }
    finally:
        for w in workers.values():
            w.close()
    return runs, ratios


def ratio_quartiles(ratios: dict) -> dict:
    """The quartiles of one run's round ratios per case, rounded: the
    before/after ones under "round_ratio", the A/A ones under
    "aa_round_ratio"."""
    return {
        key: {
            name: {k: round(v, 3) for k, v in quartiles(r[label]).items()}
            for name, r in ratios.items()
        }
        for key, label in (("round_ratio", "before"), ("aa_round_ratio", "again"))
    }


def verdict(ratio: dict, aa: dict) -> str:
    """"faster" or "slower" when the before/after quartiles lie wholly above
    (below) both 1 and the A/A quartiles, else "unresolved"."""
    if ratio["q1"] > max(1.0, aa["q3"]):
        return "faster"
    if ratio["q3"] < min(1.0, aa["q1"]):
        return "slower"
    return "unresolved"


def agreed(first: str, second: str) -> str:
    """The verdict of two runs: theirs when they give the same, else
    "unresolved"."""
    return first if first == second else "unresolved"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    ap.add_argument(
        "--before", type=Path,
        help="source tree of the other side of the change, timed in turns with this one",
    )
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides = {"before": args.before.resolve(), **sides, "again": sides["after"]}
    runs, ratios = measure(sides, args.tiny)
    runs.pop("again", None)
    data = {"runs": runs}
    if "before" in runs:
        data["speedup"] = {
            name: round(case["median_s"] / runs["after"]["cases"][name]["median_s"], 3)
            for name, case in runs["before"]["cases"].items()
        }
        data.update(ratio_quartiles(ratios))
        data["rerun"] = ratio_quartiles(measure(sides, args.tiny)[1])
        data["verdict"] = {
            name: agreed(*(
                verdict(r["round_ratio"][name], r["aa_round_ratio"][name])
                for r in (data, data["rerun"])
            ))
            for name in ratios
        }
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps({label: run["cases"] for label, run in runs.items()}, sort_keys=True))
    for name in ratios:
        line = [f"{name}: speedup {data['speedup'][name]}"]
        for r in (data, data["rerun"]):
            q, aa = r["round_ratio"][name], r["aa_round_ratio"][name]
            line.append(f"round ratio {q['median']} [{q['q1']}, {q['q3']}] over "
                        f"{q['rounds']} rounds, A/A {aa['median']} [{aa['q1']}, {aa['q3']}]")
        print(", ".join(line) + f": {data['verdict'][name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
