"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure).  Tolerances are exact equality; the stated runtime bounds are
asserted with the suite's own clock.
"""

import random
import time
from itertools import combinations_with_replacement
from math import comb

from starquant.grading import check_jacobi, check_lambda_relation, decompose
from starquant.matrices import closed_form_vs_oracle
from starquant.poly import HALF_MU, MultiPoly
from starquant.scalars import PARAM_INDEX
from starquant.star import StarContext, star_terms
from starquant.verify import (
    _cyclic_bad_context,
    _so3_context,
    rand_antisym,
    rand_invertible_antisym,
    rand_poly,
    rand_symmetric,
    run_suite,
    suite_intertwiner,
)


def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {label} ({elapsed:.2f}s)")


def _all_pass(results) -> bool:
    return all(r["pass"] for r in results)


def test_criterion_1_associativity():
    t0 = time.time()
    results = run_suite("associativity", seed=42, cases=100)
    elapsed = time.time() - t0
    ok = _all_pass(results) and len(results) == 100
    _report(1, "associativity on 100 random triples, n in {2,4,6}", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_2_closed_form_vs_oracle():
    t0 = time.time()
    rng = random.Random(42)
    ok = True
    for i in range(10):
        n = 2 if i % 2 == 0 else 4
        lam = rand_invertible_antisym(rng, n)
        a_mat = rand_symmetric(rng, n)
        rep = closed_form_vs_oracle(lam, a_mat, 8)
        ok = ok and rep.passed
    elapsed = time.time() - t0
    _report(2, "closed-form star exponential vs ODE oracle through t^8", ok, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_3_riccati_reduction():
    t0 = time.time()
    results = run_suite("riccati")
    elapsed = time.time() - t0
    grid = [r for r in results if r["name"].startswith("riccati a=")]
    degen = [r for r in results if "D=0" in r["name"]]
    ok = _all_pass(results) and len(grid) == 64 and degen
    _report(3, "riccati reduction vs Weyl oracle on {0,+-1,2}^3", ok, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_4_intertwiner_identity():
    t0 = time.time()
    results = suite_intertwiner(seed=42, cases=50, ordering_pairs=0)
    conjugation = [r for r in results if r["name"].startswith("intertwiner[")]
    ok = _all_pass(results) and len(conjugation) == 50
    elapsed = time.time() - t0
    _report(4, "intertwiner identity on 50 random (f, g, K)", ok, elapsed)
    assert ok


def test_criterion_5_ordering_formulas():
    t0 = time.time()
    results = suite_intertwiner(seed=43, cases=0, ordering_pairs=50)
    lines = [r for r in results if r["name"].startswith("ordering[")]
    comms = [r for r in results if "commutators" in r["name"]]
    ok = _all_pass(results) and len(lines) == 150 and len(comms) == 2
    elapsed = time.time() - t0
    _report(
        5,
        "ordering product lines vs independent expansions + commutators",
        ok,
        elapsed,
    )
    assert ok


def test_criterion_6_cayley_calculus():
    t0 = time.time()
    results = run_suite("cayley", seed=42, cases=20)
    ok = _all_pass(results) and len(results) == 20
    elapsed = time.time() - t0
    _report(6, "cayley round-trip, sp criterion, flow equivalence (N=8)", ok, elapsed)
    assert ok


def test_criterion_7_flow_residuals():
    from starquant.matrices import (
        g_flow_residual,
        q_flow_residual,
        solve_g,
        solve_q,
    )
    from starquant.matrices import SqMatrix
    from starquant.verify import rand_square

    t0 = time.time()
    rng = random.Random(4242)
    ok = True
    for i in range(10):
        n = 2 if i % 2 == 0 else 4
        a = rand_square(rng, n)
        one = SqMatrix.identity(n)
        while True:
            b = rand_square(rng, n)
            if (one + b).det():
                break
        q = solve_q(a, b, 8)
        g = solve_g(a, b, 8)
        ok = ok and q_flow_residual(a, q).is_zero()
        ok = ok and g_flow_residual(a, q, g).is_zero()
    elapsed = time.time() - t0
    _report(7, "solve_q / solve_g residual series identically zero", ok, elapsed)
    assert ok


def test_criterion_8_grading():
    t0 = time.time()
    ok = True
    # star of homogeneous (p, q) splits into degrees p+q-2k with mu weight k
    rng = random.Random(77)
    mu_slot = PARAM_INDEX["mu"]
    for _ in range(25):
        n = rng.choice((2, 3))
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        f = rand_poly(rng, n, 4, 1)
        g = rand_poly(rng, n, 4, 1)
        if f.is_zero() or g.is_zero():
            continue
        p, q = f.degree(), g.degree()
        for k, term in enumerate(star_terms(ctx, f, g)):
            if term.is_zero():
                continue
            ok = ok and {sum(e[:n]) for e in term.terms} == {p + q - 2 * k}
            ok = ok and all(e[n + mu_slot] == k for e in term.terms)
        ok = ok and decompose(star_terms(ctx, f, g)[0]).reassemble() == f * g
    # h0 dimensions against brute-force monomial counts
    from starquant.grading import h0_dim

    for n in range(1, 5):
        for m in range(0, 7):
            count = sum(1 for _ in combinations_with_replacement(range(n + 1), m))
            ok = ok and h0_dim(n, m) == count == comb(n + m, n)
        ok = ok and h0_dim(n, -1) == 0
    # specialization homomorphism on 50 random pairs
    results = run_suite("grading", seed=42, cases=50)
    ok = ok and _all_pass(results)
    elapsed = time.time() - t0
    _report(8, "graded decomposition, h0 dims, mu specialization", ok, elapsed)
    assert ok


def test_criterion_9_validators():
    t0 = time.time()
    ok = True
    rng = random.Random(99)
    # constant structure matrices always satisfy the iterated=contracted law
    for n in (2, 3):
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        ok = ok and check_lambda_relation(ctx, 4, 4).passed
        ok = ok and check_jacobi(ctx, 3).passed
    # a generic linear-entry matrix fails with a witness at order 2
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    lin = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    rep = check_lambda_relation(lin, 4, 4)
    ok = ok and (not rep.passed) and rep.first_divergence_order == 2
    ok = ok and rep.witness is not None
    # non-constant candidates are reported truthfully either way
    ok = ok and check_jacobi(_so3_context(), 3).passed
    bad = check_jacobi(_cyclic_bad_context(), 3)
    ok = ok and not bad.passed and bad.witness is not None
    elapsed = time.time() - t0
    _report(9, "validators: constant pass, linear witness, truthful jacobi", ok, elapsed)
    assert ok
