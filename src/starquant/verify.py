"""Named verification suites.

Each suite runs a battery of exact checks and returns one record per case:
``{"name": ..., "pass": ..., "detail": ...}``.  Randomized suites are
driven by an explicit seed so failures reproduce bit-for-bit.  The CLI
``verify`` command and the acceptance tests are both thin wrappers around
these functions.
"""

from __future__ import annotations

import random
from math import factorial

from .grading import (
    _exps_of_degree,
    check_jacobi,
    check_lambda_relation,
    decompose,
    h0_dim,
    monomials_upto,
    specialize_mu,
    star_graded,
)
from .matrices import (
    OrderingK,
    SqMatrix,
    _riccati_report,
    cayley,
    cayley_flow_residual,
    check_sp_pair,
    g_flow_residual,
    inverse_cayley,
    mat_exp_series,
    q_flow_residual,
    riccati_1d,
    solve_g,
    solve_q,
    tanh_series,
)
from .poly import HALF_MU, MultiPoly
from .scalars import EXP_ZERO, GR_ZERO, GaussianRational, gr, rat
from .series import TruncSeries
from .star import (
    StarContext,
    intertwine,
    standard_j,
    star,
    star_commutator,
    star_k_ordered,
)

I_HBAR_QUARTER_NEG = MultiPoly.param("hbar", 1, GaussianRational(0, rat(-1, 4)))


def _case(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


# --- random generators ------------------------------------------------------


def rand_rat(rng: random.Random, lo: int = -3, hi: int = 3):
    return rat(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def rand_gauss(rng: random.Random, allow_imag: bool = True) -> GaussianRational:
    im = rand_rat(rng) if (allow_imag and rng.random() < 0.3) else rat(0)
    return GaussianRational(rand_rat(rng), im)


def rand_nonzero_gauss(rng: random.Random) -> GaussianRational:
    while True:
        g = rand_gauss(rng)
        if g:
            return g


def rand_poly(
    rng: random.Random, n: int, max_deg: int = 4, max_terms: int = 4
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        key = tuple(exps) + EXP_ZERO
        terms[key] = terms.get(key, GR_ZERO) + rand_gauss(rng)
    return MultiPoly(n, terms)


def _triangle(rng: random.Random, n: int, antisym: bool, allow_imag: bool = False) -> SqMatrix:
    """A symmetric or antisymmetric matrix of one rand_gauss draw per entry
    (i, j) on and above the diagonal, row by row; above it only when
    antisymmetric, where the diagonal is zero."""
    rows = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + antisym, n):
            v = rand_gauss(rng, allow_imag)
            rows[i][j], rows[j][i] = v, -v if antisym else v
    return SqMatrix(tuple(map(tuple, rows)))


def rand_antisym(rng: random.Random, n: int) -> SqMatrix:
    return _triangle(rng, n, True)


def rand_invertible_antisym(rng: random.Random, n: int) -> SqMatrix:
    while True:
        m = rand_antisym(rng, n)
        if m.det():
            return m


def rand_symmetric(rng: random.Random, n: int, allow_imag: bool = False) -> SqMatrix:
    return _triangle(rng, n, False, allow_imag)


def rand_square(rng: random.Random, n: int) -> SqMatrix:
    return SqMatrix(
        tuple(
            tuple(rand_gauss(rng, allow_imag=False) for _ in range(n))
            for _ in range(n)
        )
    )


# --- independent expansion of the three ordering product lines ---------------


def pairing_product(pairs, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Expand f exp(sum of left-right derivative pairings) g directly.

    ``pairs`` is a list of (left variable, right variable, scalar weight).
    The expansion enumerates raw pairing sequences with 1/k! weights, which
    is deliberately independent of the contraction engine in
    :mod:`starquant.star`.
    """
    total = MultiPoly.zero(f.n)
    frontier = [(f, g, MultiPoly.one(0))]
    k = 0
    while frontier:
        scale = rat(1, factorial(k))
        for df, dg, w in frontier:
            total = total + (df * dg).scale(w.scale_rat(scale))
        nxt = []
        for df, dg, w in frontier:
            for lvar, rvar, c in pairs:
                ndf = df.derivative(lvar)
                if ndf.is_zero():
                    continue
                ndg = dg.derivative(rvar)
                if ndg.is_zero():
                    continue
                nxt.append((ndf, ndg, w * c))
        frontier = nxt
        k += 1
    return total


def ordering_line_pairs(line: str, m: int) -> list:
    """Derivative pairings of the Moyal / normal / anti-normal product lines."""
    ih = MultiPoly.param("hbar", 1, GaussianRational(0, 1))
    ih_half = MultiPoly.param("hbar", 1, GaussianRational(0, rat(1, 2)))
    pairs = []
    if line == "moyal":
        for i in range(m):
            pairs.append((m + i, i, ih_half))
            pairs.append((i, m + i, -ih_half))
    elif line == "normal":
        for i in range(m):
            pairs.append((m + i, i, ih))
    elif line == "antinormal":
        for i in range(m):
            pairs.append((i, m + i, -ih))
    else:
        raise ValueError(f"unknown ordering line {line!r}")
    return pairs


# --- suites ------------------------------------------------------------------


def suite_associativity(seed: int = 42, cases: int = 100) -> list:
    rng = random.Random(seed)
    dims = (2, 4, 6)
    results = []
    for idx in range(cases):
        n = dims[idx % len(dims)]
        lam = rand_antisym(rng, n)
        ctx = StarContext.constant(lam.rows, HALF_MU)
        f = rand_poly(rng, n)
        g = rand_poly(rng, n)
        h = rand_poly(rng, n)
        lhs = star(ctx, star(ctx, f, g), h)
        rhs = star(ctx, f, star(ctx, g, h))
        results.append(
            _case(f"associativity[{idx}] n={n}", lhs == rhs)
        )
    return results


def suite_intertwiner(seed: int = 42, cases: int = 50, ordering_pairs: int = 12) -> list:
    rng = random.Random(seed)
    results = []
    for idx in range(cases):
        m = 1 if idx % 3 else 2
        n = 2 * m
        ctx = StarContext.weyl(m)
        f = rand_poly(rng, n, max_deg=3, max_terms=3)
        g = rand_poly(rng, n, max_deg=3, max_terms=3)
        kmat = OrderingK(rand_symmetric(rng, n).rows)
        # conjugating the plain product by the intertwiner gives the
        # K-ordered product
        tf = intertwine(kmat, f, I_HBAR_QUARTER_NEG)
        tg = intertwine(kmat, g, I_HBAR_QUARTER_NEG)
        conjugated = intertwine(kmat, star(ctx, tf, tg))
        direct = star_k_ordered(ctx, kmat, f, g)
        results.append(
            _case(f"intertwiner[{idx}] m={m}", conjugated == direct)
        )
    # the three ordering lines against their independent expansions
    rng2 = random.Random(seed + 1)
    for idx in range(ordering_pairs):
        m = 1 if idx % 2 else 2
        n = 2 * m
        ctx = StarContext.weyl(m)
        f = rand_poly(rng2, n, max_deg=3, max_terms=3)
        g = rand_poly(rng2, n, max_deg=3, max_terms=3)
        for line, kmat in (
            ("moyal", OrderingK.weyl(n)),
            ("normal", OrderingK.normal(m)),
            ("antinormal", OrderingK.antinormal(m)),
        ):
            expected = pairing_product(ordering_line_pairs(line, m), f, g)
            got = star_k_ordered(ctx, kmat, f, g)
            results.append(_case(f"ordering[{idx}] {line} m={m}", got == expected))
    # canonical commutators [u_i, u_j] = i hbar J_ij
    for m in (1, 2):
        n = 2 * m
        ctx = StarContext.weyl(m)
        jmat = standard_j(m)
        ih = MultiPoly.param("hbar", 1, GaussianRational(0, 1))
        ok = True
        for i in range(n):
            for j in range(n):
                comm = star_commutator(
                    ctx, MultiPoly.variable(n, i), MultiPoly.variable(n, j)
                )
                want = MultiPoly.const(n, ih.scale_gauss(jmat[i][j]))
                if comm != want:
                    ok = False
        results.append(_case(f"canonical commutators m={m}", ok))
    return results


def suite_cayley(seed: int = 42, cases: int = 20) -> list:
    rng = random.Random(seed)
    order = 8
    results = []
    for idx in range(cases):
        n = 2 if idx % 2 else 4
        a = rand_square(rng, n)
        one = SqMatrix.identity(n)
        while True:
            b = rand_square(rng, n)
            if (one + b).det():
                break
        q = solve_q(a, b, order)
        g = solve_g(a, b, order)
        checks = [
            ("q(0)=b", q.coeffs[0] == b),
            ("dq/dt=(1+q)a(1-q)", q_flow_residual(a, q).is_zero()),
            ("dC(q)/dt=-2aC(q)", cayley_flow_residual(a, q).is_zero()),
            ("dg/dt=-tr(aq)g/2", g_flow_residual(a, q, g).is_zero()),
            (
                "exp(2ta)=C(-tanh(ta))",
                mat_exp_series(a, gr(2), order) == cayley(-tanh_series(a, order)),
            ),
        ]
        while True:
            x = rand_square(rng, n)
            if (one + x).det():
                break
        checks.append(("roundtrip C(C^-1)", cayley(inverse_cayley(x)) == x))
        lam = rand_invertible_antisym(rng, n)
        # S*lam lies in the lambda-symplectic algebra: lam(S lam) is symmetric
        xs = rand_symmetric(rng, n) * lam
        if (one + xs).det():
            rep = check_sp_pair(lam, xs)
            checks.append(
                (
                    "sp criterion",
                    rep["lambda_x_symmetric"] and rep["cayley_preserves_form"],
                )
            )
        ok = all(flag for _, flag in checks)
        detail = "" if ok else ";".join(name for name, flag in checks if not flag)
        results.append(_case(f"cayley[{idx}] n={n}", ok, detail))
    return results


def suite_riccati() -> list:
    order = 8
    results = []
    values = (gr(0), gr(1), gr(-1), gr(2))
    for a in values:
        for b in values:
            for c in values:
                g, h = riccati_1d(a, b, c, order)
                rep = _riccati_report(a, b, c, g, h)
                name = f"riccati a={a.text()} b={b.text()} c={c.text()}"
                detail = (
                    ""
                    if rep.passed
                    else f"first divergence at t^{rep.first_divergence_order}"
                )
                results.append(_case(name, rep.passed, detail))
                if not c * c - a * b:
                    h_ok = h == TruncSeries.t_term(MultiPoly.one(0), 1, order)
                    g_ok = g == TruncSeries.one(0, order)
                    results.append(
                        _case(f"riccati D=0 degeneration ({name})", h_ok and g_ok)
                    )
    return results


def suite_grading(seed: int = 42, cases: int = 50) -> list:
    rng = random.Random(seed)
    results = []
    # decompose/reassemble and specialization homomorphism
    for idx in range(cases):
        n = rng.choice((2, 3))
        f = rand_poly(rng, n)
        g = rand_poly(rng, n)
        muf = f.scale(MultiPoly.param("mu", rng.randint(-1, 2)))
        ok_round = decompose(muf).reassemble() == muf
        value = rand_nonzero_gauss(rng)
        hom_mul = specialize_mu(muf * g, value) == specialize_mu(
            muf, value
        ) * specialize_mu(g, value)
        lam = rand_antisym(rng, n)
        ctx = StarContext.constant(lam.rows, HALF_MU)
        spec_ctx = StarContext.constant(
            lam.rows, MultiPoly.from_gaussian(value.scale(rat(1, 2)))
        )
        hom_star = specialize_mu(star(ctx, f, g), value) == star(
            spec_ctx, specialize_mu(f, value), specialize_mu(g, value)
        )
        ok = ok_round and hom_mul and hom_star
        detail = "" if ok else (
            f"roundtrip={ok_round} mul={hom_mul} star={hom_star}"
        )
        results.append(_case(f"grading[{idx}] n={n}", ok, detail))
    # graded star law on homogeneous monomials
    rng2 = random.Random(seed + 1)
    for idx in range(20):
        n = rng2.choice((2, 3))
        lam = rand_antisym(rng2, n)
        ctx = StarContext.constant(lam.rows, HALF_MU)
        monos = monomials_upto(n, 4)
        f = rng2.choice(monos)
        g = rng2.choice(monos)
        p, q = f.degree(), g.degree()
        out = star_graded(ctx, decompose(f), decompose(g))
        ok = True
        for (deg, weight) in out.components:
            k = weight
            if deg != p + q - 2 * k or k < 0 or k > min(p, q):
                ok = False
        results.append(_case(f"graded star law[{idx}]", ok))
    # h0 dimensions against brute-force monomial counts
    ok = True
    for n in range(1, 5):
        for m in range(0, 7):
            if h0_dim(n, m) != len(list(_exps_of_degree(m, n + 1))):
                ok = False
        if h0_dim(n, -1) != 0:
            ok = False
    results.append(_case("h0_dim brute force n<=4 m<=6", ok))
    return results


# the entries (0, 1), (0, 2) and (1, 2) of two linear lambdas on n = 3, each
# a variable index and its sign: the rotation algebra, and a cyclic
# candidate that fails the Jacobi rule
_LINEAR_UPPER = {"so3": ((2, 1), (1, -1), (0, 1)), "cyclic": ((2, 1), (0, 1), (1, 1))}


def _linear_context(name: str) -> StarContext:
    rows = [[MultiPoly.zero(3)] * 3 for _ in range(3)]
    for (i, j), (var, sign) in zip(((0, 1), (0, 2), (1, 2)), _LINEAR_UPPER[name]):
        z = MultiPoly.variable(3, var)
        rows[i][j], rows[j][i] = (z, -z) if sign > 0 else (-z, z)
    return StarContext(3, tuple(map(tuple, rows)), HALF_MU)


def _so3_context() -> StarContext:
    return _linear_context("so3")


def _cyclic_bad_context() -> StarContext:
    return _linear_context("cyclic")


def suite_jacobi(seed: int = 42, cases: int = 6) -> list:
    rng = random.Random(seed)
    d_max = 3
    results = []
    for idx in range(cases):
        n = rng.choice((2, 3))
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        rep = check_jacobi(ctx, d_max)
        results.append(_case(f"jacobi constant[{idx}] n={n}", rep.passed))
    rep = check_jacobi(_so3_context(), d_max)
    results.append(_case("jacobi linear rotation-algebra", rep.passed))
    rep = check_jacobi(_cyclic_bad_context(), d_max)
    results.append(
        _case(
            "jacobi failing candidate detected",
            (not rep.passed) and rep.witness is not None,
            f"witness={rep.witness}",
        )
    )
    return results


def suite_lambda_relation(seed: int = 42, cases: int = 6) -> list:
    rng = random.Random(seed)
    k_max = d_max = 4
    results = []
    for idx in range(cases):
        n = rng.choice((2, 3))
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        rep = check_lambda_relation(ctx, k_max, d_max)
        results.append(
            _case(f"lambda-relation constant[{idx}] n={n}", rep.passed)
        )
    # a generic linear-entry matrix must fail at order 2 with a witness
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    ctx = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    rep = check_lambda_relation(ctx, k_max, d_max)
    results.append(
        _case(
            "lambda-relation linear witness",
            (not rep.passed)
            and rep.first_divergence_order == 2
            and rep.witness is not None,
            f"witness={rep.witness}",
        )
    )
    return results


SUITES = {
    "associativity": suite_associativity,
    "intertwiner": suite_intertwiner,
    "cayley": suite_cayley,
    "riccati": lambda seed=42, cases=0: suite_riccati(),
    "grading": suite_grading,
    "jacobi": suite_jacobi,
    "lambda-relation": suite_lambda_relation,
}


def run_suite(name: str, seed: int = 42, cases: int | None = None) -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if cases is None:
        return fn(seed=seed)
    return fn(seed=seed, cases=cases)
