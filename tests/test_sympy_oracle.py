"""Differential tests against sympy, which shares no arithmetic with starquant.

Each test builds the same object twice: once with the package's exact series
recurrences and once in sympy, then compares the coefficients through t^12.
sympy expands with ``series()``, except for exp of a polynomial, where
``series()`` takes minutes and its power-series ring (``rs_exp``) is used,
and the determinant, which is sympy's own of a polynomial matrix.  The
Riccati pair and the amplitude det^(-1/2) also go through the power-series
ring (``rs_tan``, ``rs_cos``, ``rs_nth_root``).  Small n=2 Moyal products
are summed from their defining series with ``sympy.diff``.  Two-variable
series with complex coefficients and mu^-1 go through sympy's sparse
polynomial ring over the Gaussian rationals, through t^6: the product and
exp (as the power sum of S^m/m!) against sympy's own, inverse and inv_sqrt
through their defining identities X S = 1 and r^2 S = 1.  The ordering
intertwiner exp(c sum_ij K_ij d_i d_j) is summed from its power series with
``sympy.diff``.  Matrix series (product, inverse and Cayley transform) are
matrix polynomials in t over sympy's Gaussian rationals, truncated after
each product, with the inverse as a Neumann series.
"""

import random
from itertools import product

import pytest

from starquant.matrices import MatSeries, SqMatrix, riccati_1d, solve_g, tanh_series
from starquant.poly import MultiPoly
from starquant.scalars import EXP_ZERO, PARAM_NAMES, GaussianRational, gr, rat
from starquant.series import TruncSeries
from starquant.star import StarContext, standard_j, star

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import (  # noqa: E402
    rs_cos,
    rs_exp,
    rs_nth_root,
    rs_series_inversion,
    rs_tan,
    rs_trunc,
)

ORDER = 12
t = sympy.Symbol("t")


def sym_rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def sym_gauss(g: GaussianRational):
    return sym_rational(g.re) + sympy.I * sym_rational(g.im)


def sym_coeffs(s: TruncSeries) -> list:
    """The coefficients of a 0-variable, parameter-free series."""
    out = []
    for c in s.coeffs:
        scalar = c.constant_coefficient()
        assert set(scalar.terms) <= {EXP_ZERO}
        out.append(sum((sym_gauss(g) for g in scalar.terms.values()), sympy.Integer(0)))
    return out


def sym_param_coeffs(s: TruncSeries) -> list:
    """The coefficients of a 0-variable series, with the formal parameters
    as sympy symbols."""
    params = sympy.symbols(PARAM_NAMES)
    return [
        sympy.expand(
            sum(
                sym_gauss(g) * sympy.Mul(*(p**e for p, e in zip(params, tail)))
                for tail, g in c.terms.items()
            )
        )
        for c in s.coeffs
    ]


def sympy_coeffs(expr) -> list:
    """The coefficients of t^0..t^ORDER in sympy's expansion of expr."""
    poly = sympy.expand(sympy.series(expr, t, 0, ORDER + 1).removeO())
    return [poly.coeff(t, k) for k in range(ORDER + 1)]


def rand_scalar_series(rng, lead: int):
    """A random rational series with t^0 coefficient ``lead``, as a
    TruncSeries and as a sympy polynomial in t."""
    coeffs = [gr(lead)] + [
        gr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ORDER)
    ]
    series = TruncSeries(
        0, ORDER, [MultiPoly.const(0, MultiPoly.from_gaussian(c)) for c in coeffs]
    )
    poly = sum(sym_gauss(c) * t**k for k, c in enumerate(coeffs))
    return series, poly


def rand_matrix(rng, dim: int) -> SqMatrix:
    return SqMatrix(
        tuple(
            tuple(gr(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(dim)
        )
    )


def rand_complex_matrix(rng, dim: int) -> SqMatrix:
    """Entries whose real and imaginary denominators are distinct primes
    (or 1), so the common denominator grows with every entry."""
    primes = iter((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                   59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131))

    def part():
        return rat(rng.randint(-9, 9), next(primes) if rng.random() < 0.8 else 1)

    return SqMatrix(
        tuple(tuple(GaussianRational(part(), part()) for _ in range(dim)) for _ in range(dim))
    )


def sym_matrix(m: SqMatrix):
    return sympy.Matrix(m.dim, m.dim, lambda i, j: sym_gauss(m.rows[i][j]))


def test_matrix_product_det_inverse_match_sympy():
    rng = random.Random(107)
    i_third = GaussianRational(rat(1, 2), rat(1, 3))
    zero = gr(0)
    # a zero (0, 0) entry forces a row swap; a complex (0, 0) entry is the
    # first pivot
    swap = SqMatrix(((zero, i_third, gr(2)), (gr(1, 5), zero, gr(-1)), (gr(3), gr(1), zero)))
    cpivot = SqMatrix(((i_third, gr(1)), (gr(-1, 7), GaussianRational(0, -2))))
    mats = [swap, cpivot]
    for dim in (1, 2, 3, 4):
        mats += [rand_complex_matrix(rng, dim) for _ in range(3)]
    for a in mats:
        b = rand_complex_matrix(rng, a.dim)
        sa = sym_matrix(a)
        assert sym_matrix(a * b) == (sa * sym_matrix(b)).expand()
        det = sympy.expand(sa.det())
        assert det != 0 and sym_gauss(a.det()) == det
        # radsimp clears the complex denominators into a + b*I form
        want = sa.inv().applyfunc(lambda e: sympy.expand(sympy.radsimp(e)))
        assert sym_matrix(a.inverse()) == want


def test_exp_matches_sympy():
    ring, tr = sympy.ring("t", sympy.QQ)
    rng = random.Random(101)
    for _ in range(3):
        s, poly = rand_scalar_series(rng, 0)
        expected = rs_exp(ring.from_expr(poly), tr, ORDER + 1)
        assert sym_coeffs(s.exp()) == [
            sympy.Rational(expected.coeff(tr**k)) for k in range(ORDER + 1)
        ]


def test_inv_sqrt_matches_sympy():
    rng = random.Random(102)
    for _ in range(3):
        s, poly = rand_scalar_series(rng, 1)
        assert sym_coeffs(s.inv_sqrt()) == sympy_coeffs(1 / sympy.sqrt(poly))


def test_det_matches_sympy():
    rng = random.Random(103)
    for dim in (2, 3):
        for _ in range(2):
            # a polynomial of degree 3 in t with an invertible t^0 coefficient
            coeffs = [rand_matrix(rng, dim)]
            while not coeffs[0].det():
                coeffs[0] = rand_matrix(rng, dim)
            coeffs += [rand_matrix(rng, dim) for _ in range(3)]
            coeffs += [SqMatrix.zero(dim)] * (ORDER - 3)
            m = MatSeries(dim, ORDER, coeffs)
            sym = sympy.Matrix(
                dim,
                dim,
                lambda i, j: sum(
                    sym_gauss(c.rows[i][j]) * t**k for k, c in enumerate(coeffs)
                ),
            )
            expected = sympy.expand(sym.det())
            assert sym_coeffs(m.det()) == [
                expected.coeff(t, k) for k in range(ORDER + 1)
            ]


def test_tanh_series_matches_sympy():
    # tanh(a t) = sum_k c_k a^k t^k for the scalar series tanh(x) = sum c_k x^k
    x = sympy.Symbol("x")
    scalar = sympy.expand(sympy.series(sympy.tanh(x), x, 0, ORDER + 1).removeO())
    rng = random.Random(104)
    for _ in range(3):
        a = rand_matrix(rng, 2)
        sym_a = sympy.Matrix(2, 2, lambda i, j: sym_gauss(a.rows[i][j]))
        ours = tanh_series(a, ORDER)
        for k in range(ORDER + 1):
            expected = sym_a**k * scalar.coeff(x, k)
            got = sympy.Matrix(2, 2, lambda i, j: sym_gauss(ours.coeffs[k].rows[i][j]))
            assert got == expected, k


def test_riccati_1d_matches_tan_and_sec():
    # h = tan(s t)/s and g = sec(s t) with s^2 = hbar^2 D: the t^k
    # coefficient is the k-th coefficient of tan or sec times s^(k-1) or s^k
    ring, x = sympy.ring("x", sympy.QQ)
    tan = rs_tan(x, x, ORDER + 1)
    sec = rs_series_inversion(rs_cos(x, x, ORDER + 1), x, ORDER + 1)
    hbar = sympy.Symbol("hbar")
    rng = random.Random(105)
    cases = [(gr(1), gr(1), gr(1))]  # D = 0
    for _ in range(3):
        cases.append(
            tuple(
                GaussianRational(rat(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
                for _ in range(3)
            )
        )
    for a, b, c in cases:
        sa, sb, sc = (sym_gauss(v) for v in (a, b, c))
        s_sq = hbar**2 * (sc**2 - sa * sb)
        g, h = riccati_1d(a, b, c, ORDER)
        want_h = [
            sympy.expand(sympy.Rational(tan.coeff(x**k)) * s_sq ** ((k - 1) // 2))
            if k % 2 else 0
            for k in range(ORDER + 1)
        ]
        want_g = [
            0 if k % 2 else sympy.expand(sympy.Rational(sec.coeff(x**k)) * s_sq ** (k // 2))
            for k in range(ORDER + 1)
        ]
        assert sym_param_coeffs(h) == want_h
        assert sym_param_coeffs(g) == want_g


def ring_det(rows: list):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * ring_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def test_solve_g_matches_det_inv_sqrt():
    # g = det^(-1/2)((e^{at}(1+b) + e^{-at}(1-b))/2), with e^{+-at} summed
    # as sympy matrix powers and the root taken in the power-series ring
    ring, x = sympy.ring("x", sympy.QQ)
    rng = random.Random(106)
    for dim in (2, 3):
        for _ in range(2):
            a = rand_matrix(rng, dim)
            one = SqMatrix.identity(dim)
            b = rand_matrix(rng, dim)
            while not (one + b).det():
                b = rand_matrix(rng, dim)
            sym = lambda m: sympy.Matrix(dim, dim, lambda i, j: sym_gauss(m.rows[i][j]))
            sa, sb, eye = sym(a), sym(b), sympy.eye(dim)
            entries = [[ring(0)] * dim for _ in range(dim)]
            for k in range(ORDER + 1):
                term = (sa**k * (eye + sb) + (-sa) ** k * (eye - sb)) / (2 * sympy.factorial(k))
                for i in range(dim):
                    for j in range(dim):
                        entries[i][j] += ring(term[i, j]) * x**k
            det = rs_trunc(ring_det(entries), x, ORDER + 1)
            expected = rs_nth_root(det, -2, x, ORDER + 1)
            assert sym_coeffs(solve_g(a, b, ORDER)) == [
                sympy.Rational(expected.coeff(x**k)) for k in range(ORDER + 1)
            ]


def sym_poly(p: MultiPoly, zs, params):
    """A polynomial with its formal parameters as sympy symbols."""
    n = p.n
    return sum(
        (
            sym_gauss(c)
            * sympy.Mul(*(z**e for z, e in zip(zs, key[:n])))
            * sympy.Mul(*(s**e for s, e in zip(params, key[n:])))
            for key, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def rand_gauss_poly(rng, n: int, max_deg: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        coef = GaussianRational(
            rat(rng.randint(-5, 5), rng.randint(1, 7)),
            rat(rng.randint(-5, 5), rng.randint(1, 7)),
        )
        terms[tuple(exps) + EXP_ZERO] = coef
    return MultiPoly(n, terms)


def test_moyal_product_matches_sympy():
    # f * g = sum_k (i hbar/2)^k / k! * L^{a1 b1} ... L^{ak bk}
    #         * d_{a1..ak} f * d_{b1..bk} g, with L = [[0, -1], [1, 0]]
    zs = sympy.symbols("z0 z1")
    params = sympy.symbols(PARAM_NAMES)
    hbar = params[PARAM_NAMES.index("hbar")]
    lam = standard_j(1)
    pairs = [
        (zs[a], zs[b], sym_gauss(lam[a][b]))
        for a in range(2)
        for b in range(2)
        if lam[a][b]
    ]
    ctx = StarContext.weyl(1)
    rng = random.Random(107)
    for _ in range(6):
        f = rand_gauss_poly(rng, 2, 4)
        g = rand_gauss_poly(rng, 2, 4)
        sf, sg = sym_poly(f, zs, params), sym_poly(g, zs, params)
        expected = sf * sg
        for k in range(1, 5):
            weight = (sympy.I * hbar / 2) ** k / sympy.factorial(k)
            for seq in product(pairs, repeat=k):
                coef = sympy.Mul(*(c for _, _, c in seq))
                df = sympy.diff(sf, *(a for a, _, _ in seq))
                dg = sympy.diff(sg, *(b for _, b, _ in seq))
                expected += weight * coef * df * dg
        got = sym_poly(star(ctx, f, g), zs, params)
        assert sympy.expand(got - expected) == 0


# --- two-variable series with complex coefficients and mu^-1 ----------------

SERIES_ORDER = 6
# sympy's sparse polynomial ring over the Gaussian rationals; mu^-1 is
# cleared by a power of mu before a series enters it
RING, RT, RZ0, RZ1, RMU = sympy.ring("t z0 z1 mu", sympy.QQ_I)


def rand_laurent_coef(rng, primes) -> MultiPoly:
    """One or two terms of degree <= 2 in z0, z1 with mu^-1, mu^0 or mu^1,
    whose real and imaginary parts have denominators drawn from ``primes``."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0, 0]
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(2)] += 1
        tail = (rng.choice((-1, -1, 0, 1)), 0, 0)
        terms[tuple(exps) + tail] = GaussianRational(
            rat(rng.choice((-3, -2, -1, 1, 2, 3)), next(primes)),
            rat(rng.choice((-2, -1, 1, 2)), next(primes)),
        )
    return MultiPoly(2, terms)


def rand_laurent_series(rng, lead: MultiPoly, first_prime: int = 2) -> TruncSeries:
    """A 2-variable series through t^6 with t^0 coefficient ``lead``; every
    denominator of the other coefficients is a distinct prime, so they are
    pairwise coprime."""
    primes = iter(sympy.primerange(first_prime, 10**6))
    coeffs = [lead] + [rand_laurent_coef(rng, primes) for _ in range(SERIES_ORDER)]
    return TruncSeries(2, SERIES_ORDER, coeffs)


def ring_series(s: TruncSeries, mu_shift: int):
    """mu^mu_shift times the series, as an element of RING."""
    terms = {}
    for k, c in enumerate(s.coeffs):
        for (e0, e1, mu, hbar, tau), g in c.terms.items():
            assert mu + mu_shift >= 0 and not hbar and not tau
            terms[(k, e0, e1, mu + mu_shift)] = sympy.QQ_I(
                sym_rational(g.re), sym_rational(g.im)
            )
    return RING(terms)


def truncated(p):
    return rs_trunc(p, RT, SERIES_ORDER + 1)


def unit(re, im, mu: int) -> MultiPoly:
    """The scalar (re + im i) mu^mu in two variables."""
    return MultiPoly(2, {(0, 0, mu, 0, 0): GaussianRational(re, im)})


def test_series_product_matches_sympy():
    # (mu a)(mu b) = mu^2 (a b)
    rng = random.Random(108)
    for _ in range(3):
        # the leads and the rest of a and b draw from disjoint prime ranges
        lead_a = rand_laurent_coef(rng, iter(sympy.primerange(1000, 2000)))
        lead_b = rand_laurent_coef(rng, iter(sympy.primerange(2000, 3000)))
        a = rand_laurent_series(rng, lead_a)
        b = rand_laurent_series(rng, lead_b, 3000)
        want = truncated(ring_series(a, 1) * ring_series(b, 1))
        assert ring_series(a * b, 2) == want


def test_two_variable_exp_matches_power_sum():
    # exp(S) = sum_{m <= 6} S^m / m!, since S has no t^0 term; with
    # S' = mu S, mu^6 exp(S) = sum_m mu^(6-m) S'^m / m!
    rng = random.Random(109)
    for _ in range(3):
        s = rand_laurent_series(rng, MultiPoly.zero(2))
        s_mu = ring_series(s, 1)
        power, want = RING(1), RING(0)
        for m in range(SERIES_ORDER + 1):
            want += power * RMU ** (SERIES_ORDER - m) / sympy.factorial(m)
            power = truncated(power * s_mu)
        assert ring_series(s.exp(), SERIES_ORDER) == want


def test_two_variable_inverse_satisfies_defining_identity():
    # X S = 1 through t^6, with a complex unit times mu^-1 or mu as S_0;
    # X_k carries mu^-7 at the lowest, so (mu^7 X)(mu S) = mu^8
    rng = random.Random(110)
    for lead in (unit(rat(2, 3), rat(1, 5), -1), unit(rat(-7, 11), rat(3, 13), 1)):
        s = rand_laurent_series(rng, lead, 17)
        x = s.inverse()
        assert truncated(ring_series(x, 7) * ring_series(s, 1)) == RMU**8


def test_two_variable_inv_sqrt_satisfies_defining_identity():
    # r^2 S = 1 through t^6 with r_0 = 1, which fixes r; r_k carries
    # mu^-6 at the lowest, so (mu^6 r)^2 (mu S) = mu^13
    rng = random.Random(111)
    for _ in range(3):
        s = rand_laurent_series(rng, MultiPoly.one(2))
        r = s.inv_sqrt()
        assert r.coeffs[0] == MultiPoly.one(2)
        r_mu = ring_series(r, SERIES_ORDER)
        assert truncated(truncated(r_mu * r_mu) * ring_series(s, 1)) == RMU**13


# exponents wider than one byte per packed key field: z^40 and hbar^300 in
# every coefficient, and mu^-300, cleared by a power of mu before a series
# enters the ring
WIDE_RING, WT, WZ0, WMU, WHBAR = sympy.ring("t z0 mu hbar", sympy.QQ_I)
WIDE_ORDER = 3


def wide_series(rng, lead: MultiPoly) -> TruncSeries:
    """A 1-variable series through t^3 with t^0 coefficient ``lead`` and
    one or two terms z0^(35..40) mu^(-300 or 0) hbar^(260..300) after it."""
    coeffs = [lead]
    for _ in range(WIDE_ORDER):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = (rng.randint(35, 40), rng.choice((-300, 0)), rng.randint(260, 300), 0)
            terms[key] = GaussianRational(rat(rng.randint(1, 5), rng.randint(1, 9)), rat(-1, 3))
        coeffs.append(MultiPoly(1, terms))
    return TruncSeries(1, WIDE_ORDER, coeffs)


def wide_ring_series(s: TruncSeries, mu_shift: int):
    """mu^mu_shift times the series, as an element of WIDE_RING."""
    terms = {}
    for k, c in enumerate(s.coeffs):
        for (e0, mu, hbar, tau), g in c.terms.items():
            assert mu + mu_shift >= 0 and not tau
            terms[(k, e0, mu + mu_shift, hbar)] = sympy.QQ_I(sym_rational(g.re), sym_rational(g.im))
    return WIDE_RING(terms)


def test_wide_exponent_series_match_sympy():
    # S_j carries mu^-300 at the lowest, so mu^(300 k) clears order k
    rng = random.Random(112)
    top = 300 * WIDE_ORDER

    def trunc(p):
        return rs_trunc(p, WT, WIDE_ORDER + 1)

    a = wide_series(rng, MultiPoly.zero(1))
    b = wide_series(rng, MultiPoly.one(1))
    a_mu, b_mu = wide_ring_series(a, 300), wide_ring_series(b, 300)
    assert wide_ring_series(a * b, 600) == trunc(a_mu * b_mu)
    # exp(S) = sum_m S^m / m!
    power, want = WIDE_RING(1), WIDE_RING(0)
    for m in range(WIDE_ORDER + 1):
        want += power * WMU ** (top - 300 * m) / sympy.factorial(m)
        power = trunc(power * a_mu)
    assert wide_ring_series(a.exp(), top) == want
    # X S = 1 with S_0 = (2/3 + i/5) mu^-300, and r^2 S = 1 with S_0 = 1
    lead = MultiPoly(1, {(0, -300, 0, 0): GaussianRational(rat(2, 3), rat(1, 5))})
    s = wide_series(rng, lead)
    x = s.inverse()
    assert trunc(wide_ring_series(x, top + 300) * wide_ring_series(s, 300)) == WMU ** (top + 600)
    r = b.inv_sqrt()
    r_mu = wide_ring_series(r, top)
    assert trunc(trunc(r_mu * r_mu) * b_mu) == WMU ** (2 * top + 300)


def test_riccati_1d_with_wide_hbar_powers_matches_tan_and_sec():
    # at order 260, h and g reach hbar^258 and hbar^260: the t^k
    # coefficient is tan_k D^((k-1)/2) hbar^(k-1) or sec_k D^(k/2) hbar^k
    order = 260
    ring, x = sympy.ring("x", sympy.QQ)
    tan = rs_tan(x, x, order + 1)
    sec = rs_series_inversion(rs_cos(x, x, order + 1), x, order + 1)
    a, b, c = gr(1), gr(2), GaussianRational(rat(1, 2), rat(1, 3))
    d = c * c - a * b
    g, h = riccati_1d(a, b, c, order)
    zero = MultiPoly.zero(0)
    for k in range(order + 1):
        coef = sec.coeff(x**k) if k % 2 == 0 else tan.coeff(x**k)
        value = gr(int(coef.numerator), int(coef.denominator)) * d ** (k // 2)
        want = MultiPoly.param("hbar", k - k % 2, value)
        assert h.coeffs[k] == (want if k % 2 else zero)
        assert g.coeffs[k] == (zero if k % 2 else want)


# --- MultiPoly arithmetic ---------------------------------------------------


def rand_mixed_poly(rng, n: int) -> MultiPoly:
    """Up to five terms of degree <= 3 with complex coefficients and mixed
    parameter tails: mu^-2..mu^2, hbar^0..2 and tau^0..1; a scalar when n
    is 0."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * n
        for _ in range(rng.randint(0, 3) if n else 0):
            exps[rng.randrange(n)] += 1
        tail = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1))
        terms[tuple(exps) + tail] = GaussianRational(
            rat(rng.randint(-5, 5), rng.randint(1, 6)),
            rat(rng.randint(-3, 3), rng.randint(1, 6)) if rng.random() < 0.5 else 0,
        )
    return MultiPoly(n, terms)


def test_multipoly_arithmetic_matches_sympy():
    from starquant.grading import specialize_mu

    rng = random.Random(113)
    params = sympy.symbols(PARAM_NAMES)
    mu = params[PARAM_NAMES.index("mu")]
    for n in (1, 2, 3):
        zs = sympy.symbols(f"z0:{n}")
        for _ in range(6):
            p, q = rand_mixed_poly(rng, n), rand_mixed_poly(rng, n)
            sp, sq = sym_poly(p, zs, params), sym_poly(q, zs, params)

            def same(got: MultiPoly, want) -> bool:
                return sympy.expand(sym_poly(got, zs, params) - want) == 0

            assert same(p + q, sp + sq) and same(p - q, sp - sq)
            assert same(p * q, sp * sq) and same(p - p, 0)
            for j in range(n):
                assert same(p.derivative(j), sympy.diff(sp, zs[j]))
            r = rat(rng.randint(-7, 7), rng.randint(1, 5))
            assert same(p.scale_rat(r), sym_rational(r) * sp)
            # a single term with a mu power of either sign
            unit = MultiPoly.param(
                "mu", rng.randint(-3, 3),
                GaussianRational(rat(rng.randint(1, 5), rng.randint(1, 4)), rat(rng.randint(-2, 2), 3)),
            )
            assert same(unit.inverse(), 1 / sym_poly(unit, (), params))
            offsets = [rand_mixed_poly(rng, 0) for _ in range(n)]
            moved = {z: z + sym_poly(o, (), params) for z, o in zip(zs, offsets)}
            assert same(p.shift(offsets), sp.subs(moved, simultaneous=True))
            value = GaussianRational(rat(rng.randint(1, 5), rng.randint(1, 4)), rat(rng.randint(-2, 2), 5))
            assert same(specialize_mu(p, value), sp.subs(mu, sym_gauss(value)))


# --- ordering intertwiner ---------------------------------------------------


def rand_symmetric(rng, n: int, complex_entries: bool):
    """A random symmetric n x n matrix over GaussianRational, with complex
    entries when ``complex_entries``."""
    rows = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            im = rat(rng.randint(-3, 3), rng.randint(1, 5)) if complex_entries else 0
            rows[i][j] = rows[j][i] = GaussianRational(rat(rng.randint(-4, 4), rng.randint(1, 5)), im)
    return rows


INTERTWINER_COUPLINGS = [
    MultiPoly.param("hbar", 1, GaussianRational(0, rat(1, 4))),
    MultiPoly.param("hbar", 1, GaussianRational(0, rat(-1, 4))),
    MultiPoly(0, {(-1, 0, 0): gr(2, 3), (0, 2, 0): GaussianRational(rat(1, 5), rat(-1, 2))}),
]


def assert_intertwine_matches_sympy(K, f: MultiPoly) -> None:
    # exp(c D) f = sum_m c^m/m! D^m f with D = sum_ij K_ij d_i d_j, summed
    # until D^m f vanishes, for each coupling c
    from starquant.matrices import OrderingK
    from starquant.star import intertwine

    n = f.n
    params = sympy.symbols(PARAM_NAMES)
    zs = sympy.symbols(f"z0:{n}")
    powers = [sym_poly(f, zs, params)]
    while powers[-1] != 0:
        powers.append(
            sympy.expand(
                sum(
                    sym_gauss(K[i][j]) * sympy.diff(powers[-1], zs[i], zs[j])
                    for i in range(n)
                    for j in range(n)
                    if K[i][j]
                )
            )
        )
    for coupling in INTERTWINER_COUPLINGS:
        c = sym_poly(coupling, (), params)
        want = sum(c**m / sympy.factorial(m) * d for m, d in enumerate(powers))
        got = sym_poly(intertwine(OrderingK(K), f, coupling), zs, params)
        assert sympy.expand(got - want) == 0


def test_intertwine_matches_sympy():
    rng = random.Random(127)
    for n in (2, 3, 4):
        for case in range(4):
            K = rand_symmetric(rng, n, complex_entries=case % 2 == 1)
            f = rand_mixed_poly(rng, n) + rand_mixed_poly(rng, n) * rand_mixed_poly(rng, n)
            assert_intertwine_matches_sympy(K, f)


@pytest.mark.parametrize("n", [2, 3])
def test_intertwine_of_linear_and_bilinear_f_matches_sympy(n):
    # a K with a nonzero diagonal, so that the exponent has d_i d_i; a
    # linear f has exponents of at most 1, and D f = 0, while z0 z1 has one
    # order of D, a constant
    rng = random.Random(131 + n)
    K = rand_symmetric(rng, n, complex_entries=True)
    for i in range(n):
        K[i][i] = GaussianRational(rat(i + 1, 3), rat(-1, i + 2))
    z = [MultiPoly.variable(n, j) for j in range(n)]
    linear = sum((v.scale_rat(rat(j + 2, 5)) for j, v in enumerate(z)), MultiPoly.one(n))
    for f in (linear, z[0], z[0] * z[1], z[0] * z[1] + linear):
        assert_intertwine_matches_sympy(K, f)


# --- matrix series -----------------------------------------------------------


def rand_matseries(rng, dim: int, order: int, complex_entries: bool) -> MatSeries:
    """A random dim x dim matrix series through t^order whose entries have
    mixed denominators, with about one zero coefficient in three (so zero
    coefficients sit between nonzero ones) and an invertible t^0
    coefficient with an invertible 1 + M_0."""

    def entry():
        im = rat(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7))) if complex_entries else 0
        return GaussianRational(rat(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7, 9))), im)

    def matrix():
        return SqMatrix(tuple(tuple(entry() for _ in range(dim)) for _ in range(dim)))

    one = SqMatrix.identity(dim)
    m0 = matrix()
    while not (m0.det() and (one + m0).det()):
        m0 = matrix()
    rest = [SqMatrix.zero(dim) if rng.random() < 0.35 else matrix() for _ in range(order)]
    return MatSeries(dim, order, [m0] + rest)


def test_matseries_product_inverse_and_cayley_match_sympy():
    # matrix polynomials in t over sympy's Gaussian rationals QQ_I, with
    # each product truncated after t^order; the inverse is the Neumann
    # series sum_j (-E)^j M_0^(-1) with E = M_0^(-1) (M - M_0)
    from sympy.polys.matrices import DomainMatrix

    from starquant.matrices import cayley

    ring, tr = sympy.ring("t", sympy.QQ_I)
    domain = ring.to_domain()

    def poly_matrix(s: MatSeries):
        return DomainMatrix(
            [
                [
                    sum((ring(sympy.QQ_I.from_sympy(sym_gauss(c.rows[i][j]))) * tr**k
                         for k, c in enumerate(s.coeffs)), ring(0))
                    for j in range(s.dim)
                ]
                for i in range(s.dim)
            ],
            (s.dim, s.dim),
            domain,
        )

    def truncated(m, order: int):
        return m.applyfunc(lambda e: rs_trunc(e, tr, order + 1))

    def inverse(m, order: int):
        m0 = m.applyfunc(lambda e: ring(e.coeff(1)))
        inv0 = m0.convert_to(sympy.QQ_I).inv().convert_to(domain)
        e = truncated(inv0 * (m - m0), order)
        total = power = DomainMatrix.eye(m.shape[0], domain)
        for _ in range(order):
            power = truncated(-power * e, order)
            total += power
        return truncated(total * inv0, order)

    def same(ours: MatSeries, m) -> bool:
        return poly_matrix(ours) == truncated(m, ours.order)

    rng = random.Random(131)
    for dim, order, complex_entries in [
        (1, 0, False), (1, 6, True), (2, 1, True), (2, 4, False), (2, 6, True),
        (3, 2, False), (3, 5, True), (4, 3, True), (4, 4, False), (4, 6, False),
    ]:
        a = rand_matseries(rng, dim, order, complex_entries)
        b = rand_matseries(rng, dim, order, not complex_entries)
        pa, pb = poly_matrix(a), poly_matrix(b)
        assert same(a * a, pa * pa) and same(a * b, pa * pb)
        assert same(a.inverse(), inverse(pa, order))
        one = DomainMatrix.eye(dim, domain)
        assert same(cayley(a), (one - pa) * inverse(one + pa, order))
