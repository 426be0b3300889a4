import random
from math import comb, factorial

import pytest

from starquant.errors import PreconditionError
from starquant.poly import HBAR, MultiPoly, key_width
from starquant.scalars import GaussianRational, gr, rat
from starquant.series import TruncSeries, _series

N = 8


def const_series(value: MultiPoly, order: int = N) -> TruncSeries:
    return TruncSeries.from_poly(MultiPoly.const(0, value), order)


def t(order: int = N) -> TruncSeries:
    return TruncSeries.t_term(MultiPoly.one(0), 1, order)


def rand_scalar_series(rng, order: int, lead: MultiPoly | None) -> TruncSeries:
    """A 0-variable series with random rational coefficients after ``lead``
    (a random nonzero t^0 coefficient when None)."""
    if lead is None:
        lead = MultiPoly.from_rat(rng.randint(1, 5), rng.randint(1, 3))
    rest = [
        MultiPoly.from_rat(rng.randint(-3, 3), rng.randint(1, 3))
        for _ in range(order)
    ]
    return TruncSeries(0, order, [MultiPoly.const(0, c) for c in [lead] + rest])


def scalar_coeffs(s: TruncSeries) -> list:
    return [c.constant_coefficient() for c in s.coeffs]


def test_inverse_geometric():
    for order in (0, N, 16):
        s = TruncSeries.one(0, order) + t(order)
        inv = s.inverse()
        assert scalar_coeffs(inv) == [
            MultiPoly.from_rat((-1) ** k) for k in range(order + 1)
        ]
        assert s * inv == TruncSeries.one(0, order)


def test_inverse_constants():
    assert TruncSeries.one(0, N).inverse() == TruncSeries.one(0, N)
    two = const_series(MultiPoly.from_rat(2))
    assert two.inverse() == const_series(MultiPoly.from_rat(1, 2))


def test_inverse_defining_property_random():
    rng = random.Random(37)
    for _ in range(15):
        coeffs = [
            MultiPoly.const(
                0, MultiPoly.from_rat(rng.randint(1, 5), rng.randint(1, 3))
            )
        ]
        for _ in range(N):
            coeffs.append(
                MultiPoly.const(
                    0, MultiPoly.from_rat(rng.randint(-4, 4), rng.randint(1, 3))
                )
            )
        s = TruncSeries(0, N, coeffs)
        assert s * s.inverse() == TruncSeries.one(0, N)
    for order in (0, 16):
        s = rand_scalar_series(rng, order, None)
        assert s * s.inverse() == TruncSeries.one(0, order)
        assert s.inverse().inverse() == s


def test_inverse_requires_unit_leading_coefficient():
    with pytest.raises(ZeroDivisionError):
        t().inverse()
    # hbar is not invertible, so a leading coefficient hbar must be rejected
    with pytest.raises(PreconditionError):
        (const_series(HBAR) + t()).inverse()
    # a z-dependent leading coefficient is not a scalar
    zs = TruncSeries.from_poly(MultiPoly.variable(1, 0), N)
    with pytest.raises(PreconditionError):
        zs.inverse()


def binomial_inv_sqrt_coeff(k: int, a: int):
    # independent oracle: coefficient of t^k in (1 + a t)^(-1/2) is
    # binom(-1/2, k) a^k = (-1)^k binom(2k, k) (a/4)^k
    return rat((-1) ** k * comb(2 * k, k) * a ** k, 4 ** k)


def test_inv_sqrt_of_one():
    assert TruncSeries.one(0, N).inv_sqrt() == TruncSeries.one(0, N)


def test_inv_sqrt_binomial_series():
    s = TruncSeries.one(0, N) + t().scale_rat(rat(2))
    r = s.inv_sqrt()
    expected = [
        MultiPoly.from_rat(binomial_inv_sqrt_coeff(k, 2)) for k in range(N + 1)
    ]
    assert scalar_coeffs(r) == expected
    assert r.coeffs[2].constant_coefficient() == MultiPoly.from_rat(3, 2)
    for order in (0, 16):
        s = TruncSeries.one(0, order) + t(order).scale_rat(rat(-3))
        assert scalar_coeffs(s.inv_sqrt()) == [
            MultiPoly.from_rat(binomial_inv_sqrt_coeff(k, -3))
            for k in range(order + 1)
        ]


def test_inv_sqrt_defining_property_random():
    rng = random.Random(5)
    for _ in range(15):
        coeffs = [MultiPoly.one(0)]
        for _ in range(N):
            coeffs.append(
                MultiPoly.const(
                    0, MultiPoly.from_rat(rng.randint(-3, 3), rng.randint(1, 3))
                )
            )
        s = TruncSeries(0, N, coeffs)
        r = s.inv_sqrt()
        assert r * r * s == TruncSeries.one(0, N)
        assert r.coeffs[0] == MultiPoly.one(0)
    for order in (0, 16):
        s = rand_scalar_series(rng, order, MultiPoly.from_rat(1))
        r = s.inv_sqrt()
        assert r * r * s == TruncSeries.one(0, order)


def test_inv_sqrt_rejects_nonunit_lead():
    with pytest.raises(PreconditionError):
        const_series(MultiPoly.from_rat(4)).inv_sqrt()


def test_exp_basics():
    assert TruncSeries.zero(1, N).exp() == TruncSeries.one(1, N)
    z0 = MultiPoly.variable(1, 0)
    e = TruncSeries.t_term(z0, 1, N).exp()
    for k in range(N + 1):
        assert e.coeffs[k] == (z0 ** k).scale_rat(rat(1, [1, 1, 2, 6, 24, 120, 720, 5040, 40320][k]))
    for order in (0, 16):
        assert TruncSeries.zero(1, order).exp() == TruncSeries.one(1, order)
        e = TruncSeries.t_term(z0, 1, order).exp()
        assert e.coeffs == tuple(
            (z0 ** k).scale_rat(rat(1, factorial(k))) for k in range(order + 1)
        )
        # exp(z0 t^2) = sum_m z0^m t^(2m) / m!
        e = TruncSeries.t_term(z0, 2, order).exp()
        assert e.coeffs == tuple(
            (z0 ** (k // 2)).scale_rat(rat(1, factorial(k // 2))) if k % 2 == 0
            else MultiPoly.zero(1)
            for k in range(order + 1)
        )


def test_exp_group_law():
    rng = random.Random(11)
    for _ in range(10):
        coeffs = [MultiPoly.zero(0)]
        for _ in range(N):
            coeffs.append(
                MultiPoly.const(
                    0, MultiPoly.from_rat(rng.randint(-2, 2), rng.randint(1, 2))
                )
            )
        a = TruncSeries(0, N, coeffs)
        assert a.exp() * (-a).exp() == TruncSeries.one(0, N)
    for order in (0, 16):
        a = rand_scalar_series(rng, order, MultiPoly.from_rat(0))
        b = rand_scalar_series(rng, order, MultiPoly.from_rat(0))
        assert a.exp() * (-a).exp() == TruncSeries.one(0, order)
        assert (a + b).exp() == a.exp() * b.exp()
    # 2-variable polynomial coefficients carrying mu and 1/mu, as in the
    # exponent (1/mu) Q(t)[Z] of the closed form
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    monos = [z0, z1, z0 * z1, z0 * z0, MultiPoly.one(2)]
    order = N

    def rand_poly_series():
        coeffs = [MultiPoly.zero(2)]
        for _ in range(order):
            c = MultiPoly.zero(2)
            for m in rng.sample(monos, 2):
                mu_pow = MultiPoly.param("mu", rng.choice((-1, 0, 1)))
                scalar = mu_pow.scale_gauss(gr(rng.randint(-2, 2), rng.randint(1, 2)))
                c = c + m.scale(scalar)
            coeffs.append(c)
        return TruncSeries(2, order, coeffs)

    for _ in range(3):
        a, b = rand_poly_series(), rand_poly_series()
        assert a.exp() * (-a).exp() == TruncSeries.one(2, order)
        assert (a + b).exp() == a.exp() * b.exp()
        # the defining flow d/dt exp(a) = a' exp(a)
        assert a.exp().dt() == (a.dt() * a.exp().truncate(order - 1))


def test_exp_requires_zero_constant_term():
    with pytest.raises(PreconditionError):
        TruncSeries.one(0, N).exp()


def test_truncated_product_is_truncation_of_exact_product():
    rng = random.Random(23)
    for _ in range(10):
        big = 2 * N

        def rand_series(order):
            return TruncSeries(
                0,
                order,
                [
                    MultiPoly.const(
                        0,
                        MultiPoly.from_rat(rng.randint(-3, 3), rng.randint(1, 2)),
                    )
                    for _ in range(order + 1)
                ],
            )

        a = rand_series(big)
        b = rand_series(big)
        exact = a * b
        assert a.truncate(N) * b.truncate(N) == exact.truncate(N)


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        TruncSeries.one(0, 4) + TruncSeries.one(0, 5)
    with pytest.raises(ValueError):
        TruncSeries.one(0, 4) * TruncSeries.one(0, 5)


def test_mismatch_errors_name_the_sizes():
    s = TruncSeries.one(1, 4)
    for op in (TruncSeries.__add__, TruncSeries.__sub__, TruncSeries.__mul__):
        with pytest.raises(ValueError, match="variable count mismatch: 1 vs 2"):
            op(s, TruncSeries.one(2, 4))
        with pytest.raises(ValueError, match="truncation order mismatch: 4 vs 5"):
            op(s, TruncSeries.one(1, 5))


def test_truncate_slices_and_pads():
    rng = random.Random(75)
    s = rand_scalar_series(rng, 4, None).lift(2)
    for order in range(8):
        padding = [MultiPoly.zero(2)] * (order - 4)
        assert s.truncate(order) == TruncSeries(2, order, list(s.coeffs[: order + 1]) + padding)


def test_the_shell_keeps_series_immutable_and_checked():
    s = TruncSeries.one(1, 2)
    with pytest.raises(AttributeError, match="TruncSeries is immutable"):
        s.order = 3
    with pytest.raises(ValueError, match="need 3 coefficients"):
        TruncSeries(1, 2, s.coeffs[:2])
    with pytest.raises(ValueError, match="MultiPoly with variable count 2"):
        TruncSeries(2, 2, s.coeffs)
    assert (s - s).is_zero() and (-s + s).is_zero() and not s.is_zero()
    assert s == TruncSeries(1, 2, s.coeffs) and hash(s) == hash(TruncSeries(1, 2, s.coeffs))


def test_dt_and_lift():
    s = TruncSeries.t_term(MultiPoly.one(0), 2, N)  # t^2
    d = s.dt()
    assert d.order == N - 1
    assert d.coeffs[1] == MultiPoly.const(0, MultiPoly.from_rat(2))
    lifted = s.lift(3)
    assert lifted.n == 3
    assert lifted.coeffs[2] == MultiPoly.one(3)
    with pytest.raises(PreconditionError):
        TruncSeries.one(0, 0).dt()


def test_cauchy_sums_stay_in_lowest_terms():
    # (sum_j (j - 5) a_j b_{3-j}) / 12 on complex coefficients whose
    # denominators share factors, so the sum needs the gcd division
    from math import gcd

    from starquant.series import _cauchy

    rng = random.Random(23)
    z = MultiPoly.variable(1, 0)
    for _ in range(20):
        a = [
            MultiPoly.from_gaussian(
                GaussianRational(
                    rat(rng.randint(-6, 6), rng.choice((2, 4, 6, 9))),
                    rat(rng.randint(-6, 6), rng.choice((3, 6))),
                ),
                1,
            ).scale(MultiPoly.param("mu", rng.randint(-1, 1)))
            + z.scale_rat(rat(rng.randint(-4, 4), rng.choice((2, 8))))
            for _ in range(4)
        ]
        b = [c.scale_gauss(GaussianRational(0, 1)) for c in reversed(a)]
        want = MultiPoly.zero(1)
        for j in range(4):
            want = want + (a[j] * b[3 - j]).scale_rat(rat(j - 5))
        # the packed keys of a product add two exponents of at most 1
        w = key_width(2)
        a3 = [c.numerators(w) for c in a]
        b3 = [c.numerators(w) for c in b]
        re, im, den = _cauchy(a3, b3, 3, 0, range(-5, -1), 12)
        assert den > 0 and gcd(den, *re.values(), *im.values()) == 1
        assert all(re.values()) and all(im.values())
        assert MultiPoly.from_numerators(1, re, im, den, w) == want.scale_rat(rat(1, 12))


# --- exponents wider than one byte per packed key field ----------------------


def wide_coef(rng, n: int) -> MultiPoly:
    """One or two complex terms with z exponents up to 40, mu^-300..300,
    hbar^0..300 and tau^0 or tau^257: every field needs more than a byte."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(0, 40) for _ in range(n))
        tail = (rng.randint(-300, 300), rng.randint(0, 300), rng.choice((0, 257)))
        terms[exps + tail] = GaussianRational(
            rat(rng.randint(-5, 5), rng.randint(1, 7)), rat(rng.randint(-5, 5), rng.randint(1, 7))
        )
    return MultiPoly(n, terms)


def cauchy(a: TruncSeries, b: TruncSeries) -> list:
    """The coefficients of a * b by MultiPoly products, without the
    integer layout."""
    zero = MultiPoly.zero(a.n)
    return [
        sum((a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1)), zero)
        for k in range(a.order + 1)
    ]


def test_series_with_wide_exponents_match_multipoly_products():
    rng = random.Random(31)
    order = 4
    for n in (0, 2):
        one = TruncSeries.one(n, order)
        rest = [wide_coef(rng, n) for _ in range(order)]
        a = TruncSeries(n, order, [wide_coef(rng, n)] + rest)
        b = TruncSeries(n, order, [wide_coef(rng, n) for _ in range(order + 1)])
        assert (a * b).coeffs == tuple(cauchy(a, b))
        # exp(S) = sum_m S^m / m!, and with a factor, exp(S) * b
        s = TruncSeries(n, order, [MultiPoly.zero(n)] + rest)
        power, want = one, TruncSeries.zero(n, order)
        for m in range(order + 1):
            want = want + power.scale_rat(rat(1, factorial(m)))
            power = TruncSeries(n, order, cauchy(power, s))
        assert s.exp() == want
        assert _series(n, *s._exp_triples(b)).coeffs == tuple(cauchy(want, b))
        # X S = 1 with S_0 = c mu^-300, and r^2 S = 1 with S_0 = 1
        lead = MultiPoly(n, {(0,) * n + (-300, 0, 0): GaussianRational(rat(2, 3), rat(1, 5))})
        s = TruncSeries(n, order, [lead] + rest)
        assert cauchy(s.inverse(), s) == list(one.coeffs)
        s = TruncSeries(n, order, [MultiPoly.one(n)] + rest)
        r = s.inv_sqrt()
        assert cauchy(TruncSeries(n, order, cauchy(r, r)), s) == list(one.coeffs)
