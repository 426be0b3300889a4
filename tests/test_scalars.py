import fractions
import random

import pytest
from hypothesis import given, strategies as st

from starquant.errors import PreconditionError, SchemaError
from starquant.grading import specialize_mu
from starquant.parsing import parse_gaussian
from starquant.poly import HALF_MU, HBAR, MU, MU_INV, MultiPoly
from starquant.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, _gaussian_power, gr, rat

PS_ONE = MultiPoly.one(0)
PS_ZERO = MultiPoly.zero(0)

def small_rats():
    return st.builds(
        lambda a, b: rat(a, b),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=1, max_value=12),
    )


# real about half the time: the real and the complex operands share one formula
gaussians = st.builds(GaussianRational, small_rats(), st.one_of(st.just(rat(0)), small_rats()))


def test_rationals_are_fractions():
    # one backend: every rational is a fractions.Fraction
    assert type(rat(1)) is fractions.Fraction
    assert type(rat(3, 6)) is fractions.Fraction and rat(3, 6) == rat(1, 2)
    assert type(parse_gaussian("3/2-1/3*i").im) is fractions.Fraction


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_inverse_and_text_roundtrip(a):
    if a:
        assert a * a.inverse() == GR_ONE
        assert (GR_ONE / a) * a == GR_ONE
    assert parse_gaussian(a.text()) == a


@given(small_rats(), small_rats(), st.one_of(small_rats(), st.integers(-5, 5)))
def test_real_operands_give_real_results(x, y, r):
    a, b = GaussianRational(x), GaussianRational(y)
    results = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (a.scale(r), x * r)]
    if x:
        results.append((a.inverse(), 1 / x))
    for got, want in results:
        assert got == gr(want)
        assert type(got.re) is fractions.Fraction and type(got.im) is fractions.Fraction
        assert got.im == 0
        assert hash(got) == hash(gr(want))


def test_i_squared():
    assert GR_I * GR_I == -GR_ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO
    with pytest.raises(ZeroDivisionError):
        GR_ZERO.inverse()


def test_parse_forms():
    assert parse_gaussian("3/2-1/3*i").text() == "3/2-1/3*i"
    assert parse_gaussian("i") == GR_I
    assert parse_gaussian("-i") == -GR_I
    assert parse_gaussian("0") == GR_ZERO
    assert parse_gaussian("-5/10") == gr(-1, 2)
    assert parse_gaussian("2*i") == GaussianRational(0, 2)
    assert parse_gaussian("--3+-1/3*i").text() == "3-1/3*i"
    # a number and its i take a "*": "2i" is no product
    with pytest.raises(SchemaError, match="trailing input at 'i'"):
        parse_gaussian("2i")


@pytest.mark.parametrize(
    "text", ["2.5", "1_000", "1e999", "1e-5", "1/2.0", "2.5*i", "1_0i", "inf", "½", "٣"]
)
def test_parse_rejects_non_canonical_numbers(text):
    # only signs, ASCII digits, the operators and the name i
    with pytest.raises(ValueError):
        parse_gaussian(text)


def test_gaussian_integer_power_matches_repeated_products():
    # (a + b*i)^k on ints, real and complex, against k products
    for a, b in ((3, 0), (-2, 0), (0, 1), (3, -2), (-5, 7), (1, 1), (0, -4)):
        re, im = 1, 0
        for k in range(10):
            assert _gaussian_power(a, b, k) == (re, im)
            re, im = re * a - im * b, re * b + im * a


def test_pow_including_negative():
    a = GaussianRational(rat(1, 2), rat(1))
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == GR_ONE
    # one repeated-squaring loop serves GaussianRational and MultiPoly
    x = MultiPoly.variable(2, 0) + MultiPoly.const(2, MU) - MultiPoly.number(2, 1, 1, 2)
    for value, one in ((GaussianRational(rat(2, 3), rat(-1, 5)), GR_ONE), (x, MultiPoly.one(2))):
        want = one
        for k in range(10):
            assert value ** k == want
            want = want * value
    # zero to the power 0 is 1, and a negative power of zero has no value
    assert GR_ZERO ** 0 == GR_ONE
    assert MultiPoly.zero(2) ** 0 == MultiPoly.one(2)
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        GR_ZERO ** -1
    with pytest.raises(ZeroDivisionError, match="^inverse of zero scalar$"):
        MultiPoly.zero(2) ** -2
    # a Laurent power: (mu/2)^-3 = 8 mu^-3
    assert HALF_MU ** -3 == MultiPoly.param("mu", -3, gr(8))
    assert HALF_MU ** -3 * HALF_MU ** 3 == PS_ONE


def test_param_scalar_ring_axioms_random_triples():
    # exact associativity/commutativity/distributivity on 200 random triples
    rng = random.Random(1234)

    def rand_scalar():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            key = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1))
            terms[key] = GaussianRational(
                rat(rng.randint(-5, 5), rng.randint(1, 4)),
                rat(rng.randint(-2, 2)),
            )
        return MultiPoly(0, terms)

    for _ in range(200):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_laurent_exponent_guard():
    assert (MU_INV * MU) == PS_ONE
    with pytest.raises(PreconditionError):
        MultiPoly.param("hbar", -1)
    with pytest.raises(PreconditionError):
        MultiPoly.param("tau", -2)
    # inverting a scalar that contains hbar would need hbar^-1
    with pytest.raises(PreconditionError):
        HBAR.inverse()
    with pytest.raises(ZeroDivisionError):
        PS_ZERO.inverse()
    with pytest.raises(PreconditionError):
        (PS_ONE + MU).inverse()  # not a monomial


def test_substitute_mu():
    s = MU + MU_INV.scale_rat(rat(1, 2)) + HBAR
    out = specialize_mu(s, gr(2))
    assert out == MultiPoly.from_rat(9, 4) + HBAR
    with pytest.raises(PreconditionError):
        specialize_mu(s, GR_ZERO)


def test_json_roundtrip():
    s = MU.scale_gauss(GaussianRational(rat(1, 2), rat(-1, 3))) + HBAR ** 2
    assert MultiPoly.from_json(0, s.to_json()) == s


def test_text_rendering():
    assert (MU.scale_rat(rat(1, 2))).text() == "1/2*mu"
    assert (HBAR.scale_gauss(GR_I)).text() == "i*hbar"
    assert (HBAR.scale_gauss(-GR_I)).text() == "-i*hbar"
    assert PS_ZERO.text() == "0"
    assert MultiPoly.param("mu", -1).text() == "mu^-1"
