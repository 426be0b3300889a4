import random
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant.errors import PreconditionError
from starquant.poly import MU, MultiPoly, key_weights, key_width, quadratic_form, unpack_key
from starquant.scalars import EXP_ZERO, GaussianRational, gr, rat

Z2 = lambda j: MultiPoly.variable(2, j)


def rand_poly(rng, n, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        coef = GaussianRational(rat(rng.randint(-4, 4), rng.randint(1, 3)))
        key = tuple(exps) + EXP_ZERO
        terms[key] = terms[key] + coef if key in terms else coef
    return MultiPoly(n, terms)


def test_derivative_power_rule():
    z0, z1 = Z2(0), Z2(1)
    assert (z0 * z0 * z1).derivative(0) == (z0 * z1).scale_rat(rat(2))
    assert z0.derivative(1).is_zero()
    # d/dz0 (z0^3 + mu z0) = 3 z0^2 + mu, term by term
    f = z0 ** 3 + z0.scale(MU)
    assert f.derivative(0) == (z0 ** 2).scale_rat(rat(3)) + MultiPoly.const(2, MU)


def test_derivative_index_error():
    with pytest.raises(IndexError):
        Z2(0).derivative(2)
    with pytest.raises(IndexError):
        Z2(0).derivative(-1)


def test_shift_examples():
    z0, z1 = Z2(0), Z2(1)
    c = MultiPoly.from_rat(5, 3)
    zero = MultiPoly.from_rat(0)
    assert z0.shift([c, zero]) == z0 + MultiPoly.const(2, c)
    # (z0 + c)^2 = z0^2 + 2c z0 + c^2
    assert (z0 ** 2).shift([c, zero]) == (
        z0 ** 2 + z0.scale(c.scale_rat(2)) + MultiPoly.const(2, c * c)
    )
    a, b = MultiPoly.from_rat(2), MU
    expected = z0 * z1 + z0.scale(b) + z1.scale(a) + MultiPoly.const(2, a * b)
    assert (z0 * z1).shift([a, b]) == expected


def test_shift_length_mismatch():
    with pytest.raises(ValueError):
        Z2(0).shift([MultiPoly.one(0)])


def test_shift_composition():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.choice((2, 3))
        f = rand_poly(rng, n)
        a = [MultiPoly.from_rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        b = [MultiPoly.from_rat(rng.randint(-2, 2)) for _ in range(n)]
        ab = [x + y for x, y in zip(a, b)]
        assert f.shift(a).shift(b) == f.shift(ab)


def test_leibniz_rule():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3))
        f, g = rand_poly(rng, n), rand_poly(rng, n)
        for j in range(n):
            lhs = (f * g).derivative(j)
            rhs = f.derivative(j) * g + f * g.derivative(j)
            assert lhs == rhs


def test_ring_axioms_random_triples():
    rng = random.Random(31)
    for _ in range(200):
        n = 2
        a, b, c = (rand_poly(rng, n, 3, 3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_grlex_serialization_is_canonical():
    z0, z1 = Z2(0), Z2(1)
    f = z1 + z0 ** 2 + z0 * z1 + MultiPoly.one(2)
    exps = [tuple(t["exps"]) for t in f.to_json()]
    assert exps == [(0, 0), (0, 1), (1, 1), (2, 0)]  # degree first, then lex
    assert MultiPoly.from_json(2, f.to_json()) == f


def test_mixed_param_monomial_splits_json_entries():
    z0 = Z2(0)
    f = z0.scale(MultiPoly.one(0) + MU)
    entries = [t for t in f.to_json()]
    assert len(entries) == 2
    assert MultiPoly.from_json(2, entries) == f


def test_from_json_checks_every_exponent():
    # also on entries that are zero or cancel; only mu may be negative
    def entry(exps, params, value):
        return {"exps": exps, "coef": {"params": params, "value": value}}

    with pytest.raises(PreconditionError):
        MultiPoly.from_json(2, [entry([1, 0], {"hbar": -1}, "0")])
    with pytest.raises(PreconditionError):
        MultiPoly.from_json(0, [{"params": {"tau": -1}, "value": "0"}])
    with pytest.raises(ValueError):
        MultiPoly.from_json(2, [entry([-1, 0], {}, "0")])
    mu_inv = [entry([1, 0], {"mu": -1}, "1"), entry([1, 0], {"mu": -1}, "-1")]
    assert MultiPoly.from_json(2, mu_inv).is_zero()
    # entries of one key sum, and two that cancel leave the other terms
    twice = [entry([1, 0], {"mu": 1}, "1/2"), entry([1, 0], {"mu": 1}, "1/3+i")]
    assert MultiPoly.from_json(2, twice) == Z2(0).scale(MU.scale_gauss(GaussianRational(rat(5, 6), 1)))
    cancel = [entry([1, 0], {}, "2"), entry([0, 1], {}, "i"), entry([1, 0], {}, "-2")]
    assert MultiPoly.from_json(2, cancel) == Z2(1).scale_gauss(GaussianRational(0, 1))
    assert MultiPoly.from_json(0, [{"params": {}, "value": "1"}] * 3) == MultiPoly.from_rat(3)


def test_quadratic_form():
    # the numerator rows of [[1, 2], [2, -1]] over 1, and of half of it
    z0, z1 = Z2(0), Z2(1)
    q = quadratic_form(((1, 2), (2, -1)), ((0, 0), (0, 0)), 1)
    assert q == z0 ** 2 - z1 ** 2 + (z0 * z1).scale_rat(rat(4))
    assert quadratic_form(((1, 2), (2, -1)), ((0, 0), (0, 0)), 2) == q.scale_rat(rat(1, 2))
    # an antisymmetric imaginary part cancels
    assert quadratic_form(((1, 0), (0, 0)), ((0, 3), (-3, 0)), 4) == (z0 ** 2).scale_rat(rat(1, 4))


def test_text_output():
    z0, z1 = Z2(0), Z2(1)
    f = (z0 * z1) + MultiPoly.const(2, MU.scale_rat(rat(1, 2)))
    assert f.text() == "z0*z1 + 1/2*mu"
    assert MultiPoly.zero(2).text() == "0"
    assert (-(z0 ** 2)).text() == "-z0^2"


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Z2(0) + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        Z2(0) * MultiPoly.variable(3, 0)


def test_degree_and_homogeneity():
    z0, z1 = Z2(0), Z2(1)
    assert MultiPoly.zero(2).degree() == -1
    assert (z0 * z1 + z0 ** 2).degree() == 2
    assert (z0 * z1 + z0 ** 2).is_homogeneous()
    assert not (z0 + z0 ** 2).is_homogeneous()


def pack(key, n, w, fields=None, offset=0):
    return sum(map(mul, key, key_weights(n, w, fields, offset)))


def test_numerators_round_trip():
    from math import gcd

    i = GaussianRational(0, 1)
    zero = MultiPoly.zero(2)
    assert zero.numerators(1) == ({}, {}, 1)
    assert MultiPoly.from_numerators(2, {}, {}, 1, 1) == zero
    # pure-imaginary terms, negative mu exponents, negative parts
    p = MultiPoly(2, {
        (1, 0, -1, 0, 0): GaussianRational(0, rat(-2, 3)),
        (0, 2, -2, 1, 0): GaussianRational(rat(5, 6), rat(-1, 4)),
        (0, 0, 0, 0, 1): GaussianRational(rat(-7, 10)),
    })
    w = key_width(p.max_exponent())
    assert w == 2
    re, im, den = p.numerators(w)
    assert den == 60 and pack((1, 0, -1, 0, 0), 2, w) not in re
    assert re == {pack((0, 2, -2, 1, 0), 2, w): 50, pack((0, 0, 0, 0, 1), 2, w): -42}
    assert im == {pack((1, 0, -1, 0, 0), 2, w): -40, pack((0, 2, -2, 1, 0), 2, w): -15}
    assert MultiPoly.from_numerators(2, re, im, den, w) == p
    rng = random.Random(17)
    for n in (0, 1, 3):
        for _ in range(10):
            deg = 4 if n else 0
            imag = rand_poly(rng, n, deg).scale_gauss(i * gr(1, rng.randint(1, 9)))
            q = rand_poly(rng, n, deg) + imag
            q = q.scale(MultiPoly.param("mu", rng.randint(-2, 2)))
            # the least width, and a wider one, read the same
            for w in (key_width(q.max_exponent()), 9):
                re, im, den = q.numerators(w)
                assert den > 0 and gcd(den, *re.values(), *im.values()) == 1
                assert all(re.values()) and all(im.values())
                assert MultiPoly.from_numerators(n, re, im, den, w) == q
                # numerators not in lowest terms, and zero numerators, read the same
                re6 = {e: 6 * v for e, v in re.items()}
                im6 = {e: 6 * v for e, v in im.items()}
                re6[0] = re6.get(0, 0)
                assert MultiPoly.from_numerators(n, re6, im6, 6 * den, w) == q


def test_packed_keys_round_trip_with_negative_mu():
    # fields wider than one byte, and mu tails of either sign on top
    rng = random.Random(29)
    for n in (0, 1, 2, 4):
        for _ in range(40):
            e = rng.choice((1, 3, 255, 256, 300, 70000))
            key = tuple(rng.randint(0, e) for _ in range(n)) + (
                rng.randint(-e, e), rng.randint(0, e), rng.randint(0, e)
            )
            w = key_width(max(0, *key))
            packed = pack(key, n, w)
            assert unpack_key(packed, n, w) == key
            if key[n] < 0:
                assert packed < 0
            # packing is linear: the packed sum of two keys is their sum
            other = tuple(rng.randint(0, e) for _ in range(n)) + (
                rng.randint(-e, e), rng.randint(0, e), rng.randint(0, e)
            )
            total = tuple(map(add, key, other))
            w = key_width(max(0, *total))
            assert pack(key, n, w) + pack(other, n, w) == pack(total, n, w)
            assert unpack_key(pack(key, n, w) + pack(other, n, w), n, w) == total
            # the engine's layouts: n variables at block offset n of 2n fields
            # keep the tail above the whole block
            wide = pack(key, n, w, 2 * n, n)
            assert wide >> (w * n) & ((1 << (w * n)) - 1) == pack(key[:n] + (0, 0, 0), n, w)
            assert wide >> (w * 2 * n) == pack((0,) * n + key[n:], n, w) >> (w * n)
    # every field at its extremes, for every small n and w
    for n in range(6):
        for w in range(1, 10):
            top = (1 << w) - 1
            for key in (
                (top,) * n + (-(1 << w), top, top),
                tuple(rng.randint(0, top) for _ in range(n)) + (rng.randint(-top, -1), 0, top),
                (0,) * n + (-1, 0, 0),
                tuple(rng.randint(0, top) for _ in range(n)) + (top, rng.randint(0, top), 0),
            ):
                assert unpack_key(pack(key, n, w), n, w) == key
    # one bit too narrow reads a different key
    key = (4, 0, -1, 4, 0)
    w = key_width(4)
    assert unpack_key(pack(key, 2, w), 2, w) == key
    assert unpack_key(pack(key, 2, w - 1), 2, w - 1) != key


def gaussian_map(parts: tuple) -> dict:
    """A (re, im) pair of numerator maps as one map to (re, im) int pairs."""
    re, im = parts[0], parts[1]
    return {e: (re.get(e, 0), im.get(e, 0)) for e in re.keys() | im.keys()}


def test_complex_product_of_numerator_maps():
    from starquant.poly import _add_products, _complex

    # empty maps and empty product lists give empty maps
    assert _complex(_add_products, []) == ({}, {})
    assert _complex(_add_products, [(({}, {}), ({1: 2}, {3: 4}), 5)]) == ({}, {})
    # imaginary-only values: (3i z^1)(5i z^2) = -15 z^3, (3i)(5) = 15i
    assert _complex(_add_products, [(({}, {1: 3}), ({}, {2: 5}), 1)]) == ({3: -15}, {})
    assert _complex(_add_products, [(({}, {1: 3}), ({2: 5}, {}), 1)]) == ({}, {3: 15})
    # negative numerators and multipliers: -(-2 + i)(3 - 4i) - (-2)(-1)
    # = -11i, whose real part cancels and is stripped
    products = [
        (({0: -2}, {0: 1}), ({1: 3}, {1: -4}), -1),
        (({1: -2}, {}), ({0: -1}, {}), -1),
    ]
    assert _complex(_add_products, products) == ({}, {1: -11})
    # random sums against (a + bi)(c + di) on int pairs
    rng = random.Random(41)
    for _ in range(40):
        products = []
        want: dict = {}
        for _ in range(rng.randint(0, 3)):
            maps = [
                tuple(
                    {rng.randint(0, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 3))}
                    for _ in range(2)
                )
                for _ in range(2)
            ]
            m = rng.choice((-3, -1, 1, 2))
            products.append((*maps, m))
            x, y = (gaussian_map(p) for p in maps)
            for ex, (a, b) in x.items():
                for ey, (c, d) in y.items():
                    re, im = want.get(ex + ey, (0, 0))
                    want[ex + ey] = (re + m * (a * c - b * d), im + m * (a * d + b * c))
        re, im = _complex(_add_products, products)
        assert all(re.values()) and all(im.values())
        assert gaussian_map((re, im)) == {e: v for e, v in want.items() if v != (0, 0)}


def test_lowest_terms_and_order_sums():
    from starquant.poly import _lowest, _order_sum

    assert _lowest({}, {}, 6) == ({}, {}, 1)
    # negative numerators: gcd(8, -4, 6) = 2
    assert _lowest({1: -4}, {2: 6}, 8) == ({1: -2}, {2: 3}, 4)
    assert _lowest({}, {2: -9}, 6) == ({}, {2: -3}, 2)
    # a triple already in lowest terms comes back as it is
    re, im = {1: 3, 2: -6}, {1: 2}
    assert _lowest(re, im, 4) == (re, im, 4)
    assert _lowest(re, im, 4)[0] is re
    # zero numerators leave the gcd as it is
    assert _lowest({1: 0, 2: 10}, {}, 15) == ({1: 0, 2: 2}, {}, 3)
    # 1/2 z^1 + (1/6 - i/3) z^1 + 5i/12 z^2 = 2/3 z^1 + (-1/3 z^1 + 5/12 z^2) i
    orders = [({1: 1}, {}, 2), ({1: 1}, {1: -2}, 6, "w"), ({}, {2: 5}, 12)]
    assert _order_sum(orders) == ({1: 8}, {1: -4, 2: 5}, 12)
    assert _order_sum([({}, {}, 1), ({}, {}, 4)]) == ({}, {}, 4)
    # denominators that do not divide the last one: 1/4 + 1/6 = 5/12
    assert _order_sum([({1: 1}, {}, 4), ({1: 1}, {}, 6)]) == ({1: 5}, {}, 12)


def test_kernel_denominator_is_in_lowest_terms():
    from fractions import Fraction
    from math import gcd, lcm

    from starquant.star import StarContext, _full_entries

    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 3)
        lam = [[gr(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                v = GaussianRational(
                    rat(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6))),
                    rat(rng.randint(-4, 4), rng.choice((1, 3, 9))),
                )
                lam[a][b], lam[b][a] = v, -v
        coupling = MultiPoly.param("mu", 1, gr(rng.choice((1, 2, 3)), rng.choice((1, 2, 4))))
        if not any(map(any, lam)):
            continue
        kernel = _full_entries(StarContext.constant(lam, coupling), coupling)
        nums = [c for part in (kernel.re, kernel.im) for _, row in part for _, _, c in row]
        assert kernel.den > 0 and all(nums) and gcd(kernel.den, *nums) == 1
        # the lcm of the denominators of the steps' parts
        c = coupling.constant_coefficient().terms
        (cval,) = c.values()
        dens = [
            Fraction(part).denominator
            for row in lam
            for v in row
            if v
            for part in ((v * cval).re, (v * cval).im)
        ]
        assert kernel.den == lcm(*dens)


# --- canonical fields ---------------------------------------------------------


def assert_canonical(p: MultiPoly) -> None:
    """den > 0, lowest terms, no zero numerator."""
    from math import gcd

    assert p.den > 0
    assert gcd(p.den, *p.re.values(), *p.im.values()) == 1
    assert all(p.re.values()) and all(p.im.values())


GAUSS = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=12)),
)


@st.composite
def polys(draw, n=2):
    key = st.tuples(
        *[st.integers(0, 3)] * n, st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)
    )
    return MultiPoly(n, draw(st.dictionaries(key, GAUSS, max_size=5)))


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys(), GAUSS, polys(0), polys(0))
def test_every_operation_keeps_the_fields_canonical(a, b, c, g, s, t):
    from starquant.grading import decompose, specialize_mu

    unit = MultiPoly.param("mu", -1, g) if g else MultiPoly.one(0)
    results = [
        a, a + b, a - b, a * b, -a, a.derivative(0), a.derivative(1), a.shift([s, t]),
        a.scale(s), a.scale_gauss(g), a.scale_rat(g.re), unit.inverse(), a ** 2,
        a.constant_coefficient(), MultiPoly.const(2, s), *decompose(a).components.values(),
    ]
    if g:
        results.append(specialize_mu(a, g))
    for p in results:
        assert_canonical(p)
    # equal values built different ways have equal fields and hashes
    for x, y in [
        ((a + b) + c, a + (b + c)),
        (a * b, b * a),
        (a - a, MultiPoly.zero(2)),
        (MultiPoly(2, a.terms), a),
        (a * (b + c), a * b + a * c),
    ]:
        assert (x.den, x.re, x.im) == (y.den, y.re, y.im)
        assert x == y and hash(x) == hash(y)
