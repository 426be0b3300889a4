import random
from operator import add, mul

import pytest

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


def test_quadratic_form():
    A = ((gr(1), gr(2)), (gr(2), gr(-1)))
    q = quadratic_form(A, 2)
    z0, z1 = Z2(0), Z2(1)
    assert q == z0 ** 2 - z1 ** 2 + (z0 * z1).scale_rat(rat(4))


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
    # one bit too narrow reads a different key
    key = (4, 0, -1, 4, 0)
    w = key_width(4)
    assert unpack_key(pack(key, 2, w), 2, w) == key
    assert unpack_key(pack(key, 2, w - 1), 2, w - 1) != key
