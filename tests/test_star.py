import importlib
import random
from itertools import islice
from math import factorial, lcm, perm

import pytest
from oracles import ode_by_products, poisson_bracket

from starquant.errors import PreconditionError
from starquant.matrices import OrderingK, SqMatrix
from starquant.parsing import parse_poly
from starquant.poly import HALF_MU, HBAR, I_HBAR_HALF, MU, MU_INV, TAU, MultiPoly
from starquant.scalars import EXP_ZERO, GR_I, GR_ONE, PARAM_INDEX, GaussianRational, gr, rat
from starquant.series import TruncSeries
from starquant.star import (
    StarContext,
    _entries,
    exp_linear_product,
    intertwine,
    iterated_terms,
    ode_star_exponential,
    standard_j,
    star,
    star_commutator,
    star_k_ordered,
    star_terms,
)
from starquant.verify import _so3_context, pairing_product, rand_antisym, rand_poly


def simple_ctx() -> StarContext:
    lam = ((gr(0), gr(1)), (gr(-1), gr(0)))
    return StarContext.constant(lam, HALF_MU)


def zvars(n):
    return [MultiPoly.variable(n, j) for j in range(n)]


def rand_symmetric_k(rng, n) -> OrderingK:
    rows = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = gr(rng.randint(-2, 2), rng.randint(1, 2))
            rows[i][j] = v
            rows[j][i] = v
    return OrderingK(tuple(tuple(r) for r in rows))


def test_star_basic_example():
    z0, z1 = zvars(2)
    ctx = simple_ctx()
    assert star(ctx, z0, z1) == z0 * z1 + MultiPoly.const(2, HALF_MU)


def test_star_unit_and_zero_lambda():
    rng = random.Random(3)
    ctx = simple_ctx()
    zero_ctx = StarContext.constant(((gr(0), gr(0)), (gr(0), gr(0))), HALF_MU)
    for _ in range(10):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        assert star(ctx, f, MultiPoly.one(2)) == f
        assert star(ctx, MultiPoly.one(2), f) == f
        assert star(zero_ctx, f, g) == f * g


def test_commutators():
    z0, z1 = zvars(2)
    ctx = simple_ctx()
    assert star_commutator(ctx, z0, z1) == MultiPoly.const(2, MU)
    f = z0 * z0 * z1 + z1
    assert star_commutator(ctx, f, f).is_zero()
    # Weyl-algebra convention: [u, v] = -i hbar (J entry 0,1 is -1)
    w = StarContext.weyl(1)
    minus_ih = MultiPoly.param("hbar", 1, -GR_I)
    assert star_commutator(w, z0, z1) == MultiPoly.const(2, minus_ih)


def test_k_ordered_examples():
    z0, z1 = zvars(2)
    w = StarContext.weyl(1)
    k0 = OrderingK.normal(1)
    ih = MultiPoly.param("hbar", 1, GR_I)
    assert star_k_ordered(w, k0, z0, z1) == z0 * z1
    assert star_k_ordered(w, k0, z1, z0) == z0 * z1 + MultiPoly.const(2, ih)
    # K = 0 reduces to the plain product
    rng = random.Random(8)
    kw = OrderingK.weyl(2)
    for _ in range(5):
        f, g = rand_poly(rng, 2, 3, 3), rand_poly(rng, 2, 3, 3)
        assert star_k_ordered(w, kw, f, g) == star(w, f, g)


def test_k_ordered_preconditions():
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    poly_ctx = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    with pytest.raises(PreconditionError):
        star_k_ordered(poly_ctx, OrderingK.weyl(2), z0, z0)
    with pytest.raises(PreconditionError, match="ordering matrix must be symmetric"):
        OrderingK(((gr(0), gr(1)), (gr(2), gr(0))))
    k0 = OrderingK.normal(1)
    with pytest.raises(AttributeError, match="OrderingK is immutable"):
        k0.den = 2
    with pytest.raises(AttributeError, match="OrderingK is immutable"):
        k0.entries = ()


def test_intertwine_examples():
    z0, z1 = zvars(2)
    k0 = OrderingK.normal(1)
    c = MultiPoly.const(2, MultiPoly.from_rat(7, 2))
    assert intertwine(k0, c) == c
    ih_half = MultiPoly.param("hbar", 1, GaussianRational(0, rat(1, 2)))
    assert intertwine(k0, z0 * z1) == z0 * z1 + MultiPoly.const(2, ih_half)


def test_intertwiner_homomorphism_identity():
    # conjugation by the intertwiner converts the plain product into the
    # K-ordered product (the displayed identity, tested verbatim)
    rng = random.Random(17)
    w = StarContext.weyl(1)
    minus_quarter = MultiPoly.param("hbar", 1, GaussianRational(0, rat(-1, 4)))
    for _ in range(10):
        f, g = rand_poly(rng, 2, 3, 3), rand_poly(rng, 2, 3, 3)
        kmat = rand_symmetric_k(rng, 2)
        tf = intertwine(kmat, f, minus_quarter)
        tg = intertwine(kmat, g, minus_quarter)
        assert intertwine(kmat, star(w, tf, tg)) == star_k_ordered(w, kmat, f, g)


def test_intertwine_inverse_pair():
    rng = random.Random(29)
    minus_quarter = MultiPoly.param("hbar", 1, GaussianRational(0, rat(-1, 4)))
    for _ in range(5):
        f = rand_poly(rng, 2, 4, 3)
        kmat = rand_symmetric_k(rng, 2)
        assert intertwine(kmat, intertwine(kmat, f, minus_quarter)) == f


def test_exp_linear_product():
    z0, z1 = zvars(2)
    ctx = StarContext.weyl(1)
    k = OrderingK.weyl(2)
    s = MultiPoly.param("tau")
    pre, shifted = exp_linear_product(ctx, k, (gr(0), gr(1)), s, z0, "left")
    # shift vector (s/2)(0,1)J = (s/2, 0), so u goes to u + s/2
    assert shifted == z0 + MultiPoly.const(2, s.scale_rat(rat(1, 2)))
    assert pre.sign == 1 and pre.scale == s
    # s = 0 leaves f unchanged
    _, unchanged = exp_linear_product(
        ctx, k, (gr(0), gr(1)), MultiPoly.from_rat(0), z0, "right"
    )
    assert unchanged == z0
    # constants are unchanged by any shift
    c = MultiPoly.const(2, MU)
    _, out = exp_linear_product(ctx, k, (gr(1), gr(1)), s, c, "left")
    assert out == c
    # with K = K0: -K0+J = [[0,-2],[0,0]], so a = (0,1) gives no shift on u
    k0 = OrderingK.normal(1)
    _, right = exp_linear_product(ctx, k0, (gr(0), gr(1)), s, z0, "right")
    assert right == z0
    # K0+J = [[0,0],[2,0]]: a = (0,1) shifts u by s but leaves v alone
    _, left = exp_linear_product(ctx, k0, (gr(0), gr(1)), s, z1, "left")
    assert left == z1
    _, left_u = exp_linear_product(ctx, k0, (gr(0), gr(1)), s, z0, "left")
    assert left_u == z0 + MultiPoly.const(2, s)


def test_ode_star_exponential_trivial_cases():
    ctx = simple_ctx()
    assert ode_star_exponential(ctx, MultiPoly.zero(2), 6) == TruncSeries.one(2, 6)
    # commutative limit: lambda = 0 gives the pointwise exponential of t*h
    zero_ctx = StarContext.constant(((gr(0), gr(0)), (gr(0), gr(0))), HALF_MU)
    h = MultiPoly.variable(2, 0) ** 2
    F = ode_star_exponential(zero_ctx, h, 6)
    fact = 1
    for k in range(7):
        if k:
            fact *= k
        assert F.coeffs[k] == (h ** k).scale_rat(rat(1, fact))


def test_ode_star_exponential_quadratic_recursion():
    # H = (z0^2 + z1^2)/mu with the basic context: the recursion itself is
    # the oracle; its first two steps have hand-expanded values
    ctx = simple_ctx()
    z0, z1 = zvars(2)
    h = (z0 ** 2 + z1 ** 2).scale(MU_INV)
    F = ode_star_exponential(ctx, h, 4)
    assert F.coeffs[1] == h
    assert F.coeffs[2] == (h * h + MultiPoly.one(2)).scale_rat(rat(1, 2))
    assert F.coeffs[2] == star(ctx, h, F.coeffs[1]).scale_rat(rat(1, 2))


def test_star_terms_grading_and_first_order():
    rng = random.Random(21)
    mu_slot = PARAM_INDEX["mu"]
    for n in (2, 4):
        lam = rand_antisym(rng, n)
        ctx = StarContext.constant(lam.rows, HALF_MU)
        scal = ctx.scalar_entries()
        checked = 0
        while checked < 6:
            f = rand_poly(rng, n, 4, 1)
            g = rand_poly(rng, n, 4, 1)
            if f.is_zero() or g.is_zero():
                continue
            checked += 1
            p, q = f.degree(), g.degree()
            terms = star_terms(ctx, f, g)
            assert terms[0] == f * g
            # independent first-order expansion
            first = MultiPoly.zero(n)
            for a in range(n):
                for b in range(n):
                    if scal[a][b]:
                        first = first + (
                            f.derivative(a) * g.derivative(b)
                        ).scale(scal[a][b])
            first = first.scale(HALF_MU)
            if len(terms) > 1:
                assert terms[1] == first
            else:
                assert first.is_zero()
            # contraction order k drops the degree by 2k and carries mu^k
            for k, term in enumerate(terms):
                if term.is_zero():
                    continue
                assert {sum(e[:n]) for e in term.terms} == {p + q - 2 * k}
                assert all(e[n + mu_slot] == k for e in term.terms)


def test_star_matches_pairing_product():
    # pairing_product expands exp(coupling * L^{ab} d_a (x) d_b) directly and
    # shares no code with the contraction engine.  The coupling's parameter
    # power tags the order (mu^k or hbar^k), so equal sums are equal at
    # every order.
    rng = random.Random(31)
    for n, max_deg in ((2, 5), (4, 4), (6, 3)):
        for coupling in (HALF_MU, I_HBAR_HALF):
            lam = rand_antisym(rng, n)
            ctx = StarContext.constant(lam.rows, coupling)
            pairs = [
                (a, b, coupling.scale_gauss(lam.rows[a][b]))
                for a in range(n)
                for b in range(n)
                if lam.rows[a][b]
            ]
            for _ in range(4):
                f = rand_poly(rng, n, max_deg, 4)
                g = rand_poly(rng, n, max_deg, 4)
                assert star(ctx, f, g) == pairing_product(pairs, f, g)
    # parameters in lambda, f and g: the pairs (z0^2 mu, z1^2 hbar) and
    # (z0^2 hbar, z1^2 mu) meet on one contraction key
    z0, z1 = zvars(2)
    w = MU + TAU.scale_rat(rat(3))
    ctx = StarContext.constant(((gr(0), w), (-w, gr(0))), HALF_MU)
    pairs = [(0, 1, HALF_MU * w), (1, 0, -(HALF_MU * w))]
    f = (z0 * z0).scale(MU + HBAR) + (z0 * z1).scale(TAU)
    g = (z1 * z1).scale(HBAR + MU) + z1
    assert star(ctx, f, g) == pairing_product(pairs, f, g)


def gpoly(n, terms) -> MultiPoly:
    """A polynomial from {z exponents: (re, im)} with rational text parts."""
    return MultiPoly(
        n, {tuple(e) + EXP_ZERO: GaussianRational(re, im) for e, (re, im) in terms.items()}
    )


def antisym(n, upper) -> tuple:
    """The antisymmetric matrix with entries {(a, b): value} above the diagonal."""
    rows = [[gr(0)] * n for _ in range(n)]
    for (a, b), v in upper.items():
        rows[a][b] = v
        rows[b][a] = -v
    return tuple(tuple(r) for r in rows)


def coupled_pairs(rows, coupling) -> list:
    """The pairings coupling * rows[a][b] of a constant matrix."""
    n = len(rows)
    return [
        (a, b, coupling.scale_gauss(rows[a][b]))
        for a in range(n)
        for b in range(n)
        if rows[a][b]
    ]


# f and g of degree 3 with complex coefficients whose denominators are
# pairwise coprime, so that every order up to 3 has a term
F3 = gpoly(3, {(2, 1, 0): ("1/2", "1/5"), (0, 1, 2): ("-3/7", 0), (1, 0, 1): (0, "2/9")})
G3 = gpoly(3, {(1, 2, 0): ("5/3", "-1/4"), (0, 0, 3): ("1/11", 0), (1, 1, 1): (0, "7/5")})


def test_star_complex_lambda_with_coprime_denominators():
    # the kernel's common denominator is the lcm of 3, 7, 11 and 13 (times
    # the coupling's 2), and the complex entry feeds all four passes
    lam = antisym(
        3,
        {
            (0, 1): gr(1, 3),
            (0, 2): gr(2, 7),
            (1, 2): GaussianRational(rat(5, 11), rat(1, 13)),
        },
    )
    for coupling in (HALF_MU, I_HBAR_HALF):
        ctx = StarContext.constant(lam, coupling)
        pairs = coupled_pairs(lam, coupling)
        assert star(ctx, F3, G3) == pairing_product(pairs, F3, G3)
        assert star(ctx, G3, F3) == pairing_product(pairs, G3, F3)


def test_star_two_term_complex_coupling():
    rng = random.Random(43)
    coupling = MU.scale_gauss(GaussianRational(rat(1, 2), rat(1, 3))) + HBAR.scale_gauss(
        GaussianRational(0, rat(-2, 5))
    )
    for n in (2, 4):
        lam = rand_antisym(rng, n)
        ctx = StarContext.constant(lam.rows, coupling)
        pairs = coupled_pairs(lam.rows, coupling)
        for _ in range(4):
            f = rand_poly(rng, n, 4, 4)
            g = rand_poly(rng, n, 4, 4)
            assert star(ctx, f, g) == pairing_product(pairs, f, g)
    lam = antisym(3, {(0, 1): gr(1), (1, 2): gr(-2, 3)})
    ctx = StarContext.constant(lam, coupling)
    assert star(ctx, F3, G3) == pairing_product(coupled_pairs(lam, coupling), F3, G3)


def test_star_factors_with_coprime_denominators():
    ctx = StarContext.weyl(2)
    pairs = coupled_pairs(standard_j(2), I_HBAR_HALF)
    f = gpoly(4, {(2, 1, 0, 0): ("1/2", 0), (0, 1, 2, 1): ("1/3", "1/5"), (1, 0, 0, 1): (0, "1/17")})
    g = gpoly(4, {(0, 2, 1, 0): ("1/7", 0), (1, 0, 2, 1): ("1/11", "-1/13"), (0, 1, 0, 0): ("1/19", 0)})
    assert star(ctx, f, g) == pairing_product(pairs, f, g)
    assert star(ctx, g, f) == pairing_product(pairs, g, f)


def test_star_real_and_imaginary_parts_cancel():
    # lambda^{01} = 1: order 1 of (z0 + i z1) * (i z0 - z1) is 1*(-1) from
    # the real parts and -(i*i) from the imaginary ones, which cancel on the
    # one key; the emptied state ends the contraction after order 0
    ctx = simple_ctx()
    f = gpoly(2, {(1, 0): (1, 0), (0, 1): (0, 1)})
    g = gpoly(2, {(1, 0): (0, 1), (0, 1): (-1, 0)})
    assert star(ctx, f, g) == f * g
    assert len(star_terms(ctx, f, g)) == 1
    assert len(iterated_terms(ctx, f, g, 3)) == 1
    # the same cancellation inside a product with terms at orders 1 and 2
    pairs = coupled_pairs(antisym(2, {(0, 1): gr(1)}), HALF_MU)
    f2 = f + gpoly(2, {(2, 1): ("1/3", "2/5")})
    g2 = g + gpoly(2, {(1, 2): ("-3/7", "1/2")})
    assert star(ctx, f2, g2) == pairing_product(pairs, f2, g2)


def test_k_ordered_complex_k_matches_pairing_product():
    ctx = StarContext.weyl(1)
    k = OrderingK(
        (
            (GaussianRational(rat(1, 3), rat(1, 2)), gr(2, 5)),
            (gr(2, 5), GaussianRational(0, rat(-1, 7))),
        )
    )
    mixed = tuple(
        tuple(standard_j(1)[a][b] + k.rows[a][b] for b in range(2)) for a in range(2)
    )
    pairs = coupled_pairs(mixed, I_HBAR_HALF)
    f = gpoly(2, {(3, 0): ("1/2", "1/3"), (1, 2): ("-2/5", 0), (0, 1): (0, "3/7")})
    g = gpoly(2, {(0, 3): ("5/11", 0), (2, 1): ("1/13", "-1/2"), (1, 0): ("1", 0)})
    assert star_k_ordered(ctx, k, f, g) == pairing_product(pairs, f, g)
    assert star_k_ordered(ctx, k, g, f) == pairing_product(pairs, g, f)


def factor_orders(ctx, f, g, k_max, iterated) -> list:
    """Orders 0..k_max of the iterated or the bare fully contracted
    biderivation, on lists of polynomial factors (p, q, w).

    A step differentiates p in z_a and q in z_b and multiplies by lam[a][b]:
    into q for the iterated form, where later steps differentiate it, and
    into w for the contracted form, where none does.
    """
    n = ctx.n
    state = [(f, g, MultiPoly.one(n))]
    orders = []
    for _ in range(k_max + 1):
        orders.append(sum((p * q * w for p, q, w in state), MultiPoly.zero(n)))
        nxt = []
        for p, q, w in state:
            for a in range(n):
                dp = p.derivative(a)
                for b in range(n):
                    entry = ctx.lam[a][b]
                    dq = q.derivative(b)
                    if dp.is_zero() or dq.is_zero() or entry.is_zero():
                        continue
                    nxt.append((dp, entry * dq, w) if iterated else (dp, dq, w * entry))
        state = nxt
    return orders


def test_polynomial_lambda_with_fractional_coefficients():
    z = zvars(3)
    zero = MultiPoly.zero(3)
    l01 = z[2].scale_rat(rat(2, 3)) + MultiPoly.const(3, MultiPoly.from_rat(1, 5))
    l02 = (z[0] * z[1]).scale_gauss(GaussianRational(rat(-1, 7), rat(1, 2)))
    l12 = z[0].scale_rat(rat(3, 4))
    lam = ((zero, l01, l02), (-l01, zero, l12), (-l02, -l12, zero))
    ctx = StarContext(3, lam, HALF_MU)
    k_max = 4
    iterated = factor_orders(ctx, F3, G3, k_max, True)
    contracted = factor_orders(ctx, F3, G3, k_max, False)
    got = iterated_terms(ctx, F3, G3, k_max)
    got += [zero] * (k_max + 1 - len(got))
    assert got == iterated
    # the iterated form differentiates the entries: it differs from the
    # contracted one from order 2 on
    assert iterated[2] != contracted[2]
    terms = star_terms(ctx, F3, G3)
    assert len(terms) <= k_max
    weight = MultiPoly.one(0)
    for k, term in enumerate(terms):
        assert term == contracted[k].scale(weight)
        weight = weight * HALF_MU.scale_rat(rat(1, k + 1))
    assert all(c.is_zero() for c in contracted[len(terms):])


def test_polynomial_lambda_first_order_is_bracket():
    # rotation-algebra, cyclic and log-canonical structure matrices on n=3
    z = zvars(3)
    zero = MultiPoly.zero(3)
    q01, q02, q12 = (MultiPoly.from_rat(v) for v in (2, -1, 3))
    lams = [
        ((zero, z[2], -z[1]), (-z[2], zero, z[0]), (z[1], -z[0], zero)),
        ((zero, z[2], z[0]), (-z[2], zero, z[1]), (-z[0], -z[1], zero)),
        (
            (zero, (z[0] * z[1]).scale(q01), (z[0] * z[2]).scale(q02)),
            (-(z[0] * z[1]).scale(q01), zero, (z[1] * z[2]).scale(q12)),
            (-(z[0] * z[2]).scale(q02), -(z[1] * z[2]).scale(q12), zero),
        ),
    ]
    rng = random.Random(41)
    for lam in lams:
        ctx = StarContext(3, lam, HALF_MU)
        for _ in range(4):
            f = rand_poly(rng, 3, 3, 3)
            g = rand_poly(rng, 3, 3, 3)
            bracket = poisson_bracket(ctx, f, g)
            terms = star_terms(ctx, f, g)
            first = terms[1] if len(terms) > 1 else MultiPoly.zero(3)
            assert first == bracket.scale(HALF_MU)
            # the iterated form agrees with the bracket at order 1 as well
            iterated = iterated_terms(ctx, f, g, 2)
            first = iterated[1] if len(iterated) > 1 else MultiPoly.zero(3)
            assert first == bracket


def test_associativity_smoke():
    rng = random.Random(77)
    for n in (2, 4):
        lam = rand_antisym(rng, n)
        ctx = StarContext.constant(lam.rows, HALF_MU)
        for _ in range(5):
            f, g, h = (rand_poly(rng, n, 3, 3) for _ in range(3))
            assert star(ctx, star(ctx, f, g), h) == star(ctx, f, star(ctx, g, h))


def test_jacobi_identity_for_commutator():
    rng = random.Random(5)
    ctx = simple_ctx()
    for _ in range(50):
        f, g, h = (rand_poly(rng, 2, 3, 2) for _ in range(3))
        total = (
            star_commutator(ctx, f, star_commutator(ctx, g, h))
            + star_commutator(ctx, g, star_commutator(ctx, h, f))
            + star_commutator(ctx, h, star_commutator(ctx, f, g))
        )
        assert total.is_zero()


def test_non_constant_lambda_contracted_form():
    # lambda^{01} = z0: one contraction of (z0, z1) picks up the factor z0
    z0, z1 = zvars(2)
    zero = MultiPoly.zero(2)
    ctx = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    assert not ctx.constant_lambda
    assert star(ctx, z0, z1) == z0 * z1 + z0.scale(HALF_MU)
    f = z0 ** 2 * z1
    assert star(ctx, f, MultiPoly.one(2)) == f
    terms = star_terms(ctx, f, z1 ** 2)
    assert len(terms) <= min(f.degree(), 2) + 1


def test_context_validation():
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    with pytest.raises(PreconditionError):
        StarContext(2, ((zero, z0), (z0, zero)), HALF_MU)  # not antisymmetric
    message = "^lambda must be antisymmetric as a matrix of polynomials$"
    one, z1 = MultiPoly.one(2), MultiPoly.variable(2, 1)
    with pytest.raises(PreconditionError, match=message):
        StarContext(2, ((zero, one), (-one, z1)), HALF_MU)  # a nonzero diagonal entry
    z3 = MultiPoly.zero(3)
    rows = [[z3] * 3 for _ in range(3)]
    rows[0][2], rows[2][0] = MultiPoly.one(3), -MultiPoly.one(3)
    rows[1][2], rows[2][1] = MultiPoly.variable(3, 0), MultiPoly.variable(3, 1)
    with pytest.raises(PreconditionError, match=message):
        StarContext(3, rows, HALF_MU)  # wrong only below the diagonal
    rows[2][1] = -MultiPoly.variable(3, 0)
    assert StarContext(3, rows, HALF_MU).lam[2][1] == -MultiPoly.variable(3, 0)
    with pytest.raises(PreconditionError):
        StarContext.constant(
            ((gr(0), gr(1)), (gr(-1), gr(0))), MultiPoly.from_rat(0)
        )
    with pytest.raises(ValueError):
        star(simple_ctx(), MultiPoly.variable(3, 0), MultiPoly.variable(3, 1))


def test_standard_j_shape():
    j = standard_j(2)
    assert j[0][2] == -GaussianRational(1)
    assert j[2][0] == GaussianRational(1)
    assert all(not j[i][i] for i in range(4))
    # the ordering matrices K0 = [[0, I], [I, 0]], -K0 and 0 are SqMatrix
    for m in (1, 2, 3):
        n = 2 * m
        k0 = [[gr(0)] * n for _ in range(n)]
        for i in range(m):
            k0[i][m + i] = k0[m + i][i] = gr(1)
        minus_k0 = [[-v for v in row] for row in k0]
        zero = [[gr(0)] * n for _ in range(n)]
        for k, rows in (
            (OrderingK.normal(m), k0),
            (OrderingK.antinormal(m), minus_k0),
            (OrderingK.weyl(n), zero),
        ):
            assert isinstance(k, SqMatrix) and type(k) is OrderingK
            assert k.rows == tuple(map(tuple, rows))
            assert k == SqMatrix(rows)


# --- exponents wider than one byte per packed key field ----------------------


def term(n, exps, mu=0, hbar=0, tau=0, coef=GR_ONE) -> MultiPoly:
    """The one-term polynomial coef * z^exps * mu^mu * hbar^hbar * tau^tau."""
    return MultiPoly(n, {tuple(exps) + (mu, hbar, tau): coef})


def test_star_with_wide_exponents_matches_pairing_product():
    # f in z0 and g in z1 only, so pairing_product follows one pairing
    # sequence; the coupling adds mu^-300 hbar^300 per order, up to
    # hbar^12300, and f, g carry z^41, mu^-300, hbar^300 and tau^260
    coupling = term(0, (), -300, 300, coef=GaussianRational(rat(1, 2), rat(1, 5)))
    lam = antisym(2, {(0, 1): gr(1, 3)})
    ctx = StarContext.constant(lam, coupling)
    pairs = coupled_pairs(lam, coupling)
    f = term(2, (40, 0), -300, 300) + term(2, (3, 0), tau=260, coef=gr(2, 3))
    g = term(2, (0, 41), -300) + term(2, (0, 2), hbar=300, coef=gr(5, 7))
    assert star(ctx, f, g) == pairing_product(pairs, f, g)
    assert star(ctx, g, f) == pairing_product(pairs, g, f)
    # z exponents of 300: 301 orders, against the closed form
    # z0^p (*) z1^q = sum_k (mu/2 L01)^k / k! p!/(p-k)! q!/(q-k)! z0^(p-k) z1^(q-k)
    ctx = StarContext.constant(lam, HALF_MU)
    p = q = 300
    want = MultiPoly.zero(2)
    for k in range(p + 1):
        c = rat(1, 6) ** k / factorial(k) * perm(p, k) * perm(q, k)
        want = want + term(2, (p - k, q - k), k - 300, coef=gr(c))
    assert star(ctx, term(2, (p, 0)), term(2, (0, q), -300)) == want


def test_polynomial_lambda_with_wide_exponents_matches_factor_orders():
    # entries z_k mu^-300 hbar^300 (so(3) scaled): the w-variable and the
    # iterated kernels shift the tail by +-300 per step
    z = zvars(3)
    zero = MultiPoly.zero(3)
    scale = term(0, (), -300, 300)
    l01, l02, l12 = z[2].scale(scale), -z[1].scale(scale), z[0].scale(scale)
    lam = ((zero, l01, l02), (-l01, zero, l12), (-l02, -l12, zero))
    ctx = StarContext(3, lam, HALF_MU)
    f = term(3, (40, 1, 0), hbar=300) + term(3, (0, 0, 2), -300, tau=300, coef=gr(1, 3))
    g = term(3, (0, 41, 1), tau=300) + term(3, (1, 0, 0), -300, 299, coef=GR_I)
    k_max = 3
    got = iterated_terms(ctx, f, g, k_max)
    got += [zero] * (k_max + 1 - len(got))
    assert got == factor_orders(ctx, f, g, k_max, True)
    contracted = factor_orders(ctx, f, g, k_max, False)
    terms = star_terms(ctx, f, g)
    weight = MultiPoly.one(0)
    for k in range(k_max + 1):
        assert (terms[k] if k < len(terms) else zero) == contracted[k].scale(weight)
        weight = weight * HALF_MU.scale_rat(rat(1, k + 1))


def test_ode_star_exponential_with_wide_exponents():
    # F_{k+1} = H (*) F_k / (k+1), each product by pairing_product; H
    # carries mu^-300 hbar^300, so F_4 carries hbar^1200
    lam = antisym(2, {(0, 1): GaussianRational(rat(1, 2), rat(-1, 3))})
    ctx = StarContext.constant(lam, I_HBAR_HALF)
    pairs = coupled_pairs(lam, I_HBAR_HALF)
    h = (
        term(2, (2, 0), -300, 300)
        + term(2, (1, 1), tau=257, coef=gr(2, 3))
        + term(2, (0, 2), 300, coef=GR_I)
    )
    want = [MultiPoly.one(2)]
    for k in range(4):
        want.append(pairing_product(pairs, h, want[-1]).scale_rat(rat(1, k + 1)))
    assert ode_star_exponential(ctx, h, 4) == TruncSeries(2, 4, want)


def complex_antisym(rng, n) -> tuple:
    """A constant antisymmetric matrix with complex entries."""
    return antisym(n, {
        (a, b): GaussianRational(rat(rng.randint(-3, 3), rng.randint(1, 4)),
                                 rat(rng.randint(-3, 3), rng.randint(1, 5)))
        for a in range(n) for b in range(a + 1, n)
    })


def ode_hamiltonians(rng, n) -> list:
    """(H, N) cases: a quadratic H with mu^-1, a cubic one with mu^2 and
    complex coefficients, one that mixes mu^-1, mu^2 and a constant, the
    zero H and a constant H."""
    quadratic = sum(
        (term(n, [int(i == a) + int(i == b) for i in range(n)],
              coef=GaussianRational(rat(rng.randint(1, 3)), rat(rng.randint(-1, 1), 2)))
         for a in range(n) for b in range(a, n)),
        MultiPoly.zero(n),
    ).scale(MU_INV)
    cubic = rand_poly(rng, n, 3, 3).scale(MU ** 2)
    cubic += term(n, [3] + [0] * (n - 1), mu=2, coef=GaussianRational(rat(1, 3), rat(2)))
    mixed = (
        rand_poly(rng, n, 2, 3).scale(MU_INV)
        + rand_poly(rng, n, 2, 2).scale(MU ** 2)
        + term(n, [0] * n, coef=gr(-2, 5))
    )
    constant = term(n, [0] * n, mu=-1, coef=GaussianRational(rat(1, 2), rat(-1, 3)))
    N_cubic = 5 if n < 3 else 3
    return [(quadratic, 8), (cubic, N_cubic), (mixed, 6), (MultiPoly.zero(n), 8),
            (constant, 8)]


@pytest.mark.parametrize("coupling", [HALF_MU, I_HBAR_HALF], ids=["mu/2", "i*hbar/2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ode_star_exponential_agrees_with_products(n, coupling):
    # the left operator of H, built once, against one engine product per
    # order, on a constant lambda with complex entries
    rng = random.Random(700 + n)
    ctx = StarContext.constant(complex_antisym(rng, n), coupling)
    for h, N in ode_hamiltonians(rng, n):
        assert ode_star_exponential(ctx, h, N) == ode_by_products(ctx, h, N)


def test_ode_star_exponential_agrees_with_products_on_polynomial_lambda():
    # so(3) with a complex scale and a constant shift: the kernel's z
    # exponents go to the w-variables, which the operator collapses into x
    z = zvars(3)
    zero = MultiPoly.zero(3)
    c = GaussianRational(rat(2, 3), rat(-1, 2))
    l01 = z[2].scale_gauss(c) + MultiPoly.const(3, MultiPoly.from_rat(1, 5))
    l02, l12 = -z[1], (z[0] * z[0]).scale_rat(rat(3, 7))
    lam = ((zero, l01, l02), (-l01, zero, l12), (-l02, -l12, zero))
    rng = random.Random(711)
    for coupling in (HALF_MU, I_HBAR_HALF):
        ctx = StarContext(3, lam, coupling)
        for h, N in ode_hamiltonians(rng, 3)[:3]:
            N = min(N, 4)
            assert ode_star_exponential(ctx, h, N) == ode_by_products(ctx, h, N)


def so3_context(coupling) -> StarContext:
    """The rotation algebra {z_i, z_(i+1)} = z_(i+2), indices mod 3."""
    return StarContext(3, _so3_context().lam, coupling)


@pytest.mark.parametrize("coupling", [HALF_MU, I_HBAR_HALF], ids=["mu/2", "i*hbar/2"])
def test_ode_star_exponential_agrees_with_products_on_so3(coupling):
    # the fully contracted product of a linear lambda is not associative,
    # so F_k need not commute with H and the odd orders of H (*) F_k stay
    ctx = so3_context(coupling)
    rng = random.Random(733)
    for degree in (2, 3):
        for _ in range(6):
            h = rand_poly(rng, 3, degree, 4).scale(MU_INV)
            assert ode_star_exponential(ctx, h, 4) == ode_by_products(ctx, h, 4)


def beta_weights(monkeypatch, ctx, h, N) -> set:
    """The weights of the betas of the left operator that
    ``ode_star_exponential(ctx, h, N)`` builds, with its result checked
    against one product per order."""
    star_module = importlib.import_module("starquant.star")
    built = []
    build = star_module._left_operator

    def spy(kernel, poly, w, *args):
        operator = build(kernel, poly, w, *args)
        mask = (1 << w) - 1
        built.append({
            sum(beta >> (w * i) & mask for i in range(ctx.n))
            for beta, _ in operator[0]
        })
        return operator

    monkeypatch.setattr(star_module, "_left_operator", spy)
    assert ode_star_exponential(ctx, h, N) == ode_by_products(ctx, h, N)
    assert len(built) == 1
    return built[0]


def test_left_operator_keeps_the_odd_orders_only_on_a_polynomial_lambda(monkeypatch):
    # on a constant lambda B_k(g, f) = (-1)^k B_k(f, g) and every F_k
    # commutes with H, so the odd orders of H (*) F_k cancel and L_H keeps
    # beta of even weight only; so(3) keeps both parities
    rng = random.Random(741)
    h = rand_poly(rng, 3, 3, 6).scale(MU_INV) + term(3, (1, 1, 1), coef=gr(1, 2))
    for coupling in (HALF_MU, I_HBAR_HALF):
        constant = StarContext.constant(complex_antisym(rng, 3), coupling)
        assert beta_weights(monkeypatch, constant, h, 5) == {0, 2}
        assert beta_weights(monkeypatch, so3_context(coupling), h, 4) == {0, 1, 2, 3}


def apply_left_operator(ctx, h, f, even) -> MultiPoly:
    """The left operator of h, as ``ode_star_exponential`` builds it,
    applied once to f through the exponential's first step."""
    star_module = importlib.import_module("starquant.star")
    kernel = star_module._full_entries(ctx, ctx.coupling)
    steps = max(h.degree(), 0)
    w = star_module.key_width(f.max_exponent() + h.max_exponent() + steps * max(kernel.reach, 1))
    operator = star_module._left_operator(kernel, h, w, even)
    orders = star_module._exponential(operator, w, *f.numerators(w))
    re, im, den = next(islice(orders, 1, None), ({}, {}, 1))
    return MultiPoly.from_numerators(ctx.n, re, im, den, w)


@pytest.mark.parametrize("coupling", [HALF_MU, I_HBAR_HALF], ids=["mu/2", "i*hbar/2"])
def test_left_operator_on_an_f_that_does_not_commute_with_h(coupling):
    # the oracle applies L_H only to F_k that commute with H, so this
    # applies it to random F: every order gives H (*) F, the even ones
    # alone its symmetric part, since F (*) H = sum_k (-1)^k B_k(H, F)
    rng = random.Random(757)
    constant = StarContext.constant(complex_antisym(rng, 3), coupling)
    half = MultiPoly.from_rat(1, 2)
    for ctx in (constant, so3_context(coupling)):
        checked = 0
        while checked < 4:
            h = rand_poly(rng, 3, 3, 4).scale(MU_INV) + rand_poly(rng, 3, 2, 2)
            f = rand_poly(rng, 3, 3, 4)
            product = star(ctx, h, f)
            if product == star(ctx, f, h):
                continue
            checked += 1
            assert apply_left_operator(ctx, h, f, False) == product
            if ctx is constant:
                symmetric = (product + star(ctx, f, h)).scale(half)
                assert apply_left_operator(ctx, h, f, True) == symmetric


def test_ode_star_exponential_with_wide_z_fields():
    # H carries z0^70, so F_4 carries z0^280: the z fields pass 255 and the
    # key width must grow past 8 bits; the contractions pair z0 with z1
    lam = antisym(2, {(0, 1): GaussianRational(rat(2, 3), rat(1, 7))})
    h = term(2, (70, 1), -1) + term(2, (1, 2), 2, coef=gr(-3, 5)) + term(2, (0, 1))
    for coupling in (HALF_MU, I_HBAR_HALF):
        ctx = StarContext.constant(lam, coupling)
        got = ode_star_exponential(ctx, h, 4)
        assert got == ode_by_products(ctx, h, 4)
        assert got.coeffs[4].max_exponent() == 280


def test_ode_star_exponential_with_second_derivatives_in_two_fields():
    # H of degree 4 with z0^2 z1^2: its left operator has d^beta with
    # beta = (2, 2), so each derivative map is built from a map that is
    # itself built from one, through both fields
    z = zvars(3)
    lam = antisym(3, {(0, 1): GaussianRational(rat(1, 3), rat(-1, 2)), (1, 2): gr(2, 5)})
    h = (
        (z[0] ** 2 * z[1] ** 2).scale(MU_INV)
        + (z[1] ** 2 * z[2] ** 2).scale_gauss(GaussianRational(rat(-1, 7), rat(1, 3)))
        + z[0] * z[1] * z[2]
    )
    for coupling in (HALF_MU, I_HBAR_HALF):
        ctx = StarContext.constant(lam, coupling)
        assert ode_star_exponential(ctx, h, 3) == ode_by_products(ctx, h, 3)


# --- the contraction kernel against one product per entry ----------------


def per_entry_kernel(n, lam, offset, coupling):
    """(den, width, factorial, reach, {row a: sorted steps}) of the kernel
    built one entry at a time: each nonzero entry times the coupling as a
    MultiPoly product, its numerators over the lcm of the products'
    denominators."""
    width = 3 * n if offset == 2 * n else 2 * n
    c = MultiPoly.one(n) if coupling is None else MultiPoly.const(n, coupling)
    entries = [(a, b, p * c) for a, row in enumerate(lam) for b, p in enumerate(row) if p]
    den = lcm(*(p.den for _, _, p in entries))
    reach = 0
    parts = []
    for part in ("re", "im"):
        rows: dict = {}
        for a, b, p in entries:
            for key, v in getattr(p, part).items():
                shift = [0] * width
                if offset is not None:
                    shift[offset : offset + n] = key[:n]
                shift[a] -= 1
                shift[n + b] -= 1
                shift = (*shift, *key[n:])
                reach = max(reach, *shift)
                rows.setdefault(a, []).append((n + b, shift, v * (den // p.den)))
        parts.append({a: sorted(steps) for a, steps in rows.items()})
    return den, width, coupling is not None, reach, parts


def kernel_fields(kernel):
    """The same fields of a built kernel, with each row's steps sorted."""
    parts = [{a: sorted(steps) for a, steps in part} for part in (kernel.re, kernel.im)]
    return kernel.den, kernel.width, kernel.factorial, kernel.reach, parts


def random_entry(rng, n, constant) -> MultiPoly:
    """A complex entry with parameters: constant, or of degree at most 2."""
    p = rand_poly(rng, n, 0 if constant else 2, 3)
    for param in (MU, MU_INV, HBAR, TAU):
        if rng.random() < 0.3:
            p = p + rand_poly(rng, n, 0 if constant else 1, 2).scale(param)
    return p


KERNEL_COUPLINGS = ["mu/2", "i*hbar/2", "mu/2 + i*hbar/3", "(2/3 - i)*mu^-1 + tau", None]


@pytest.mark.parametrize("coupling", KERNEL_COUPLINGS)
def test_kernel_equals_the_per_entry_construction(coupling):
    # den, reach and the steps of every row, in any order, for constant and
    # polynomial contexts with complex entries, fully contracted and
    # iterated; None is the coupling of the iterated and lambda-relation
    # kernels
    rng = random.Random(3200 + KERNEL_COUPLINGS.index(coupling))
    c = None if coupling is None else parse_poly(coupling, 0)
    for case in range(60):
        n = rng.randint(1, 5)
        constant = case % 2 == 0
        zero = MultiPoly.zero(n)
        lam = [[zero] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.8:
                    p = random_entry(rng, n, constant)
                    lam[a][b], lam[b][a] = p, -p
        ctx = StarContext(n, lam, HALF_MU)
        offsets = [None] if ctx.constant_lambda else [n, 2 * n]
        for offset in offsets:
            kernel = _entries(n, ctx.lam, offset, c)
            assert kernel_fields(kernel) == per_entry_kernel(n, ctx.lam, offset, c)


def test_antisymmetry_near_misses_are_refused():
    # p = -q needs the same den and negated numerator maps
    z0, z1 = zvars(2)
    zero = MultiPoly.zero(2)
    half, third = gr(1, 2), gr(1, 3)
    near_misses = [
        (z0.scale_gauss(half), -z0.scale_gauss(third)),  # equal numerators, other dens
        (z0 + z1, -z0),  # one extra term
        (z0.scale_gauss(GaussianRational(rat(1), rat(1))),
         -z0.scale_gauss(GaussianRational(rat(1), rat(-1)))),  # flipped imaginary part
        (z0.scale(MU), z0.scale(MU)),  # not negated
    ]
    message = "^lambda must be antisymmetric as a matrix of polynomials$"
    for p, q in near_misses:
        with pytest.raises(PreconditionError, match=message):
            StarContext(2, ((zero, p), (q, zero)), HALF_MU)
    for diagonal in (z0.scale_gauss(GR_I), MultiPoly.const(2, MU), z1.scale_gauss(third)):
        with pytest.raises(PreconditionError, match=message):
            StarContext(2, ((diagonal, z0), (-z0, zero)), HALF_MU)
    p = (z0 + z1.scale(MU_INV)).scale_gauss(GaussianRational(rat(2, 3), rat(-1, 5)))
    assert StarContext(2, ((zero, p), (-p, zero)), HALF_MU).lam[1][0] == -p
