import random
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from oracles import jacobi_by_brackets

from starquant.errors import PreconditionError
from starquant.parsing import parse_poly
from starquant.grading import (
    GradedElement,
    _components,
    _graded_packed_keys,
    check_jacobi,
    check_lambda_relation,
    decompose,
    graded_keys,
    h0_dim,
    monomials_upto,
    specialize_mu,
    star_graded,
)
from starquant.matrices import SqMatrix, _expansion, expand_closed_form
from starquant.poly import HALF_MU, MU, MU_INV, MultiPoly
from starquant.scalars import GR_ONE, GR_ZERO, GaussianRational, gr, rat
from starquant.star import StarContext, iterated_terms, star, star_terms
from starquant.verify import (
    _cyclic_bad_context,
    _so3_context,
    rand_antisym,
    rand_invertible_antisym,
    rand_nonzero_gauss,
    rand_poly,
    rand_symmetric,
)


def basic_ctx(n=2) -> StarContext:
    rows = [[gr(0)] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        rows[i][i + 1] = gr(1)
        rows[i + 1][i] = gr(-1)
    return StarContext.constant(tuple(tuple(r) for r in rows), HALF_MU)


def test_decompose_examples():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = z0 ** 2 + z1.scale(MU)
    ge = decompose(f)
    assert set(ge.components) == {(2, 0), (1, 1)}
    assert ge.components[(2, 0)] == z0 ** 2
    assert ge.components[(1, 1)] == z1
    assert ge.reassemble() == f
    assert decompose(MultiPoly.zero(2)).is_zero()


def test_decompose_star_product_grading():
    ctx = basic_ctx()
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    out = decompose(star(ctx, z0 ** 2, z1 ** 2))
    assert set(out.components) == {(4, 0), (2, 1), (0, 2)}


def test_decompose_reassemble_roundtrip_random():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.choice((2, 3))
        f = rand_poly(rng, n).scale(MultiPoly.param("mu", rng.randint(-2, 2)))
        assert decompose(f).reassemble() == f


def test_graded_element_validation():
    z0 = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError):
        GradedElement(2, {(2, 0): z0})  # degree mismatch
    with pytest.raises(ValueError):
        GradedElement(2, {(1, 0): z0.scale(MU)})  # mu inside a component


def test_h0_dim():
    assert h0_dim(1, 2) == 3
    assert h0_dim(3, -1) == 0
    assert h0_dim(2, 3) == 10
    with pytest.raises(ValueError):
        h0_dim(0, 2)


def test_h0_dim_brute_force():
    # degree-m monomials in n+1 variables, enumerated as size-m multisets
    for n in range(1, 5):
        for m in range(0, 7):
            count = sum(1 for _ in combinations_with_replacement(range(n + 1), m))
            assert h0_dim(n, m) == count


def test_specialize_mu_examples():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = z0 * z1 + MultiPoly.const(2, HALF_MU)
    assert specialize_mu(f, GR_ONE) == z0 * z1 + MultiPoly.const(
        2, MultiPoly.from_rat(1, 2)
    )
    g = rand_poly(random.Random(1), 2)
    assert specialize_mu(g, gr(5)) == g  # no mu present
    h = (z0 ** 2).scale(MU_INV)
    assert specialize_mu(h, gr(2)) == (z0 ** 2).scale_rat(rat(1, 2))
    # a complex value and negative mu exponents: v^e for e = -3, -1, 0, 2
    v = GaussianRational(rat(2, 5), rat(-3, 5))
    c = GaussianRational(rat(-1, 3), rat(1, 2))
    parts = [(z0, -3, GR_ONE), (MultiPoly.one(2), -1, c), (z1, 0, c), (z0 * z1, 2, gr(3))]
    p = sum((m.scale(MultiPoly.param("mu", e, g)) for m, e, g in parts), MultiPoly.zero(2))
    want = sum((m.scale_gauss(g * v ** e) for m, e, g in parts), MultiPoly.zero(2))
    assert specialize_mu(p, v) == want
    with pytest.raises(PreconditionError):
        specialize_mu(f, GR_ZERO)


def test_specialize_mu_is_homomorphism():
    rng = random.Random(71)
    for _ in range(20):
        n = 2
        f = rand_poly(rng, n).scale(MultiPoly.param("mu", rng.randint(0, 2)))
        g = rand_poly(rng, n)
        value = GaussianRational(rat(rng.randint(1, 4), rng.randint(1, 3)))
        assert specialize_mu(f * g, value) == specialize_mu(f, value) * specialize_mu(g, value)
        ctx = basic_ctx(n)
        spec_ctx = StarContext.constant(
            tuple(tuple(p.constant_coefficient() for p in row) for row in ctx.lam),
            MultiPoly.from_gaussian(value.scale(rat(1, 2))),
        )
        assert specialize_mu(star(ctx, f, g), value) == star(
            spec_ctx, specialize_mu(f, value), specialize_mu(g, value)
        )


def _specialize_by_components(f: MultiPoly, value: GaussianRational) -> MultiPoly:
    """The component route to specialize_mu, kept as its reference: each
    (degree, mu) component times value ** e as a polynomial, summed."""
    v = MultiPoly.from_gaussian(value, f.n)
    out = MultiPoly.zero(f.n)
    for (_, e), part in _components(f).items():
        out = out + (part * v ** e if e else part)
    return out


def test_specialize_mu_matches_the_component_route():
    rng = random.Random(83)
    for trial in range(300):
        n = rng.choice((1, 2, 3))
        f = MultiPoly.zero(n)
        for _ in range(rng.randint(0, 3)):
            f = f + rand_poly(rng, n).scale(MultiPoly.param("mu", rng.randint(-2, 2)))
        # complex values, and a real one in every fourth trial
        im = 0 if trial % 4 == 0 else rat(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        re = rat(rng.choice((-2, -1, 0, 1, 3)) if im else rng.choice((-2, 1, 3)), rng.randint(1, 3))
        value = GaussianRational(re, im)
        assert specialize_mu(f, value) == _specialize_by_components(f, value)


def test_packed_order_table_matches_the_decoded_expansion():
    rng = random.Random(89)
    i_eye = GaussianRational(0, 1)
    for n in (2, 4):
        lam = rand_invertible_antisym(rng, n)
        real = rand_symmetric(rng, n)
        for a_mat in (real, real + SqMatrix.identity(n).scale(i_eye)):
            triples, w = _expansion(lam, a_mat, 6)
            tables = [_graded_packed_keys(n, x, w) for x in triples]
            assert tables == [graded_keys(c) for c in expand_closed_form(lam, a_mat, 6).coeffs]
            assert any(entry["mu"] < 0 for table in tables for entry in table)


def test_star_graded():
    ctx = basic_ctx()
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    out = star_graded(ctx, decompose(z0), decompose(z1))
    assert set(out.components) == {(2, 0), (0, 1)}
    assert star_graded(ctx, decompose(MultiPoly.zero(2)), decompose(z1)).is_zero()
    # associativity transported to graded elements
    rng = random.Random(13)
    for _ in range(10):
        f, g, h = (decompose(rand_poly(rng, 2, 3, 2)) for _ in range(3))
        lhs = star_graded(ctx, star_graded(ctx, f, g), h)
        rhs = star_graded(ctx, f, star_graded(ctx, g, h))
        assert lhs == rhs


def test_star_graded_rejects_non_constant():
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    ctx = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    with pytest.raises(PreconditionError):
        star_graded(ctx, decompose(z0), decompose(z0))


def test_graded_json_roundtrip():
    z0 = MultiPoly.variable(2, 0)
    ge = decompose(z0 ** 2 + z0.scale(MU))
    assert GradedElement.from_json(2, ge.to_json()) == ge
    # two entries of one (degree, mu) sum; entries that cancel leave none
    data = ge.to_json()
    data["components"] += data["components"]
    assert GradedElement.from_json(2, data) == decompose((z0 ** 2 + z0.scale(MU)).scale_rat(2))
    negated = decompose(-(z0 ** 2 + z0.scale(MU))).to_json()
    data["components"] = ge.to_json()["components"] + negated["components"]
    assert GradedElement.from_json(2, data).is_zero()


def test_check_jacobi():
    rng = random.Random(2)
    for n in (2, 3):
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        assert check_jacobi(ctx, 3).passed
    zero_ctx = StarContext.constant(((gr(0), gr(0)), (gr(0), gr(0))), HALF_MU)
    assert check_jacobi(zero_ctx, 3).passed
    # any bivector in two variables satisfies the Jacobi rule
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    q = z0 * z1
    zero = MultiPoly.zero(2)
    ctx2 = StarContext(2, ((zero, q), (-q, zero)), HALF_MU)
    assert check_jacobi(ctx2, 3).passed
    # linear rotation-algebra structure passes; the cyclically perturbed
    # one fails with a coordinate witness
    assert check_jacobi(_so3_context(), 3).passed
    bad = check_jacobi(_cyclic_bad_context(), 3)
    assert not bad.passed
    assert bad.witness == {"f": "z2", "g": "z1", "h": "z0"}
    # {z0, z1} = z2, {z0, z2} = z0 at n = 12: the first witness of the
    # grlex sweep at every d_max >= 1, and none at d_max 0
    z = [MultiPoly.variable(12, j) for j in range(12)]
    wide_ctx = _upper_context(12, {(0, 1): z[2], (0, 2): z[0]})
    assert check_jacobi(wide_ctx, 0).passed
    for d_max in (2, 3, 4):
        wide = check_jacobi(wide_ctx, d_max)
        assert not wide.passed
        assert wide.witness == {"f": "z2", "g": "z1", "h": "z0"}


def _upper_context(n, upper) -> StarContext:
    """Context whose antisymmetric matrix has the given entries (i, j), i < j."""
    lam = [[MultiPoly.zero(n)] * n for _ in range(n)]
    for (i, j), p in upper.items():
        lam[i][j], lam[j][i] = p, -p
    return StarContext(n, lam, HALF_MU)


def _rand_form(rng, n, deg) -> MultiPoly:
    """A random nonzero homogeneous polynomial of degree deg."""
    total = MultiPoly.zero(n)
    while total.is_zero():
        for _ in range(3):
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            coef = MultiPoly.from_gaussian(rand_nonzero_gauss(rng), n)
            total = total + coef * MultiPoly.monomial(n, exps)
    return total


def _jacobi_cases() -> dict:
    """name -> (context, whether its bracket satisfies Jacobi)."""
    rng = random.Random(23)
    cases = {}
    for n in (2, 3, 4):
        lam = rand_antisym(rng, n).rows
        cases[f"constant-n{n}"] = (StarContext.constant(lam, HALF_MU), True)
    z = [MultiPoly.variable(3, j) for j in range(3)]
    a, b, c = (MultiPoly.from_gaussian(rand_nonzero_gauss(rng), 3) for _ in range(3))
    so3 = {(0, 1): c * z[2], (1, 2): a * z[0], (0, 2): -b * z[1]}
    cases["so3"] = (_upper_context(3, so3), True)
    for n in (3, 4):
        z = [MultiPoly.variable(n, j) for j in range(n)]
        for kind, q in (
            ("fraction", lambda: gr(rat(rng.randint(-5, 5), rng.randint(1, 4)))),
            ("complex", lambda: GaussianRational(rat(rng.randint(-3, 3), 2), 1)),
        ):
            logcan = {
                (i, j): (z[i] * z[j]).scale_gauss(q())
                for i in range(n)
                for j in range(i + 1, n)
            }
            cases[f"logcan-{kind}-n{n}"] = (_upper_context(n, logcan), True)
    cases["poly-n2"] = (_upper_context(2, {(0, 1): rand_poly(rng, 2).scale(MU)}), True)
    cases["cyclic"] = (_cyclic_bad_context(), False)
    for n in (3, 4):
        for deg in (1, 2):
            upper = {
                (i, j): _rand_form(rng, n, deg)
                for i in range(n)
                for j in range(i + 1, n)
            }
            cases[f"random-deg{deg}-n{n}"] = (_upper_context(n, upper), False)
    return cases


JACOBI_CASES = _jacobi_cases()


@pytest.mark.parametrize("name", sorted(JACOBI_CASES))
def test_check_jacobi_agrees_with_nested_brackets(name):
    ctx, poisson = JACOBI_CASES[name]
    top = 4 if ctx.n <= 3 else 3
    # a passing sweep at the top degree (7770 triples at n = 3 and 4) costs
    # the oracle seconds, so only the constant cases go that deep
    if poisson and ctx.n >= 3 and not name.startswith("constant"):
        top -= 1
    for d_max in range(top + 1):
        want = jacobi_by_brackets(ctx, d_max)
        assert check_jacobi(ctx, d_max) == want, d_max
        # no triple of constants has a nonzero sum
        assert want.passed == (poisson or d_max == 0), d_max


def test_check_lambda_relation():
    rng = random.Random(6)
    for n in (2, 3):
        ctx = StarContext.constant(rand_antisym(rng, n).rows, HALF_MU)
        assert check_lambda_relation(ctx, 4, 4).passed
    zero_ctx = StarContext.constant(((gr(0), gr(0)), (gr(0), gr(0))), HALF_MU)
    assert check_lambda_relation(zero_ctx, 4, 4).passed
    # generic linear entries fail at order 2 with a witness pair
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    ctx_lin = StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU)
    rep = check_lambda_relation(ctx_lin, 4, 4)
    assert not rep.passed
    assert rep.first_divergence_order == 2
    assert rep.witness is not None and rep.witness["k"] == 2
    with pytest.raises(ValueError):
        check_lambda_relation(ctx_lin, 1, 4)


def eager_lambda_relation(ctx, k_max, d_max):
    """The first failing (order, f, g) of the lambda relation, or None, with
    every order of every pair built before any comparison.  The bare k-fold
    contraction is k! times order k of the product with coupling 1."""
    unit = StarContext(ctx.n, ctx.lam, MultiPoly.one(0))
    monos = monomials_upto(ctx.n, d_max)
    zero = MultiPoly.zero(ctx.n)
    lhs, rhs = {}, {}
    for fi, f in enumerate(monos):
        for gi, g in enumerate(monos):
            lhs[fi, gi] = iterated_terms(unit, f, g, k_max)
            rhs[fi, gi] = [
                t.scale_rat(rat(factorial(k))) for k, t in enumerate(star_terms(unit, f, g))
            ]
    for k in range(1, k_max + 1):
        for fi, f in enumerate(monos):
            for gi, g in enumerate(monos):
                left = lhs[fi, gi][k] if k < len(lhs[fi, gi]) else zero
                right = rhs[fi, gi][k] if k < len(rhs[fi, gi]) else zero
                if left != right:
                    return k, f.text(), g.text()
    return None


def _log_canonical_context() -> StarContext:
    z = [MultiPoly.variable(3, j) for j in range(3)]
    zero = MultiPoly.zero(3)
    q01, q02, q12 = (MultiPoly.from_rat(v) for v in (rat(2), rat(-1, 3), rat(3, 5)))
    lam = (
        (zero, (z[0] * z[1]).scale(q01), (z[0] * z[2]).scale(q02)),
        (-(z[0] * z[1]).scale(q01), zero, (z[1] * z[2]).scale(q12)),
        (-(z[0] * z[2]).scale(q02), -(z[1] * z[2]).scale(q12), zero),
    )
    return StarContext(3, lam, HALF_MU)


def test_lambda_relation_stops_where_the_eager_sweep_does():
    # the check advances all pairs one order at a time and stops at the
    # first failing one; order and witness must be those of a sweep that
    # builds every order first
    z0 = MultiPoly.variable(2, 0)
    zero = MultiPoly.zero(2)
    # (1/2 + i/2)^2 = i/2: the order-2 difference of this entry is imaginary
    z0_gauss = z0.scale_gauss(GaussianRational(rat(1, 2), rat(1, 2)))
    contexts = [
        _so3_context(),
        _cyclic_bad_context(),
        _log_canonical_context(),
        StarContext(2, ((zero, z0), (-z0, zero)), HALF_MU),
        StarContext(2, ((zero, z0_gauss), (-z0_gauss, zero)), HALF_MU),
        basic_ctx(2),
    ]
    for ctx in contexts:
        for k_max, d_max in ((2, 2), (4, 3)):
            rep = check_lambda_relation(ctx, k_max, d_max)
            expected = eager_lambda_relation(ctx, k_max, d_max)
            if expected is None:
                assert rep.passed
                continue
            k, f, g = expected
            assert not rep.passed
            assert rep.first_divergence_order == k
            assert rep.witness == {"k": k, "f": f, "g": g}
    # pinned at the eager implementation
    rep = check_lambda_relation(_log_canonical_context(), 4, 3)
    assert rep.to_json() == {
        "pass": False,
        "first_divergence_order": 2,
        "residual_norm": "nonzero",
        "witness": {"k": 2, "f": "z2^2", "g": "z1"},
        "detail": "iterated and contracted forms differ",
    }


def _text_context(n: int, entries: dict) -> StarContext:
    """The context with lambda[a][b] = entries[a, b] (polynomial text) above
    the diagonal, its negative below and 0 elsewhere."""
    zero = MultiPoly.zero(n)
    lam = [[zero] * n for _ in range(n)]
    for (a, b), text in entries.items():
        lam[a][b] = parse_poly(text, n)
        lam[b][a] = -lam[a][b]
    return StarContext(n, lam, HALF_MU)


# (n, entries, k_max, d_max, passes); the check keeps every pair's index in
# the low bits of its keys, so these cover one pair, index bits that a
# power of two would not hold, negative mu exponents above the index and
# a constant lambda compared at every order up to 5, and an entry whose
# exponents need fields far wider than the monomials'
EDGE_CASES = {
    "n1": (1, {}, 2, 3, True),
    "n4_cyclic": (4, {(0, 1): "z2", (1, 2): "z3", (2, 3): "z0", (0, 3): "-z1"}, 3, 2, False),
    "n4_constant": (
        4, {(0, 1): "1/2+i", (0, 2): "-2/3", (1, 3): "3*i", (2, 3): "5/7"}, 4, 2, True
    ),
    "constant_to_order_5": (2, {(0, 1): "(2/3-i)*hbar*mu^-1"}, 5, 5, True),
    "mu_inv_hbar": (2, {(0, 1): "mu^-1*z0 + 1/3*hbar*z1^2"}, 4, 3, False),
    "mu_inv_n3": (3, {(0, 1): "mu^-1*z2", (1, 2): "hbar*z0", (0, 2): "i*mu^-2*z1"}, 3, 3, False),
    "one_pair": (3, {(0, 1): "z2", (1, 2): "z0", (0, 2): "-z1"}, 4, 0, True),
    "nine_pairs": (2, {(0, 1): "z0"}, 2, 1, True),
    "wide_entry": (2, {(0, 1): "z1^40*hbar^70 + mu^-90*z0"}, 3, 2, False),
    # no step differentiates z0, so the two forms agree
    "wide_entry_passes": (3, {(1, 2): "z0^40*hbar^70"}, 3, 2, True),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_lambda_relation_agrees_with_the_eager_sweep_at_the_edges(name):
    n, entries, k_max, d_max, passes = EDGE_CASES[name]
    ctx = _text_context(n, entries)
    rep = check_lambda_relation(ctx, k_max, d_max)
    expected = eager_lambda_relation(ctx, k_max, d_max)
    assert rep.passed == passes == (expected is None)
    if expected is not None:
        k, f, g = expected
        assert rep.first_divergence_order == k
        assert rep.witness == {"k": k, "f": f, "g": g}
    if name == "constant_to_order_5":
        # order 5 of the pair (z0^5, z1^5) is not zero, so it was compared
        z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert len(iterated_terms(ctx, z0**5, z1**5, 5)) == 6


def test_lambda_relation_so3_at_degree_5_stops_at_order_2():
    rep = check_lambda_relation(_so3_context(), 4, 5)
    assert not rep.passed
    assert rep.first_divergence_order == 2
    assert rep.witness == {"k": 2, "f": "z2^2", "g": "z1"}


def test_monomials_upto_counts():
    monos = monomials_upto(2, 4)
    assert len(monos) == comb(2 + 4, 2)
    assert monos[0] == MultiPoly.one(2)
