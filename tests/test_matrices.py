import random
from math import gcd

import pytest

from starquant import cli
from starquant.errors import PreconditionError
from starquant.matrices import (
    MatSeries,
    SqMatrix,
    _expansion,
    _oracle_report,
    cayley,
    cayley_flow_residual,
    check_sp_pair,
    closed_form_vs_oracle,
    closed_star_exponential,
    expand_closed_form,
    g_flow_residual,
    inverse_cayley,
    mat_exp_series,
    q_flow_residual,
    riccati_1d,
    riccati_vs_moyal,
    solve_g,
    solve_q,
    tanh_series,
)
from starquant.poly import HBAR, MU_INV, MultiPoly, key_width
from starquant.scalars import GR_ONE, GaussianRational, gr, rat
from starquant.series import TruncSeries, _series
from starquant.verify import (
    rand_antisym,
    rand_gauss,
    rand_invertible_antisym,
    rand_rat,
    rand_square,
    rand_symmetric,
)

N = 8


def std_lam2() -> SqMatrix:
    return SqMatrix(((gr(0), gr(1)), (gr(-1), gr(0))))


# --- suite generators -------------------------------------------------------


def _upper(m: SqMatrix, sign: int) -> list:
    """The texts of the entries on and above the diagonal of m (above it
    when sign is -1), checked against those below: m[j][i] = sign * m[i][j]."""
    n, rows = m.dim, m.rows
    assert all(rows[j][i] == rows[i][j].scale(sign) for i in range(n) for j in range(n))
    return [rows[i][j].text() for i in range(n) for j in range(i + (sign < 0), n)]


@pytest.mark.parametrize("seed, want", [
    (3, [["-2", "-1/3", "2"], ["1", "1", "-1", "-2/3", "1/3", "0"],
         ["2-2/3*i", "-3", "1", "-3/2", "2/3", "0"], ["2/3", "-1", "-3", "-2/3", "-1", "2/3"]]),
    (11, [["0", "0", "-2/3"], ["2", "-1", "-1", "-3", "1/3", "0"],
          ["3", "1-2*i", "-1/3", "-2", "0", "0"], ["0", "1", "-1", "1/2", "-3", "1"]]),
])
def test_triangle_draws_are_pinned(seed, want):
    # the suites and the benchmark draw their matrices in this (i, j) order
    rng = random.Random(seed)
    got = [
        _upper(rand_antisym(rng, 3), -1),
        _upper(rand_symmetric(rng, 3), 1),
        _upper(rand_symmetric(rng, 3, allow_imag=True), 1),
        _upper(rand_invertible_antisym(rng, 4), -1),
    ]
    assert got == want


# --- Cayley transform -------------------------------------------------------


def test_cayley_zero_and_nilpotent():
    assert cayley(SqMatrix.zero(2)) == SqMatrix.identity(2)
    x = SqMatrix(((gr(0), gr(1)), (gr(0), gr(0))))
    assert cayley(x) == SqMatrix(((gr(1), gr(-2)), (gr(0), gr(1))))
    assert inverse_cayley(SqMatrix.identity(2)) == SqMatrix.zero(2)
    assert inverse_cayley(cayley(x)) == x


def test_cayley_roundtrip_random():
    rng = random.Random(4)
    one = SqMatrix.identity(3)
    for _ in range(10):
        while True:
            g = rand_square(rng, 3)
            if (one + g).det() and (one + cayley(g)).det():
                break
        assert cayley(inverse_cayley(g)) == g


def test_cayley_singular_raises():
    bad = SqMatrix(((gr(-1), gr(0)), (gr(0), gr(3))))  # 1 + X singular
    with pytest.raises(PreconditionError):
        cayley(bad)


def test_cayley_is_the_written_out_product():
    # 2(1 + X)^(-1) - 1 against (1 - X)(1 + X)^(-1), for matrices and series
    rng = random.Random(81)
    for complex_entries in (False, True):
        for dim in (1, 2, 3, 4):
            for _ in range(4):
                x = rand_matrix(rng, dim, complex_entries)
                one = x.one_like()
                if (one + x).det():
                    assert_same(cayley(x), (one - x) * (one + x).inverse())
        for order in (0, 3, 6):
            x = rand_mat_series(rng, 4, order, complex_entries)
            while not (SqMatrix.identity(4) + x.coeffs[0]).det():
                x = rand_mat_series(rng, 4, order, complex_entries)
            one = x.one_like()
            assert cayley(x) == (one - x) * (one + x).inverse()


def test_cayley_of_a_series_outside_the_domain_raises():
    # 1 + X_0 singular, whatever the higher coefficients
    x0 = SqMatrix(((gr(-1), gr(0)), (gr(0), gr(3))))
    x = MatSeries(2, 3, [x0, SqMatrix.identity(2), x0, SqMatrix.zero(2)])
    with pytest.raises(
        PreconditionError, match=r"^1 \+ X is singular: outside the Cayley transform domain$"
    ):
        cayley(x)


def test_sum_with_a_zero_operand_has_the_fields_of_the_entry_sum():
    # the shortcut of a zero operand against sums of the entries, rebuilt
    # into lowest terms by the constructor; == compares den, re and im
    rng = random.Random(82)
    for dim in (1, 2, 3):
        zero = SqMatrix.zero(dim)
        for complex_entries in (False, True):
            for _ in range(3):
                y = rand_matrix(rng, dim, complex_entries)
                for x in (y, zero):
                    cases = ((x, zero, 1), (x, zero, -1), (zero, x, 1), (zero, x, -1))
                    for left, right, sign in cases:
                        got = left + right if sign == 1 else left - right
                        want = SqMatrix([
                            [u + v if sign == 1 else u - v for u, v in zip(ru, rv)]
                            for ru, rv in zip(left.rows, right.rows)
                        ])
                        assert_same(got, want)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        SqMatrix.identity(2) + SqMatrix.zero(3)


def test_check_sp_pair():
    lam = std_lam2()
    assert check_sp_pair(lam, SqMatrix.zero(2)) == {
        "lambda_x_symmetric": True,
        "cayley_preserves_form": True,
    }
    rng = random.Random(12)
    for n in (2, 4):
        lamn = rand_invertible_antisym(rng, n)
        x = rand_symmetric(rng, n) * lamn  # lam (S lam) is symmetric
        if not (SqMatrix.identity(n) + x).det():
            continue
        rep = check_sp_pair(lamn, x)
        assert rep["lambda_x_symmetric"] and rep["cayley_preserves_form"]
    # a witness where lambda X fails to be symmetric
    x_bad = SqMatrix(((gr(1), gr(2)), (gr(0), gr(1))))
    rep = check_sp_pair(lam, x_bad)
    assert not rep["lambda_x_symmetric"]


# --- integer layout ---------------------------------------------------------


def assert_same(x: SqMatrix, y: SqMatrix) -> None:
    """Equal values have equal fields and equal hashes, in lowest terms."""
    assert x == y and hash(x) == hash(y)
    assert x.den > 0
    assert gcd(x.den, *(v for part in (x.re, x.im) for r in part for v in r)) == 1


def test_same_matrix_by_different_routes():
    rng = random.Random(21)
    i = GaussianRational(0, 1)
    # real matrices, then complex ones
    for draw in (rand_square, lambda rng, n: rand_matrix(rng, n, True)):
        for n in (1, 2, 3, 4):
            a = draw(rng, n)
            b = draw(rng, n)
            while not b.det():
                b = draw(rng, n)
            assert_same((a * b) * b.inverse(), a)
            assert_same(b.inverse() * (b * a), a)
            assert_same((a + b) - b, a)
            assert_same(a - a, SqMatrix.zero(n))
            assert_same(SqMatrix(a.rows), a)
            assert_same(a.scale(gr(3, 7)).scale(gr(7, 3)), a)
            assert_same(-(-a), a)
            assert_same(-a, a.scale(gr(-1)))
            assert_same(a.scale(i).scale(-i), a)
    for op in (SqMatrix.__add__, SqMatrix.__sub__, SqMatrix.__mul__):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(SqMatrix.identity(2), SqMatrix.identity(3))


def test_complex_product_with_cancelling_imaginary_part():
    # (P + iP)(P - iP) = 2 P^2, whose imaginary part cancels
    p = SqMatrix(((gr(1, 2), gr(-2, 3)), (gr(3), gr(1, 5))))
    plus = p + p.scale(GaussianRational(0, 1))
    minus = p - p.scale(GaussianRational(0, 1))
    assert plus.im != minus.im and any(map(any, plus.im))
    want = SqMatrix(((gr(-7, 2), gr(-14, 15)), (gr(21, 5), gr(-98, 25))))
    assert_same(plus * minus, want)
    assert_same(plus * minus, (p * p).scale(gr(2)))


def test_negative_entries_keep_a_positive_denominator():
    m = SqMatrix(((gr(-1, 3), gr(0)), (gr(0), gr(-5, 6))))
    assert (m.den, m.re) == (6, ((-2, 0), (0, -5)))
    assert_same(-m, m.scale(gr(-1)))
    # det(m) > 0 here, det < 0 and a complex det below
    assert_same(m.inverse(), SqMatrix(((gr(-3), gr(0)), (gr(0), gr(-6, 5)))))
    neg = SqMatrix(((gr(0), gr(-1, 4)), (gr(1, 3), gr(0))))
    assert neg.det() == gr(1, 12)
    flip = SqMatrix(((gr(1, 2), gr(0)), (gr(0), gr(-1, 3))))
    assert flip.det() == gr(-1, 6)
    assert_same(flip.inverse(), SqMatrix(((gr(2), gr(0)), (gr(0), gr(-3)))))
    i_half = GaussianRational(0, rat(1, 2))
    c = SqMatrix(((i_half, gr(1)), (gr(0), GaussianRational(-1, 1))))
    assert c.det() == GaussianRational(rat(-1, 2), rat(-1, 2))
    assert_same(c * c.inverse(), SqMatrix.identity(2))
    assert c.inverse().den > 0


# --- matrix series ----------------------------------------------------------


def test_mat_exp_series_basics():
    zero = SqMatrix.zero(2)
    assert mat_exp_series(zero, GR_ONE, N) == MatSeries.identity(2, N)
    a = SqMatrix(((gr(1), gr(2)), (gr(0), gr(-1))))
    e = mat_exp_series(a, GR_ONE, N)
    em = mat_exp_series(a, -GR_ONE, N)
    assert e * em == MatSeries.identity(2, N)
    # defining flow: d/dt exp(at) = a exp(at)
    assert e.dt() == (MatSeries.from_matrix(a, N) * e).truncate(N - 1)


def entry_series(m: MatSeries, i: int, j: int) -> TruncSeries:
    return TruncSeries(
        0,
        m.order,
        [
            MultiPoly.const(0, MultiPoly.from_gaussian(c.rows[i][j]))
            for c in m.coeffs
        ],
    )


def test_sq_matrix_singular():
    singular = SqMatrix(((gr(1), gr(2)), (gr(2), gr(4))))
    assert singular.det() == gr(0)
    assert SqMatrix.zero(3).det() == gr(0)
    with pytest.raises(PreconditionError, match="matrix is singular"):
        singular.inverse()
    # a zero pivot that needs a row swap: det flips sign
    swap = SqMatrix(((gr(0), gr(1)), (gr(1), gr(0))))
    assert swap.det() == gr(-1)
    assert swap.inverse() == swap


def test_mat_series_inverse_and_det():
    rng = random.Random(9)
    for _ in range(5):
        m0 = rand_square(rng, 3)
        if not m0.det():
            continue
        coeffs = [m0] + [rand_square(rng, 3) for _ in range(N)]
        m = MatSeries(3, N, coeffs)
        assert m * m.inverse() == MatSeries.identity(3, N)
        # det is multiplicative
        m2 = MatSeries(3, N, [SqMatrix.identity(3)] + [rand_square(rng, 3) for _ in range(N)])
        assert (m * m2).det() == m.det() * m2.det()
    for order in (0, N, 16):
        for dim in (2, 3):
            m0 = rand_square(rng, dim)
            while not m0.det():
                m0 = rand_square(rng, dim)
            rest = [rand_square(rng, dim) for _ in range(order)]
            m = MatSeries(dim, order, [m0] + rest)
            one = MatSeries.identity(dim, order)
            assert m * m.inverse() == one
            assert m.inverse() * m == one
            det0 = MultiPoly.const(0, MultiPoly.from_gaussian(m0.det()))
            assert m.det().coeffs[0] == det0
            if dim == 2:
                # multiplicativity alone would also pass det^2: compare with
                # the cofactor expansion a d - b c of the entry series
                a, b = entry_series(m, 0, 0), entry_series(m, 0, 1)
                c, d = entry_series(m, 1, 0), entry_series(m, 1, 1)
                assert m.det() == a * d - b * c
    # M_0 = I inverts without M_0^(-1), and 2M, whose M_0 = 2I, does not:
    # both routes, with real and with complex M_j
    for complex_entries in (False, True):
        for order in (0, N):
            for dim in (2, 3):
                rest = [rand_matrix(rng, dim, complex_entries) for _ in range(order)]
                m = MatSeries(dim, order, [SqMatrix.identity(dim)] + rest)
                one = MatSeries.identity(dim, order)
                assert m * m.inverse() == one
                assert m.inverse() * m == one
                assert m.scale(gr(2)).inverse().scale(gr(2)) == m.inverse()
                if dim == 2:
                    a, b = entry_series(m, 0, 0), entry_series(m, 0, 1)
                    c, d = entry_series(m, 1, 0), entry_series(m, 1, 1)
                    assert m.det() == a * d - b * c


# --- the series shell and constant products ---------------------------------


def rand_matrix(rng, dim: int, complex_entries: bool) -> SqMatrix:
    """A random matrix, real or with complex entries, and the zero matrix
    one time in four."""
    if rng.random() < 0.25:
        return SqMatrix.zero(dim)
    rows = [[rand_gauss(rng, complex_entries) for _ in range(dim)] for _ in range(dim)]
    return SqMatrix(rows)


def rand_mat_series(rng, dim: int, order: int, complex_entries: bool) -> MatSeries:
    coeffs = [rand_matrix(rng, dim, complex_entries) for _ in range(order + 1)]
    return MatSeries(dim, order, coeffs)


def test_constant_matrix_times_series_is_the_padded_product():
    rng = random.Random(71)
    for dim in (1, 2, 3, 4):
        for order in range(7):
            for complex_entries in (False, True):
                m = rand_matrix(rng, dim, complex_entries)
                s = rand_mat_series(rng, dim, order, complex_entries)
                padded = MatSeries.from_matrix(m, order)
                assert m * s == padded * s
                assert s * m == s * padded
    # a constant of another dimension is a mismatch; a non-matrix is no factor
    s = MatSeries.identity(2, 3)
    for op in (lambda x, y: x * y, lambda x, y: y * x):
        with pytest.raises(ValueError, match="dimension mismatch: "):
            op(s, SqMatrix.identity(3))
        with pytest.raises(TypeError):
            op(s, 2)
    with pytest.raises(TypeError):
        s + TruncSeries.one(0, 3)


def test_mat_series_mismatch_errors_name_the_sizes():
    s = MatSeries.identity(2, 3)
    for op in (MatSeries.__add__, MatSeries.__sub__, MatSeries.__mul__):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 4"):
            op(s, MatSeries.identity(4, 3))
        with pytest.raises(ValueError, match="truncation order mismatch: 3 vs 5"):
            op(s, MatSeries.identity(2, 5))


def test_mat_series_truncate_slices_and_pads():
    rng = random.Random(72)
    s = rand_mat_series(rng, 3, 4, True)
    for order in range(8):
        padding = [SqMatrix.zero(3)] * (order - 4)
        assert s.truncate(order) == MatSeries(3, order, list(s.coeffs[: order + 1]) + padding)


def test_series_of_either_ring_never_equal():
    for order in (0, 2):
        scalar, matrix = TruncSeries.zero(1, order), MatSeries.zero(1, order)
        assert scalar != matrix and matrix != scalar
        assert not scalar == matrix and not matrix == scalar
        assert len({scalar, matrix}) == 2
    assert MatSeries.zero(2, 3) == MatSeries.from_matrix(SqMatrix.zero(2), 3)
    assert -MatSeries.identity(2, 3) + MatSeries.identity(2, 3) == MatSeries.zero(2, 3)


def test_solve_g_matches_two_exponentials():
    # (exp(at)(1+b) + exp(-at)(1-b))/2, built from two padded products
    rng = random.Random(74)
    for dim in (1, 2, 3, 4):
        for _ in range(2):
            a = rand_matrix(rng, dim, True)
            one = SqMatrix.identity(dim)
            b = rand_matrix(rng, dim, True)
            while not (one + b).det():
                b = rand_matrix(rng, dim, True)
            order = 6 - dim // 2
            ep = mat_exp_series(a, GR_ONE, order) * MatSeries.from_matrix(one + b, order)
            em = mat_exp_series(a, -GR_ONE, order) * MatSeries.from_matrix(one - b, order)
            expected = (ep + em).scale(gr(1, 2)).det().inv_sqrt()
            assert solve_g(a, b, order) == expected


def test_mat_series_det_needs_invertible_constant_term():
    # det(t I) = t^2, but the Jacobi-formula route inverts M_0 = 0
    zero, one = SqMatrix.zero(2), SqMatrix.identity(2)
    t_identity = MatSeries(2, 4, [zero, one, zero, zero, zero])
    with pytest.raises(PreconditionError, match="matrix is singular"):
        t_identity.det()


def test_solve_q_examples_and_residuals():
    a = SqMatrix(((gr(1), gr(1, 2)), (gr(-1), gr(0))))
    b = SqMatrix(((gr(1, 3), gr(0)), (gr(1), gr(-1, 2))))
    # a = 0: stationary at b
    qc = solve_q(SqMatrix.zero(2), b, N)
    assert all(c == (b if k == 0 else SqMatrix.zero(2)) for k, c in enumerate(qc.coeffs))
    # b = 0: the tanh flow
    q0 = solve_q(a, SqMatrix.zero(2), N)
    assert q0 == tanh_series(a, N)
    assert q_flow_residual(a, q0).is_zero()
    # generic initial data
    q = solve_q(a, b, N)
    assert q.coeffs[0] == b
    assert q_flow_residual(a, q).is_zero()
    assert cayley_flow_residual(a, q).is_zero()


def test_solve_q_singular_initial_data():
    b = SqMatrix(((gr(-1), gr(0)), (gr(0), gr(0))))
    with pytest.raises(PreconditionError):
        solve_q(SqMatrix.identity(2), b, N)
    with pytest.raises(PreconditionError):
        solve_g(SqMatrix.identity(2), b, N)


def test_solve_g_examples_and_residual():
    a = SqMatrix(((gr(1), gr(1, 2)), (gr(-1), gr(0))))
    zero = SqMatrix.zero(2)
    g0 = solve_g(zero, zero, N)
    assert g0 == TruncSeries.one(0, N)
    # nilpotent a with b = 0: det((e^{at}+e^{-at})/2) = det(1 + t^2 a^2/2...)
    # for a^2 = 0 the matrix is exactly the identity, so g = 1
    nil = SqMatrix(((gr(0), gr(1)), (gr(0), gr(0))))
    g_nil = solve_g(nil, zero, N)
    assert g_nil == TruncSeries.one(0, N)
    b = SqMatrix(((gr(1, 3), gr(0)), (gr(1), gr(-1, 2))))
    q = solve_q(a, b, N)
    g = solve_g(a, b, N)
    assert g.coeffs[0] == MultiPoly.one(0)
    assert g_flow_residual(a, q, g).is_zero()


def test_exp_cayley_tanh_identity():
    # exp(2ta) equals the Cayley transform of -tanh(ta), as matrix series
    rng = random.Random(15)
    for n in (2, 3):
        a = rand_square(rng, n)
        assert mat_exp_series(a, gr(2), N) == cayley(-tanh_series(a, N))
        # N = 0 keeps only tanh(0) = 0
        assert tanh_series(a, 0) == MatSeries(n, 0, [SqMatrix.zero(n)])


# --- closed-form star exponential -------------------------------------------


def test_closed_star_exponential_trivial_and_nilpotent():
    lam = std_lam2()
    amp, phase = closed_star_exponential(lam, SqMatrix.zero(2), N)
    assert amp == TruncSeries.one(0, N)
    assert phase == MatSeries.zero(2, N)
    # lam*A nilpotent of index 2: amplitude 1, phase exactly t*A
    a_mat = SqMatrix(((gr(0), gr(0)), (gr(0), gr(1))))
    amp2, phase2 = closed_star_exponential(lam, a_mat, N)
    assert amp2 == TruncSeries.one(0, N)
    expected = [SqMatrix.zero(2)] * (N + 1)
    expected[1] = a_mat
    assert phase2 == MatSeries(2, N, expected)


def test_closed_star_exponential_preconditions():
    lam = std_lam2()
    with pytest.raises(PreconditionError):
        closed_star_exponential(SqMatrix.identity(2), SqMatrix.identity(2), N)
    with pytest.raises(PreconditionError):
        closed_star_exponential(SqMatrix.zero(2), SqMatrix.identity(2), N)
    asym = SqMatrix(((gr(0), gr(1)), (gr(2), gr(0))))
    with pytest.raises(PreconditionError):
        closed_star_exponential(lam, asym, N)


def test_phase_matrix_symmetric_every_order():
    rng = random.Random(33)
    for n in (2, 4):
        lam = rand_invertible_antisym(rng, n)
        a_mat = rand_symmetric(rng, n)
        _, phase = closed_star_exponential(lam, a_mat, N)
        for m in phase.coeffs:
            assert m.is_symmetric()


def test_amplitude_squared_times_det_is_one():
    rng = random.Random(41)
    for n in (2, 4):
        lam = rand_invertible_antisym(rng, n)
        a_mat = rand_symmetric(rng, n)
        a = lam * a_mat
        amp, _ = closed_star_exponential(lam, a_mat, N)
        half = gr(1, 2)
        cosh = (
            mat_exp_series(a, GR_ONE, N) + mat_exp_series(a, -GR_ONE, N)
        ).scale(half)
        assert amp * amp * cosh.det() == TruncSeries.one(0, N)


def test_closed_form_is_the_cayley_route_at_b_zero():
    # the tanh and trace flows against solve_g and solve_q with b = 0
    rng = random.Random(83)
    for n in (2, 4, 6):
        for order in (8, 12):
            for complex_entries in (False, True):
                lam = rand_invertible_antisym(rng, n)
                a_mat = rand_symmetric(rng, n, allow_imag=complex_entries)
                if complex_entries:
                    lam = lam.scale(GaussianRational(rat(1, 2), rat(1)))
                a, zero = lam * a_mat, SqMatrix.zero(n)
                assert closed_star_exponential(lam, a_mat, order) == (
                    solve_g(a, zero, order), lam.inverse() * solve_q(a, zero, order)
                )


def test_closed_form_matches_oracle():
    lam = std_lam2()
    for a_mat in (
        SqMatrix.identity(2),
        SqMatrix(((gr(2), gr(1, 2)), (gr(1, 2), gr(-1)))),
    ):
        assert closed_form_vs_oracle(lam, a_mat, N).passed


def complex_gauss(rng) -> GaussianRational:
    """A Gaussian rational whose imaginary part is nonzero."""
    return GaussianRational(rand_rat(rng), rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))


def complex_triangle(rng, n: int, antisym: bool) -> SqMatrix:
    """An antisymmetric (invertible) or symmetric matrix whose entries on
    and above the diagonal are complex, the diagonal zero when antisymmetric."""
    while True:
        rows = [[gr(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + antisym, n):
                v = complex_gauss(rng)
                rows[i][j], rows[j][i] = v, -v if antisym else v
        m = SqMatrix(rows)
        if not antisym or m.det():
            return m


@pytest.mark.parametrize("n, order", [(2, 8), (4, 6)])
def test_closed_form_matches_oracle_on_complex_lambda_and_a(n, order):
    # a = lam A is complex, so the log-amplitude's traces have imaginary
    # parts that the closed form must negate with their real parts
    rng = random.Random(90 + n)
    lam, a_mat = complex_triangle(rng, n, True), complex_triangle(rng, n, False)
    assert closed_form_vs_oracle(lam, a_mat, order).passed


def test_riccati_vs_moyal_on_complex_coefficients():
    rng = random.Random(97)
    for _ in range(4):
        a, b, c = (complex_gauss(rng) for _ in range(3))
        assert riccati_vs_moyal(a, b, c, N).passed


def test_expand_closed_form_identity_case():
    # lam = [[0,1],[-1,0]], A = I: amplitude sec t, phase tan t * identity
    lam = std_lam2()
    series = expand_closed_form(lam, SqMatrix.identity(2), 4)
    z0 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    x = (z0 ** 2 + z1 ** 2).scale(MultiPoly.param("mu", -1))
    assert series.coeffs[0] == MultiPoly.one(2)
    assert series.coeffs[1] == x
    assert series.coeffs[2] == (x * x + MultiPoly.one(2)).scale_rat(rat(1, 2))


# --- one-variable Riccati reduction ------------------------------------------


def tan_sec_oracle(N: int):
    # independent oracle: tan and sec series from their power-series
    # definitions sin/cos with exact rationals
    from math import factorial

    sin = [rat(0)] * (N + 1)
    cos = [rat(0)] * (N + 1)
    for k in range(N + 1):
        if k % 2:
            sin[k] = rat((-1) ** ((k - 1) // 2), factorial(k))
        else:
            cos[k] = rat((-1) ** (k // 2), factorial(k))
    # divide: tan = sin/cos, sec = 1/cos by long division
    def divide(num):
        out = [rat(0)] * (N + 1)
        for k in range(N + 1):
            acc = num[k]
            for j in range(1, k + 1):
                acc -= cos[j] * out[k - j]
            out[k] = acc  # cos[0] = 1
        return out

    one = [rat(1)] + [rat(0)] * N
    return divide(sin), divide(one)


def test_riccati_1d_series_values():
    g, h = riccati_1d(gr(0), gr(0), gr(1), N)  # D = 1
    tan_c, sec_c = tan_sec_oracle(N)
    for k in range(N + 1):
        # h_k = tan_k * hbar^(k-1), g_k = sec_k * hbar^k (argument hbar*t)
        want_h = (
            MultiPoly.zero(0)
            if not tan_c[k]
            else MultiPoly.param("hbar", k - 1, gr(1).scale(tan_c[k]))
        )
        want_g = (
            MultiPoly.zero(0)
            if not sec_c[k]
            else MultiPoly.param("hbar", k, gr(1).scale(sec_c[k]))
        )
        assert h.coeffs[k].constant_coefficient() == want_h
        assert g.coeffs[k].constant_coefficient() == want_g


def test_riccati_1d_degenerate():
    g, h = riccati_1d(gr(0), gr(0), gr(0), N)
    t_series = TruncSeries.t_term(MultiPoly.one(0), 1, N)
    assert h == t_series
    assert g == TruncSeries.one(0, N)
    # D = 0 along a nontrivial direction too: a=1, b=1, c=1 gives D=0
    g2, h2 = riccati_1d(gr(1), gr(1), gr(1), N)
    assert h2 == t_series and g2 == TruncSeries.one(0, N)


def test_riccati_1d_flow_residuals():
    for (a, b, c) in ((gr(0), gr(0), gr(1)), (gr(1), gr(1), gr(0)), (gr(2), gr(-1), gr(1, 2))):
        d = c * c - a * b
        eps = MultiPoly.param("hbar", 2, d) if d else MultiPoly.zero(0)
        g, h = riccati_1d(a, b, c, N)
        one = TruncSeries.one(0, N)
        h_res = h.dt() - (one + (h * h).scale(eps)).truncate(N - 1)
        assert h_res.is_zero()
        g_res = g.dt() - (g * h).scale(eps).truncate(N - 1)
        assert g_res.is_zero()


def test_riccati_pde_with_symbolic_argument():
    # f_t = g e^{h x} satisfies df/dt = x f + hbar^2 D (f' + x f'') with a
    # symbolic one-variable x
    for (a, b, c) in ((gr(0), gr(0), gr(1)), (gr(1), gr(2), gr(-1))):
        d = c * c - a * b
        eps = MultiPoly.param("hbar", 2, d) if d else MultiPoly.zero(0)
        g, h = riccati_1d(a, b, c, N)
        x = MultiPoly.variable(1, 0)
        xs = TruncSeries.from_poly(x, N)
        f = (h.lift(1) * xs).exp() * g.lift(1)
        dx = lambda s: TruncSeries(1, s.order, [c_.derivative(0) for c_ in s.coeffs])
        rhs = (xs * f) + (dx(f) + xs * dx(dx(f))).scale(eps)
        assert f.dt() == rhs.truncate(N - 1)


def test_riccati_vs_moyal_examples():
    assert riccati_vs_moyal(gr(0), gr(0), gr(0), N).passed
    assert riccati_vs_moyal(gr(0), gr(0), gr(1), N).passed
    # D = -1: only hbar^2 D enters, no imaginary radicals appear
    rep = riccati_vs_moyal(gr(1), gr(1), gr(0), N)
    assert rep.passed
    g, _ = riccati_1d(gr(1), gr(1), gr(0), N)
    for coef in (c.constant_coefficient() for c in g.coeffs):
        for value in coef.terms.values():
            assert not value.im


def packed(series: TruncSeries) -> tuple:
    """(triples, w): the closed side of ``_oracle_report`` for a series, at
    the least width that holds every field of its keys."""
    w = key_width(max(c.max_exponent() for c in series.coeffs))
    return [c.numerators(w) for c in series.coeffs], w


def test_oracle_report_names_the_differing_component():
    closed = expand_closed_form(std_lam2(), SqMatrix.identity(2), 4)
    passed = _oracle_report(packed(closed), closed)
    assert passed.passed and passed.witness is None
    # perturb one (degree, mu) component at t^3: z0^2/mu has degree 2, mu^-1
    z0 = MultiPoly.variable(2, 0)
    bump = TruncSeries.t_term((z0 * z0).scale(MU_INV + HBAR), 3, 4)
    rep = _oracle_report(packed(closed + bump), closed)
    assert not rep.passed and rep.first_divergence_order == 3
    assert rep.witness == {
        "components": [{"degree": 2, "mu": -1}, {"degree": 2, "mu": 0}]
    }
    assert _oracle_report(packed(closed), closed + bump).witness == rep.witness


def test_oracle_report_refuses_an_oracle_order_that_aliases_when_packed():
    lam, a_mat = std_lam2(), SqMatrix.identity(2)
    triples, w = _expansion(lam, a_mat, 4)
    oracle = expand_closed_form(lam, a_mat, 4)
    assert oracle == _series(2, triples, w)
    assert _oracle_report((triples, w), oracle).passed
    # order 1 is (z0^2 + z1^2)/mu; z0^(2^w) z1 packs at w as z1^2 does,
    # because the z0 field carries into the z1 field
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    alias = (z0 * z0 + z0 ** (1 << w) * z1).scale(MU_INV)
    assert alias != oracle.coeffs[1] and alias.numerators(w) == triples[1]
    coeffs = list(oracle.coeffs)
    coeffs[1] = alias
    rep = _oracle_report((triples, w), TruncSeries(2, 4, coeffs))
    assert not rep.passed and rep.first_divergence_order == 1
    assert rep.witness == {
        "components": [{"degree": 2, "mu": -1}, {"degree": (1 << w) + 1, "mu": -1}]
    }


def test_matrix_json_roundtrip():
    m = SqMatrix(((gr(1, 2), gr(-3)), (gr(0), GR_ONE)))
    assert SqMatrix(cli._matrix_input(m.to_json(), "m")) == m
    # each entry's text reduces its real and imaginary parts on their own
    c = SqMatrix(
        ((GaussianRational(rat(1, 6), rat(-3, 4)), gr(2, 3)), (gr(0), GaussianRational(0, 1)))
    )
    assert c.to_json() == [["1/6-3/4*i", "2/3"], ["0", "1*i"]]
    assert c.to_json() == [[v.text() for v in row] for row in c.rows]
