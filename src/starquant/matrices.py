"""Cayley-transform calculus and closed-form star exponentials.

Everything here is exact: square matrices over Gaussian rationals, matrix
power series truncated in t, the Cayley transform that linearizes the
quadratic flow of the phase matrix, and the one-variable Riccati reduction.
The closed forms are cross-checked against the term-by-term star-exponential
recursion from :mod:`starquant.star`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError
from .grading import decompose
from .poly import HALF_MU, MU_INV, MultiPoly, quadratic_form
from .reports import CheckReport
from .scalars import GR_ONE, GR_ZERO, GaussianRational, gr, rat
from .series import TruncSeries, _cauchy
from .star import StarContext, ode_star_exponential


class SqMatrix:
    """A square matrix with exact GaussianRational entries."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence[GaussianRational]]):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        for r in rows:
            if len(r) != dim:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SqMatrix is immutable")

    @classmethod
    def zero(cls, dim: int) -> "SqMatrix":
        return cls(tuple((GR_ZERO,) * dim for _ in range(dim)))

    @classmethod
    def identity(cls, dim: int) -> "SqMatrix":
        return cls(
            tuple(
                tuple(GR_ONE if i == j else GR_ZERO for j in range(dim))
                for i in range(dim)
            )
        )

    def one_like(self) -> "SqMatrix":
        return SqMatrix.identity(self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        return SqMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return SqMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "SqMatrix":
        return SqMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        d = self.dim
        if other.dim != d:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append(
                tuple(
                    sum(
                        (a * b for a, b in zip(row, col) if a and b),
                        GR_ZERO,
                    )
                    for col in cols
                )
            )
        return SqMatrix(tuple(out))

    def scale(self, c: GaussianRational) -> "SqMatrix":
        return SqMatrix(tuple(tuple(a * c for a in r) for r in self.rows))

    def transpose(self) -> "SqMatrix":
        return SqMatrix(tuple(zip(*self.rows)))

    def trace(self) -> GaussianRational:
        acc = GR_ZERO
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def _eliminate(self, extra: list) -> tuple:
        """Forward Gaussian elimination of the rows [self | extra] to upper
        triangular form, with exact division.

        Returns (det, reduced rows), or (0, None) when self is singular.
        """
        d = self.dim
        m = [list(r) + e for r, e in zip(self.rows, extra)]
        det = GR_ONE
        for col in range(d):
            pivot_row = next((r for r in range(col, d) if m[r][col]), None)
            if pivot_row is None:
                return GR_ZERO, None
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                det = -det
            pivot = m[col][col]
            det = det * pivot
            inv = pivot.inverse()
            for r in range(col + 1, d):
                if m[r][col]:
                    factor = m[r][col] * inv
                    m[r] = [v - factor * p for v, p in zip(m[r], m[col])]
        return det, m

    def det(self) -> GaussianRational:
        """Exact determinant by Gaussian elimination with exact division."""
        return self._eliminate([[]] * self.dim)[0]

    def inverse(self) -> "SqMatrix":
        """Eliminate [self | I], then back-substitute to [I | self^(-1)]."""
        d = self.dim
        _, m = self._eliminate(
            [[GR_ONE if i == j else GR_ZERO for j in range(d)] for i in range(d)]
        )
        if m is None:
            raise PreconditionError("matrix is singular")
        for col in reversed(range(d)):
            inv = m[col][col].inverse()
            m[col] = [v * inv for v in m[col]]
            for r in range(col):
                factor = m[r][col]
                if factor:
                    m[r] = [v - factor * p for v, p in zip(m[r], m[col])]
        return SqMatrix(tuple(tuple(row[d:]) for row in m))

    def to_json(self) -> list:
        return [[v.text() for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "SqMatrix":
        return cls(
            tuple(tuple(GaussianRational.parse(v) for v in row) for row in data)
        )

    def __repr__(self) -> str:
        return f"SqMatrix({self.to_json()})"


class MatSeries:
    """A matrix-valued power series in t, truncated at order N (inclusive)."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: Sequence[SqMatrix]):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficient matrices")
        for m in coeffs:
            if m.dim != dim:
                raise ValueError("dimension mismatch in coefficients")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("MatSeries is immutable")

    @classmethod
    def from_matrix(cls, m: SqMatrix, order: int) -> "MatSeries":
        z = SqMatrix.zero(m.dim)
        return cls(m.dim, order, (m,) + (z,) * order)

    @classmethod
    def zero(cls, dim: int, order: int) -> "MatSeries":
        return cls.from_matrix(SqMatrix.zero(dim), order)

    @classmethod
    def identity(cls, dim: int, order: int) -> "MatSeries":
        return cls.from_matrix(SqMatrix.identity(dim), order)

    def one_like(self) -> "MatSeries":
        return MatSeries.identity(self.dim, self.order)

    def _check_compat(self, other: "MatSeries") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.order != other.order:
            raise ValueError("truncation order mismatch; re-truncate explicitly")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatSeries):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.coeffs)

    def __add__(self, other: "MatSeries") -> "MatSeries":
        self._check_compat(other)
        return MatSeries(
            self.dim,
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "MatSeries") -> "MatSeries":
        self._check_compat(other)
        return MatSeries(
            self.dim,
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "MatSeries":
        return MatSeries(self.dim, self.order, tuple(-m for m in self.coeffs))

    def __mul__(self, other: "MatSeries") -> "MatSeries":
        self._check_compat(other)
        a, b, zero = self.coeffs, other.coeffs, SqMatrix.zero(self.dim)
        coeffs = tuple(_cauchy(a, b, k, zero) for k in range(self.order + 1))
        return MatSeries(self.dim, self.order, coeffs)

    def scale(self, c: GaussianRational) -> "MatSeries":
        return MatSeries(self.dim, self.order, tuple(m.scale(c) for m in self.coeffs))

    def matmul_left(self, m: SqMatrix) -> "MatSeries":
        return MatSeries(self.dim, self.order, tuple(m * c for c in self.coeffs))

    def transpose(self) -> "MatSeries":
        return MatSeries(self.dim, self.order, tuple(m.transpose() for m in self.coeffs))

    def truncate(self, order: int) -> "MatSeries":
        if order <= self.order:
            return MatSeries(self.dim, order, self.coeffs[: order + 1])
        z = SqMatrix.zero(self.dim)
        return MatSeries(
            self.dim, order, self.coeffs + (z,) * (order - self.order)
        )

    def dt(self) -> "MatSeries":
        """Derivative d/dt (known through order N-1)."""
        if self.order == 0:
            raise PreconditionError("cannot differentiate an order-0 series")
        return MatSeries(
            self.dim,
            self.order - 1,
            tuple(
                self.coeffs[k + 1].scale(gr(k + 1)) for k in range(self.order)
            ),
        )

    def trace(self) -> TruncSeries:
        """Trace as a scalar (0-variable) series."""
        return TruncSeries(
            0, self.order, [MultiPoly.from_gaussian(m.trace()) for m in self.coeffs]
        )

    def inverse(self) -> "MatSeries":
        """Multiplicative inverse, from M X = I: X_0 = M_0^(-1) and
        X_k = -M_0^(-1) sum_{j=1..k} M_j X_{k-j}.  M_0 must be invertible."""
        inv0 = self.coeffs[0].inverse()  # raises PreconditionError when singular
        zero = SqMatrix.zero(self.dim)
        out = [inv0]
        for k in range(1, self.order + 1):
            out.append(-(inv0 * _cauchy(self.coeffs, out, k, zero, 1)))
        return MatSeries(self.dim, self.order, tuple(out))

    def det(self) -> TruncSeries:
        """Determinant as a scalar series, from Jacobi's formula
        (log det M)' = tr(M^(-1) M').

        Times t, its t^k coefficient reads k L_k = tr((M^(-1) t M')_k) for
        L = log(det M / det M_0); then det M = det(M_0) exp(L).  M_0 must be
        invertible, as for ``inverse``: det(t I) = t^dim raises
        ``PreconditionError``.
        """
        t_dm = [m.scale(gr(k)) for k, m in enumerate(self.coeffs)]
        k_log = (self.inverse() * MatSeries(self.dim, self.order, t_dm)).trace()
        # the t^0 coefficient of k_log is 0, as that of t M' is
        log = [
            c.scale_rat(rat(1, k)) if k else c for k, c in enumerate(k_log.coeffs)
        ]
        det0 = MultiPoly.from_gaussian(self.coeffs[0].det())
        return TruncSeries(0, self.order, log).exp().scale(det0)

    def __repr__(self) -> str:
        return f"MatSeries(order={self.order}, coeffs={[m.to_json() for m in self.coeffs]})"


# --- Cayley calculus ------------------------------------------------------


def _cayley_inverse_factor(x):
    one = x.one_like()
    try:
        return one, (one + x).inverse()
    except PreconditionError as exc:
        raise PreconditionError(
            "1 + X is singular: outside the Cayley transform domain"
        ) from exc


def cayley(x):
    """The Cayley transform (1 - X)(1 + X)^(-1) for a matrix or matrix series."""
    one, inv = _cayley_inverse_factor(x)
    return (one - x) * inv


# the Cayley transform is an involution, so it is its own inverse
inverse_cayley = cayley


def check_sp_pair(lam: SqMatrix, x: SqMatrix) -> dict:
    """Check the symplectic pair criterion for (lambda, X).

    Returns a dict reporting (i) whether lambda*X is symmetric and, when
    1+X is invertible, (ii) whether tC(X) lambda C(X) = lambda.  Part (i)
    implying part (ii) is the content of the criterion.
    """
    if not lam.is_antisymmetric():
        raise PreconditionError("lambda must be antisymmetric")
    if not lam.det():
        raise PreconditionError("lambda must be invertible")
    lx_symmetric = (lam * x).is_symmetric()
    c = cayley(x)  # raises PreconditionError when 1+X is singular
    preserves = (c.transpose() * lam * c) == lam
    return {
        "lambda_x_symmetric": lx_symmetric,
        "cayley_preserves_form": preserves,
    }


def mat_exp_series(a: SqMatrix, scale: GaussianRational, N: int) -> MatSeries:
    """The series of exp(scale * a * t) through t^N."""
    coeffs = [SqMatrix.identity(a.dim)]
    cur = SqMatrix.identity(a.dim)
    sa = a.scale(scale)
    fact = rat(1)
    for k in range(1, N + 1):
        cur = cur * sa
        fact = fact * k
        coeffs.append(cur.scale(gr(1 / fact)))
    return MatSeries(a.dim, N, coeffs)


def tanh_series(a: SqMatrix, N: int) -> MatSeries:
    """The series of tanh(a t), generated by its defining flow T' = a(1 - T^2)."""
    dim = a.dim
    zero = SqMatrix.zero(dim)
    coeffs = [zero]
    for k in range(N):
        sq = _cauchy(coeffs, coeffs, k, zero)  # (T^2)_k
        rhs = (SqMatrix.identity(dim) - sq) if k == 0 else -sq
        coeffs.append((a * rhs).scale(gr(1, k + 1)))
    return MatSeries(dim, N, coeffs)


def solve_q(a: SqMatrix, b: SqMatrix, N: int) -> MatSeries:
    """The phase-flow solution q(t) = C^(-1)(exp(-2at) C(b)).

    Satisfies dq/dt = (1+q) a (1-q) with q(0) = b, as exact series
    identities; requires 1 + b invertible.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    cb = cayley(b)  # raises PreconditionError if 1+b singular
    flow = mat_exp_series(a, gr(-2), N) * MatSeries.from_matrix(cb, N)
    return inverse_cayley(flow)


def solve_g(a: SqMatrix, b: SqMatrix, N: int) -> TruncSeries:
    """The amplitude g(t) = det^(-1/2)((exp(at)(1+b) + exp(-at)(1-b))/2).

    A scalar series with g(0) = 1 satisfying dg/dt = -(1/2) tr(a q) g.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    one = SqMatrix.identity(a.dim)
    if not (one + b).det():
        raise PreconditionError(
            "1 + b is singular: outside the Cayley transform domain"
        )
    ep = mat_exp_series(a, GR_ONE, N) * MatSeries.from_matrix(one + b, N)
    em = mat_exp_series(a, -GR_ONE, N) * MatSeries.from_matrix(one - b, N)
    m = (ep + em).scale(gr(1, 2))
    return m.det().inv_sqrt()


def q_flow_residual(a: SqMatrix, q: MatSeries) -> MatSeries:
    """dq/dt - (1+q) a (1-q), truncated to the differentiable range."""
    one = MatSeries.identity(q.dim, q.order)
    aser = MatSeries.from_matrix(a, q.order)
    rhs = (one + q) * aser * (one - q)
    return q.dt() - rhs.truncate(q.order - 1)


def cayley_flow_residual(a: SqMatrix, q: MatSeries) -> MatSeries:
    """d/dt C(q) + 2 a C(q), the linearized form of the phase flow."""
    c = cayley(q)
    aser = MatSeries.from_matrix(a.scale(gr(2)), q.order)
    return c.dt() + (aser * c).truncate(q.order - 1)


def g_flow_residual(a: SqMatrix, q: MatSeries, g: TruncSeries) -> TruncSeries:
    """dg/dt + (1/2) tr(a q) g."""
    aq = MatSeries.from_matrix(a, q.order) * q
    rhs = (aq.trace() * g).scale_rat(rat(1, 2))
    return g.dt() + rhs.truncate(g.order - 1)


# --- closed-form star exponential ------------------------------------------


def closed_star_exponential(lam: SqMatrix, a_mat: SqMatrix, N: int) -> tuple:
    """Amplitude and phase-matrix series of the star exponential of a
    quadratic form.

    For an invertible antisymmetric lambda and symmetric A, returns
    (amplitude, Q) with

        amplitude = det^(-1/2)((exp(t lam A) + exp(-t lam A)) / 2)
        Q(t)      = lam^(-1) tanh(t lam A)   (so Q = A t at first order)

    such that amplitude * exp((1/mu) Q(t)[Z]) solves the star-exponential
    flow with initial value 1.
    """
    if not lam.is_antisymmetric():
        raise PreconditionError("lambda must be antisymmetric")
    if not lam.det():
        raise PreconditionError("lambda must be invertible")
    if not a_mat.is_symmetric():
        raise PreconditionError("quadratic-form matrix must be symmetric")
    if lam.dim != a_mat.dim:
        raise ValueError("dimension mismatch")
    a = lam * a_mat
    zero = SqMatrix.zero(lam.dim)
    amplitude = solve_g(a, zero, N)
    q = solve_q(a, zero, N)
    phase = q.matmul_left(lam.inverse())
    return amplitude, phase


def expand_closed_form(lam: SqMatrix, a_mat: SqMatrix, N: int) -> TruncSeries:
    """Expand amplitude * exp((1/mu) Q(t)[Z]) into a polynomial t-series."""
    amplitude, phase = closed_star_exponential(lam, a_mat, N)
    n = lam.dim
    exponent = TruncSeries.zero(n, N)
    for k, m in enumerate(phase.coeffs):
        if m.is_zero():
            continue
        exponent = exponent + TruncSeries.t_term(
            quadratic_form(m.rows, n).scale(MU_INV), k, N
        )
    return exponent.exp() * amplitude.lift(n)


def first_divergence(s1: TruncSeries, s2: TruncSeries) -> int | None:
    for k in range(min(s1.order, s2.order) + 1):
        if s1.coeffs[k] != s2.coeffs[k]:
            return k
    return None


def _oracle_report(closed: TruncSeries, oracle: TruncSeries) -> CheckReport:
    """Pass, or fail at the first diverging order with the sorted (degree,
    mu) components of the difference there as the witness."""
    k = first_divergence(closed, oracle)
    if k is None:
        return CheckReport(passed=True)
    diff = decompose(closed.coeffs[k] - oracle.coeffs[k])
    components = [{"degree": d, "mu": w} for d, w in sorted(diff.components)]
    return CheckReport(
        passed=False, first_divergence_order=k, witness={"components": components}
    )


def closed_form_vs_oracle(lam: SqMatrix, a_mat: SqMatrix, N: int) -> CheckReport:
    """Compare the closed-form expansion with the ODE oracle through t^N."""
    ctx = StarContext.constant(lam.rows, HALF_MU)
    h = quadratic_form(a_mat.rows, lam.dim).scale(MU_INV)
    oracle = ode_star_exponential(ctx, h, N)
    return _oracle_report(expand_closed_form(lam, a_mat, N), oracle)


# --- one-variable Riccati reduction ----------------------------------------


def riccati_1d(
    a: GaussianRational, b: GaussianRational, c: GaussianRational, N: int
) -> tuple:
    """Amplitude/phase series (g, h) of the one-variable Riccati reduction.

    With D = c^2 - a b, the pair solves

        h' = 1 + D hbar^2 h^2,    h(0) = 0
        g' = D hbar^2 g h,        g(0) = 1

    i.e. h(t) = tan(hbar sqrt(D) t)/(hbar sqrt(D)) and
    g(t) = 1/cos(hbar sqrt(D) t); both are even in sqrt(D), so the
    coefficients are exact polynomials in hbar^2 D and no radical is ever
    adjoined.  D = 0 degenerates to h = t, g = 1.
    """
    d = c * c - a * b
    eps = MultiPoly.param("hbar", 2, d)  # the combination hbar^2 D
    zero, one = MultiPoly.zero(0), MultiPoly.one(0)
    hc = [zero] * (N + 1)
    gc = [one] + [zero] * N
    for k in range(N):
        h_sq = _cauchy(hc, hc, k, zero)
        g_h = _cauchy(gc, hc, k, zero)
        rhs = (one if k == 0 else zero) + eps * h_sq
        hc[k + 1] = rhs.scale_rat(rat(1, k + 1))
        gc[k + 1] = (eps * g_h).scale_rat(rat(1, k + 1))
    return TruncSeries(0, N, gc), TruncSeries(0, N, hc)


def riccati_vs_moyal(
    a: GaussianRational, b: GaussianRational, c: GaussianRational, N: int
) -> CheckReport:
    """Cross-validate the one-variable reduction against the two-variable
    Weyl-context oracle for the quadratic a u^2 + b v^2 + 2c uv."""
    ctx = StarContext.weyl(1)
    n = 2
    quad = SqMatrix(((a, c), (c, b)))
    h_poly = quadratic_form(quad.rows, n)
    oracle = ode_star_exponential(ctx, h_poly, N)
    g, h = riccati_1d(a, b, c, N)
    closed = (h.lift(n) * TruncSeries.from_poly(h_poly, N)).exp() * g.lift(n)
    return _oracle_report(closed, oracle)
