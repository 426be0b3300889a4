"""Cayley-transform calculus and closed-form star exponentials.

Everything here is exact: square matrices over Gaussian rationals, matrix
power series truncated in t, the Cayley transform that linearizes the
quadratic flow of the phase matrix, and the one-variable Riccati reduction.
The closed forms are cross-checked against the term-by-term star-exponential
recursion from :mod:`starquant.star`.

The closed star exponential takes its phase from the tanh flow and its
amplitude from the trace of a q by Jacobi's formula; the Cayley round trip
``solve_q``/``solve_g`` serves initial data b != 0 and the flow checks.

A ``SqMatrix`` has the layout of FLINT's ``fmpq_mat`` (Hart, "FLINT: Fast
Library for Number Theory", ICMS 2010): integer numerator rows ``re`` and
``im`` over one positive denominator ``den``, in lowest terms (the gcd of
``den`` and every numerator is 1), so equal matrices have equal fields.
Sums, products and scalings are integer matrix arithmetic followed by one
gcd normalisation.  A real operand pays nothing for its zero ``im``: the
normalisation takes no gcd over it and divides none of it, and negation
and a real scaling return it as it stands.  A Cauchy coefficient
sum_j m_j X_j Y_(k-j) over the lcm of the denominators is one block
product, the block rows [m_1 X_1 | m_2 X_2 | ...] times the block columns
[Y_(k-1); Y_(k-2); ...], one dot product per entry, with the imaginary
passes of a real side skipped; a product of two matrices is its one-pair
case.  ``MatSeries.inverse`` forms its left factors -M_0^(-1) M_j once, so
each order is one block product; when M_0 is the identity, as in
``cayley`` of a series with X_0 = 0 and in the determinant of
``solve_g``, they are -M_j, with no matrix inverse and no product.
``MatSeries.det`` needs only traces, so it sums only the diagonal.
``MatSeries`` takes its shell from :class:`starquant.series.Series`, and a
constant ``SqMatrix`` multiplies it on either side with one matrix product
per coefficient, so no Cayley flow pads a constant into a series.
``SqMatrix.det`` and ``inverse`` run one fraction-free elimination of the
numerators (Bareiss, Math. Comp. 22, 1968), over the Gaussian integers Z[i]
when ``im`` is nonzero.  It is the layout of ``MultiPoly`` too, so a phase
matrix becomes a quadratic form numerator for numerator
(:func:`quadratic_form`).
GaussianRational entries enter by the constructor and ``scale`` and leave
by ``rows``, ``trace`` and ``det``, through the two helpers of
:mod:`starquant.scalars`; ``to_json`` writes each entry's text from its
numerators.  The ordering matrix K of :mod:`starquant.star` is an
``OrderingK``: a ``SqMatrix`` that checks its symmetry when it is built.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Sequence

from .errors import PreconditionError
from .grading import graded_keys
from .poly import HALF_MU, MU_INV, MultiPoly, key_width, quadratic_form
from .reports import CheckReport
from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _GaussInt,
    gr,
    numerator_text,
    rat,
    to_gaussian,
    to_numerators,
)
from .series import Series, TruncSeries, _cauchy, _mul, _series
from .star import StarContext, _block, ode_star_exponential

_RIGHT, _DEN = itemgetter(1), itemgetter(2)


@cache
def _zeros(dim: int) -> tuple:
    return ((0,) * dim,) * dim


def _lin(x: tuple, a: int, y: tuple, b: int) -> tuple:
    """The integer rows a x + b y."""
    return tuple([tuple([a * u + b * v for u, v in zip(rx, ry)]) for rx, ry in zip(x, y)])


def _times(x: tuple, a: int) -> tuple:
    return tuple([tuple([a * u for u in r]) for r in x])


def _bareiss(m: list, jordan: bool):
    """Fraction-free elimination (Bareiss) of the rows ``m`` in place, with
    int or ``_GaussInt`` entries, pivoting on the first len(m) columns.

    Step k replaces each entry right of column k, in the rows below the
    pivot row (every other row when ``jordan``), by (p m_ij - m_ik m_kj) / p'
    for the pivot p and the previous pivot p'; the division is exact.  The
    last pivot is then the determinant up to the sign of the row swaps, and
    with ``jordan`` the columns after the pivot block hold the last pivot
    times the inverse of the pivot block applied to them.  Returns (last
    pivot, sign), or None when the pivot block is singular.
    """
    d = len(m)
    width = len(m[0])
    prev, sign = 1, 1
    for k in range(d):
        r = next((r for r in range(k, d) if m[r][k]), None)
        if r is None:
            return None
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(d) if jordan else range(k + 1, d):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            m[i] = row[: k + 1] + [
                (p * row[j] - f * top[j]) // prev for j in range(k + 1, width)
            ]
        prev = p
    return prev, sign


def _normal(dim: int, den: int, re: tuple, im: tuple) -> "SqMatrix":
    """The matrix (re + i im) / den, for den > 0, in lowest terms.  A zero
    ``im`` takes no gcd and no division: it stays as it stands."""
    real = im == _zeros(dim)
    g = gcd(den, *chain.from_iterable(re))
    if g != 1 and not real:  # im only while re leaves a factor
        g = gcd(g, *chain.from_iterable(im))
    if g != 1:
        den //= g
        re = tuple([tuple([v // g for v in r]) for r in re])
        if not real:
            im = tuple([tuple([v // g for v in r]) for r in im])
    return SqMatrix._raw(dim, den, re, im)


def _add(x: "SqMatrix", y: "SqMatrix", sign: int = 1) -> "SqMatrix":
    """x + sign * y over the lcm of their denominators, with one
    normalisation.  A zero operand gives the other, or its negative, as it
    stands: both are in lowest terms already."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if y.is_zero():
        return x
    if x.is_zero():
        return y if sign == 1 else -y
    den = lcm(x.den, y.den)
    fx, fy = den // x.den, sign * den // y.den
    real = x.im == y.im == _zeros(x.dim)
    im = x.im if real else _lin(x.im, fx, y.im, fy)
    return _normal(x.dim, den, _lin(x.re, fx, y.re, fy), im)


def _blocks(pairs, zero: tuple) -> list:
    """[den, re, im]: the sum of x * y over the pairs (x, y) of matrices with
    zero rows ``zero``, over the lcm den of the d = x.den * y.den.  The real
    part has the passes x.re y.re / d and -x.im y.im / d, the imaginary part
    x.re y.im / d and x.im y.re / d, each only when both its factors are
    nonzero.  A part with passes u v / d is the block rows [m_1 u_1 |
    m_2 u_2 | ...], m = den / d, and the block columns [v_1; v_2; ...]: its
    entry (i, j) over den is the dot product of row i and column j."""
    re, im = [], []
    for x, y in pairs:
        xr, xi, yr, yi = x.re != zero, x.im != zero, y.re != zero, y.im != zero
        d = x.den * y.den
        if xr and yr:
            re.append((x.re, y.re, d))
        if xi and yi:
            re.append((x.im, y.im, -d))
        if xr and yi:
            im.append((x.re, y.im, d))
        if xi and yr:
            im.append((x.im, y.re, d))
    den = lcm(*map(_DEN, re), *map(_DEN, im))
    blocks = [den]
    for passes in (re, im):  # a part with no pass stays an empty list
        if passes:
            us = [u if d == den else _times(u, den // d) for u, _, d in passes]
            rows = us[0] if len(us) == 1 else [tuple(chain(*r)) for r in zip(*us)]
            passes = rows, list(zip(*chain(*map(_RIGHT, passes))))
        blocks.append(passes)
    return blocks


def _msum(pairs, dim: int) -> "SqMatrix":
    """The sum of x * y over the pairs (x, y) of dim x dim matrices: one
    block product per part, row-major and cut into rows, normalised once."""
    zero = _zeros(dim)
    den, *parts = _blocks(pairs, zero)
    re, im = [
        tuple(zip(*[iter([sum(map(mul, r, c)) for r in part[0] for c in part[1]])] * dim))
        if part else zero
        for part in parts
    ]
    return _normal(dim, den, re, im)


class SqMatrix:
    """A square matrix with exact GaussianRational entries, stored as the
    integer rows ``re`` and ``im`` over the positive denominator ``den``, in
    lowest terms."""

    __slots__ = ("dim", "den", "re", "im")

    def __init__(self, rows: Sequence[Sequence[GaussianRational]]):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        for r in rows:
            if len(r) != dim:
                raise ValueError("matrix must be square")
        re, im, den = to_numerators(v for r in rows for v in r)
        self._set(dim, den, *(tuple(zip(*[iter(part)] * dim)) for part in (re, im)))

    def _set(self, dim: int, den: int, re: tuple, im: tuple) -> None:
        # the slots' own setters, past the immutable __setattr__
        set_dim, set_den, set_re, set_im = _SETTERS
        set_dim(self, dim), set_den(self, den), set_re(self, re), set_im(self, im)

    @staticmethod
    def _raw(dim: int, den: int, re: tuple, im: tuple) -> "SqMatrix":
        m = object.__new__(SqMatrix)
        m._set(dim, den, re, im)
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def rows(self) -> tuple:
        """The entries as GaussianRational rows."""
        den = self.den
        return tuple(
            tuple(to_gaussian(a, b, den) for a, b in zip(r, i))
            for r, i in zip(self.re, self.im)
        )

    @classmethod
    def zero(cls, dim: int) -> "SqMatrix":
        return cls._raw(dim, 1, _zeros(dim), _zeros(dim))

    @classmethod
    def identity(cls, dim: int) -> "SqMatrix":
        eye = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        return cls._raw(dim, 1, eye, _zeros(dim))

    def one_like(self) -> "SqMatrix":
        return SqMatrix.identity(self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqMatrix):
            return NotImplemented
        # in lowest terms, equal values have equal fields
        return (self.den, self.re, self.im) == (other.den, other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.den, self.re, self.im))

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        return _add(self, other)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return _add(self, other, -1)

    def __neg__(self) -> "SqMatrix":
        im = self.im if self.im == _zeros(self.dim) else _times(self.im, -1)
        return SqMatrix._raw(self.dim, self.den, _times(self.re, -1), im)

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        if not isinstance(other, SqMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _msum(((self, other),), self.dim)

    def _scaled(self, cre: int, cim: int, cden: int) -> "SqMatrix":
        """self * (cre + cim*i) / cden for ints, cden > 0."""
        re, im = self.re, self.im
        if cim:
            re, im = _lin(re, cre, im, -cim), _lin(re, cim, im, cre)
        else:
            re, im = _times(re, cre), im if im == _zeros(self.dim) else _times(im, cre)
        return _normal(self.dim, self.den * cden, re, im)

    def scale(self, c: GaussianRational) -> "SqMatrix":
        (cre,), (cim,), cden = to_numerators((c,))
        return self._scaled(cre, cim, cden)

    def transpose(self) -> "SqMatrix":
        return SqMatrix._raw(
            self.dim, self.den, tuple(zip(*self.re)), tuple(zip(*self.im))
        )

    def _trace(self) -> tuple:
        """(re, im, den) of the trace."""
        d = range(self.dim)
        return sum(self.re[i][i] for i in d), sum(self.im[i][i] for i in d), self.den

    def trace(self) -> GaussianRational:
        return to_gaussian(*self._trace())

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    def is_zero(self) -> bool:
        return self.re == self.im == _zeros(self.dim)

    def _numerators(self, augment: bool) -> list:
        """The numerator rows as lists for ``_bareiss``, with the identity
        appended when ``augment``: ints when real, else ``_GaussInt``s."""
        d = self.dim
        eye = [[int(i == j) for j in range(d)] if augment else [] for i in range(d)]
        if self.im == _zeros(d):
            return [list(r) + e for r, e in zip(self.re, eye)]
        return [
            [_GaussInt(a, b) for a, b in zip(r, i)] + [_GaussInt(v, 0) for v in e]
            for r, i, e in zip(self.re, self.im, eye)
        ]

    def det(self) -> GaussianRational:
        """Exact determinant, det(numerators) / den^dim, by Bareiss
        elimination of the numerators."""
        out = _bareiss(self._numerators(False), False)
        if out is None:
            return GR_ZERO
        p, sign = out
        pre, pim = (p.re, p.im) if isinstance(p, _GaussInt) else (p, 0)
        return to_gaussian(sign * pre, sign * pim, self.den ** self.dim)

    def inverse(self) -> "SqMatrix":
        """den * adj(numerators) / det(numerators), from one fraction-free
        Gauss-Jordan elimination of [numerators | I].  A complex determinant
        is cleared with its conjugate, so the denominator stays an int."""
        d, den = self.dim, self.den
        m = self._numerators(True)
        out = _bareiss(m, True)
        if out is None:
            raise PreconditionError("matrix is singular")
        p = out[0]  # the right half of m is p times the inverse numerators
        if isinstance(p, _GaussInt):
            pre, pim = den * p.re, den * p.im
            re = tuple(tuple(x.re * pre + x.im * pim for x in r[d:]) for r in m)
            im = tuple(tuple(x.im * pre - x.re * pim for x in r[d:]) for r in m)
            return _normal(d, p.re * p.re + p.im * p.im, re, im)
        s = den if p > 0 else -den
        return _normal(d, abs(p), tuple(tuple(s * x for x in r[d:]) for r in m), _zeros(d))

    def to_json(self) -> list:
        rows = zip(self.re, self.im)
        return [[numerator_text(a, b, self.den) for a, b in zip(*row)] for row in rows]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json()})"


_SETTERS = [getattr(SqMatrix, slot).__set__ for slot in SqMatrix.__slots__]


class OrderingK(SqMatrix):
    """A constant symmetric ordering matrix: a ``SqMatrix`` equal to its
    transpose, checked when it is built."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[GaussianRational]]):
        super().__init__(rows)
        if not self.is_symmetric():
            raise PreconditionError("ordering matrix must be symmetric")

    @classmethod
    def weyl(cls, n: int) -> "OrderingK":
        """K = 0 on n variables (Weyl ordering)."""
        return cls(((GR_ZERO,) * n,) * n)

    @classmethod
    def normal(cls, m: int) -> "OrderingK":
        """K0 = [[0, I], [I, 0]] on 2m variables (normal ordering)."""
        return cls(_block(m, 1, 1))

    @classmethod
    def antinormal(cls, m: int) -> "OrderingK":
        """-K0 (anti-normal ordering)."""
        return cls(_block(m, -1, -1))


class MatSeries(Series):
    """A matrix-valued power series in t, truncated at order N (inclusive),
    whose coefficients are ``SqMatrix`` of dimension ``dim``.  A constant
    matrix multiplies it on either side, one matrix product per
    coefficient."""

    __slots__ = ("dim",)
    _RING = SqMatrix
    _SIZE = ("dim", "dimension")

    @classmethod
    def from_matrix(cls, m: SqMatrix, order: int) -> "MatSeries":
        z = SqMatrix.zero(m.dim)
        return cls._raw(m.dim, order, (m,) + (z,) * order)

    @classmethod
    def identity(cls, dim: int, order: int) -> "MatSeries":
        return cls.from_matrix(SqMatrix.identity(dim), order)

    def one_like(self) -> "MatSeries":
        return MatSeries.identity(self.dim, self.order)

    def __mul__(self, other) -> "MatSeries":
        if isinstance(other, SqMatrix):
            return self._map(lambda m: m * other)
        self._check_compat(other)
        a, b = self.coeffs, other.coeffs
        return self._raw(
            self.dim, self.order,
            tuple(_msum(zip(a, b[k::-1]), self.dim) for k in range(self.order + 1)),
        )

    def __rmul__(self, other) -> "MatSeries":
        if not isinstance(other, SqMatrix):
            return NotImplemented
        return self._map(other.__mul__)

    def dt(self) -> "MatSeries":
        """Derivative d/dt (known through order N-1)."""
        if self.order == 0:
            raise PreconditionError("cannot differentiate an order-0 series")
        return self._raw(
            self.dim,
            self.order - 1,
            tuple(self.coeffs[k + 1]._scaled(k + 1, 0, 1) for k in range(self.order)),
        )

    def trace(self) -> TruncSeries:
        """Trace as a scalar (0-variable) series."""
        return TruncSeries(
            0, self.order, [MultiPoly.number(0, *m._trace()) for m in self.coeffs]
        )

    def inverse(self) -> "MatSeries":
        """Multiplicative inverse, from M X = I: X_0 = M_0^(-1) and
        X_k = sum_{j=1..k} L_j X_{k-j} with L_j = -M_0^(-1) M_j, each L_j
        formed once.  M_0 must be invertible.  When M_0 is the identity,
        X_0 = I and L_j = -M_j, with no matrix inverse and no product."""
        m0, rest = self.coeffs[0], self.coeffs[1:]
        if m0 == SqMatrix.identity(self.dim):
            inv0, left = m0, [-m for m in rest]
        else:
            inv0 = m0.inverse()  # raises PreconditionError when singular
            left = [-inv0 * m for m in rest]
        out = [inv0]
        for _ in range(self.order):
            out.append(_msum(zip(left, out[::-1]), self.dim))
        return self._raw(self.dim, self.order, tuple(out))

    def det(self) -> TruncSeries:
        """Determinant as a scalar series, from Jacobi's formula
        (log det M)' = tr(M^(-1) M').

        Times t, its t^k coefficient reads k L_k = tr((M^(-1) t M')_k) for
        L = log(det M / det M_0); then det M = det(M_0) exp(L).  M_0 must be
        invertible, as for ``inverse``: det(t I) = t^dim raises
        ``PreconditionError``.  No command reaches that limit: ``solve_g``
        takes the determinant of a series whose M_0 is the identity.
        """
        t_dm = [m._scaled(k, 0, 1) for k, m in enumerate(self.coeffs)]
        inv = self.inverse().coeffs
        log = []
        for k in range(self.order + 1):
            # k L_k: the diagonal of one block product; L_0 = 0, as (t M')_0 = 0
            den, *parts = _blocks(zip(inv, t_dm[k::-1]), _zeros(self.dim))
            re, im = [sum(sum(map(mul, row, col)) for row, col in zip(*part)) for part in parts]
            log.append(MultiPoly.number(0, re, im, den * max(k, 1)))
        det0 = MultiPoly.from_gaussian(self.coeffs[0].det())
        return TruncSeries(0, self.order, log).exp().scale(det0)

    def __repr__(self) -> str:
        return f"MatSeries(order={self.order}, coeffs={[m.to_json() for m in self.coeffs]})"


# --- Cayley calculus ------------------------------------------------------


def cayley(x):
    """The Cayley transform (1 - X)(1 + X)^(-1) for a matrix or matrix series.

    Since 1 - X = 2 - (1 + X), it is 2(1 + X)^(-1) - 1: one inverse and no
    product."""
    one = x.one_like()
    try:
        inv = (one + x).inverse()
    except PreconditionError as exc:
        raise PreconditionError(
            "1 + X is singular: outside the Cayley transform domain"
        ) from exc
    return inv + inv - one


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
    """The series of exp(scale * a * t) through t^N: the identity, then the
    powers of scale * a, each over k!."""
    sa = a.scale(scale)
    coeffs = [SqMatrix.identity(a.dim), sa][: N + 1]
    cur, fact = sa, 1
    for k in range(2, N + 1):
        cur = cur * sa
        fact *= k
        coeffs.append(cur._scaled(1, 0, fact))
    return MatSeries(a.dim, N, coeffs)


def tanh_series(a: SqMatrix, N: int) -> MatSeries:
    """The series of tanh(a t), generated by its defining flow T' = a(1 - T^2).

    tanh is odd, so T_k and (T^2)_(k-1) vanish at every even k: T_1 = a,
    and at odd k >= 3, k T_k = -a (T^2)_(k-1), whose pairs T_j T_(k-1-j)
    have odd j."""
    dim = a.dim
    zero = SqMatrix.zero(dim)
    coeffs = [zero, a][: N + 1]
    for k in range(2, N + 1):
        sq = ((coeffs[j], coeffs[k - 1 - j]) for j in range(1, k - 1, 2))  # (T^2)_(k-1)
        coeffs.append((a * _msum(sq, dim))._scaled(-1, 0, k) if k % 2 else zero)
    return MatSeries(dim, N, coeffs)


def solve_q(a: SqMatrix, b: SqMatrix, N: int) -> MatSeries:
    """The phase-flow solution q(t) = C^(-1)(exp(-2at) C(b)).

    Satisfies dq/dt = (1+q) a (1-q) with q(0) = b, as exact series
    identities; requires 1 + b invertible.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    cb = cayley(b)  # raises PreconditionError if 1+b singular
    return inverse_cayley(mat_exp_series(a, gr(-2), N) * cb)


def solve_g(a: SqMatrix, b: SqMatrix, N: int) -> TruncSeries:
    """The amplitude g(t) = det^(-1/2)((exp(at)(1+b) + exp(-at)(1-b))/2).

    A scalar series with g(0) = 1 satisfying dg/dt = -(1/2) tr(a q) g.  The
    t^k coefficient of the matrix is a^k/k! for even k and a^k b/k! for odd
    k, so one exponential gives it.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not (SqMatrix.identity(a.dim) + b).det():
        raise PreconditionError(
            "1 + b is singular: outside the Cayley transform domain"
        )
    e = mat_exp_series(a, GR_ONE, N).coeffs
    m = MatSeries(a.dim, N, (c * b if k % 2 else c for k, c in enumerate(e)))
    return m.det().inv_sqrt()


def q_flow_residual(a: SqMatrix, q: MatSeries) -> MatSeries:
    """dq/dt - (1+q) a (1-q), truncated to the differentiable range."""
    one = MatSeries.identity(q.dim, q.order)
    rhs = (one + q) * a * (one - q)
    return q.dt() - rhs.truncate(q.order - 1)


def cayley_flow_residual(a: SqMatrix, q: MatSeries) -> MatSeries:
    """d/dt C(q) + 2 a C(q), the linearized form of the phase flow."""
    c = cayley(q)
    return c.dt() + (a.scale(gr(2)) * c).truncate(q.order - 1)


def g_flow_residual(a: SqMatrix, q: MatSeries, g: TruncSeries) -> TruncSeries:
    """dg/dt + (1/2) tr(a q) g."""
    rhs = ((a * q).trace() * g).scale_rat(rat(1, 2))
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

    Both come from their defining flows with q(0) = 0.  The phase flow
    q' = (1 + q) a (1 - q), a = lam A, is then the tanh flow, so
    q = ``tanh_series(a, N)``.  By Jacobi's formula
    (log det cosh(ta))' = tr(a tanh(ta)), so the amplitude is exp(L) with
    L_0 = 0 and L_k = -tr((a q)_(k-1)) / (2k).
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
    q = tanh_series(a, N)
    traces = [(a * m)._trace() for m in q.coeffs[:-1]]  # tr((a q)_(k-1)), k = 1..N
    log = [MultiPoly.zero(0)] + [
        MultiPoly.number(0, -re, -im, 2 * k * den) for k, (re, im, den) in enumerate(traces, 1)
    ]
    return TruncSeries(0, N, log).exp(), lam.inverse() * q


def _expansion(lam: SqMatrix, a_mat: SqMatrix, N: int) -> tuple:
    """(triples, w): the expansion of :func:`expand_closed_form` as the
    numerator triples of its coefficients, keyed at field width w
    (``TruncSeries._exp_triples``), which the oracle check compares and the
    CLI grades without unpacking them."""
    amplitude, phase = closed_star_exponential(lam, a_mat, N)
    n = lam.dim
    exponent = TruncSeries(
        n, N, (quadratic_form(m.re, m.im, m.den).scale(MU_INV) for m in phase.coeffs)
    )
    return exponent._exp_triples(amplitude.lift(n))


def expand_closed_form(lam: SqMatrix, a_mat: SqMatrix, N: int) -> TruncSeries:
    """Expand amplitude * exp((1/mu) Q(t)[Z]) into a polynomial t-series."""
    return _series(lam.dim, *_expansion(lam, a_mat, N))


def _oracle_report(closed: tuple, oracle: TruncSeries) -> CheckReport:
    """Pass, or fail at the first diverging order with the sorted (degree,
    mu) components of the difference there as the witness.

    ``closed`` is (triples, w), the numerator triples of the closed form's
    orders in lowest terms, keyed at field width w with every field below
    2^w (only mu, on top, may be negative); each is compared with the
    oracle's order packed at w (:meth:`MultiPoly.numerators`).  An oracle
    order with a field of 2^w or more would alias in that packing, so it
    differs without the comparison.  Only the first order that differs is
    unpacked, for the witness.
    """
    triples, w = closed
    bound = 1 << w
    for k, (x, c) in enumerate(zip(triples, oracle.coeffs)):
        if c.max_exponent() >= bound or x != c.numerators(w):
            difference = MultiPoly.from_numerators(oracle.n, *x, w) - c
            return CheckReport(
                passed=False,
                first_divergence_order=k,
                witness={"components": graded_keys(difference)},
            )
    return CheckReport(passed=True)


def closed_form_vs_oracle(lam: SqMatrix, a_mat: SqMatrix, N: int) -> CheckReport:
    """Compare the closed-form expansion with the ODE oracle through t^N."""
    ctx = StarContext.constant(lam.rows, HALF_MU)
    h = quadratic_form(a_mat.re, a_mat.im, a_mat.den).scale(MU_INV)
    oracle = ode_star_exponential(ctx, h, N)
    return _oracle_report(_expansion(lam, a_mat, N), oracle)


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
    # eps carries hbar^2, h_k hbar^(k-1), g_k hbar^k and eps * h_k hbar^(k+1)
    w = key_width(2 * N + 2)
    eps = MultiPoly.param("hbar", 2, d).numerators(w)  # the combination hbar^2 D
    zero, one = MultiPoly.zero(0).numerators(w), MultiPoly.one(0).numerators(w)
    hc, gc, eh = [zero], [one], [zero]  # eh holds the coefficients of eps * h
    for k in range(N):
        # (k+1) h_{k+1} = [k = 0] + (eps h^2)_k, (k+1) g_{k+1} = (g eps h)_k
        h_next = one if k == 0 else _cauchy(eh, hc, k, div=k + 1)
        gc.append(_cauchy(gc, eh, k, div=k + 1))
        hc.append(h_next)
        eh.append(_mul(eps, h_next))
    return _series(0, gc, w), _series(0, hc, w)


def riccati_vs_moyal(
    a: GaussianRational, b: GaussianRational, c: GaussianRational, N: int
) -> CheckReport:
    """Cross-validate the one-variable reduction against the two-variable
    Weyl-context oracle for the quadratic a u^2 + b v^2 + 2c uv."""
    return _riccati_report(a, b, c, *riccati_1d(a, b, c, N))


def _riccati_report(
    a: GaussianRational, b: GaussianRational, c: GaussianRational, g: TruncSeries, h: TruncSeries
) -> CheckReport:
    """:func:`riccati_vs_moyal` for the series (g, h) = riccati_1d(a, b, c, N)."""
    m = SqMatrix(((a, c), (c, b)))
    h_poly = quadratic_form(m.re, m.im, m.den)
    oracle = ode_star_exponential(StarContext.weyl(1), h_poly, g.order)
    # exp(h(t) H) g(t): the exponent's coefficient k is h_k H
    exponent = TruncSeries(2, g.order, (h_poly.scale(c) for c in h.coeffs))
    return _oracle_report(exponent._exp_triples(g.lift(2)), oracle)
