"""Truncated power series in the evolution variable t.

A ``TruncSeries`` of order N holds coefficients c_0..c_N (each a MultiPoly in
a fixed number of variables; a scalar series has 0 variables); arithmetic is
exact modulo t^(N+1).  Binary operations require both operands to carry the
same order and variable count; re-truncation is always explicit via
:meth:`truncate`.

:class:`Series` is the shell that ``TruncSeries`` shares with
``matrices.MatSeries``: immutability, the size and order check, ``==``,
``hash``, ``is_zero``, ``truncate``, ``+``, ``-``, ``dt`` and ``_map``,
the one per-coefficient map.  A subclass names its coefficient ring and
size and keeps its products, solvers and constructors.

The solvers compute coefficient k from the coefficients below k, by the
O(N^2) recurrence of a defining equation (Brent & Kung, J. ACM 25(4), 1978;
Knuth, TAOCP vol. 2, 4.7): ``inverse`` from S X = 1, ``inv_sqrt`` from the
flow 2 S r' = -S' r and ``exp`` from the flow F' = S' F.  Each step is one
Cauchy sum, :func:`_cauchy`, which also gives the product.

The recurrences run on the coefficients' own integer triples (re, im,
den) (see :mod:`starquant.poly`), with the keys packed once per operation
by :meth:`MultiPoly.numerators` and unpacked once per output coefficient by
:meth:`MultiPoly.from_numerators`, in :func:`_series`.  The one exception
is ``TruncSeries._exp_triples``, the exponential before that unpacking:
the oracle checks of :mod:`starquant.matrices` compare the closed forms'
expansions with the oracle on packed keys, the ``star-exp`` command grades
its expansion on them, and only an order that differs is unpacked.  A Cauchy sum is one call of the shared
complex product ``poly._complex`` over its products, each scaled to the
lcm of their denominators, and one ``poly._lowest``, so every triple stays
in lowest terms.

The field width w of the packed keys comes from a bound on every exponent
an operation builds.  Coefficient k of ``exp``, ``inv_sqrt`` and
``inverse`` is a sum of products of at most k coefficients S_1..S_k (times
a power of mu for ``inverse``), so the order times the coefficients'
largest exponent bounds it; a product adds the two operands' largest
exponents.  ``_exp_triples`` can also multiply the exponential by a second
series before its keys are unpacked.
"""

from __future__ import annotations

from math import lcm
from operator import add, neg, sub

from .errors import PreconditionError
from .poly import MultiPoly, _add_products, _complex, _lowest, key_width


def _cauchy(a, b, k: int, start: int = 0, weights=None, div: int = 1) -> tuple:
    """The triple (sum_{j=start..k} w_j a[j] b[k-j]) / div of the triples in
    a and b, where w_j is weights[j] (1 without weights) and div > 0.

    Zero factors are skipped.  A product is over the product of its
    factors' denominators; the sum scales each by lcm // den to the lcm of
    those, and is then reduced to lowest terms.
    """
    products = []
    for j in range(start, k + 1):
        x, y = a[j], b[k - j]
        w = 1 if weights is None else weights[j]
        if w and (x[0] or x[1]) and (y[0] or y[1]):
            products.append((x, y, w))
    den = lcm(*(x[2] * y[2] for x, y, _ in products))
    re, im = _complex(
        _add_products, [(x, y, w * (den // (x[2] * y[2]))) for x, y, w in products]
    )
    return _lowest(re, im, den * div)


def _mul(x: tuple, y: tuple) -> tuple:
    """The triple of the product of two triples."""
    return _cauchy((x,), (y,), 0)


def _series(n: int, triples, w: int) -> "TruncSeries":
    """The series whose coefficients have the numerator triples given,
    keyed at field width w."""
    coeffs = tuple(MultiPoly.from_numerators(n, *x, w) for x in triples)
    return TruncSeries._raw(n, len(coeffs) - 1, coeffs)


def _reach(coeffs) -> int:
    """The largest exponent of any coefficient (see
    :meth:`MultiPoly.max_exponent`)."""
    return max(c.max_exponent() for c in coeffs)


class Series:
    """The shell of a truncated power series c_0 + c_1 t + ... + c_N t^N,
    immutable, whose coefficients are all of one ring and one size.

    A subclass names its coefficient ring ``_RING`` and ``_SIZE``, the
    (slot, name) of the size that the series shares with its coefficients
    (a ``MultiPoly`` in ``n`` variables, a ``SqMatrix`` of dimension
    ``dim``); the ring gives the zero coefficient of a size, ``zero(size)``,
    and a coefficient times (cre + cim*i)/cden, ``_scaled(cre, cim, cden)``.
    """

    __slots__ = ("order", "coeffs")
    _RING: type
    _SIZE: tuple

    def __init__(self, size: int, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        slot, label = self._SIZE
        for c in coeffs:
            if not isinstance(c, self._RING) or getattr(c, slot) != size:
                raise ValueError(
                    f"coefficients must be {self._RING.__name__} with {label} {size}"
                )
        object.__setattr__(self, slot, size)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, size: int, order: int, coeffs: tuple):
        s = object.__new__(cls)
        object.__setattr__(s, cls._SIZE[0], size)
        object.__setattr__(s, "order", order)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    def _size(self) -> int:
        return getattr(self, self._SIZE[0])

    def _map(self, f, *others):
        """The series of f(c_k, ...) over the coefficients of self and of
        each of the coefficient tuples ``others``."""
        return self._raw(self._size(), self.order, tuple(map(f, self.coeffs, *others)))

    @classmethod
    def zero(cls, size: int, order: int):
        return cls._raw(size, order, (cls._RING.zero(size),) * (order + 1))

    def _check_compat(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
        size, other_size = self._size(), other._size()
        if size != other_size:
            raise ValueError(f"{self._SIZE[1]} mismatch: {size} vs {other_size}")
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}; "
                "re-truncate explicitly"
            )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._size(), self.order, self.coeffs) == (
            other._size(), other.order, other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self._size(), self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int):
        """Explicitly drop (or zero-pad) to the given order."""
        size, coeffs = self._size(), self.coeffs[: order + 1]
        if order > self.order:
            coeffs += (self._RING.zero(size),) * (order - self.order)
        return self._raw(size, order, coeffs)

    def __add__(self, other):
        self._check_compat(other)
        return self._map(add, other.coeffs)

    def __sub__(self, other):
        self._check_compat(other)
        return self._map(sub, other.coeffs)

    def __neg__(self):
        return self._map(neg)

    def scale(self, coef):
        """Multiply by a scalar: a 0-variable MultiPoly for a TruncSeries,
        a GaussianRational for a MatSeries."""
        return self._map(lambda c: c.scale(coef))

    def dt(self):
        """Derivative d/dt; the result is only known through order N-1."""
        if self.order == 0:
            raise PreconditionError("cannot differentiate an order-0 series")
        coeffs = tuple(self.coeffs[k]._scaled(k, 0, 1) for k in range(1, self.order + 1))
        return self._raw(self._size(), self.order - 1, coeffs)


class TruncSeries(Series):
    """A series in t whose coefficients are MultiPoly in ``n`` variables."""

    __slots__ = ("n",)
    _RING = MultiPoly
    _SIZE = ("n", "variable count")

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, n: int, order: int) -> "TruncSeries":
        return cls.from_poly(MultiPoly.one(n), order)

    @classmethod
    def from_poly(cls, p: MultiPoly, order: int) -> "TruncSeries":
        """The constant-in-t series with value p."""
        z = MultiPoly.zero(p.n)
        return cls._raw(p.n, order, (p,) + (z,) * order)

    @classmethod
    def t_term(cls, p: MultiPoly, k: int, order: int) -> "TruncSeries":
        """The series p * t^k (zero if k exceeds the order)."""
        z = MultiPoly.zero(p.n)
        coeffs = [z] * (order + 1)
        if k <= order:
            coeffs[k] = p
        return cls._raw(p.n, order, tuple(coeffs))

    def lift(self, n: int) -> "TruncSeries":
        """Re-embed a scalar (0-variable) series into n variables."""
        if self.n == n:
            return self
        if self.n != 0:
            raise ValueError("lift is only defined from 0 variables")
        coeffs = tuple(MultiPoly.const(n, c) for c in self.coeffs)
        return TruncSeries._raw(n, self.order, coeffs)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compat(other)
        # a product of two terms adds their exponents
        w = key_width(_reach(self.coeffs) + _reach(other.coeffs))
        a = [c.numerators(w) for c in self.coeffs]
        b = [c.numerators(w) for c in other.coeffs]
        return _series(
            self.n, (_cauchy(a, b, k) for k in range(self.order + 1)), w
        )

    def scale_rat(self, r) -> "TruncSeries":
        return self._map(lambda c: c.scale_rat(r))

    # -- the three series solvers ----------------------------------------

    def _order_width(self) -> int:
        """The key width of the solvers: their coefficient k is a sum of
        products of at most k coefficients S_1..S_k (times a constant of
        no exponent but mu), so no field exceeds order * max exponent."""
        return key_width(self.order * _reach(self.coeffs))

    def _leading_unit(self) -> MultiPoly:
        c0 = self.coeffs[0]
        if not c0.is_constant():
            raise PreconditionError(
                "t^0 coefficient must be a degree-0 monomial to invert"
            )
        return c0.constant_coefficient()

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse modulo t^(N+1), from S X = 1:
        X_k = -(1/S_0) sum_{j=1..k} S_j X_{k-j}.

        Requires the t^0 coefficient to be an invertible scalar (nonzero,
        no non-invertible formal parameters).
        """
        lead = self._leading_unit()
        # raises for zero / non-invertible scalars
        inv0 = MultiPoly.const(self.n, lead.inverse())
        w = self._order_width()
        neg_inv0 = (-inv0).numerators(w)
        s = [c.numerators(w) for c in self.coeffs]
        out = [inv0.numerators(w)]
        for k in range(1, self.order + 1):
            out.append(_mul(_cauchy(s, out, k, 1), neg_inv0))
        return _series(self.n, out, w)

    def inv_sqrt(self) -> "TruncSeries":
        """The series r with r^2 * self = 1 and r(0) = 1, from the flow
        2 s r' = -s' r: 2k r_k = -sum_{j=1..k} (2k - j) s_j r_{k-j}.

        The t^0 coefficient of the input must equal the scalar 1; normalize
        externally if it does not.
        """
        if self._leading_unit() != MultiPoly.one(0):
            raise PreconditionError("inv_sqrt requires leading coefficient 1")
        w = self._order_width()
        s = [c.numerators(w) for c in self.coeffs]
        out = [MultiPoly.one(self.n).numerators(w)]
        for k in range(1, self.order + 1):
            weights = [j - 2 * k for j in range(k + 1)]
            out.append(_cauchy(s, out, k, 1, weights, 2 * k))
        return _series(self.n, out, w)

    def exp(self) -> "TruncSeries":
        """Series exponential of a series S with S_0 = 0, from the flow
        F' = S' F: k F_k = sum_{j=1..k} j S_j F_{k-j}."""
        return _series(self.n, *self._exp_triples())

    def _exp_triples(self, factor: "TruncSeries | None" = None) -> tuple:
        """(triples, w): :meth:`exp` as the numerator triples of its
        coefficients, in lowest terms and keyed at field width w, before
        they are unpacked.  Every field of every key is below 2^w (only mu,
        on top, may be negative).  With a ``factor`` of the same order and
        variable count, the triples are those of exp(S) * factor,
        multiplied before they leave the integer layout."""
        if not self.coeffs[0].is_zero():
            raise PreconditionError("exp requires a zero t^0 coefficient")
        bound = self.order * _reach(self.coeffs)
        if factor is not None:
            self._check_compat(factor)
            bound += _reach(factor.coeffs)
        w = key_width(bound)
        s = [c.numerators(w) for c in self.coeffs]
        out = [MultiPoly.one(self.n).numerators(w)]
        j_weights = range(self.order + 1)
        for k in range(1, self.order + 1):
            out.append(_cauchy(s, out, k, 1, j_weights, k))
        if factor is not None:
            b = [c.numerators(w) for c in factor.coeffs]
            out = [_cauchy(out, b, k) for k in range(self.order + 1)]
        return out, w

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c.text()})*t^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return f"TruncSeries(N={self.order}, {body or '0'})"
