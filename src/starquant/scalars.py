"""Exact scalars: Gaussian rationals and the names of the formal parameters.

``GaussianRational`` -- numbers a + b*i with exact rational a, b -- is the
coefficient field; adjoining i keeps every series coefficient used by the
rest of the package (tan, sec, tanh, det^(-1/2), ...) inside exact
arithmetic.

The formal parameters ``mu``, ``hbar`` and ``tau`` are not a layer of their
own: a ``MultiPoly`` (:mod:`starquant.poly`) stores their exponents in the
tail of each flat monomial key (z..., mu, hbar, tau), and a scalar in the
parameters is a ``MultiPoly`` in 0 variables.  ``mu`` is invertible
(negative exponents allowed); ``hbar`` and ``tau`` are not.

Rationals are ``fractions.Fraction``: ``rat`` is the class itself, so
every value is in lowest terms with a positive denominator, and ``str`` of
one that outgrows Python's int-to-text limit raises, which
:meth:`GaussianRational.text` turns into a schema error.

Integer arithmetic over Z[i] lives here too: ``_GaussInt`` is the one
Gaussian-integer type, and :func:`power` the one repeated-squaring loop,
which :func:`_gaussian_power` runs for the integers of a parsed term and
of a specialized mu.

This module reads no text: :meth:`GaussianRational.text` writes the
canonical form "3/2-1/3*i", and every scalar text of the package, that form
included, is read by the one expression grammar,
:func:`starquant.parsing.parse_gaussian`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import SchemaError

# the exact rationals: rat(num) or rat(num, den)
rat = Fraction

RAT_ZERO = rat(0)
# perfbench names the rational backend by its type
RAT_ONE = rat(1)


def power(x, k: int, one):
    """x**k for k >= 0 by repeated squaring, with ``one`` the unit of x's
    ring: the one loop of ``GaussianRational``, ``MultiPoly`` and
    Gaussian-integer powers."""
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


class _GaussInt:
    """An exact Gaussian integer re + im*i: an entry of the elimination over
    Z[i] in :mod:`starquant.matrices`, and the base of a complex
    :func:`_gaussian_power`.  ``//`` is exact division."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __mul__(self, o: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __sub__(self, o: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re - o.re, self.im - o.im)

    def __floordiv__(self, o) -> "_GaussInt":
        if isinstance(o, int):
            return _GaussInt(self.re // o, self.im // o)
        n = o.re * o.re + o.im * o.im
        return _GaussInt(
            (self.re * o.re + self.im * o.im) // n, (self.im * o.re - self.re * o.im) // n
        )


def _gaussian_power(a: int, b: int, k: int) -> tuple:
    """(re, im) of (a + b*i)^k for ints a, b and k >= 0."""
    if not b:
        return a ** k, 0
    out = power(_GaussInt(a, b), k, _GaussInt(1, 0))
    return out.re, out.im


class GaussianRational:
    """An exact complex number a + b*i with rational a, b.

    Instances are immutable; all operations return new values.  Division by
    zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # Internal fast constructor: trusts that re/im are already Fractions.
    @staticmethod
    def _raw(re, im) -> "GaussianRational":
        g = GaussianRational.__new__(GaussianRational)
        object.__setattr__(g, "re", re)
        object.__setattr__(g, "im", im)
        return g

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.re, self.im
        c, d = other.re, other.im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    def scale(self, r) -> "GaussianRational":
        """Multiply by a plain rational (or int)."""
        return GaussianRational._raw(self.re * r, self.im * r)

    def inverse(self) -> "GaussianRational":
        a, b = self.re, self.im
        if not a and not b:
            raise ZeroDivisionError("inverse of zero")
        n = a * a + b * b
        return GaussianRational._raw(a / n, -b / n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __pow__(self, k: int) -> "GaussianRational":
        return power(self.inverse() if k < 0 else self, abs(k), GR_ONE)

    def text(self) -> str:
        """Canonical text form: "a/b" and "a/b*i" summands, e.g. "3/2-1/3*i"."""
        (re,), (im,), den = to_numerators((self,))
        return numerator_text(re, im, den)

    def __repr__(self) -> str:
        return f"GaussianRational({self.text()!r})"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def gr(num, den=1) -> GaussianRational:
    """Shorthand for a real Gaussian rational num/den."""
    return GaussianRational._raw(rat(num, den), RAT_ZERO)


# --- the boundary of the integer-numerator layout ----------------------------


def to_numerators(values) -> tuple:
    """(re, im, den): Gaussian rationals as the lists of their real and
    imaginary numerators over den, the lcm of their denominators (1 for
    none), so that den > 0 and the gcd of den and every numerator is 1."""
    values = list(values)
    den = lcm(*(q.denominator for c in values for q in (c.re, c.im)))
    return (
        [c.re.numerator * (den // c.re.denominator) for c in values],
        [c.im.numerator * (den // c.im.denominator) for c in values],
        den,
    )


def to_gaussian(re: int, im: int, den: int) -> GaussianRational:
    """The Gaussian rational (re + im*i) / den, for den > 0."""
    return GaussianRational._raw(
        rat(re, den) if re else RAT_ZERO, rat(im, den) if im else RAT_ZERO
    )


def numerator_text(re: int, im: int, den: int) -> str:
    """The canonical text of (re + im*i)/den, den > 0, e.g. "3/2-1/3*i":
    each nonzero part in lowest terms.  An int longer than Python's
    int-to-text limit is a schema error."""
    parts = []
    try:
        for v, unit in ((re, ""), (im, "*i")):
            if v:
                g = gcd(v, den)
                body = f"{v // g}" if g == den else f"{v // g}/{den // g}"
                parts.append(("+" if parts and v > 0 else "") + body + unit)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        message = f"a coefficient has more digits than the output limit of {limit}"
        raise SchemaError(message) from exc
    return "".join(parts) or "0"


# --- formal parameters -----------------------------------------------------

PARAM_NAMES = ("mu", "hbar", "tau")
PARAM_INDEX = {name: k for k, name in enumerate(PARAM_NAMES)}
# Only mu lives in a Laurent ring; hbar and tau admit non-negative powers.
INVERTIBLE_PARAMS = frozenset({"mu"})
EXP_ZERO = (0,) * len(PARAM_NAMES)
