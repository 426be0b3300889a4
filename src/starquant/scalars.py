"""Exact scalars: Gaussian rationals and Laurent combinations of formal parameters.

Two layers:

* ``GaussianRational`` -- numbers a + b*i with exact rational a, b.  This is
  the coefficient field; adjoining i keeps every series coefficient used by
  the rest of the package (tan, sec, tanh, det^(-1/2), ...) inside exact
  arithmetic.
* ``ParamScalar`` -- finite Laurent combinations in the formal parameters
  ``mu``, ``hbar``, ``tau`` with GaussianRational coefficients.  ``mu`` is
  invertible (negative exponents allowed); ``hbar`` and ``tau`` are not.

Rationals are backed by ``gmpy2.mpq`` when available and fall back to
``fractions.Fraction``; both keep values in lowest terms with positive
denominator, and their text forms agree.
"""

from __future__ import annotations

from typing import Iterable

from .errors import PreconditionError

try:  # pragma: no cover - exercised implicitly by whichever backend is present
    from gmpy2 import mpq as _ratctor
except ImportError:  # pragma: no cover
    from fractions import Fraction as _ratctor


def rat(num=0, den=None):
    """Build an exact rational (int, string like "3/2", or rational input)."""
    if den is None:
        return _ratctor(num)
    return _ratctor(num, den)


RAT_ZERO = rat(0)
RAT_ONE = rat(1)


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value for a sparse map that stores no zero values.

    A missing key counts as zero; a zero ``value`` is never inserted and a
    key whose sum cancels to zero is deleted.
    """
    prev = acc.get(key)
    if prev is None:
        if value:
            acc[key] = value
    else:
        tot = prev + value
        if tot:
            acc[key] = tot
        else:
            del acc[key]


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

    # Internal fast constructor: trusts that re/im are already backend rationals.
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
        if not b and not d:  # common case: both real
            return GaussianRational._raw(a * c, RAT_ZERO)
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    def scale(self, r) -> "GaussianRational":
        """Multiply by a plain rational (or int)."""
        return GaussianRational._raw(self.re * r, self.im * r)

    def inverse(self) -> "GaussianRational":
        a, b = self.re, self.im
        if not a and not b:
            raise ZeroDivisionError("inverse of zero")
        if not b:
            return GaussianRational._raw(1 / a, RAT_ZERO)
        n = a * a + b * b
        return GaussianRational._raw(a / n, -b / n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def text(self) -> str:
        """Canonical text form: "a/b" and "a/b*i" summands, e.g. "3/2-1/3*i"."""
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            s = str(self.im)
            if parts and not s.startswith("-"):
                parts.append("+")
            parts.append(s + "*i")
        return "".join(parts)

    @classmethod
    def parse(cls, s: str) -> "GaussianRational":
        """Parse the canonical text form produced by :meth:`text`.

        Accepts sums of "a/b" and "a/b*i" summands, plus the shorthands
        "i" and "-i".
        """
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        # split into signed summands
        chunks: list[str] = []
        start = 0
        for idx in range(1, len(s)):
            if s[idx] in "+-" and s[idx - 1] not in "+-*/^":
                chunks.append(s[start:idx])
                start = idx
        chunks.append(s[start:])
        re_acc = RAT_ZERO
        im_acc = RAT_ZERO
        for chunk in chunks:
            sign = RAT_ONE
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in scalar {s!r}")
            if chunk == "i":
                im_acc += sign
            elif chunk.endswith("*i"):
                im_acc += sign * rat(chunk[:-2])
            elif chunk.endswith("i"):
                im_acc += sign * rat(chunk[:-1])
            else:
                re_acc += sign * rat(chunk)
        return cls._raw(re_acc, im_acc)

    def __repr__(self) -> str:
        return f"GaussianRational({self.text()!r})"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def gr(num, den=1) -> GaussianRational:
    """Shorthand for a real Gaussian rational num/den."""
    return GaussianRational._raw(rat(num, den), RAT_ZERO)


# --- formal parameters -----------------------------------------------------

PARAM_NAMES = ("mu", "hbar", "tau")
PARAM_INDEX = {name: k for k, name in enumerate(PARAM_NAMES)}
# Only mu lives in a Laurent ring; hbar and tau admit non-negative powers.
INVERTIBLE_PARAMS = frozenset({"mu"})
_INVERTIBLE_MASK = tuple(name in INVERTIBLE_PARAMS for name in PARAM_NAMES)
EXP_ZERO = (0,) * len(PARAM_NAMES)


def _check_exponents(exps: tuple) -> None:
    for pos, e in enumerate(exps):
        if e < 0 and not _INVERTIBLE_MASK[pos]:
            raise PreconditionError(
                f"parameter {PARAM_NAMES[pos]!r} is not invertible; "
                f"exponent {e} rejected"
            )


class ParamScalar:
    """A finite Laurent combination in the named formal parameters.

    Stored as a sparse map from exponent vectors (one signed integer per
    parameter, ordered as ``PARAM_NAMES``) to nonzero GaussianRational
    coefficients.  Immutable by convention: no method mutates ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for exps, coef in terms.items():
            exps = tuple(exps)
            if len(exps) != len(PARAM_NAMES):
                raise ValueError(f"exponent vector {exps} has wrong length")
            _check_exponents(exps)
            if coef:
                clean[exps] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamScalar is immutable")

    @staticmethod
    def _raw(terms: dict) -> "ParamScalar":
        # internal: terms already canonical (valid exponents, no zeros)
        s = ParamScalar.__new__(ParamScalar)
        object.__setattr__(s, "terms", terms)
        return s

    # -- constructors --------------------------------------------------

    @classmethod
    def from_gaussian(cls, g: GaussianRational) -> "ParamScalar":
        if not g:
            return PS_ZERO
        return cls._raw({EXP_ZERO: g})

    @classmethod
    def from_rat(cls, num, den=1) -> "ParamScalar":
        return cls.from_gaussian(gr(num, den))

    @classmethod
    def param(cls, name: str, k: int = 1, coef: GaussianRational = GR_ONE) -> "ParamScalar":
        """The scalar coef * name**k."""
        pos = PARAM_INDEX[name]
        exps = [0] * len(PARAM_NAMES)
        exps[pos] = k
        exps = tuple(exps)
        _check_exponents(exps)
        if not coef:
            return PS_ZERO
        return cls._raw({exps: coef})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        """True iff no parameter appears (a bare Gaussian rational)."""
        return all(e == EXP_ZERO for e in self.terms)

    def gaussian_value(self) -> GaussianRational:
        """The value of a parameter-free scalar."""
        if not self.terms:
            return GR_ZERO
        if not self.is_constant():
            raise PreconditionError("scalar contains formal parameters")
        return self.terms[EXP_ZERO]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "ParamScalar") -> "ParamScalar":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            accumulate(out, exps, coef)
        return ParamScalar._raw(out)

    def __neg__(self) -> "ParamScalar":
        return ParamScalar._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ParamScalar") -> "ParamScalar":
        return self + (-other)

    def __mul__(self, other: "ParamScalar") -> "ParamScalar":
        ta, tb = self.terms, other.terms
        if not ta or not tb:
            return PS_ZERO
        if len(ta) == 1 and len(tb) == 1:  # dominant case in the star engine
            (ea, ca), = ta.items()
            (eb, cb), = tb.items()
            prod = ca * cb
            if not prod:
                return PS_ZERO
            return ParamScalar._raw(
                {(ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2]): prod}
            )
        out: dict = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                accumulate(out, key, ca * cb)
        return ParamScalar._raw(out)

    def scale_gauss(self, g: GaussianRational) -> "ParamScalar":
        if not g:
            return PS_ZERO
        return ParamScalar._raw({e: c * g for e, c in self.terms.items()})

    def scale_rat(self, r) -> "ParamScalar":
        if not r:
            return PS_ZERO
        return ParamScalar._raw({e: c.scale(r) for e, c in self.terms.items()})

    def inverse(self) -> "ParamScalar":
        """Invert a single-term scalar whose parameters are all invertible."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero scalar")
        if len(self.terms) != 1:
            raise PreconditionError("only monomial scalars are invertible")
        (exps, coef), = self.terms.items()
        inv_exps = tuple(-e for e in exps)
        _check_exponents(inv_exps)
        return ParamScalar._raw({inv_exps: coef.inverse()})

    def __pow__(self, k: int) -> "ParamScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = PS_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute_mu(self, value: GaussianRational) -> "ParamScalar":
        """Collapse all mu powers into the coefficients (value must be nonzero)."""
        if not value:
            raise PreconditionError("mu is invertible and cannot be set to zero")
        mu_pos = PARAM_INDEX["mu"]
        out = PS_ZERO
        for exps, coef in self.terms.items():
            rest = list(exps)
            k = rest[mu_pos]
            rest[mu_pos] = 0
            out = out + ParamScalar._raw({tuple(rest): coef * value ** k})
        return out

    # -- text form ------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms):
            coef = self.terms[exps]
            factors = []
            for pos, e in enumerate(exps):
                if e == 0:
                    continue
                name = PARAM_NAMES[pos]
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = coef.text()
            elif coef == GR_ONE:
                body = "*".join(factors)
            elif coef == -GR_ONE:
                body = "-" + "*".join(factors)
            elif coef == GR_I:
                body = "i*" + "*".join(factors)
            elif coef == -GR_I:
                body = "-i*" + "*".join(factors)
            else:
                ctext = coef.text()
                if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                    ctext = f"({ctext})"
                body = ctext + "*" + "*".join(factors)
            if pieces and not body.startswith("-"):
                pieces.append("+")
            pieces.append(body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"ParamScalar({self.text()!r})"

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> list:
        """Serialize as a list of {"params": {...}, "value": "..."} monomials."""
        out = []
        for exps in sorted(self.terms):
            params = {
                PARAM_NAMES[pos]: e for pos, e in enumerate(exps) if e != 0
            }
            out.append({"params": params, "value": self.terms[exps].text()})
        return out

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "ParamScalar":
        terms: dict = {}
        for entry in data:
            params = entry.get("params", {})
            exps = [0] * len(PARAM_NAMES)
            for name, e in params.items():
                if name not in PARAM_INDEX:
                    raise ValueError(f"unknown parameter {name!r}")
                exps[PARAM_INDEX[name]] = int(e)
            coef = GaussianRational.parse(entry["value"])
            key = tuple(exps)
            terms[key] = terms.get(key, GR_ZERO) + coef
        return cls(terms)


PS_ZERO = ParamScalar._raw({})
PS_ONE = ParamScalar._raw({EXP_ZERO: GR_ONE})

MU = ParamScalar.param("mu")
MU_INV = ParamScalar.param("mu", -1)
HBAR = ParamScalar.param("hbar")
TAU = ParamScalar.param("tau")
# coupling scalars used throughout: mu/2 for the graded product, i*hbar/2 for
# the Weyl-algebra product
HALF_MU = ParamScalar.param("mu", 1, gr(1, 2))
I_HBAR_HALF = ParamScalar.param("hbar", 1, GaussianRational(0, rat(1, 2)))
