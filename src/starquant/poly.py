"""Sparse multivariate polynomials over the Gaussian rationals and the formal
parameters mu, hbar, tau.

A ``MultiPoly`` in n variables z0..z{n-1} is keyed by flat exponent keys of
length n + 3: the exponents of z0..z{n-1}, then those of mu, hbar and tau
(the order of ``PARAM_NAMES``).  The z, hbar and tau exponents are
non-negative; mu lives in a Laurent ring, so its exponent may be negative.
The coefficients are two maps from keys to integers, ``re`` and ``im``,
the numerators of the real and imaginary parts over one denominator
``den``, kept canonical: den > 0, the gcd of den and every numerator is 1,
and no numerator is zero.  So equal polynomials have equal fields, which
``==`` and ``hash`` compare.  This is the sparse distributed layout of
FLINT's ``fmpq_mpoly`` (Hart, ICMS 2010; Monagan & Pearce, JSC 2011): a
product of two terms is one key sum and integer products.

The integer operations are written once, here, and the contraction engine
and the series recurrences share them: ``_complex`` adds up m * x * y over
(x, y, m) products of complex numerator maps and strips the zeros;
``_lowest`` divides a triple by the gcd of its denominator and numerators;
``_order_sum`` adds orders over the lcm of their denominators.  Above
them the series, and so the closed forms, and the engine with its ODE
oracle share nothing.  ``GaussianRational`` appears only at the boundary,
through the helpers of :mod:`starquant.scalars`: the constructor from a
map of coefficients, :meth:`MultiPoly.from_json`, the :attr:`terms` view
and the coefficient text of :meth:`MultiPoly.rows`.

The engine and the series pack each key into one int (Monagan & Pearce,
CASC 2007; FLINT's ``fmpz_mpoly``), so that a product of two terms adds
its keys with one int add; :meth:`MultiPoly.numerators` and
:meth:`MultiPoly.from_numerators` repack the keys for a field width w in
bits.  Field i of the low block of z fields holds the exponent of z_i (the
engine places n variables in a wider block, see :func:`key_weights`); the
parameter tail sits above the block, hbar and tau in one w-bit field each
and mu on top.  The packing sum(e_i * 2^(w * field_i)) is linear, and
``key >> (w * field) & (2^w - 1)`` reads a field back exactly as long as
every field below the top lies in 0..2^w - 1.  Only mu may be negative: on
top, its sign reaches no other field.  Each operation takes w from a bound
it proves for every field it builds (:func:`key_width`).

A scalar -- a Laurent combination of the parameters, such as the coupling
mu/2 -- is a ``MultiPoly`` with n = 0; ``const`` embeds it in n variables
and ``scale`` multiplies by it.  The canonical order of terms is grlex on
the z exponents, then lex on the parameter tail.  In text, the terms that
share a z monomial form one coefficient, in parentheses when it has more
than one summand.  :meth:`MultiPoly.rows` sorts a polynomial once and
formats each coefficient once; the text, the JSON term list and the CLI's
:class:`TermRows` payload all print from those rows.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

from .errors import PreconditionError
from .scalars import (
    EXP_ZERO,
    GR_ONE,
    GR_ZERO,
    INVERTIBLE_PARAMS,
    PARAM_INDEX,
    PARAM_NAMES,
    GaussianRational,
    gr,
    numerator_text,
    power,
    rat,
    to_gaussian,
    to_numerators,
)

NPARAM = len(PARAM_NAMES)


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial: ``re`` and ``im`` over ``den``."""

    __slots__ = ("n", "re", "im", "den")

    def __init__(self, n: int, terms: dict | None = None):
        """The polynomial of a map from keys to GaussianRationals."""
        terms = terms or {}
        keys = [_checked_key(n, key) for key in terms]
        re, im, den = to_numerators(terms.values())
        re, im = _nonzero(dict(zip(keys, re))), _nonzero(dict(zip(keys, im)))
        for name, value in zip(self.__slots__, (n, *_lowest(re, im, den))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def _raw(n: int, re: dict, im: dict, den: int) -> "MultiPoly":
        """The polynomial of canonical fields, trusted."""
        p = MultiPoly.__new__(MultiPoly)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "re", re)
        object.__setattr__(p, "im", im)
        object.__setattr__(p, "den", den)
        return p

    def _parts(self, n: int, part_map) -> "MultiPoly":
        """The polynomial ``part_map`` of each numerator map, over den."""
        im = part_map(self.im) if self.im else {}
        return MultiPoly._raw(n, *_lowest(part_map(self.re), im, self.den))

    @staticmethod
    def _term(n: int, key: tuple, re: int, im: int, den: int) -> "MultiPoly":
        """The single term (re + im*i)/den at a trusted key, den > 0."""
        return MultiPoly._raw(n, *_lowest({key: re} if re else {}, {key: im} if im else {}, den))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls._raw(n, {}, {}, 1)

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls._raw(n, {(0,) * (n + NPARAM): 1}, {}, 1)

    @classmethod
    def const(cls, n: int, coef: "MultiPoly") -> "MultiPoly":
        """The scalar ``coef`` (a 0-variable MultiPoly) in n variables."""
        if n == coef.n:
            return coef
        pad = (0,) * n
        return coef._parts(n, lambda part: {pad + tail: v for tail, v in part.items()})

    @classmethod
    def variable(cls, n: int, j: int) -> "MultiPoly":
        if not 0 <= j < n:
            raise IndexError(f"variable index {j} out of range for n={n}")
        key = [0] * (n + NPARAM)
        key[j] = 1
        return cls._raw(n, {tuple(key): 1}, {}, 1)

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int]) -> "MultiPoly":
        """The monomial z^exps with coefficient 1."""
        return cls._raw(n, {_checked_key(n, tuple(exps) + EXP_ZERO): 1}, {}, 1)

    @classmethod
    def number(cls, n: int, re: int, im: int = 0, den: int = 1) -> "MultiPoly":
        """The constant (re + im*i)/den in n variables, for ints, den > 0."""
        return cls._term(n, (0,) * (n + NPARAM), re, im, den)

    @classmethod
    def from_gaussian(cls, g: GaussianRational, n: int = 0) -> "MultiPoly":
        """The constant g in n variables (a scalar by default)."""
        (re,), (im,), den = to_numerators((g,))
        return cls.number(n, re, im, den)

    @classmethod
    def from_rat(cls, num, den=1) -> "MultiPoly":
        return cls.from_gaussian(gr(num, den))

    @classmethod
    def from_numerators(cls, n: int, re: dict, im: dict, den: int, w: int) -> "MultiPoly":
        """The polynomial (re + im*i)/den, den > 0, of numerator maps keyed by
        trusted packed keys of field width w, with zeros dropped and in
        lowest terms: the inverse of :meth:`numerators`."""
        fields = _unpack_fields(n, w)
        re, im = (
            {tuple([key >> s & m for s, m in fields]): v for key, v in part.items() if v}
            for part in (re, im)
        )
        return cls._raw(n, *_lowest(re, im, den))

    @classmethod
    def param(cls, name: str, k: int = 1, coef: GaussianRational = GR_ONE) -> "MultiPoly":
        """The scalar coef * name**k."""
        tail = [0] * NPARAM
        tail[PARAM_INDEX[name]] = k
        (re,), (im,), den = to_numerators((coef,))
        return cls._term(0, _checked_key(0, tail), re, im, den)

    # -- queries --------------------------------------------------------

    def keys(self):
        """The keys of the nonzero terms."""
        return self.re.keys() | self.im.keys() if self.im else self.re.keys()

    @property
    def terms(self) -> dict:
        """Each key's GaussianRational coefficient, built per call for tools."""
        re, im, den = self.re, self.im, self.den
        return {key: to_gaussian(re.get(key, 0), im.get(key, 0), den) for key in self.keys()}

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def degree(self) -> int:
        """Total degree in z; -1 for the zero polynomial."""
        n = self.n
        return max([sum(key[:n]) for key in self.keys()], default=-1)

    def is_constant(self) -> bool:
        """True iff no z variable appears (parameters may)."""
        n = self.n
        return not any(any(key[:n]) for key in self.keys())

    def constant_coefficient(self) -> "MultiPoly":
        """The z-free part, as a scalar."""
        n = self.n
        return self._parts(0, lambda part: {k[n:]: v for k, v in part.items() if not any(k[:n])})

    def max_exponent(self) -> int:
        """The largest exponent of any field of any key: a bound on every
        z, hbar and tau exponent, and at least 0 since hbar and tau are."""
        return max(map(max, self.keys()), default=0)

    def numerators(self, w: int, fields: int | None = None, offset: int = 0) -> tuple:
        """(re, im, den) with each key packed at field width w (see
        :func:`key_weights` for ``fields`` and ``offset``)."""
        ws = key_weights(self.n, w, fields, offset)
        re, im = ({sum(map(mul, k, ws)): v for k, v in d.items()} for d in (self.re, self.im))
        return re, im, self.den

    def is_homogeneous(self) -> bool:
        n = self.n
        return len({sum(key[:n]) for key in self.keys()}) <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # canonical fields: equal values have equal fields
        return (self.n, self.den, self.re, self.im) == (other.n, other.den, other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(self.re.items()), frozenset(self.im.items())))

    # -- ring operations -------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        if not self:
            return other
        if not other:
            return self
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        re = _lin(self.re, a, other.re, b)
        im = _lin(self.im, a, other.im, b) if self.im or other.im else {}
        return MultiPoly._raw(self.n, *_lowest(re, im, den))

    def __neg__(self) -> "MultiPoly":
        return self._parts(self.n, lambda part: {e: -v for e, v in part.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        products = [((self.re, self.im), (other.re, other.im), 1)]
        re, im = _complex(_add_key_products, products)
        return MultiPoly._raw(self.n, *_lowest(re, im, self.den * other.den))

    def _scaled(self, cre: int, cim: int, cden: int) -> "MultiPoly":
        """self * (cre + cim*i) / cden for ints, cden > 0."""
        return self * MultiPoly.number(self.n, cre, cim, cden)

    def scale(self, coef: "MultiPoly") -> "MultiPoly":
        """Multiply by a scalar (a 0-variable MultiPoly)."""
        return self * MultiPoly.const(self.n, coef)

    def scale_gauss(self, g: GaussianRational) -> "MultiPoly":
        return self * MultiPoly.from_gaussian(g, self.n)

    def scale_rat(self, r) -> "MultiPoly":
        return self.scale_gauss(gr(r))

    def inverse(self) -> "MultiPoly":
        """Invert a single term whose exponents are all invertible (a
        Gaussian rational times a power of mu)."""
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        keys = self.keys()
        if len(keys) != 1:
            raise PreconditionError("only monomial scalars are invertible")
        (key,) = keys
        a, b, d = self.re.get(key, 0), self.im.get(key, 0), self.den
        inv_key = _checked_key(self.n, tuple(-e for e in key))
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return MultiPoly._term(self.n, inv_key, d * a, -d * b, a * a + b * b)

    def __pow__(self, k: int) -> "MultiPoly":
        return power(self.inverse() if k < 0 else self, abs(k), MultiPoly.one(self.n))

    # -- calculus --------------------------------------------------------

    def derivative(self, j: int) -> "MultiPoly":
        """Exact formal partial derivative with respect to z_j."""
        if not 0 <= j < self.n:
            raise IndexError(f"variable index {j} out of range for n={self.n}")
        return self._parts(self.n, lambda part: {
            k[:j] + (k[j] - 1,) + k[j + 1:]: v * k[j] for k, v in part.items() if k[j]
        }) if self else self

    def shift(self, offsets: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate at Z + offsets, expanded and canonicalized.

        Each offset is a scalar; the result substitutes z_j -> z_j +
        offsets[j] in every monomial.
        """
        n = self.n
        if len(offsets) != n:
            raise ValueError(f"offsets length {len(offsets)} != variable count {n}")
        if not any(offsets):
            return self
        moved = [MultiPoly.variable(n, j) + MultiPoly.const(n, c) for j, c in enumerate(offsets)]
        result = MultiPoly.zero(n)
        re, im = self.re, self.im
        for key in self.keys():
            tail = (0,) * n + key[n:]
            part = MultiPoly._term(n, tail, re.get(key, 0), im.get(key, 0), self.den)
            for j, e in enumerate(key[:n]):
                if e:
                    part = part * moved[j] ** e
            result = result + part
        return result

    # -- text and JSON ----------------------------------------------------

    def rows(self) -> list:
        """(key, coefficient text) per term, in canonical order: the one
        sort and the one formatting of each coefficient that :meth:`text`,
        :meth:`to_json` and :class:`TermRows` print from."""
        n, re, im, den = self.n, self.re, self.im, self.den
        ordered = sorted(self.keys(), key=lambda key: (sum(key[:n]), key))
        return [(key, numerator_text(re.get(key, 0), im.get(key, 0), den)) for key in ordered]

    def text(self, rows: list | None = None) -> str:
        """The canonical text, from ``rows`` (``self.rows()``) when they
        are given."""
        if not self:
            return "0"
        if rows is None:
            rows = self.rows()
        n = self.n
        # (z exponents, [(parameter tail, coefficient text), ...]) per z
        # monomial; a scalar has one, with z = ()
        groups: list = []
        for key, ctext in rows:
            z = key[:n]
            if not groups or groups[-1][0] != z:
                groups.append((z, []))
            groups[-1][1].append((key[n:], ctext))
        if n == 0:
            return _scalar_text(groups[0][1])
        pieces = []
        for exps, tail_terms in reversed(groups):
            mono = "*".join(
                f"z{j}" if e == 1 else f"z{j}^{e}"
                for j, e in enumerate(exps)
                if e > 0
            )
            ctext = _scalar_text(tail_terms)
            if not mono:
                body = f"({ctext})" if _needs_parens(ctext) else ctext
            elif ctext == "1":
                body = mono
            elif ctext == "-1":
                body = "-" + mono
            elif _needs_parens(ctext):
                body = f"({ctext})*{mono}"
            else:
                body = f"{ctext}*{mono}"
            if pieces and not body.startswith("-"):
                pieces.append(" + ")
            elif pieces:
                pieces.append(" - ")
                body = body[1:]
            pieces.append(body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.n}, {self.text()!r})"

    def to_json(self) -> list:
        """One {"exps": [...], "coef": {"params", "value"}} entry per term, so
        a monomial whose coefficient mixes several parameter exponents
        produces several entries sharing the same "exps".  A scalar (n = 0)
        is the bare list of its {"params", "value"} entries."""
        return TermRows(self.n, self.rows()).to_json()

    @classmethod
    def from_json(cls, n: int, data: Iterable[dict]) -> "MultiPoly":
        """Inverse of :meth:`to_json`.  Every exponent is checked, also on
        entries that are zero or cancel; a malformed entry, or an exponent
        that is not an int (a bool, a float or a string), raises TypeError.
        Each "value" is read by :func:`starquant.parsing.parse_gaussian`."""
        from .parsing import parse_gaussian

        acc: dict = {}
        for item in data:
            entry = item["coef"] if n else item
            params = entry.get("params", {}) if isinstance(entry, dict) else None
            if not isinstance(params, dict):
                raise TypeError("a coefficient must be an object with a params object")
            exps = list(item["exps"]) if n else []
            tail = [0] * NPARAM
            for name, e in params.items():
                if name not in PARAM_INDEX:
                    raise ValueError(f"unknown parameter {name!r}")
                tail[PARAM_INDEX[name]] = e
            key = exps + tail
            if any(type(e) is not int for e in key):
                raise TypeError(f"exponents must be integers, got {key}")
            key = _checked_key(n, key)
            acc[key] = acc.get(key, GR_ZERO) + parse_gaussian(entry["value"])
        return cls(n, acc)


class TermRows:
    """The term list of a polynomial, as the rows of :meth:`MultiPoly.rows`:
    the payload that the CLI's JSON writer prints without building the
    list.  :meth:`to_json` is the list; :meth:`json_text` is its text as
    ``json.dumps(self.to_json(), indent=2, sort_keys=True)`` lays it out,
    with ``indent`` the newline and indentation before the closing
    bracket."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list):
        self.n = n
        self.rows = rows

    def to_json(self) -> list:
        n = self.n
        out = []
        for key, ctext in self.rows:
            params = {name: e for name, e in zip(PARAM_NAMES, key[n:]) if e}
            entry = {"params": params, "value": ctext}
            out.append({"exps": list(key[:n]), "coef": entry} if n else entry)
        return out

    def json_text(self, indent: str) -> str:
        """Each term as the text before its coefficient, which depends only
        on its parameter tail, the coefficient text, and the text after it,
        which depends only on its z exponents; both are made once per
        distinct tail or exponents.  A coefficient text holds only digits,
        "/", "+", "-", "*" and "i", which JSON writes unescaped."""
        n, rows = self.n, self.rows
        if not rows:
            return "[]"
        inner = indent + "  "
        i2, i4 = inner + "  ", inner + "    "
        if n:
            head = "{" + i2 + '"coef": {' + i4 + '"params": %s,' + i4 + '"value": "'
            params_indent, comma = i4, "," + i4
            after = '"' + i2 + "}," + i2 + '"exps": [' + i4 + "%s" + i2 + "]" + inner + "}"
        else:
            head = "{" + i2 + '"params": %s,' + i2 + '"value": "'
            params_indent, after = i2, '"' + inner + "}"
        heads: dict = {}
        # a scalar's z is (), and its text after the coefficient has no exps
        afters: dict = {(): after}
        out = []
        for key, ctext in rows:
            tail, z = key[n:], key[:n]
            before = heads.get(tail)
            if before is None:
                before = heads[tail] = head % _params_text(tail, params_indent)
            end = afters.get(z)
            if end is None:
                end = afters[z] = after % comma.join(map(str, z))
            out.append(before + ctext + end)
        return "[" + inner + ("," + inner).join(out) + indent + "]"


# (name, position in the tail) of each parameter, in JSON key order
_PARAMS_BY_NAME = sorted((name, k) for k, name in enumerate(PARAM_NAMES))


def _params_text(tail: tuple, indent: str) -> str:
    """The JSON text of the params object of a tail, at ``indent``."""
    entries = [f'"{name}": {tail[k]}' for name, k in _PARAMS_BY_NAME if tail[k]]
    if not entries:
        return "{}"
    inner = indent + "  "
    return "{" + inner + ("," + inner).join(entries) + indent + "}"


def _nonzero(part: dict) -> dict:
    return {e: v for e, v in part.items() if v}


def _lin(x: dict, a: int, y: dict, b: int) -> dict:
    """The numerator map a x + b y, for nonzero a and b, without zeros."""
    out = dict(x) if a == 1 else {e: a * v for e, v in x.items()}
    for e, v in y.items():
        t = out.get(e, 0) + b * v
        if t:
            out[e] = t
        else:
            del out[e]
    return out


def _add_products(out: dict, left: dict, right: dict, m: int) -> None:
    """out += m * left * right for numerator maps keyed by packed keys."""
    for ea, p in left.items():
        p *= m
        for eb, q in right.items():
            key = ea + eb
            out[key] = out.get(key, 0) + p * q


def _add_key_products(out: dict, left: dict, right: dict, m: int) -> None:
    """:func:`_add_products` for numerator maps keyed by flat keys."""
    for ea, p in left.items():
        p *= m
        for eb, q in right.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + p * q


def _complex(apply, products) -> tuple:
    """(re, im): the real and imaginary numerator maps of the sum of
    m * (lre + i lim)(rre + i rim) over the (left, right, m) of
    ``products``, where left and right start with their (re, im) maps.

    ``apply(out, lpart, rpart, m)`` adds m * lpart * rpart into the map
    ``out``; callers bind any further arguments with ``functools.partial``,
    since a call through ``*args`` costs the short Cauchy sums of the
    series a few percent.  The four passes are re*re, minus im*im, re*im
    and im*re; a pass with an empty side is skipped, so real inputs pay for
    one.  Zero values are stripped from the result.
    """
    re: dict = {}
    im: dict = {}
    for x, y, m in products:
        lre, lim, rre, rim = x[0], x[1], y[0], y[1]
        if lre and rre:
            apply(re, lre, rre, m)
        if lim and rim:
            apply(re, lim, rim, -m)
        if lre and rim:
            apply(im, lre, rim, m)
        if lim and rre:
            apply(im, lim, rre, m)
    return (
        re if all(re.values()) else _nonzero(re),
        im if all(im.values()) else _nonzero(im),
    )


def _lowest(re: dict, im: dict, den: int) -> tuple:
    """The triple (re, im, den), den > 0, divided by the gcd of ``den`` and
    every numerator; zero numerators leave the gcd as it is."""
    g = 1 if den == 1 else gcd(den, *re.values(), *im.values())
    if g == 1:
        return re, im, den
    return (
        {e: v // g for e, v in re.items()},
        {e: v // g for e, v in im.items()},
        den // g,
    )


def _order_sum(orders: list) -> tuple:
    """(re, im, den): the sum of the triples (re, im, den, ...) of
    ``orders`` as numerators over the lcm of their denominators, which is
    the last one when each divides the next, as in a contraction."""
    den = lcm(*(order[2] for order in orders))
    re: dict = {}
    im: dict = {}
    for ore, oim, oden, *_ in orders:
        m = den // oden
        for out, part in ((re, ore), (im, oim)):
            for key, v in part.items():
                out[key] = out.get(key, 0) + v * m
    return re, im, den


# the parameter tail in packed field order: the non-negative parameters
# first, then mu on top, where its sign can borrow from no field above it
_TAIL_FIELDS = sorted(
    range(NPARAM), key=lambda k: PARAM_NAMES[k] in INVERTIBLE_PARAMS
)


def key_width(bound: int) -> int:
    """The least field width w >= 1, in bits, that holds 0..bound."""
    return max(bound.bit_length(), 1)


@cache
def key_weights(
    n: int, w: int, fields: int | None = None, offset: int = 0
) -> tuple:
    """The weights that pack an (n + 3)-key into one int: the packed key
    is ``sum(map(mul, key, weights))``.  z_i goes to field offset + i of a
    block of ``fields`` z fields (n by default), w bits each, and the
    parameter tail above the block, mu on top."""
    if fields is None:
        fields = n
    weights = [1 << (w * (offset + i)) for i in range(n)] + [0] * NPARAM
    for place, k in enumerate(_TAIL_FIELDS):
        weights[n + k] = 1 << (w * (fields + place))
    return tuple(weights)


@cache
def _unpack_fields(n: int, w: int) -> tuple:
    """(shift, mask) per position of an (n + 3)-key packed by
    ``key_weights(n, w)``: the position is ``key >> shift & mask``.  The
    shift is the log of the position's weight; the mask is 2^w - 1, and -1
    for the largest weight, the top field (mu), which keeps its sign."""
    weights = key_weights(n, w)
    top, mask = max(weights), (1 << w) - 1
    return tuple((v.bit_length() - 1, -1 if v == top else mask) for v in weights)


def unpack_key(key: int, n: int, w: int) -> tuple:
    """The (n + 3)-key packed as ``key`` by ``key_weights(n, w)``."""
    return tuple([key >> s & m for s, m in _unpack_fields(n, w)])


def _checked_key(n: int, key: Iterable[int]) -> tuple:
    key = tuple(key)
    if len(key) != n + NPARAM:
        raise ValueError(f"exponent key {key} has length != {n + NPARAM}")
    if any(e < 0 for e in key[:n]):
        raise ValueError(f"negative exponent in {key[:n]}")
    for name, e in zip(PARAM_NAMES, key[n:]):
        if e < 0 and name not in INVERTIBLE_PARAMS:
            raise PreconditionError(
                f"parameter {name!r} is not invertible; exponent {e} rejected"
            )
    return key


def _needs_parens(ctext: str) -> bool:
    return ("+" in ctext[1:]) or ("-" in ctext[1:])


# text of a unit coefficient in front of parameter factors, by its own text
_UNIT_PREFIX = {"1": "", "-1": "-", "1*i": "i*", "-1*i": "-i*"}


def _scalar_text(tail_terms: list) -> str:
    """Text of a parameter combination, from (tail, coefficient text) pairs
    in order."""
    pieces = []
    for tail, ctext in tail_terms:
        factors = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(PARAM_NAMES, tail)
            if e
        )
        prefix = _UNIT_PREFIX.get(ctext)
        if not factors:
            body = ctext
        elif prefix is not None:
            body = prefix + factors
        elif _needs_parens(ctext):
            body = f"({ctext})*{factors}"
        else:
            body = ctext + "*" + factors
        if pieces and not body.startswith("-"):
            pieces.append("+")
        pieces.append(body)
    return "".join(pieces)


def quadratic_form(re: Sequence, im: Sequence, den: int) -> MultiPoly:
    """The polynomial Z M tZ = sum_ij M[i][j] z_i z_j for the n x n matrix
    M of integer numerator rows re and im over den > 0 (the fields of a
    ``SqMatrix``)."""
    n = len(re)
    parts = ({}, {})
    for part, rows in zip(parts, (re, im)):
        for i, j in product(range(n), repeat=2):
            key = tuple(int(k == i) + int(k == j) for k in range(n + NPARAM))
            part[key] = part.get(key, 0) + rows[i][j]
    return MultiPoly._raw(n, *_lowest(*map(_nonzero, parts), den))


MU = MultiPoly.param("mu")
MU_INV = MultiPoly.param("mu", -1)
HBAR = MultiPoly.param("hbar")
TAU = MultiPoly.param("tau")
# coupling scalars used throughout: mu/2 for the graded product, i*hbar/2 for
# the Weyl-algebra product
HALF_MU = MultiPoly.param("mu", 1, gr(1, 2))
I_HBAR_HALF = MultiPoly.param("hbar", 1, GaussianRational(0, rat(1, 2)))
