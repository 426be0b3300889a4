"""Small recursive-descent parser for human-readable polynomial expressions.

Grammar (ASCII whitespace between tokens is ignored)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | NAME | '(' expr ')'

Names: ``z0``..``z{n-1}`` (variables), ``mu``, ``hbar``, ``tau``, ``i``.
Rational literals appear as divisions of integers ("3/2"); division and
negative powers are accepted exactly when the divisor/base is an invertible
scalar monomial (an integer, ``i``, or a power of ``mu``).
A degree cap rejects a product or power above it before multiplying it
out; only an intermediate that a later sum cancels (``z0^20 - z0^20``) is
rejected that the cap would let through after expansion.  A power of a
scalar has degree 0, so its growth is bounded apart: a sum of terms takes
an exponent of at most the cap, and a single term one whose coefficient
stays below the int-to-text limit (:meth:`_Parser.check_growth`).  The
degree cap does not bound term counts, so a product or power is also
refused before it is multiplied out when a bound on its terms passes
``MAX_TERMS`` (:func:`_power_terms`), and a product when a bound on its
integers could pass the int-to-text limit (:meth:`_Parser.check_product`).
"""

from __future__ import annotations

import math
import re
import sys

from .errors import SchemaError
from .poly import MultiPoly
from .scalars import PARAM_INDEX

# the most terms that the bound of a product or power may reach: the
# golden, test and benchmark inputs reach at most 969, a degree-16 power of
# a sum of 5 variables (4845 terms) takes 0.3 s, and one of 7 variables
# (74613 terms) took 13 s to expand
MAX_TERMS = 10000

# ASCII only, as in scalars: a digit is 0-9 and a space is ASCII whitespace,
# so any other character, a non-ASCII digit or space too, is unexpected
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))", re.ASCII)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:  # only whitespace is left
            break
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            ch = m.group(3)
            if ch not in "+-*/^()":
                raise SchemaError(f"unexpected character {ch!r} in expression")
            tokens.append((ch, ch))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, max_degree: float):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.max_degree = max_degree

    def check_degree(self, degree: int) -> None:
        if degree > self.max_degree:
            cap = self.max_degree
            raise SchemaError(f"a product or power of degree {degree} exceeds the cap {cap}")

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SchemaError(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse(self) -> MultiPoly:
        value = self.expr()
        if self.peek()[0] != "end":
            raise SchemaError(f"trailing input at {self.peek()[1]!r}")
        return value

    def expr(self) -> MultiPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MultiPoly:
        value = self.factor()
        degree = value.degree()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            if op == "*":
                d = rhs.degree()
                self.check_degree(degree + d)
                self.check_product(value, rhs)
                value = value * rhs
                degree = degree + d if value else -1
            else:
                rhs = _scalar_inverse(rhs)
                self.check_product(value, rhs)
                value = value * rhs
        return value

    def factor(self) -> MultiPoly:
        kind = self.peek()[0]
        if kind in ("+", "-"):
            op = self.next()[0]
            value = self.factor()
            return value if op == "+" else -value
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        exp = self.expect("int")[1]
        self.check_degree(base.degree() * sign * exp)
        if sign < 0:
            base = _scalar_inverse(base)
        self.check_growth(base, exp)
        terms = _power_terms(base, exp)
        if terms > MAX_TERMS:
            raise SchemaError(
                f"a power {exp} of {len(base.keys())} terms could have {terms} terms,"
                f" above the cap {MAX_TERMS}"
            )
        return base ** exp

    def check_growth(self, base: MultiPoly, k: int) -> None:
        """Refuse base^k before computing it if its terms or coefficients
        could outgrow the caps, which the degree of a scalar base does not
        see.  A base of several terms takes an exponent of at most the
        degree cap.  A single term (a + b*i)/d * params has a power with
        integers below M^k, M = max(|a| + |b|, d), so k * log10(M) must stay
        below the int-to-text limit: a unit times parameters passes at any
        k."""
        keys = base.keys()
        if len(keys) > 1 and k > self.max_degree:
            cap = self.max_degree
            raise SchemaError(f"a power {k} of a sum of terms exceeds the cap {cap}")
        limit = sys.get_int_max_str_digits()
        if len(keys) == 1 and limit:
            (key,) = keys
            m = max(abs(base.re.get(key, 0)) + abs(base.im.get(key, 0)), base.den)
            if k * math.log10(m) >= limit:
                raise SchemaError(
                    f"a power {k} of a coefficient would pass the output limit of {limit} digits"
                )

    def check_product(self, lhs: MultiPoly, rhs: MultiPoly) -> None:
        """Refuse lhs * rhs before computing it if it could have more than
        ``MAX_TERMS`` terms, len(lhs) * len(rhs), or integers past the
        int-to-text limit: each numerator of the product is at most the
        product of the factors' sums of absolute numerators, and its
        denominator at most the product of theirs."""
        # the numerator maps bound the term counts from above at no cost
        if (len(lhs.re) + len(lhs.im)) * (len(rhs.re) + len(rhs.im)) > MAX_TERMS:
            terms = len(lhs.keys()) * len(rhs.keys())
            if terms > MAX_TERMS:
                raise SchemaError(
                    f"a product of {len(lhs.keys())} and {len(rhs.keys())} terms could have"
                    f" {terms} terms, above the cap {MAX_TERMS}"
                )
        limit = sys.get_int_max_str_digits()
        bound = max(_norm(lhs) * _norm(rhs), lhs.den * rhs.den)
        if limit and bound.bit_length() * math.log10(2) >= limit:
            raise SchemaError(
                f"a product of coefficients would pass the output limit of {limit} digits"
            )

    def atom(self) -> MultiPoly:
        tok = self.next()
        if tok[0] == "int":
            return MultiPoly.number(self.n, tok[1])
        if tok[0] == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok[0] == "name":
            return self.name_value(tok[1])
        raise SchemaError(f"unexpected token {tok[1]!r}")

    def name_value(self, name: str) -> MultiPoly:
        if name == "i":
            return MultiPoly.number(self.n, 0, 1)
        if name in PARAM_INDEX:
            return MultiPoly.const(self.n, MultiPoly.param(name))
        if name.startswith("z") and name[1:].isdigit():
            j = int(name[1:])
            if j >= self.n:
                raise SchemaError(
                    f"variable {name!r} out of range for {self.n} variables"
                )
            return MultiPoly.variable(self.n, j)
        raise SchemaError(f"unknown name {name!r}")


def _norm(p: MultiPoly) -> int:
    """The sum of the absolute numerators of p."""
    return sum(map(abs, p.re.values())) + sum(map(abs, p.im.values()))


def _power_terms(base: MultiPoly, k: int) -> int:
    """A bound on the terms of base^k: the multisets of k of its terms and,
    when that passes ``MAX_TERMS``, the smaller count of the monomials of
    degree at most k * t in the v exponents that vary over its terms, where
    t is the largest total of a term's exponents above their minimum over
    the terms (so Laurent powers of mu count too)."""
    keys = list(base.keys())
    bound = math.comb(len(keys) + k - 1, k) if keys else 1
    if bound <= MAX_TERMS:
        return bound
    columns = list(zip(*keys))
    lows = [min(c) for c in columns]
    t = max(sum(e - low for e, low in zip(key, lows)) for key in keys)
    v = sum(max(c) > low for c, low in zip(columns, lows))
    return min(bound, math.comb(v + k * t, v))


def _scalar_inverse(p: MultiPoly) -> MultiPoly:
    if not p.is_constant():
        raise SchemaError("division requires an invertible scalar divisor")
    return p.inverse()


def parse_poly(text: str, n: int, max_degree: float = float("inf")) -> MultiPoly:
    """Parse a polynomial expression in variables z0..z{n-1}, with no
    product or power of degree above ``max_degree``.

    Expressions that cannot be represented (division by zero, inverses of
    non-invertible parameters) are input errors, not math errors.
    """
    try:
        return _Parser(text, n, max_degree).parse()
    except SchemaError:
        raise
    except (ZeroDivisionError, ValueError) as exc:
        raise SchemaError(f"cannot evaluate expression {text!r}: {exc}") from exc


def parse_scalar(text: str) -> MultiPoly:
    """Parse a scalar expression (no z variables): a 0-variable MultiPoly."""
    return parse_poly(text, 0)
