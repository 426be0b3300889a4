"""Small recursive-descent parser for human-readable polynomial expressions:
the one grammar of every polynomial and scalar text of the package.

:func:`parse_poly` reads the polynomials, the ``lambda`` entries of a
context and its ``coupling``.  :func:`parse_gaussian` reads every Gaussian
scalar field: the ``lambda`` and ``A`` entries of ``star-exp``, the ``K``
entries of ``ordering``, ``a``, ``b`` and ``c`` of ``riccati``, ``mu``,
and the ``value`` of every JSON term list.  A scalar field takes any
expression without variables that reduces to one term without
parameters, so ``2*3``, ``i/2`` and ``(1+i)^2`` are scalars, ``mu`` is
none, and neither is ``2i``: a number and its ``i`` take a ``*``.  It
reads at degree cap 0: a sum left with two or more terms has a parameter,
so a power of one is refused before it is expanded.

Grammar (ASCII whitespace between tokens is ignored)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | NAME | '(' expr ')'

Names: ``z0``..``z{n-1}`` (variables, with no leading zero in the index),
``mu``, ``hbar``, ``tau``, ``i``.
Rational literals appear as divisions of integers ("3/2"); division and
negative powers are accepted exactly when the divisor/base is an invertible
scalar monomial (an integer, ``i``, or a power of ``mu``).

Most of what the parser reads is one term: an atom, and any product,
quotient or power of single terms, is the tuple ``(key, re, im, den)`` of
one flat exponent key of length n + 3 and the integers of (re + im*i)/den in
lowest terms, the layout of one term of a :class:`MultiPoly`.  A product of
terms adds their keys and multiplies their Gaussian integers, a power
multiplies the key and raises the integers by repeated squaring, and a
quotient inverts the divisor's integers and negates its key; each ends in
one gcd.  A term becomes a ``MultiPoly`` (``MultiPoly._term``) only where
``expr`` adds it to another, where it multiplies a sum, and as the result;
a sum whose result has at most one term becomes a term again, so a
parenthesised product such as ``(2/3)*mu*z0`` builds no polynomial.
``MultiPoly`` products and powers are left to the sums of two or more
terms.

A degree cap rejects a product or power above it before multiplying it
out; only an intermediate that a later sum cancels (``z0^20 - z0^20``) is
rejected that the cap would let through after expansion.  A power of a
scalar has degree 0, so its growth is bounded apart: a sum of terms takes
an exponent of at most the cap, and a single term one whose coefficient
stays below the int-to-text limit (:meth:`_Parser.power`).  The degree cap
does not bound term counts, so a product or power of sums is also refused
before it is multiplied out when a bound on its terms passes ``MAX_TERMS``
(:func:`_power_terms`), a product when the pairs of terms that the
products of sums of the text multiply pass ``MAX_TERMS`` in all, and a
product when a bound on its integers could pass the int-to-text limit
(:meth:`_Parser.check_digits`).
"""

from __future__ import annotations

import math
import re
import sys
from functools import cache
from operator import add

from .errors import PreconditionError, SchemaError
from .poly import NPARAM, MultiPoly, _checked_key
from .scalars import PARAM_INDEX, GaussianRational, _gaussian_power, to_gaussian

# the most terms that the bound of a product or power may reach, and the
# most pairs of terms that the products of sums of one text may multiply:
# the golden, test and benchmark inputs reach at most 969 terms (and the
# golden and benchmark texts 3 pairs), a degree-16 power of a sum of 5
# variables (4845 terms) takes 0.3 s, and one of 7 variables (74613 terms)
# took 13 s to expand
MAX_TERMS = 10000

# the most characters of a text that a refusal quotes: the texts of the
# pinned refusals are short, and 1000 parentheses would repeat 2 KB
QUOTE_LIMIT = 60

# ASCII only, as in scalars: a digit is 0-9 and a space is ASCII whitespace,
# so any other character, a non-ASCII digit or space too, is unexpected
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))", re.ASCII)
_OPERATORS = frozenset("+-*/^()")


def _tokenize(text: str) -> list:
    """The tokens of ``text``: an int, a name, an operator character, and
    None at the end."""
    # each match is one token after optional whitespace, so the matches
    # cover the text up to its trailing whitespace
    tokens = []
    for digits, name, ch in _TOKEN.findall(text):
        if digits:
            tokens.append(int(digits))
        elif name:
            tokens.append(name)
        elif ch in _OPERATORS:
            tokens.append(ch)
        else:
            raise SchemaError(f"unexpected character {ch!r} in expression")
    tokens.append(None)
    return tokens


def _shown(tok) -> str:
    """A token as an error message names it: the None that ends the tokens
    is the end of input."""
    return "end of input" if tok is None else repr(tok)


@cache
def _unit_key(n: int, position: int) -> tuple:
    """The key of length n + 3 with exponent 1 at ``position``."""
    key = [0] * (n + NPARAM)
    key[position] = 1
    return tuple(key)


def _reduced(key: tuple, re: int, im: int, den: int) -> tuple:
    """The term (re + im*i)/den, den > 0, in lowest terms."""
    g = math.gcd(re, im, den)
    if g == 1:
        return key, re, im, den
    return key, re // g, im // g, den // g


def _poly(n: int, value) -> MultiPoly:
    """A term or polynomial of the parser as a MultiPoly in n variables."""
    return MultiPoly._term(n, *value) if type(value) is tuple else value


class _Parser:
    def __init__(self, text: str, n: int, max_degree: float):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.max_degree = max_degree
        self.zero_key = (0,) * (n + NPARAM)
        # the pairs of terms multiplied so far by products of sums
        self.pairs = 0

    def check_degree(self, degree: int) -> None:
        if degree > self.max_degree:
            cap = self.max_degree
            raise SchemaError(f"a product or power of degree {degree} exceeds the cap {cap}")

    def degree(self, value) -> int:
        """The total degree in z of a term or polynomial; -1 for zero."""
        if type(value) is not tuple:
            return value.degree()
        return sum(value[0][:self.n]) if value[1] or value[2] else -1

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse(self):
        """The value of the whole text: a term, or a MultiPoly of two or
        more terms."""
        value = self.expr()
        if self.peek() is not None:
            raise SchemaError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        if self.peek() in ("+", "-"):
            value = _poly(self.n, value)
            while self.peek() in ("+", "-"):
                op = self.next()
                rhs = _poly(self.n, self.term())
                value = value + rhs if op == "+" else value - rhs
        if type(value) is tuple:
            return value
        keys = value.keys()
        if len(keys) > 1:
            return value
        # at most one term: the sum is a term again
        key = next(iter(keys), self.zero_key)
        return key, value.re.get(key, 0), value.im.get(key, 0), value.den

    def term(self):
        value = self.factor()
        if self.peek() not in ("*", "/"):
            return value
        degree = self.degree(value)
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op == "*":
                d = self.degree(rhs)
                self.check_degree(degree + d)
                value = self.product(value, rhs)
                # a product is zero exactly when a factor is
                degree = degree + d if degree >= 0 and d >= 0 else -1
            else:
                value = self.product(value, self.inverse(rhs))
        return value

    def product(self, lhs, rhs):
        """lhs * rhs, refused first if its terms or integers could pass the
        caps: a product of two terms adds their keys and multiplies their
        Gaussian integers.  A product of sums multiplies every pair of
        their terms, and the pairs of all such products of one text are
        capped together, so that a chain of products, nested or not, costs
        at most ``MAX_TERMS`` pairs."""
        if type(lhs) is tuple and type(rhs) is tuple:
            key, a, b, d = lhs
            rkey, c, e, f = rhs
            self.check_digits((abs(a) + abs(b)) * (abs(c) + abs(e)), d * f)
            return _reduced(tuple(map(add, key, rkey)), a * c - b * e, a * e + b * c, d * f)
        lhs, rhs = _poly(self.n, lhs), _poly(self.n, rhs)
        left, right = len(lhs.keys()), len(rhs.keys())
        terms = left * right
        if terms > MAX_TERMS:
            raise SchemaError(
                f"a product of {left} and {right} terms could have {terms} terms,"
                f" above the cap {MAX_TERMS}"
            )
        self.pairs += terms
        if self.pairs > MAX_TERMS:
            raise SchemaError(
                f"the products of sums in one text multiply {self.pairs} pairs of terms,"
                f" above the cap {MAX_TERMS}"
            )
        self.check_digits(_norm(lhs) * _norm(rhs), lhs.den * rhs.den)
        return lhs * rhs

    def check_digits(self, norms: int, dens: int) -> None:
        """Refuse a product whose integers could pass the int-to-text limit:
        each numerator of the product is at most ``norms``, the product of
        the factors' sums of absolute numerators, and its denominator at
        most ``dens``, the product of theirs."""
        limit = sys.get_int_max_str_digits()
        if limit and max(norms, dens).bit_length() * math.log10(2) >= limit:
            raise SchemaError(
                f"a product of coefficients would pass the output limit of {limit} digits"
            )

    def inverse(self, value, k: int = 1) -> tuple:
        """1/value for a nonzero term without z.  The inverted key is
        checked at its k-th power, so that a refusal names the exponent of
        value^-k."""
        if type(value) is not tuple:
            # a sum of two or more terms
            if value.is_constant():
                raise PreconditionError("only monomial scalars are invertible")
            raise SchemaError("division requires an invertible scalar divisor")
        key, a, b, d = value
        if not (a or b):
            raise ZeroDivisionError("inverse of zero scalar")
        if any(key[:self.n]):
            raise SchemaError("division requires an invertible scalar divisor")
        _checked_key(self.n, [-e * k for e in key])
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduced(tuple([-e for e in key]), d * a, -d * b, a * a + b * b)

    def factor(self):
        if self.peek() in ("+", "-"):
            op = self.next()
            value = self.factor()
            if op == "+":
                return value
            if type(value) is tuple:
                key, a, b, d = value
                return key, -a, -b, d
            return -value
        return self.power()

    def power(self):
        """A power, refused first if its growth could outgrow the caps,
        which the degree of a scalar base does not see.  A base of several
        terms takes an exponent of at most the degree cap and a term count
        bound by :func:`_power_terms`.  A single term (a + b*i)/d * params
        has a power with integers below M^k, M = max(|a| + |b|, d), so
        k * log10(M) must stay below the int-to-text limit: a unit times
        parameters passes at any k."""
        base = self.atom()
        if self.peek() != "^":
            return base
        self.next()
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        exp = self.next()
        if type(exp) is not int:
            raise SchemaError(f"expected 'int', found {_shown(exp)}")
        if sign < 0 and exp:
            base = self.inverse(base, exp)
        self.check_degree(self.degree(base) * exp)
        if type(base) is tuple:
            key, a, b, d = base
            limit = sys.get_int_max_str_digits()
            if limit and exp * math.log10(max(abs(a) + abs(b), d)) >= limit:
                raise SchemaError(
                    f"a power {exp} of a coefficient would pass the output limit of {limit} digits"
                )
            a, b = _gaussian_power(a, b, exp)
            return _reduced(tuple([e * exp for e in key]), a, b, d ** exp)
        if exp > self.max_degree:
            cap = self.max_degree
            raise SchemaError(f"a power {exp} of a sum of terms exceeds the cap {cap}")
        terms = _power_terms(base, exp)
        if terms > MAX_TERMS:
            raise SchemaError(
                f"a power {exp} of {len(base.keys())} terms could have {terms} terms,"
                f" above the cap {MAX_TERMS}"
            )
        # a nonzero power of a sum of terms is one again
        return base ** exp if exp else (self.zero_key, 1, 0, 1)

    def atom(self):
        tok = self.next()
        if type(tok) is int:
            return self.zero_key, tok, 0, 1
        if tok == "(":
            value = self.expr()
            close = self.next()
            if close != ")":
                raise SchemaError(f"expected ')', found {_shown(close)}")
            return value
        if tok is None:
            raise SchemaError("unexpected end of input")
        if tok not in _OPERATORS:
            return self.name_value(tok)
        raise SchemaError(f"unexpected token {tok!r}")

    def name_value(self, name: str) -> tuple:
        n = self.n
        if name == "i":
            return self.zero_key, 0, 1, 1
        if name in PARAM_INDEX:
            return _unit_key(n, n + PARAM_INDEX[name]), 1, 0, 1
        index = name[1:]
        if name[0] == "z" and index.isdigit() and (index == "0" or index[0] != "0"):
            j = int(index)
            if j >= n:
                raise SchemaError(f"variable {name!r} out of range for {n} variables")
            return _unit_key(n, j), 1, 0, 1
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
    bound = math.comb(len(keys) + k - 1, k)
    if bound <= MAX_TERMS:
        return bound
    columns = list(zip(*keys))
    lows = [min(c) for c in columns]
    t = max(sum(e - low for e, low in zip(key, lows)) for key in keys)
    v = sum(max(c) > low for c, low in zip(columns, lows))
    return min(bound, math.comb(v + k * t, v))


def _quoted(text: str) -> str:
    """``text`` as a refusal quotes it: whole up to ``QUOTE_LIMIT``
    characters, else its prefix of that length followed by ``...``."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}..."


def _evaluate(text: str, n: int, max_degree: float):
    """The value of ``text`` as :meth:`_Parser.parse` gives it.  Expressions
    that cannot be represented (division by zero, inverses of non-invertible
    parameters, nesting past the recursion limit) are input errors, not
    math errors."""
    try:
        return _Parser(text, n, max_degree).parse()
    except SchemaError:
        raise
    except (ZeroDivisionError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot evaluate expression {_quoted(text)}: {exc}") from exc


def parse_poly(text: str, n: int, max_degree: float = float("inf")) -> MultiPoly:
    """Parse a polynomial expression in variables z0..z{n-1}, with no
    product or power of degree above ``max_degree``; at n = 0 a scalar in
    the parameters, such as the coupling."""
    return _poly(n, _evaluate(text, n, max_degree))


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text of a Gaussian scalar field: an expression with no
    variable whose value is one term without parameters (``mu/mu`` is 1
    and ``0*mu`` is 0).  A non-string raises TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"a scalar must be a string, got {type(text).__name__}")
    # a sum left with two or more terms has a parameter in one of them, so
    # degree cap 0 refuses a power of one before expanding it
    value = _evaluate(text, 0, 0)
    if type(value) is not tuple or (any(value[0]) and (value[1] or value[2])):
        raise SchemaError("a scalar field takes no parameter")
    return to_gaussian(*value[1:])
