"""Sparse multivariate polynomials with ParamScalar coefficients.

A ``MultiPoly`` in n variables z0..z{n-1} stores a map from exponent vectors
(length-n tuples of non-negative ints) to nonzero ``ParamScalar``
coefficients.  The canonical ordering of monomials is graded-lexicographic
(total degree first, then lexicographic on the exponent vector), which fixes
serialization and text output.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .scalars import PS_ONE, PS_ZERO, GaussianRational, ParamScalar, accumulate


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial in n variables over ParamScalar."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        clean = {}
        if terms:
            for exps, coef in terms.items():
                accumulate(clean, _checked_exps(n, exps), coef)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def _raw(n: int, terms: dict) -> "MultiPoly":
        p = MultiPoly.__new__(MultiPoly)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls.const(n, PS_ONE)

    @classmethod
    def const(cls, n: int, coef: ParamScalar) -> "MultiPoly":
        if not coef:
            return cls._raw(n, {})
        return cls._raw(n, {(0,) * n: coef})

    @classmethod
    def variable(cls, n: int, j: int) -> "MultiPoly":
        if not 0 <= j < n:
            raise IndexError(f"variable index {j} out of range for n={n}")
        exps = [0] * n
        exps[j] = 1
        return cls._raw(n, {tuple(exps): PS_ONE})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coef: ParamScalar = PS_ONE) -> "MultiPoly":
        return cls(n, {tuple(exps): coef})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_coefficient(self) -> ParamScalar:
        return self.terms.get((0,) * self.n, PS_ZERO)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- ring operations -------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            accumulate(out, exps, coef)
        return MultiPoly._raw(self.n, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        if not self.terms or not other.terms:
            return MultiPoly._raw(self.n, {})
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                accumulate(out, key, ca * cb)
        return MultiPoly._raw(self.n, out)

    def scale(self, coef: ParamScalar) -> "MultiPoly":
        if not coef:
            return MultiPoly._raw(self.n, {})
        out = {}
        for exps, c in self.terms.items():
            prod = c * coef
            if prod:
                out[exps] = prod
        return MultiPoly._raw(self.n, out)

    def scale_rat(self, r) -> "MultiPoly":
        if not r:
            return MultiPoly._raw(self.n, {})
        return MultiPoly._raw(
            self.n, {e: c.scale_rat(r) for e, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus --------------------------------------------------------

    def derivative(self, j: int) -> "MultiPoly":
        """Exact formal partial derivative with respect to z_j."""
        if not 0 <= j < self.n:
            raise IndexError(f"variable index {j} out of range for n={self.n}")
        out = {}
        for exps, coef in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            key = exps[:j] + (e - 1,) + exps[j + 1:]
            out[key] = coef.scale_rat(e)
        return MultiPoly._raw(self.n, out)

    def shift(self, offsets: Sequence[ParamScalar]) -> "MultiPoly":
        """Evaluate at Z + offsets, expanded and canonicalized.

        Each offset is a ParamScalar; the result substitutes
        z_j -> z_j + offsets[j] in every monomial via binomial expansion.
        """
        if len(offsets) != self.n:
            raise ValueError(
                f"offsets length {len(offsets)} != variable count {self.n}"
            )
        nontrivial = [j for j, c in enumerate(offsets) if c]
        if not nontrivial:
            return self
        result = MultiPoly.zero(self.n)
        for exps, coef in self.terms.items():
            # expand prod_j (z_j + c_j)^{e_j} one variable at a time
            parts = MultiPoly.const(self.n, coef)
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                c = offsets[j]
                if not c:
                    parts = parts * MultiPoly._raw(
                        self.n, {_unit(self.n, j, e): PS_ONE}
                    )
                    continue
                powers = {}
                cpow = PS_ONE
                for r in range(e, -1, -1):
                    # coefficient of z_j^r is C(e, r) * c^(e-r)
                    powers[_unit(self.n, j, r)] = cpow.scale_rat(comb(e, r))
                    cpow = cpow * c
                parts = parts * MultiPoly._raw(self.n, powers)
            result = result + parts
        return result

    # -- text and JSON ----------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coef in reversed(self.sorted_terms()):
            mono = "*".join(
                f"z{j}" if e == 1 else f"z{j}^{e}"
                for j, e in enumerate(exps)
                if e > 0
            )
            ctext = coef.text()
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
        """Flat list of {"exps": [...], "coef": {"params", "value"}} entries.

        A monomial whose coefficient mixes several parameter exponents
        produces several entries sharing the same "exps".
        """
        out = []
        for exps, coef in self.sorted_terms():
            for entry in coef.to_json():
                out.append({"exps": list(exps), "coef": entry})
        return out

    @classmethod
    def from_json(cls, n: int, data: Iterable[dict]) -> "MultiPoly":
        acc: dict = {}
        for item in data:
            exps = _checked_exps(n, (int(e) for e in item["exps"]))
            accumulate(acc, exps, ParamScalar.from_json([item["coef"]]))
        return cls._raw(n, acc)


def _checked_exps(n: int, exps: Iterable[int]) -> tuple:
    exps = tuple(exps)
    if len(exps) != n:
        raise ValueError(f"exponent vector {exps} has length != {n}")
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    return exps


def _unit(n: int, j: int, e: int) -> tuple:
    exps = [0] * n
    exps[j] = e
    return tuple(exps)


def _needs_parens(ctext: str) -> bool:
    return ("+" in ctext[1:]) or ("-" in ctext[1:])


def quadratic_form(entries: Sequence[Sequence[GaussianRational]], n: int) -> MultiPoly:
    """The polynomial Z M tZ = sum_ij M[i][j] z_i z_j for an n x n matrix."""
    acc: dict = {}
    for i in range(n):
        for j in range(n):
            v = entries[i][j]
            if not v:
                continue
            key = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
            )
            accumulate(acc, key, ParamScalar.from_gaussian(v))
    return MultiPoly._raw(n, acc)
