"""Grading and validation layer.

Polynomials decompose into homogeneous components tagged with the attached
mu exponent; the degree-m component models the space of global sections of
the m-th twisting sheaf on projective space, whose dimension is the plain
binomial count ``h0_dim``.  The two validators test the hypotheses under
which the star product is associative and graded: the iterated-versus-
contracted identity for the structure matrix, swept over monomial pairs,
and the Jacobi rule for the induced bracket.

Both sides of the identity are bilinear in (f, g), so
``check_lambda_relation`` contracts all monomial pairs of an order in one
engine step per side: the pair's index in the sweep sits in the low bits
of every packed key, and the smallest index whose terms differ is the
first failing pair of the sweep.

For an antisymmetric structure matrix the second-derivative terms of the
Jacobi sum cancel, leaving a trilinear form in first derivatives,

    {f, {g, h}} + {g, {h, f}} + {h, {f, g}} = sum_abc J^abc d_a f d_b g d_c h,
    J^abc = sum_l (lam^al d_l lam^bc + lam^bl d_l lam^ca + lam^cl d_l lam^ab),

where J is, up to a constant factor, the Schouten-Nijenhuis bracket
[lam, lam] (Lichnerowicz, J. Diff. Geom. 12, 1977; Vaisman, Lectures on
the Geometry of Poisson Manifolds, 1994, ch. 1).  ``check_jacobi`` builds J
once instead of nesting brackets, and reads its first witness off the
entries of J without a sweep.
"""

from __future__ import annotations

from itertools import combinations, islice, product, zip_longest
from math import comb

from .errors import PreconditionError
from .poly import MultiPoly, TermRows, _lowest, _nonzero, _unpack_fields, grlex_key, key_width
from .reports import CheckReport
from .scalars import PARAM_INDEX, GaussianRational, _gaussian_power, to_numerators
from .star import (
    StarContext,
    _collapse,
    _full_entries,
    _iterated_entries,
    _states,
    star,
)

_MU = PARAM_INDEX["mu"]


class GradedElement:
    """A finite sum of homogeneous components indexed by (degree, mu weight).

    Each component polynomial is homogeneous of its key degree and its
    coefficients carry no mu exponent (the weight is the key); reassembling
    multiplies each component by mu**weight and sums.
    """

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: dict):
        clean = {}
        for (deg, weight), poly in components.items():
            if poly.is_zero():
                continue
            if poly.n != n:
                raise ValueError("component variable count mismatch")
            if not poly.is_homogeneous() or poly.degree() != deg:
                raise ValueError(f"component at degree {deg} is not homogeneous")
            if any(key[n + _MU] for key in poly.keys()):
                raise ValueError("component coefficients must be mu-free")
            clean[(deg, weight)] = poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedElement is immutable")

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def reassemble(self) -> MultiPoly:
        total = MultiPoly.zero(self.n)
        for (deg, weight), poly in self.components.items():
            total = total + poly.scale(MultiPoly.param("mu", weight))
        return total

    def to_json(self) -> dict:
        comps = []
        for (deg, weight) in sorted(self.components):
            comps.append(
                {
                    "degree": deg,
                    "mu": weight,
                    "poly": self.components[(deg, weight)].to_json(),
                }
            )
        return {"components": comps}

    @classmethod
    def from_json(cls, n: int, data: dict) -> "GradedElement":
        comps = {}
        zero = MultiPoly.zero(n)
        for entry in data["components"]:
            key = (int(entry["degree"]), int(entry["mu"]))
            comps[key] = comps.get(key, zero) + MultiPoly.from_json(n, entry["poly"])
        return cls(n, comps)

    def __repr__(self) -> str:
        body = ", ".join(
            f"(deg {d}, mu^{w}): {p.text()}"
            for (d, w), p in sorted(self.components.items())
        )
        return f"GradedElement({{{body}}})"


def _buckets(n: int, pairs) -> dict:
    """The (key, value) pairs in n variables split by (degree, mu exponent),
    in their order, each key with its mu exponent set to 0; keys of one
    bucket share the mu exponent, so stripping it keeps them distinct and
    in the same order."""
    buckets: dict = {}
    for key, value in pairs:
        bucket = buckets.setdefault((sum(key[:n]), key[n + _MU]), [])
        bucket.append((key[: n + _MU] + (0,) + key[n + _MU + 1 :], value))
    return buckets


def _components(f: MultiPoly) -> dict:
    """The mu-free part of f of each (degree, mu exponent)."""
    n = f.n
    re, im = _buckets(n, f.re.items()), _buckets(n, f.im.items())
    return {
        dw: MultiPoly._raw(n, *_lowest(dict(re.get(dw, ())), dict(im.get(dw, ())), f.den))
        for dw in re.keys() | im.keys()
    }


def decompose(f: MultiPoly) -> GradedElement:
    """Split by total degree and mu exponent; reassembly returns f exactly."""
    return GradedElement(f.n, _components(f))


def graded_keys(f: MultiPoly) -> list:
    """The (degree, mu exponent) pairs of the components of
    ``decompose(f)``, sorted, as [{"degree": d, "mu": w}, ...], read off
    the keys of f without building the components."""
    n = f.n
    pairs = {(sum(key[:n]), key[n + _MU]) for key in f.re.keys() | f.im.keys()}
    return [{"degree": d, "mu": w} for d, w in sorted(pairs)]


def _graded_packed_keys(n: int, triple: tuple, w: int) -> list:
    """:func:`graded_keys` of the polynomial in n variables whose numerator
    triple (re, im, den) is keyed at field width w (see
    :func:`starquant.poly.key_weights`): the degree is the sum of the z
    fields, and the mu exponent is the signed top field."""
    fields = _unpack_fields(n, w)
    z, (mu_shift, mu_mask) = fields[:n], fields[n + _MU]
    pairs = {
        (sum([key >> s & m for s, m in z]), key >> mu_shift & mu_mask)
        for part in triple[:2]
        for key in part
    }
    return [{"degree": d, "mu": e} for d, e in sorted(pairs)]


def graded_terms(n: int, rows: list) -> dict:
    """``decompose(f).to_json()`` with each component's term list as a
    :class:`TermRows`, from the rows ``f.rows()``.  A component takes the
    rows of its bucket in their order, so it needs no sort of its own."""
    buckets = _buckets(n, rows)
    return {
        "components": [
            {"degree": d, "mu": w, "poly": TermRows(n, buckets[d, w])}
            for d, w in sorted(buckets)
        ]
    }


def h0_dim(n: int, m: int) -> int:
    """Dimension of the degree-m homogeneous polynomials in n+1 variables
    (0 when m < 0)."""
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    if m < 0:
        return 0
    return comb(n + m, n)


def specialize_mu(f: MultiPoly, value: GaussianRational) -> MultiPoly:
    """Substitute mu -> value (a nonzero scalar), collapsing mu exponents.

    In one pass over the numerators: with value = p/d for a Gaussian
    integer p and d > 0, and N = |p|^2, v^e is p^e/d^e for e >= 0 and
    d^|e| conj(p)^|e| / N^|e| for e < 0.  Over the one denominator
    D = d^hi N^-lo, for the largest and smallest exponents hi >= 0 >= lo,
    each v^e has the Gaussian-integer numerator q^|e| d^(hi - e)
    N^(min(e, 0) - lo), q = p or conj(p).  Each term is multiplied by the
    numerator of its exponent and moved to the key with mu cleared, and
    the sum is reduced once.
    """
    if not value:
        raise PreconditionError("mu is invertible; cannot specialize to zero")
    n, re, im = f.n, f.re, f.im
    mu = n + _MU
    exps = {key[mu] for key in f.keys()}
    lo, hi = min(exps | {0}), max(exps | {0})
    (a,), (b,), d = to_numerators((value,))
    norm = a * a + b * b
    scales = {}
    for e in exps:
        x, y = _gaussian_power(a, b if e >= 0 else -b, abs(e))
        m = d ** (hi - e) * norm ** (min(e, 0) - lo)
        scales[e] = x * m, y * m
    out_re: dict = {}
    out_im: dict = {}
    for key in f.keys():
        x, y = scales[key[mu]]
        r, i = re.get(key, 0), im.get(key, 0)
        k = key[:mu] + (0,) + key[mu + 1 :]
        out_re[k] = out_re.get(k, 0) + r * x - i * y
        out_im[k] = out_im.get(k, 0) + r * y + i * x
    den = f.den * d ** hi * norm ** -lo
    return MultiPoly._raw(n, *_lowest(_nonzero(out_re), _nonzero(out_im), den))


def star_graded(ctx: StarContext, f: GradedElement, g: GradedElement) -> GradedElement:
    """Star product of the reassembled elements, redecomposed; by
    bilinearity it is the sum of the products of the component pairs.

    Only established for a constant structure matrix; contraction order k
    sends degrees (p, q) to p + q - 2k and raises the mu weight by k when
    the coupling is mu/2.
    """
    if not ctx.constant_lambda:
        raise PreconditionError("graded star product requires constant lambda")
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("variable count mismatch with context")
    return decompose(star(ctx, f.reassemble(), g.reassemble()))


# --- validators -------------------------------------------------------------


def _exps_of_degree(d: int, k: int):
    if k == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _exps_of_degree(d - first, k - 1):
            yield (first,) + rest


def _exponents_upto(n: int, d_max: int) -> list:
    """The exponent tuples of all monomials of total degree <= d_max, in
    grlex order."""
    all_exps = []
    for d in range(d_max + 1):
        all_exps.extend(_exps_of_degree(d, n))
    all_exps.sort(key=grlex_key)
    return all_exps


def monomials_upto(n: int, d_max: int) -> list:
    """All monomials of total degree <= d_max, in grlex order."""
    return [MultiPoly.monomial(n, e) for e in _exponents_upto(n, d_max)]


def _jacobi_trivector(ctx: StarContext) -> dict:
    """The nonzero entries J^abc with a < b < c (see the module docstring),
    keyed by (a, b, c); J is totally antisymmetric, so they determine the
    rest."""
    n, lam = ctx.n, ctx.lam
    # dlam[b][c] maps each l that occurs in lam^bc to d_l lam^bc
    dlam = [
        [{l: p.derivative(l) for l in range(n) if any(key[l] for key in p.keys())} for p in row]
        for row in lam
    ]
    trivector = {}
    for a, b, c in combinations(range(n), 3):
        entry = MultiPoly.zero(n)
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            for l, d in dlam[j][k].items():
                if lam[i][l]:
                    entry = entry + lam[i][l] * d
        if entry:
            trivector[(a, b, c)] = entry
    return trivector


def check_jacobi(ctx: StarContext, d_max: int = 4) -> CheckReport:
    """Verify the cyclic Jacobi sum of the bracket on all monomial triples
    of degree <= d_max; reports the first witness of the sweep over
    unordered triples (f, g, h) of the grlex list, f <= g <= h.

    The Jacobi sum is antisymmetric under swapping two arguments (the
    bracket is antisymmetric), so sweeping unordered triples is exhaustive.
    It equals sum_abc J^abc d_a f d_b g d_c h with the trivector J of the
    module docstring (the Schouten-Nijenhuis bracket [lam, lam] up to a
    factor), which is totally antisymmetric.  So no sweep is needed:

    * When J is zero, as for every Poisson structure and every n <= 2,
      every triple passes.  When d_max is 0 the sweep holds only the
      constant triple, which passes.
    * A failing triple (f, g, h) has some J^abc != 0 with d_a f, d_b g and
      d_c h nonzero.  In the grlex list z_x comes before every other
      monomial that contains z_x, so the linear triple sorted(z_a, z_b,
      z_c) comes no later than (f, g, h) in the sweep, and its sum is
      +-J^abc, nonzero.  Hence the first witness is the first linear triple
      with a nonzero entry.  The grlex list starts z_(n-1), ..., z_0, so
      that triple is (z_c, z_b, z_a) for the entry (a, b, c), a < b < c,
      with the largest (c, b, a).
    """
    trivector = _jacobi_trivector(ctx)
    if not trivector or d_max < 1:
        return CheckReport(passed=True)
    a, b, c = max(trivector, key=lambda abc: abc[::-1])
    z = [MultiPoly.variable(ctx.n, j).text() for j in (c, b, a)]
    return CheckReport(
        passed=False,
        witness={"f": z[0], "g": z[1], "h": z[2]},
        detail="cyclic Jacobi sum is nonzero",
    )


def check_lambda_relation(
    ctx: StarContext, k_max: int = 4, d_max: int = 4
) -> CheckReport:
    """Compare the iterated one-step biderivation with the fully contracted
    operator, order by order, on every pair of monomials of degree <= d_max.

    For a constant structure matrix the two coincide at every order; a
    non-constant matrix generically fails at order 2 because the iterated
    form differentiates the matrix entries accumulated by earlier steps.
    Reports the smallest failing order with the first failing pair of the
    sweep over (f, g), f outer and g inner, both in grlex order.

    Both forms are bilinear, so each side contracts all m^2 pairs at once,
    as one state of integer numerators.  Pair i = f_index * m + g_index
    starts as one key, f's exponents in the x fields and g's in the y
    fields, packed at one field width above p low bits that hold i (p is
    the bit length of m^2 - 1), with numerator 1 over denominator 1.
    Each side iterates the engine's order states (:func:`star._states`) on
    the kernel of its form (bare k-fold contractions, without coupling or
    1/k!), and the collapse keeps the low bits, so order k of the two forms
    is compared for every pair at once; an exhausted side reads as empty,
    and the smallest index whose terms differ is the witness.  The check
    stops at the first failing order, and passes once both sides are
    exhausted.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2 (order 1 can never diverge)")
    n = ctx.n
    exps = _exponents_upto(n, d_max)
    m = len(exps)
    low = (m * m - 1).bit_length()
    iterated = _iterated_entries(ctx)
    full = _full_entries(ctx)
    # no more than k_max steps run, each adding at most the reach to a
    # field, collapsed or not; one width serves both sides and every pair
    w = key_width(2 * d_max + k_max * max(iterated.reach, full.reach))
    packed = [sum(e << w * i for i, e in enumerate(exp)) for exp in exps]
    start = {
        ((f + (g << n * w)) << low) + i: 1
        for i, (f, g) in enumerate(product(packed, repeat=2))
    }
    sides = [_states(kernel, w, start, {}, 1, low) for kernel in (iterated, full)]
    # an exhausted side reads as empty
    orders = zip_longest(*sides, fillvalue=({}, {}, 1))
    for k, ((lre, lim, lden), (rre, rim, rden)) in enumerate(islice(orders, 1, k_max + 1), 1):
        # a/lden == b/rden per key and part, tested as a*rden == b*lden
        # with zero numerators left out
        differ = set()
        for left, right in ((lre, rre), (lim, rim)):
            left = _collapse(n, iterated.width, w, left, low)
            right = _collapse(n, full.width, w, right, low)
            differ |= {key: v * rden for key, v in left.items() if v}.items() ^ {
                key: v * lden for key, v in right.items() if v
            }.items()
        if differ:
            i = min(key & (1 << low) - 1 for key, _ in differ)
            return CheckReport(
                passed=False,
                first_divergence_order=k,
                witness={
                    "k": k,
                    "f": MultiPoly.monomial(n, exps[i // m]).text(),
                    "g": MultiPoly.monomial(n, exps[i % m]).text(),
                },
                detail="iterated and contracted forms differ",
            )
    return CheckReport(passed=True)
