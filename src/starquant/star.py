"""Star products on polynomial algebras.

The product implemented here is the fully contracted expansion

    f (*) g  =  sum_k  coupling^k / k! *
                L^{a1 b1} ... L^{ak bk} * d_{a1..ak} f * d_{b1..bk} g

for an antisymmetric structure matrix L and a scalar coupling (mu/2 for the
graded product on homogeneous coordinates, i*hbar/2 for the Weyl-algebra
product; one engine serves both).  On top of it sit the K-ordered products
for symmetric ordering matrices, the ordering intertwiner, products with
linear exponentials, and the term-by-term ODE recursion for star
exponentials which acts as the independent oracle for every closed form in
:mod:`starquant.matrices`.

The contraction works on exponent vectors over doubled variables: x (the
left factor) then y (the right factor), each of n variables, then the
exponents of the formal parameters mu, hbar, tau, as in a ``MultiPoly`` key.
One step (:func:`_step`) lowers x_a and y_b, scales by their
exponents and multiplies by a term of the entry L^{ab}: its parameter
exponents add to the tail and its coefficient multiplies.  Where the
entry's z exponents go is the only difference between the three
contractions built on the step:

* constant L: nowhere; the key is (x | y | params), width 2n;
* polynomial L, fully contracted: in w-variables after y, which no step
  differentiates; the key is (x | y | w | params), width 3n;
* polynomial L, iterated: in the y-variables, where later steps
  differentiate it; the key is (x | y | params), width 2n.

The width counts the z positions only.  The coupling multiplies every step
once, so it is folded into the entries: each of its terms shifts the
parameter tail and scales the coefficient.

Every key is one packed int (:func:`starquant.poly.key_weights`): the
width z fields, w bits each, at the low end, the parameter tail above them
and mu on top.  A step's shift is packed the same way, so applying it is
one int add; x_a and y_b are read as ``key >> (w * a) & (2^w - 1)``, and
the kernel's steps are grouped by row a so that a key reads x_a once per
row.  The collapse to n-variable keys adds the masked groups of fields
(x + y, or x + y + w) and moves the tail down.  The width w is not fixed:
each contraction takes it from a bound on every field it can build, the
two operands' largest exponents plus the step cap (the degrees plus 4)
times the kernel's largest shift (:func:`_orders`), and each run of the
kernel (:func:`_states`) packs its steps for that width.  A state may
also carry ``low`` bits below the z fields that no step and no collapse
touches: the lambda-relation check
(:func:`starquant.grading.check_lambda_relation`) keeps the index of a
monomial pair there, so that one state holds every pair.

The state of an order is a ``MultiPoly``'s own layout with packed keys
(:mod:`starquant.poly`): integer numerator maps ``re`` and ``im`` over one
denominator ``den`` for the whole order.  The kernel (:func:`_entries`)
stores its coefficients the same way, over the lcm ``D`` of their
denominators, so a step multiplies Python ints only -- numerator times the
two exponents times the kernel numerator.  It is built from one numerator
map of all the matrix's entries, keyed by (a, b, *key), with one product
by the coupling and one reduction to lowest terms.  One generator
advances a state order by order (:func:`_states`): it multiplies ``den``
by ``D`` and, with a coupling, by k for the 1/k!, and stops on an empty
state.  The products (:func:`_orders`), the left operator of the ODE
oracle and the lambda-relation check all iterate it.  Operands enter by
:meth:`MultiPoly.numerators` and results leave by
:meth:`MultiPoly.from_numerators`, which only repack the keys; a product
summed over all orders (:func:`star`) adds them over the lcm of their
denominators.

For a fixed left factor H the star product is a differential operator in
the right one, L_H = sum_beta P_beta d^beta (:func:`_left_operator`): the
kernel's steps contract H alone, except that a step raises a derivative
count beta_b in the y_b field (:func:`_raise_step`).  beta stays the
packed y block it is read as, n fields at the state's width.  Each order
builds the derivative map d^beta F of its state on first use, once per
beta of the operator: the keys e >= beta, scaled by the falling factorials
prod_i e_i!/(e_i - beta_i)!, each map from the one with a count less in
beta's top field (:class:`_Derivatives`).  P_beta is a pair of numerator
maps keyed by packed shift, so applying it is one product of maps, as in
a ``MultiPoly`` product (:func:`starquant.poly._add_products`): a term
adds its shift to every key of d^beta F.  One generator runs F_k =
L F_(k-1) / k in lowest terms (:func:`_exponential`).
The ODE oracle (:func:`ode_star_exponential`) takes orders 0..N of it for
L = L_H.  On a constant lambda it keeps only the even contraction orders
of H in L_H: the k-th order is odd in its two factors, B_k(g, f) =
(-1)^k B_k(f, g), and every F_k commutes with H, so the odd orders of
H (*) F_k sum to zero.  The ordering intertwiner exp(c sum_ij K_ij d_i d_j)
(:func:`intertwine`) is the same exponential of a left operator with
constant coefficients, beta = e_i + e_j, whose orders are summed once.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import combinations_with_replacement, count, islice
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import PreconditionError
from .poly import (
    I_HBAR_HALF,
    MultiPoly,
    _add_key_products,
    _add_products,
    _complex,
    _lowest,
    _order_sum,
    key_weights,
    key_width,
)
from .scalars import GaussianRational, gr, rat
from .series import TruncSeries

if TYPE_CHECKING:  # matrices imports this module
    from .matrices import OrderingK

# scalar i*hbar/4, the exponent coupling of the ordering intertwiner
I_HBAR_QUARTER = MultiPoly.param("hbar", 1, GaussianRational(0, rat(1, 4)))


def _block(m: int, upper: int, lower: int) -> tuple:
    """The 2m x 2m block matrix [[0, upper I], [lower I, 0]] of GaussianRational."""
    n = 2 * m
    return tuple(
        tuple(gr(upper if j == m + i else lower if i == m + j else 0) for j in range(n))
        for i in range(n)
    )


def standard_j(m: int) -> tuple:
    """The 2m x 2m block matrix [[0, -I], [I, 0]] over GaussianRational."""
    return _block(m, -1, 1)


def _negated(p: MultiPoly, q: MultiPoly) -> bool:
    """Whether p = -q, read on the canonical fields: the same denominator
    and negated numerator maps, so a diagonal entry passes only when zero."""
    return p.den == q.den and all(
        len(x) == len(y) and all(y.get(key) == -v for key, v in x.items())
        for x, y in ((p.re, q.re), (p.im, q.im))
    )


class StarContext:
    """The quantization datum: variable count, structure matrix, coupling.

    ``lam`` is an n x n antisymmetric matrix of polynomials; ``coupling`` is
    the nonzero scalar (a 0-variable MultiPoly) multiplying each
    contraction step.
    ``constant_lambda`` records whether every entry has degree <= 0, which
    enables the fast contraction path and the ordering operations.
    """

    __slots__ = ("n", "lam", "coupling", "constant_lambda")

    def __init__(self, n: int, lam, coupling: MultiPoly):
        rows = tuple(tuple(row) for row in lam)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("lambda must be an n x n matrix")
        for row in rows:
            for p in row:
                if not isinstance(p, MultiPoly) or p.n != n:
                    raise ValueError("lambda entries must be MultiPoly in n variables")
        if not all(_negated(rows[i][j], rows[j][i]) for i in range(n) for j in range(i, n)):
            raise PreconditionError("lambda must be antisymmetric as a matrix of polynomials")
        if not coupling:
            raise PreconditionError("coupling must be nonzero")
        if coupling.n != 0:
            raise ValueError("coupling must be a scalar")
        constant = all(p.degree() <= 0 for row in rows for p in row)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", rows)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "constant_lambda", constant)

    def __setattr__(self, name, value):
        raise AttributeError("StarContext is immutable")

    @classmethod
    def constant(cls, entries, coupling: MultiPoly) -> "StarContext":
        """Context from a constant matrix (GaussianRational or scalar entries)."""
        n = len(entries)
        rows = tuple(
            tuple(
                MultiPoly.from_gaussian(v, n)
                if isinstance(v, GaussianRational)
                else MultiPoly.const(n, v)
                for v in row
            )
            for row in entries
        )
        return cls(n, rows, coupling)

    @classmethod
    def weyl(cls, m: int) -> "StarContext":
        """The 2m-variable Weyl context: lambda = [[0,-I],[I,0]], coupling i*hbar/2."""
        return cls.constant(standard_j(m), I_HBAR_HALF)

    def scalar_entries(self) -> tuple:
        """Constant lambda as a matrix of scalars (requires constant_lambda)."""
        if not self.constant_lambda:
            raise PreconditionError("lambda is not constant")
        return tuple(
            tuple(p.constant_coefficient() for p in row) for row in self.lam
        )


# --- contraction engine ------------------------------------------------


class _Kernel(NamedTuple):
    """The contraction steps of a matrix of polynomials, on integers.

    ``width`` is the number of z positions of a state key.  ``re`` and
    ``im`` hold the real and imaginary parts of the steps as integer
    numerators over the common denominator ``den``, grouped by row: each
    is a list of (a, [(n + b, shift, numerator), ...]) (see
    :func:`_entries`); the order of the rows, and of the steps within a
    row, is that of the built map and means nothing.  ``factorial`` is
    True when a coupling is folded in, so that order k also carries 1/k!.
    ``reach`` is the largest exponent a shift adds to any field.  The steps
    are packed for a field width by each run of :func:`_states`, since
    every kernel is built for one product, exponential or check and run
    once.
    """

    width: int
    den: int
    re: list
    im: list
    factorial: bool
    reach: int


def _entries(n: int, lam, offset: int | None, coupling=None) -> _Kernel:
    """The contraction kernel of a matrix of polynomials.

    There is one step per term of a nonzero entry, (n + b, shift, coef) in
    row a: it applies where x_a and y_b are present.  A shift is the
    exponent delta of a key of ``width`` z positions plus the parameter
    tail: -1 at x_a and at y_b, the term's z exponents starting at
    ``offset`` (None when every entry is constant), and its parameter
    exponents in the tail.  A scalar ``coupling`` multiplies every step
    once, so it multiplies every entry first.  Every entry goes into one
    numerator map keyed by (a, b, *key) over the lcm of the entries'
    denominators, which one product folds the coupling into; in lowest
    terms its denominator is the lcm of the denominators of the steps.
    """
    width = 3 * n if offset == 2 * n else 2 * n
    entries = [(a, b, p) for a, row in enumerate(lam) for b, p in enumerate(row) if p]
    den = lcm(*(p.den for _, _, p in entries))
    re: dict = {}
    im: dict = {}
    for a, b, p in entries:
        m = den // p.den
        for out, part in ((re, p.re), (im, p.im)):
            for key, v in part.items():
                out[(a, b, *key)] = v * m
    if coupling is not None:
        pad = (0,) * (n + 2)
        c = [{pad + tail: v for tail, v in part.items()} for part in (coupling.re, coupling.im)]
        re, im = _complex(_add_key_products, [((re, im), c, 1)])
        den *= coupling.den
    re, im, den = _lowest(re, im, den)
    reach = 0
    parts = []
    for part in (re, im):
        rows: dict = {}
        for (a, b, *key), v in part.items():
            shift = [0] * width
            if offset is not None:
                shift[offset : offset + n] = key[:n]
            shift[a] -= 1
            shift[n + b] -= 1
            shift = (*shift, *key[n:])
            reach = max(reach, *shift)
            rows.setdefault(a, []).append((n + b, shift, v))
        parts.append(list(rows.items()))
    return _Kernel(width, den, *parts, coupling is not None, reach)


def _full_entries(ctx: StarContext, coupling=None) -> _Kernel:
    """:func:`_entries` of the fully contracted form of ``ctx``."""
    return _entries(
        ctx.n, ctx.lam, None if ctx.constant_lambda else 2 * ctx.n, coupling
    )


def _iterated_entries(ctx: StarContext) -> _Kernel:
    """:func:`_entries` of the iterated form of ``ctx``."""
    return _entries(ctx.n, ctx.lam, ctx.n)


def _step(out: dict, state: dict, rows: list, sign: int, mask: int) -> None:
    for key, v in state.items():
        for sa, row in rows:
            ea = key >> sa & mask
            if not ea:
                continue
            va = sign * v * ea
            for sb, shift, c in row:
                eb = key >> sb & mask
                if eb:
                    k = key + shift
                    out[k] = out.get(k, 0) + va * eb * c


def _states(kernel: _Kernel, w: int, re: dict, im: dict, den: int, low: int = 0, step=_step):
    """Yield the state of every contraction order, order 0 (the given
    numerator maps over ``den``) first, as (re, im, den), until a state is
    empty.

    A step (:func:`_step`) runs every step (a, b, shift) of the kernel (see
    :func:`_entries`) on every key with positive exponents at positions a
    and b: it differentiates both, so it scales by the two exponents, and
    multiplies by the matrix entry, whose shift is one int add on keys
    packed at field width w above ``low`` bits, which it keeps.  The
    kernel's rows are packed for w and ``low`` first: (a * w + low,
    [(b * w + low, shift, numerator), ...]) per row a, each shift one
    packed int with its low bits 0.  Order k's denominator is order k - 1's
    times ``kernel.den``, and times k when a folded coupling carries 1/k!.
    :func:`_left_operator` passes :func:`_raise_step` as ``step``.
    """
    step = partial(step, mask=(1 << w) - 1)
    weights = key_weights(kernel.width, w)
    rows = [
        [
            (
                a * w + low,
                [(b * w + low, sum(map(mul, s, weights)) << low, c) for b, s, c in row],
            )
            for a, row in part
        ]
        for part in (kernel.re, kernel.im)
    ]
    for k in count(1):
        yield re, im, den
        re, im = _complex(step, [((re, im), rows, 1)])
        if not re and not im:
            return
        den *= kernel.den * k if kernel.factorial else kernel.den


def _collapse(n: int, width: int, w: int, state: dict, low: int = 0) -> dict:
    """Identify the n-variable groups of every packed key (x, y and w all
    become z), keep the ``low`` bits below them and the parameter tail
    above them, and sum the numerators: the keys come out packed in n z
    fields at the same width, above the same low bits."""
    block = n * w
    base = block + low
    mask = (1 << base) - 1
    gmask = mask >> low << low
    top = width * w + low
    groups = range(block, width * w, block)
    acc: dict = {}
    for k, v in state.items():
        key = (k >> top << base) + (k & mask)
        for s in groups:
            key += k >> s & gmask
        acc[key] = acc.get(key, 0) + v
    return acc


def _orders(kernel: _Kernel, f: MultiPoly, g: MultiPoly):
    """Yield the contraction terms of f and g, order 0 first, each as the
    collapsed (re, im, den, w) numerator maps over one denominator, keyed
    by n-variable keys packed at field width w.

    Term k carries coupling^k/k! when the kernel has a coupling folded in
    (the 1/k goes into the denominator), and is the bare k-fold contraction
    otherwise.  Every field of every key, collapsed or not, is at most
    the two operands' largest exponents plus ``cap`` times the kernel's
    reach, because no more than ``cap`` steps run; w holds that bound.
    """
    n = f.n
    width = kernel.width
    # every step lowers the left-slot degree, so this bound is never reached
    cap = max(f.degree(), 0) + max(g.degree(), 0) + 4
    w = key_width(f.max_exponent() + g.max_exponent() + cap * kernel.reach)
    fx = f.numerators(w, width)
    gx = g.numerators(w, width, n)
    re, im = _complex(_add_products, [(fx, gx, 1)])
    for k, (re, im, den) in enumerate(_states(kernel, w, re, im, fx[2] * gx[2])):
        if k > cap:
            raise PreconditionError(
                f"contraction did not terminate within {cap} steps"
            )
        yield _collapse(n, width, w, re), _collapse(n, width, w, im), den, w


def _contraction(kernel: _Kernel, f: MultiPoly, g: MultiPoly):
    """Yield the contraction terms of f and g as polynomials, order 0 first."""
    for re, im, den, w in _orders(kernel, f, g):
        yield MultiPoly.from_numerators(f.n, re, im, den, w)


def _star(kernel: _Kernel, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The sum of all contraction terms of f and g."""
    orders = list(_orders(kernel, f, g))
    re, im, den = _order_sum(orders)
    return MultiPoly.from_numerators(f.n, re, im, den, orders[-1][3])


def star_terms(ctx: StarContext, f: MultiPoly, g: MultiPoly) -> list:
    """The list of contraction-order terms of f (*) g (term k includes
    the factor coupling^k/k!); their sum is the star product."""
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("variable count mismatch with context")
    return list(_contraction(_full_entries(ctx, ctx.coupling), f, g))


def iterated_terms(
    ctx: StarContext, f: MultiPoly, g: MultiPoly, k_max: int
) -> list:
    """Orders 0..k_max of the iterated one-step biderivation of f and g.

    Unlike :func:`star_terms`, the matrix entry multiplied in at each step
    sits in the right-slot variables, where later steps differentiate it;
    term k carries no coupling and no 1/k!.  The list ends early once an
    order vanishes.
    """
    return list(islice(_contraction(_iterated_entries(ctx), f, g), k_max + 1))


def star(ctx: StarContext, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The star product of two polynomials."""
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("variable count mismatch with context")
    return _star(_full_entries(ctx, ctx.coupling), f, g)


def star_commutator(ctx: StarContext, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    return star(ctx, f, g) - star(ctx, g, f)


def star_k_ordered(
    ctx: StarContext, K: OrderingK, f: MultiPoly, g: MultiPoly
) -> MultiPoly:
    """The K-ordered product: the contracted expansion with matrix lam + K.

    Requires a constant structure matrix and a symmetric K of matching size.
    Each entry of K enters lam + K as the constant of its integer numerators
    over K's one denominator.
    """
    if not ctx.constant_lambda:
        raise PreconditionError("K-ordered products require a constant lambda")
    if K.dim != ctx.n:
        raise ValueError("ordering matrix size mismatch")
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("variable count mismatch with context")
    n = ctx.n
    mixed = [
        [p + MultiPoly.number(n, re, im, K.den) for p, re, im in zip(*row)]
        for row in zip(ctx.lam, K.re, K.im)
    ]
    return _star(_entries(n, mixed, None, ctx.coupling), f, g)


def intertwine(
    K: OrderingK, f: MultiPoly, coupling: MultiPoly | None = None
) -> MultiPoly:
    """Apply the ordering intertwiner exp(coupling * sum_ij K_ij d_i d_j) to f.

    The sum is finite because each application of the second-order operator
    lowers the degree by 2.  The default coupling is i*hbar/4, the value
    under which the intertwiner converts between the plain product and the
    K-ordered product.

    The exponent is a left operator with constant coefficients (see
    :func:`_left_operator`): for i <= j, P_beta at the packed beta =
    e_i + e_j is K_ij + K_ji (K_ii once) at shift -beta, which lowers z_i
    and z_j, times the coupling, whose terms add their parameter
    exponents: one product of K's integer numerators and the coupling's,
    over the product of their denominators.  A zero entry of K gives no
    beta.  Its orders (:func:`_exponential`) are summed once.  Width: at
    most deg f // 2 orders follow f, each adding at most the coupling's
    largest exponent to the hbar and tau fields, while the z fields only
    fall; and beta = 2 e_i needs a field that holds 2.
    """
    if coupling is None:
        coupling = I_HBAR_QUARTER
    n = K.dim
    if f.n != n:
        raise ValueError("variable count mismatch with ordering matrix")
    w = key_width(max(f.max_exponent() + max(f.degree(), 0) // 2 * coupling.max_exponent(), 2))
    cparts = coupling.numerators(w, n)
    operator = []
    for i, j in combinations_with_replacement(range(n), 2):
        m = 1 if i == j else 2
        beta = (1 << w * i) + (1 << w * j)
        entry = ({-beta: m * K.re[i][j]}, {-beta: m * K.im[i][j]})
        p = _complex(_add_products, [(entry, cparts, 1)])
        if any(p):
            operator.append((beta, p))
    orders = _exponential((operator, K.den * cparts[2]), w, *f.numerators(w))
    re, im, den = _order_sum(list(orders))
    return MultiPoly.from_numerators(n, re, im, den, w)


class LinearExpFactor(NamedTuple):
    """Symbolic prefactor exp(sign * s * <a, u> / (i*hbar)).

    Only the data (covector, scalar, sign) is carried; the exponential is
    never expanded into the polynomial algebra.
    """

    covector: tuple
    scale: MultiPoly
    sign: int


def exp_linear_product(
    ctx: StarContext,
    K: OrderingK,
    a: Sequence[GaussianRational],
    s: MultiPoly,
    f: MultiPoly,
    side: str,
) -> tuple:
    """Product of a linear exponential with f under the K-ordered product.

    ``side`` is "left" for exp(s<a,u>/ih) (*) f, which shifts the argument
    of f by (s/2) a (K + J); "right" for f (*) exp(-s<a,u>/ih), which
    shifts by (s/2) a (-K + J).  Returns (prefactor descriptor, shifted f).
    """
    if not ctx.constant_lambda:
        raise PreconditionError("linear-exponential products require constant lambda")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if len(a) != ctx.n or K.dim != ctx.n or f.n != ctx.n:
        raise ValueError("dimension mismatch")
    jmat = ctx.scalar_entries()
    sign = 1 if side == "left" else -1
    k = K if sign == 1 else -K  # sign * K
    half_s = s.scale_rat(rat(1, 2))
    offsets = []
    for b in range(ctx.n):
        acc = MultiPoly.zero(0)
        for al in range(ctx.n):
            if not a[al]:
                continue
            m_ab = jmat[al][b] + MultiPoly.number(0, k.re[al][b], k.im[al][b], k.den)
            acc = acc + m_ab.scale_gauss(a[al])
        offsets.append(acc * half_s)
    shifted = f.shift(offsets)
    prefactor = LinearExpFactor(tuple(a), s, sign)
    return prefactor, shifted


def _raise_step(out: dict, state: dict, rows: list, sign: int, mask: int) -> None:
    """:func:`_step` with the right factor left symbolic: lower x_a and scale
    by its exponent, but raise the derivative count beta_b in the y_b field
    (the shift lowers it by 1, so add 2 there)."""
    for key, v in state.items():
        for sa, row in rows:
            ea = key >> sa & mask
            if ea:
                va = sign * v * ea
                for sb, shift, c in row:
                    k = key + shift + (2 << sb)
                    out[k] = out.get(k, 0) + va * c


def _left_operator(kernel: _Kernel, h: MultiPoly, w: int, even: bool) -> tuple:
    """(operator, den): the left star operator F -> h (*) F of the kernel,
    for keys of n z fields packed at field width w, as a list of (beta,
    (re, im)) over the one denominator ``den``: beta is the packed y block
    of derivative counts, and re and im are the integer numerator maps of
    P_beta, keyed by packed shift.

    The orders of h are contracted by :func:`_states` with the right
    factor left symbolic (:func:`_raise_step`) and summed in lowest terms,
    only the even ones when ``even``; then the keys are grouped by beta,
    whose weight is the order, and each group's x, y and w collapse into
    one n-variable key (:func:`_collapse`): the shift plus 2 beta, since y
    holds beta.  A beta whose terms all cancel is left out.  ``even`` needs a constant matrix
    and an F that commutes with h: the k-th order is odd in its factors,
    B_k(F, h) = (-1)^k B_k(h, F), as swapping a_i and b_i in its k entries
    negates each, so h (*) F - F (*) h is twice the odd orders of h (*) F.
    w must hold every field of every key built (see
    :func:`ode_star_exponential`).
    """
    n = h.n
    block = n * w
    mask = (1 << block) - 1
    orders = _states(kernel, w, *h.numerators(w, kernel.width), step=_raise_step)
    re, im, den = _lowest(*_order_sum(list(islice(orders, 0, None, 2) if even else orders)))
    groups: dict = defaultdict(lambda: ({}, {}))
    for i, part in enumerate((re, im)):
        for key, v in part.items():
            groups[key >> block & mask][i][key] = v
    operator = []
    for beta, parts in groups.items():
        p = tuple(
            {key - 2 * beta: v for key, v in _collapse(n, kernel.width, w, part).items() if v}
            if part else {}
            for part in parts
        )
        if any(p):
            operator.append((beta, p))
    return operator, den


class _Derivatives(dict):
    """{beta: d^beta F} for one numerator map F on keys packed at field
    width w, each map built on first use: beta = 0 is F itself, and any
    other beta (packed like a key, see :func:`_left_operator`) is built
    from the map with one count less in its top field, at shift s with
    count b + 1 there.  d^beta F holds the keys e >= beta of F with the
    value v * prod_i e_i!/(e_i - beta_i)!, and e!/(e - b - 1)! =
    e!/(e - b)! * (e - b) for e > b."""

    __slots__ = ("w",)

    def __init__(self, state: dict, w: int):
        super().__init__({0: state})
        self.w = w

    def __missing__(self, beta: int) -> dict:
        w = self.w
        s = (beta.bit_length() - 1) // w * w
        b = (beta >> s) - 1
        mask = (1 << w) - 1
        self[beta] = out = {
            key: v * (e - b) for key, v in self[beta - (1 << s)].items() if (e := key >> s & mask) > b
        }
        return out


def _exponential(operator: tuple, w: int, re: dict, im: dict, den: int):
    """Yield F_0 = (re, im, den), then F_k = L F_(k-1) / k for the left
    operator L = ``operator`` (see :func:`_left_operator`) on keys packed at
    field width w, each as (re, im, den) in lowest terms, until F_k is
    empty.  Each order builds the derivative maps d^beta F_(k-1) that L
    needs on first use (:class:`_Derivatives`), none of an empty part, and
    multiplies each P_beta into its map: a term's shift adds to every key
    of the map, and its coefficient multiplies the value."""
    terms, lden = operator
    for k in count(1):
        yield re, im, den
        dre, dim = (_Derivatives(part, w) if part else defaultdict(dict) for part in (re, im))
        re, im = _complex(_add_products, [(p, (dre[beta], dim[beta]), 1) for beta, p in terms])
        if not re and not im:
            return
        re, im, den = _lowest(re, im, den * lden * k)


def ode_star_exponential(ctx: StarContext, H: MultiPoly, N: int) -> TruncSeries:
    """Term-by-term star-exponential series: F0 = 1, F_{k+1} = H (*) F_k / (k+1).

    This recursion is the independent oracle against which all closed-form
    expressions are checked.  For a fixed left factor the star product is a
    differential operator in the right one, H (*) F = sum_beta P_beta
    d^beta F (Bayen, Flato, Fronsdal, Lichnerowicz & Sternheimer, Ann.
    Phys. 111, 1978), so that operator L_H is built once from the engine's
    kernel (:func:`_left_operator`) and applied at every order, on integer
    numerators in lowest terms: each order forms every derivative map
    d^beta F_k that L_H needs once, on first use, for beta packed like a
    key (:class:`_Derivatives`), and each P_beta multiplies into its map
    as one product of numerator maps.  It has at most deg H + 1 orders,
    for a constant or a polynomial lambda alike, because the fully
    contracted kernel never differentiates the entries.  The orders are
    returned unpacked, as polynomials.

    On a constant lambda L_H keeps only the even orders of H.  The k-th
    order is odd in its factors, B_k(F, H) = (-1)^k B_k(H, F), since
    lambda is antisymmetric; the product is associative, so every F_k, a
    star polynomial in H, commutes with H, and H (*) F_k - F_k (*) H =
    2 sum_(k odd) B_k(H, F_k) = 0.  A polynomial lambda's fully contracted
    product is not associative, so it keeps every order.

    Width: a step lowers x, so at most deg H steps run, each adding 1 to
    one beta field and at most the kernel's reach to the w and tail
    fields; every field that builds L_H is at most B = H.max_exponent() +
    deg H * max(reach, 1).  Every term of L_H adds at most B to a z, hbar
    or tau field of F_k, and e >= beta keeps the z fields non-negative, so
    every field of F_N is at most N * B.  mu sits on top and may be
    negative.
    """
    if H.n != ctx.n:
        raise ValueError("variable count mismatch with context")
    n = ctx.n
    kernel = _full_entries(ctx, ctx.coupling)
    steps = max(H.degree(), 0)
    w = key_width(max(N, 1) * (H.max_exponent() + steps * max(kernel.reach, 1)))
    operator = _left_operator(kernel, H, w, ctx.constant_lambda)
    orders = list(islice(_exponential(operator, w, {0: 1}, {}, 1), N + 1))
    coeffs = [MultiPoly.from_numerators(n, re, im, den, w) for re, im, den in orders]
    return TruncSeries(n, N, coeffs + [MultiPoly.zero(n)] * (N + 1 - len(coeffs)))
