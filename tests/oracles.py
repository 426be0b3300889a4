"""Oracles of the tests that no command runs.

Each computes what a function of the package must give by another route:
``jacobi_by_brackets`` is ``grading.check_jacobi`` by nested Poisson
brackets, and ``ode_by_products`` is ``star.ode_star_exponential`` by one
engine product per order.  The tests import this module as a sibling.
"""

from itertools import combinations_with_replacement, product

from starquant.poly import MultiPoly, grlex_key
from starquant.reports import CheckReport
from starquant.scalars import rat
from starquant.series import TruncSeries
from starquant.star import StarContext, _full_entries, _star


# --- independent Jacobi sweep by nested brackets -----------------------------


def poisson_bracket(ctx: StarContext, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_ab lambda^ab d_a f d_b g."""
    acc = MultiPoly.zero(ctx.n)
    for a in range(ctx.n):
        df = f.derivative(a)
        if df.is_zero():
            continue
        for b in range(ctx.n):
            entry = ctx.lam[a][b]
            if entry.is_zero():
                continue
            dg = g.derivative(b)
            if dg.is_zero():
                continue
            acc = acc + entry * df * dg
    return acc


def jacobi_by_brackets(ctx: StarContext, d_max: int) -> CheckReport:
    """The report ``grading.check_jacobi`` must give, from nested brackets.

    Sweeps the unordered triples of monomials of degree <= d_max in grlex
    order and computes the cyclic sum {f, {g, h}} + {g, {h, f}} + {h, {f, g}}
    directly, sharing nothing with the trivector that ``check_jacobi``
    evaluates.
    """
    exps = sorted(
        (e for e in product(range(d_max + 1), repeat=ctx.n) if sum(e) <= d_max),
        key=grlex_key,
    )
    monos = [MultiPoly.monomial(ctx.n, e) for e in exps]
    for f, g, h in combinations_with_replacement(monos, 3):
        jac = (
            poisson_bracket(ctx, f, poisson_bracket(ctx, g, h))
            + poisson_bracket(ctx, g, poisson_bracket(ctx, h, f))
            + poisson_bracket(ctx, h, poisson_bracket(ctx, f, g))
        )
        if not jac.is_zero():
            return CheckReport(
                passed=False,
                witness={"f": f.text(), "g": g.text(), "h": h.text()},
                detail="cyclic Jacobi sum is nonzero",
            )
    return CheckReport(passed=True)


# --- the star-exponential recursion by one product per order -----------------


def ode_by_products(ctx: StarContext, H: MultiPoly, N: int) -> TruncSeries:
    """The series ``star.ode_star_exponential`` must give, by one star
    product per order: F0 = 1 and F_{k+1} = H (*) F_k / (k+1), each product
    contracted afresh by the engine from one kernel, which is packed again
    for every product, where ``ode_star_exponential`` builds the left
    operator of H once.
    """
    kernel = _full_entries(ctx, ctx.coupling)
    coeffs = [MultiPoly.one(ctx.n)]
    for k in range(N):
        coeffs.append(_star(kernel, H, coeffs[-1]).scale_rat(rat(1, k + 1)))
    return TruncSeries(ctx.n, N, coeffs)
