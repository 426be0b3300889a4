"""The refusals of the public API that no command reaches: each raises its
own exception type with its own message."""

import re

import pytest

from starquant.errors import PreconditionError
from starquant.matrices import (
    MatSeries,
    OrderingK,
    SqMatrix,
    check_sp_pair,
    closed_star_exponential,
    solve_g,
    solve_q,
)
from starquant.poly import HALF_MU, MU, MultiPoly
from starquant.scalars import gr
from starquant.star import (
    StarContext,
    intertwine,
    ode_star_exponential,
    star_k_ordered,
)
from starquant.verify import SUITES, run_suite

I2, I3 = SqMatrix.identity(2), SqMatrix.identity(3)
J2 = SqMatrix(((gr(0), gr(1)), (gr(-1), gr(0))))
Z2 = [MultiPoly.variable(2, j) for j in range(2)]
WEYL = StarContext.weyl(1)

CASES = [
    pytest.param(lambda: SqMatrix(((gr(1), gr(2)),)), ValueError,
                 "matrix must be square", id="sqmatrix-not-square"),
    pytest.param(lambda: MatSeries(2, 0, [I2]).dt(), PreconditionError,
                 "cannot differentiate an order-0 series", id="matseries-dt-order-0"),
    pytest.param(lambda: check_sp_pair(I2, I2), PreconditionError,
                 "lambda must be antisymmetric", id="sp-pair-symmetric-lambda"),
    pytest.param(lambda: check_sp_pair(SqMatrix.zero(2), I2), PreconditionError,
                 "lambda must be invertible", id="sp-pair-singular-lambda"),
    pytest.param(lambda: solve_q(I2, I3, 2), ValueError,
                 "dimension mismatch", id="solve-q-dims"),
    pytest.param(lambda: solve_g(I2, I3, 2), ValueError,
                 "dimension mismatch", id="solve-g-dims"),
    pytest.param(lambda: closed_star_exponential(J2, I3, 2), ValueError,
                 "dimension mismatch", id="closed-form-dims"),
    pytest.param(lambda: intertwine(OrderingK.normal(1), MultiPoly.variable(3, 0)), ValueError,
                 "variable count mismatch with ordering matrix", id="intertwine-dims"),
    pytest.param(lambda: star_k_ordered(WEYL, OrderingK.weyl(3), Z2[0], Z2[1]), ValueError,
                 "ordering matrix size mismatch", id="k-ordered-k-dims"),
    pytest.param(lambda: star_k_ordered(WEYL, OrderingK.weyl(2), Z2[0], MultiPoly.one(3)),
                 ValueError, "variable count mismatch with context", id="k-ordered-f-dims"),
    pytest.param(lambda: ode_star_exponential(WEYL, MultiPoly.variable(3, 0), 2), ValueError,
                 "variable count mismatch with context", id="ode-dims"),
    pytest.param(lambda: StarContext(2, [[MultiPoly.zero(2)] * 2], HALF_MU), ValueError,
                 "lambda must be an n x n matrix", id="context-shape"),
    pytest.param(lambda: StarContext(1, [[gr(0)]], HALF_MU), ValueError,
                 "lambda entries must be MultiPoly in n variables", id="context-entry"),
    pytest.param(lambda: StarContext(1, [[MultiPoly.zero(1)]], MultiPoly.const(1, MU)),
                 ValueError, "coupling must be a scalar", id="context-coupling"),
    pytest.param(lambda: MultiPoly.from_json(1, [{"exps": [1], "coef": {"params": {"nu": 1},
                                                                          "value": "1"}}]),
                 ValueError, "unknown parameter 'nu'", id="from-json-parameter"),
    pytest.param(lambda: run_suite("nope"), ValueError,
                 f"unknown suite 'nope'; choose from {sorted(SUITES)}", id="unknown-suite"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_api_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
