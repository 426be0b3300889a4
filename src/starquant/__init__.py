"""starquant: exact star products on polynomial algebras.

Exact-arithmetic engine for Moyal-type star products on sparse multivariate
polynomials, closed-form star exponentials of quadratic forms via
Cayley-transform series, ordering intertwiners, a one-variable Riccati
reduction, and grading/validation utilities.  Every closed form ships with
an independent term-by-term series oracle and is compared exactly.
"""

from .errors import PreconditionError, SchemaError
from .grading import (
    GradedElement,
    check_jacobi,
    check_lambda_relation,
    decompose,
    h0_dim,
    specialize_mu,
    star_graded,
)
from .matrices import (
    MatSeries,
    OrderingK,
    SqMatrix,
    cayley,
    check_sp_pair,
    closed_form_vs_oracle,
    closed_star_exponential,
    expand_closed_form,
    inverse_cayley,
    mat_exp_series,
    riccati_1d,
    riccati_vs_moyal,
    solve_g,
    solve_q,
    tanh_series,
)
from .poly import MultiPoly, quadratic_form
from .reports import CheckReport
from .scalars import GaussianRational, gr, rat
from .series import TruncSeries
from .star import (
    StarContext,
    exp_linear_product,
    intertwine,
    ode_star_exponential,
    standard_j,
    star,
    star_commutator,
    star_k_ordered,
    star_terms,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "GradedElement",
    "GaussianRational",
    "MatSeries",
    "MultiPoly",
    "OrderingK",
    "PreconditionError",
    "SchemaError",
    "SqMatrix",
    "StarContext",
    "TruncSeries",
    "cayley",
    "check_jacobi",
    "check_lambda_relation",
    "check_sp_pair",
    "closed_form_vs_oracle",
    "closed_star_exponential",
    "decompose",
    "exp_linear_product",
    "expand_closed_form",
    "gr",
    "h0_dim",
    "intertwine",
    "inverse_cayley",
    "mat_exp_series",
    "ode_star_exponential",
    "quadratic_form",
    "rat",
    "riccati_1d",
    "riccati_vs_moyal",
    "solve_g",
    "solve_q",
    "specialize_mu",
    "standard_j",
    "star",
    "star_commutator",
    "star_graded",
    "star_k_ordered",
    "star_terms",
    "tanh_series",
]
