"""Pass/fail reports shared by the matrix calculus and the validators."""

from __future__ import annotations

from typing import NamedTuple


class CheckReport(NamedTuple):
    """Outcome of an exact check.

    ``first_divergence_order`` is the lowest t-order (or contraction order)
    at which two compared expansions differ, when applicable.  ``witness``
    carries a JSON-serializable description of the first failing input for
    validator sweeps.
    """

    passed: bool
    first_divergence_order: int | None = None
    witness: object = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "pass": self.passed,
            "first_divergence_order": self.first_divergence_order,
            "residual_norm": "exact-zero" if self.passed else "nonzero",
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out
