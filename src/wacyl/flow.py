"""The failure classes of a numerical run: what the CLI exits 3 on.

The ODE layer that gave the module its name (the flow of omega + f on
the torus, its Jacobian, the fundamental matrix of the transport system
and their Gronwall growth check) reaches no command; it lives with the
test oracles (`tests/oracles.py`) and the calibration sweeps
(`tests/calibration.py`).
"""

from __future__ import annotations

__all__ = ["NumericalError", "IntegrationError", "NormBudgetError"]


class NumericalError(Exception):
    """A numerical failure (CLI exit code 3), as opposed to bad input."""


class IntegrationError(NumericalError):
    pass


class NormBudgetError(NumericalError):
    """A norm precondition failed; carries the measured value."""

    def __init__(self, name, measured, budget):
        super().__init__(f"{name} = {measured:.3e} exceeds budget "
                         f"{budget:.3e}")
        self.name = name
        self.measured = measured
        self.budget = budget
