"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, output/IO failures with 4.
"""


class FracResolventError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FracResolventError):
    """Invalid parameters, config files, or cross-field constraint violations."""


class NumericalError(FracResolventError):
    """A numerical operation failed or left its validated regime."""


class RefinementNeededError(NumericalError):
    """A quadrature or time grid cannot meet the requested tolerance.

    Carries the suggested node count (or achieved delta) so callers can
    retry with a refined discretization.
    """

    def __init__(self, message, suggested_n_nodes=None, achieved=None):
        super().__init__(message)
        self.suggested_n_nodes = suggested_n_nodes
        self.achieved = achieved


class EvaluationError(NumericalError):
    """An integrand returned a non-finite value at a quadrature node."""

    def __init__(self, message, node=None, index=None):
        super().__init__(message)
        self.node = node
        self.index = index


class SingularMatrixError(NumericalError):
    """A pivot vanished during elimination."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class IllConditionedError(NumericalError):
    """A solve missed the backward-error target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BranchCutError(NumericalError):
    """Principal-branch power requested on the cut (-inf, 0]."""


class OutputError(FracResolventError):
    """CSV/SVG emission failed."""
