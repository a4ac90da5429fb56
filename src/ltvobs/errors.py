"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: scenario/validation problems
exit with 2, violated pipeline-step preconditions with 3, and numerical
failures (non-finite values, rank collapse, singular normal matrices)
with 4.
"""


class ExprError(ValueError):
    """Malformed expression text.

    Carries the offending position, or the ``entry`` (i, j) of a matrix too deep to compile.
    """

    def __init__(self, message, position=None, entry=None):
        super().__init__(message)
        self.position = position
        self.entry = entry


class ScenarioError(ValueError):
    """Scenario file fails schema or dimension validation."""


class StepPreconditionError(RuntimeError):
    """A pipeline stage ran before its prerequisites held.

    ``step`` names the design-procedure stage (i..vi) whose output is
    missing or whose check failed.
    """

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


class NumericalError(ArithmeticError):
    """Numerical breakdown: non-finite values, lost rank, failed factorization."""
