"""Exception types shared across the library."""


class HeisminError(Exception):
    """Base class for all library errors."""


class SingularPoint(HeisminError):
    """Evaluation requested at (or too close to) a singular locus."""


class BlowUp(HeisminError):
    """Numerical trajectory exceeded the overflow guard; a singular
    coordinate value is nearby."""

    def __init__(self, x, message=None):
        self.x = x
        super().__init__(message or f"trajectory blow-up near x = {x}")


class StepLimit(HeisminError):
    """An RK4 sweep would take more steps than the library allows."""


class DegenerateBranch(HeisminError):
    """The conserved quantity is undefined on this solution branch."""


class MixedType(HeisminError):
    """A model has no single surface type: the x-window is missing or
    meets the singular curves, or two y-slices have different types."""


class QuadratureFailure(HeisminError):
    """An integrand evaluated non-finite along the quadrature path, or a
    cumulative integral too flat to tell two of its samples apart."""


class BadRotation(HeisminError):
    """Rotation coefficients (A, B) do not satisfy A^2 + B^2 = 1."""


class DegenerateChart(HeisminError):
    """The ruled chart fails to be an immersion at the requested point."""


class PreconditionFailed(HeisminError):
    """A check was requested at a point where its hypotheses fail."""


class NewtonDivergence(HeisminError):
    """Newton refinement failed to converge from the given seed."""


class EvaluationError(HeisminError):
    """A function evaluated outside its domain or beyond the float range;
    the message names the point, such as "y = 0.5"."""

    def __init__(self, point, cause):
        super().__init__(f"cannot evaluate at {point}: {cause}")


class NonFiniteResult(HeisminError):
    """A figure of a report is nan or infinite, which JSON cannot hold."""


class ExprSyntaxError(HeisminError):
    """Malformed expression source.

    Attributes:
        offset: byte offset of the error in the source text.
        expected: short description of what the parser expected.
    """

    def __init__(self, offset, expected):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")
