"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised on malformed expression text; carries 1-based line/column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InexactDivisionError(ArithmeticError):
    """A quotient that must be exact does not exist: exact_divide's, or a
    factored moving part that fails its product-rule check."""


class DegenerateRestrictionError(ValueError):
    """Restricting to a hyperplane killed a factor identically."""


class ReductionError(ArithmeticError):
    """A rational coefficient cannot be reduced mod p (denominator hits p)."""


class InconsistencyError(RuntimeError):
    """Two routes to the same verdict disagreed; a bug or a bad prime."""


class ResourceBoundError(RuntimeError):
    """A scan was requested beyond the configured exhaustive-mode bound."""
