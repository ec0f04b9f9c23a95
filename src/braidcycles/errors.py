"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input to a library operation (bad tree, sequence, index, ...)."""


class TreeError(DomainError):
    """Malformed tree text or an invalid tree structure."""


class AlgebraError(DomainError):
    """Invalid generator, monomial, or expression for the cohomology ring."""


class RewriteBudgetError(DomainError, RuntimeError):
    """Cyclic-triple rewriting exceeded its rotation budget."""
