"""Exception types shared across the package."""


class PegfinderError(Exception):
    """Base class for all pegfinder errors."""


class UnknownCorpusError(PegfinderError, KeyError):
    """Requested corpus entry does not exist; the entry is ``args[0]``."""

    def __str__(self):
        # a KeyError prints the repr of its key; this one prints a message
        return f"unknown corpus entry {self.args[0]!r}; pegfinder corpus-list lists them"


class DomainError(PegfinderError, ValueError):
    """Input violates a documented precondition (ordering, simplex, guards)."""


class DegenerateConfigurationError(PegfinderError):
    """A geometric quantity (dihedral angle, ...) is undefined at this point."""


class ConvergenceError(PegfinderError):
    """The corrector failed to reach the requested tolerance."""


class BoundaryExitError(ConvergenceError):
    """Iteration left the interior of the parameter domain."""


class NonIsolatedSolutionsError(PegfinderError):
    """The zero set is not zero-dimensional; counting would be meaningless.

    Carries a diagnostic dict describing the detected family.
    """

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class SearchFailure(PegfinderError):
    """A finder exhausted its strategy without reaching its target.

    Carries diagnostics so callers (and the CLI) can report what was tried.
    """

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}
