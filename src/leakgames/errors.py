"""Exception types shared across the package."""


class LeakGamesError(Exception):
    """Base class for all errors raised by this package."""


class TypeMismatch(LeakGamesError):
    """Operands do not have identical row and column label sets."""


class IncompatibleRows(LeakGamesError):
    """Operands do not share the same row label set."""


class DuplicateIndex(LeakGamesError):
    """An index label occurs more than once in a family."""


class BadDistribution(LeakGamesError):
    """Weights are negative or do not sum to one within tolerance."""


class LabelMismatch(LeakGamesError):
    """Label universes of two objects disagree."""


class UnknownAction(LeakGamesError):
    """An action label is not part of the game."""


class TooLarge(LeakGamesError):
    """Problem exceeds a configured size guard."""


class BadPermutation(LeakGamesError):
    """A bit-check order is not a permutation of 1..n."""


class SolverError(LeakGamesError):
    """A linear program finished in a state the caller cannot use."""
