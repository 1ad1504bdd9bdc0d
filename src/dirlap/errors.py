"""Exception types shared across the library.

Each type carries the exit code the CLI ends with when it is raised, as
click's own ``ClickException.exit_code`` does.
"""


class DirlapError(Exception):
    """Base class for all library-specific errors."""

    exit_code: int


class FileFormatError(DirlapError, ValueError):
    """A CSV or JSON input could not be parsed into the expected shape."""

    exit_code = 3


class DimensionMismatchError(DirlapError, ValueError):
    """Vector or matrix sizes do not agree with the graph/decomposition."""

    exit_code = 4


class NearDefectiveError(DirlapError, ArithmeticError):
    """The eigenbasis is numerically too ill-conditioned to trust.

    Raised when the eigenvector condition number exceeds the configured
    limit or the computed dual basis fails the biorthogonality check.
    At that point the dual basis is numerical noise, so downstream
    transforms would silently return garbage.
    """

    exit_code = 6


class RankDeficientError(DirlapError, ArithmeticError):
    """A sampling matrix does not have full column rank.

    Recovery from such samples is ambiguous (aliasing), so it is refused
    instead of returning one of infinitely many least-squares solutions.
    """

    exit_code = 5
