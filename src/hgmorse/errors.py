"""Exception hierarchy shared across the package."""


class SolverError(Exception):
    """Base class for all package errors."""


class InvalidParameter(SolverError):
    """A precondition on an input value was violated."""


class NoBoundState(SolverError):
    """No normalizable bound state exists for the requested configuration."""


class NonConvergence(SolverError):
    """An iterative procedure failed to converge within its budget."""


class GridTooCoarse(InvalidParameter):
    """The requested number of levels exceeds what the grid can resolve (the caller's choice of both)."""


class ParseError(SolverError):
    """A data file could not be parsed; the message carries the line number."""
