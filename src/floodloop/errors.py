"""Exception types raised across the package."""


class FloodloopError(Exception):
    """Base class for all package errors."""


class InsufficientRuns(FloodloopError):
    """Cross-run statistics need at least two runs."""


class EmptyQuery(FloodloopError):
    """Embedding requested for a text with no token; `position` is the
    text's place in the batch it came in."""

    def __init__(self, message: str, position: int):
        # both arguments are kept in `args`, so the error unpickles from a worker process
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        return self.args[0]


class DanglingEdge(FloodloopError):
    """Graph update referenced an endpoint that is neither existing nor new."""


class InvalidDistribution(FloodloopError):
    """Probability vector is empty, negative, duplicated, or unnormalized."""


class BackendUnavailable(FloodloopError):
    """Strategy backend failed to produce a usable proposal."""


class InsufficientResponses(FloodloopError):
    """Pairwise semantic scores need at least two responses per prompt."""


class ConfigError(FloodloopError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        # both arguments are kept in `args`, so the error unpickles from a worker process
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return ": ".join(self.args)


class DumpError(FloodloopError):
    """Density dump is malformed (ragged rows or non-numeric values)."""
