"""Exception types raised across the package."""


class FloodloopError(Exception):
    """Base class for all package errors."""


class InvalidHorizon(FloodloopError):
    """Scenario horizon too short to carry a meaningful intensity curve."""


class NoDemandSource(FloodloopError):
    """Demand sampling requested with an empty POI set."""


class UndefinedRates(FloodloopError):
    """Trip rates requested before any trip was spawned."""


class InsufficientRuns(FloodloopError):
    """Cross-run statistics need at least two runs."""


class MetricSetMismatch(FloodloopError):
    """Planned and executed metric maps carry different keys."""


class EmptyQuery(FloodloopError):
    """Embedding requested for empty text."""


class EmptySeed(FloodloopError):
    """Subgraph extraction found no seed nodes in the state summary."""


class MissingTask(FloodloopError):
    """Prompt assembly requires a nonempty task directive."""


class DanglingEdge(FloodloopError):
    """Graph update referenced an endpoint that is neither existing nor new."""


class InvalidDistribution(FloodloopError):
    """Probability vector is empty, negative, duplicated, or unnormalized."""


class MissingLocalPolicy(FloodloopError):
    """Conditional entropy needs a local distribution for every supported action."""


class UnknownRegion(FloodloopError):
    """Regional generation asked for a region outside the partition."""


class BackendUnavailable(FloodloopError):
    """Strategy backend failed to produce a usable proposal."""


class UnknownDirective(FloodloopError):
    """Translation table has no entry for a directive kind."""


class NotTriggered(FloodloopError):
    """Replanning requested for a cycle whose trigger did not fire."""


class InsufficientResponses(FloodloopError):
    """Pairwise semantic scores need at least two responses per prompt."""


class ConfigError(FloodloopError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DumpError(FloodloopError):
    """Density dump is malformed (ragged rows or non-numeric values)."""
