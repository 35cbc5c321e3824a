"""Exception types raised across the package, and the one reading of
JSON input.

Every JSON document the package reads from outside (the config file, a
replayed scenario record, a graph snapshot, each segment line and each
external backend answer) is parsed by `parse_json` and shape-checked by
`record_fields`, so a malformed input is a `ValueError` or `TypeError`
that names the document, never a traceback from deep inside a reader.
"""

import json


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


def parse_json(text: str | bytes, where: str):
    """The value of the JSON document `text`. Text that is not JSON, or
    that nests deeper than the parser's stack allows (RFC 8259 section 9
    lets a parser limit the depth), is a `ValueError` that names `where`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a decode error, or bytes that are not UTF-8
        raise ValueError(f"{where} is not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{where} nests too deep to parse") from None


def is_json(value, kind: type) -> bool:
    """Whether `value` is a JSON value of `kind`: `float` stands for any
    JSON number, so it also takes an int, and no kind takes a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def record_fields(rec, where: str, **kinds: type) -> list:
    """`rec`'s values of the fields named in `kinds`, in order. A `rec`
    that is not a JSON object, or a field whose value is not of its kind
    (`is_json`), is a `TypeError`; a missing field is a `ValueError` that
    names every field `rec` lacks. Each error names `where`."""
    if not isinstance(rec, dict):
        raise TypeError(f"{where} must be a JSON object, got {_json_name(type(rec))}")
    missing = [name for name in kinds if name not in rec]
    if missing:
        raise ValueError(f"{where} has no {' or '.join(missing)}")
    for name, kind in kinds.items():
        if not is_json(rec[name], kind):
            raise TypeError(f"{where}'s {name} must be a JSON {_json_name(kind)}, got {_json_name(type(rec[name]))}")
    return [rec[name] for name in kinds]


def _json_name(t: type) -> str:
    """The JSON name of a type that `json.loads` returns."""
    names = {dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean"}
    return names.get(t, "null" if t is type(None) else t.__name__)
