"""Shared exception types, mapped onto CLI exit codes."""


class ObsNodeError(Exception):
    """Base class for all package errors."""


class ConfigError(ObsNodeError):
    """Invalid or malformed configuration (CLI exit code 2)."""


class DataError(ObsNodeError):
    """Missing or inconsistent data artifacts (CLI exit code 3)."""


class NumericError(ObsNodeError):
    """Numeric failure such as a non-finite state or blow-up (CLI exit code 4)."""


class ShapeMismatch(ObsNodeError):
    """Incompatible tensor shapes passed to an operation: a programming error,
    never treated as numeric divergence."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, self.shapes))}")
