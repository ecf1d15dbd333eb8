"""Exception types shared across the pipeline.

Exceptions are for faults only. A fault in input data is a `ParseError`
when it lies on one line of one file, and a `DataError` otherwise.
"""


class DataError(Exception):
    """A fault in input data; raised as is when no one line holds it (an
    empty file, a missing cache entry, a reference across files)."""


class ParseError(DataError):
    """A fault on one line of an input file; the message names the line."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class ConfigError(Exception):
    """Invalid pipeline configuration (bad enum value, missing file)."""
