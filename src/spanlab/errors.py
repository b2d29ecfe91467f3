"""Exception types shared across the package."""


class SpanlabError(Exception):
    """Base class for spanlab-specific failures."""


class GraphParseError(SpanlabError):
    """Graph input text could not be decoded.

    Carries the 1-based line number and, for single-line formats, the
    0-based character offset of the first offending position when known.
    """

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.line = line
        self.offset = offset


class CapacityError(SpanlabError):
    """An exact search would exceed a size cap or a work budget."""
