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
    """An exact search stopped at a work budget: the name of that module
    constant, its value in force, what the stop counted in its unit (for a
    refusal before any work, the least the work would need), and the facts
    the stop proved."""

    def __init__(self, budget: str, limit: int, spent: int, **proven):
        facts = "".join(f"; proven {key}={value}" for key, value in proven.items())
        super().__init__(f"{budget} = {limit} stops at {spent}{facts}")
        self.budget, self.limit, self.spent, self.proven = budget, limit, spent, proven
