"""Exception types and the integer-argument check shared across the library."""


class ContractViolation(ValueError):
    """An operation was called with arguments that break its precondition."""


class EdgeListParseError(ValueError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EnumerationCapExceeded(RuntimeError):
    """The exact solver refused to enumerate too many subsets."""


def require_int(name: str, value, minimum: int) -> None:
    """Refuse `value` with a `ValueError` unless it is a plain int >= `minimum`.

    A float is refused even when it is whole, and so is a bool, which
    would pass for 0 or 1: a float budget once made more deletions than b,
    and a NaN level returned the whole graph as its truss.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
