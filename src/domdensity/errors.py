"""Exception types shared across the toolkit."""


class CapacityError(RuntimeError):
    """Input exceeds a size guard: MAX_VERTICES (graphs) or SCAN_CAP (enumeration)."""


class ParseError(ValueError):
    """Malformed textual graph input.

    ``offset`` is a byte offset into the input for graph6 payloads, or a
    line number for line-oriented formats.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class PreconditionError(ValueError):
    """An operation was invoked outside its stated contract."""


class FindingError(RuntimeError):
    """A checked mathematical implication failed.

    Findings are the highest-priority outcome of any scan: they contradict
    a bound or implication the toolkit exists to test, so they are never
    silently swallowed.
    """

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record or {}
