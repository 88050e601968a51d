"""Exceptions shared across the library."""


class NotYetCovered(Exception):
    """The partition has not been built far enough to answer the query.

    Carries ``needed_stage`` when the smallest sufficient stage count is
    known, so callers can extend the partition and retry.
    """

    def __init__(self, message: str, needed_stage: int | None = None):
        super().__init__(message)
        self.needed_stage = needed_stage


class ToleranceExhausted(Exception):
    """The requested tolerance is unreachable at the current stage count.

    Rebuilding the partition with more stages shrinks the stage tail and
    makes the tolerance reachable.
    """


class CertificateFailed(AssertionError):
    """A certificate failed its own replay check.

    Subclasses ``AssertionError``, so ``except AssertionError`` handlers
    still catch it; the CLI maps it to exit code 6.
    """
