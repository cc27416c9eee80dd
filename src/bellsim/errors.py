"""Exception hierarchy shared across the package."""


class BellsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModel(BellsimError):
    """A model failed validation; `violations` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


class UnknownSetting(BellsimError, ValueError):
    """A setting label is not among the model's declared settings."""


class NonFiniteSpace(BellsimError):
    """Exact enumeration was requested of a model without a lambda space:
    only quantum models have none."""


class DegenerateConditioning(BellsimError):
    """The conditioning event (both outcomes non-zero) has probability zero."""


class UnsortedStream(BellsimError):
    """Click stream timestamps are not non-decreasing."""


class SettingConflict(BellsimError):
    """Two clicks in the same window at one station disagree on the setting."""

    station = None    # that station, when the conflict lies inside one stream


class ParseError(BellsimError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None, path=None):
        self.line_number = line_number
        self.path = path
        loc = "".join(f"{part}:" for part in (path, line_number) if part is not None)
        super().__init__(f"{loc} {message}" if loc else message)


class NonMonotonicTimestamps(ParseError):
    """A time-tag file contains a timestamp smaller than its predecessor."""


class EmptyCell(BellsimError):
    """A setting pair has no usable records for the requested estimate."""


class MissingPair(BellsimError):
    """An analysis requiring all four setting pairs is missing at least one."""


class ConstructionInvalid(BellsimError):
    """A shipped scenario no longer satisfies its defining properties."""
