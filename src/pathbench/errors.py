"""Exception types raised across the package."""


class PathbenchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidObstacleError(PathbenchError, ValueError):
    """An obstacle fails validation (bad radius, degenerate polygon, ...)."""


class InvalidPathError(PathbenchError, ValueError):
    """A waypoint sequence is too short or malformed."""


class InvalidQueryError(PathbenchError, ValueError):
    """A start/target query is unusable in the given environment."""


class EnvironmentGenerationError(PathbenchError, RuntimeError):
    """Random obstacle placement exhausted its rejection-sampling budget."""


class PresetLookupError(PathbenchError, KeyError):
    """Requested environment preset does not exist."""

    __str__ = Exception.__str__  # KeyError's would print the message's repr


class InvalidStateError(PathbenchError, RuntimeError):
    """Internal structure (e.g. a tree parent chain) is inconsistent."""


class FormatError(PathbenchError, ValueError):
    """A config or environment document does not match the expected schema."""
