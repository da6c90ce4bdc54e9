"""Exception types shared across the package.

Everything raised on purpose derives from :class:`SceneQaError` so callers can
catch one base class at pipeline boundaries.  Each class carries the exit
code the command line returns for it as ``exit_code``: 1 for an unexpected
failure, 2 for configuration, 3 for unreadable or inconsistent input, and 4
for a generation shortfall.  A point cloud that is not an (n, 3) block of
finite numbers is a :class:`SchemaViolationError`, whether it was read from
a scene file or handed to the geometry functions as an array.
"""

from __future__ import annotations


class SceneQaError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class ConfigError(SceneQaError):
    """Invalid or inconsistent configuration values."""
    exit_code = 2


class MalformedFileError(SceneQaError):
    """An input file is missing, unreadable or unparseable (a directory, bad JSON, ...)."""
    exit_code = 3


class SchemaViolationError(SceneQaError):
    """A file parsed, but its structure does not match the expected schema."""
    exit_code = 3


class InvalidSpecError(SceneQaError):
    """A synthetic-scene specification is unsatisfiable (bad dims, counts...)."""
    exit_code = 3


class NotConvergedError(SceneQaError):
    """An iterative solver hit its iteration cap before certifying a result."""

    def __init__(self, message: str, iterations: int = 0, gap: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.gap = gap


class EmptyAfterFilterError(SceneQaError):
    """Label filtering removed every instance of a scene."""
    exit_code = 3


class ArityMismatchError(SceneQaError):
    """Template placeholders and provided bindings do not line up."""


class InsufficientCandidatesError(SceneQaError):
    """A generation stratum ran out of eligible referent tuples.

    ``shortfalls`` maps a stratum name to (requested, produced).
    """
    exit_code = 4

    def __init__(self, message: str, shortfalls: dict[str, tuple[int, int]] | None = None):
        super().__init__(message)
        self.shortfalls = dict(shortfalls or {})


class ServiceUnavailableError(SceneQaError):
    """The rewrite service could not be reached after retries."""
    exit_code = 4


class ExhaustedAttemptsError(SceneQaError):
    """All rewrite attempts for one job failed validation.

    ``verdicts`` holds one validation verdict per attempt, in order.
    """
    exit_code = 4

    def __init__(self, message: str, verdicts: list | None = None):
        super().__init__(message)
        self.verdicts = list(verdicts or [])
