"""Exception hierarchy used across the reproduction.

A single root (:class:`ReproError`) makes it possible for callers to catch
"anything this library raises" without accidentally swallowing genuine
programming errors such as :class:`TypeError`.
"""


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class CrashedProcessError(ReproError):
    """An operation was attempted on a crashed simulated process."""


class NotLeaderError(ReproError):
    """A leader-only operation was invoked on a non-leader peer."""


class StorageError(ReproError):
    """The persistence layer detected corruption or an invalid operation."""
