"""Shared low-level helpers: errors, identifiers, configuration utilities.

Everything in :mod:`repro.common` is dependency-free and safe to import from
any other subpackage.
"""

from repro.common.errors import (
    ReproError,
    ConfigError,
    CrashedProcessError,
    NotLeaderError,
    StorageError,
)
from repro.common.ids import NodeId, format_node, parse_node

__all__ = [
    "ReproError",
    "ConfigError",
    "CrashedProcessError",
    "NotLeaderError",
    "StorageError",
    "NodeId",
    "format_node",
    "parse_node",
]
