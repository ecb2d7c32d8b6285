"""Persistent code caching — the paper's contribution."""

from repro.persist.cachefile import (
    CacheFileError,
    PersistedReloc,
    PersistentCache,
    TraceRow,
)
from repro.persist.storage import FileStorage, StorageError
from repro.persist.convert import persist_trace, revive_trace
from repro.persist.database import CacheDatabase, CacheEntry
from repro.persist.framing import FsckItem, FsckReport
from repro.persist.keys import (
    MappingKey,
    cache_lookup_digest,
    mapping_key,
    tool_key,
    vm_key,
)
from repro.persist.manager import (
    PersistenceConfig,
    PersistentCacheSession,
)
from repro.persist.pretranslate import (
    PretranslationResult,
    pretranslate_image,
    pretranslate_process,
)

__all__ = [
    "CacheDatabase",
    "CacheEntry",
    "CacheFileError",
    "FileStorage",
    "FsckItem",
    "FsckReport",
    "MappingKey",
    "PersistedReloc",
    "PersistenceConfig",
    "PersistentCache",
    "PersistentCacheSession",
    "PretranslationResult",
    "StorageError",
    "TraceRow",
    "cache_lookup_digest",
    "mapping_key",
    "persist_trace",
    "pretranslate_image",
    "pretranslate_process",
    "revive_trace",
    "tool_key",
    "vm_key",
]
