"""Persistent code caching — the paper's contribution."""

from repro.persist.cachefile import (
    CacheFileError,
    PersistedExit,
    PersistedReloc,
    PersistedTrace,
    PersistentCache,
    verify_sections,
)
from repro.persist.storage import FileStorage, StorageError
from repro.persist.convert import (
    ConversionError,
    persist_trace,
    revive_trace,
)
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
    "ConversionError",
    "FileStorage",
    "FsckItem",
    "FsckReport",
    "MappingKey",
    "PersistedExit",
    "PersistedReloc",
    "PersistedTrace",
    "PersistenceConfig",
    "PersistentCache",
    "PersistentCacheSession",
    "PretranslationResult",
    "StorageError",
    "cache_lookup_digest",
    "mapping_key",
    "persist_trace",
    "pretranslate_image",
    "pretranslate_process",
    "revive_trace",
    "tool_key",
    "verify_sections",
    "vm_key",
]
