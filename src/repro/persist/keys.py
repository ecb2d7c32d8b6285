"""Persistent-cache keys.

"To prevent the use of invalid/inconsistent translations, persistent caches
contain information pertaining to executable mappings present in memory at
the time of their creation.  The information is contained in keys.  Keys
are a hash of the base address, mapping size, binary path, program header,
and modification timestamps." (paper §3.2.1)

Three kinds of keys exist:

* a :class:`MappingKey` per executable mapping (the application and every
  shared library),
* the VM key (version of the run-time system itself — translations are
  never reused across versions),
* the tool key (instrumentation semantics — see
  :meth:`repro.vm.client.Tool.identity`).

The database file name is derived from the (app, VM, tool) triple; the
inter-application lookup simply drops the app component (paper §3.2.3:
"the application key used in the persistent cache lookup function is
ignored").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.binfmt.image import Image


@dataclass(frozen=True)
class MappingKey:
    """Key of one executable mapping."""

    path: str
    base: int
    size: int
    header_digest: str
    mtime: int

    @property
    def digest(self) -> str:
        """The key value actually compared: a hash of all components."""
        blob = "%s|%d|%d|%s|%d" % (
            self.path,
            self.base,
            self.size,
            self.header_digest,
            self.mtime,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def matches(self, other: "MappingKey") -> bool:
        """Full match: identical binary at an identical base."""
        return self.digest == other.digest

    def matches_content(self, other: "MappingKey") -> bool:
        """Same binary contents, possibly at a different base.

        Used by the position-independent-translation extension, which can
        survive relocation but never a changed binary.
        """
        return (
            self.path == other.path
            and self.size == other.size
            and self.header_digest == other.header_digest
            and self.mtime == other.mtime
        )

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "base": self.base,
            "size": self.size,
            "header_digest": self.header_digest,
            "mtime": self.mtime,
        }

    @classmethod
    def from_json(cls, data: dict) -> "MappingKey":
        """Deserialize with shape validation.

        Raises ``ValueError`` (never ``KeyError``/``TypeError``) on a
        malformed record, so the cache-file loader can present one typed
        error for any damaged key, and a corrupt key can never produce a
        key object that spuriously ``matches()`` a real mapping.
        """
        try:
            path = data["path"]
            base = data["base"]
            size = data["size"]
            header_digest = data["header_digest"]
            mtime = data["mtime"]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed mapping key: %r" % (exc,)) from exc
        if not isinstance(path, str) or not isinstance(header_digest, str):
            raise ValueError("malformed mapping key: non-string identity")
        for value in (base, size, mtime):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("malformed mapping key: non-integer field")
        return cls(
            path=path,
            base=base,
            size=size,
            header_digest=header_digest,
            mtime=mtime,
        )


def mapping_key(image: Image, base: int, size: Optional[int] = None) -> MappingKey:
    """Compute the key for ``image`` mapped at ``base``."""
    return MappingKey(
        path=image.path,
        base=base,
        size=image.size if size is None else size,
        header_digest=image.header_digest(),
        mtime=image.mtime,
    )


def vm_key(vm_version: str) -> str:
    """Key of the run-time system itself."""
    return hashlib.sha256(("vm:%s" % vm_version).encode()).hexdigest()


def tool_key(tool_identity: str) -> str:
    """Key of the instrumentation client."""
    return hashlib.sha256(("tool:%s" % tool_identity).encode()).hexdigest()


def cache_lookup_digest(
    app_key: Optional[MappingKey], vm_version: str, tool_identity: str
) -> str:
    """Name under which a cache is filed in the database.

    ``app_key=None`` yields the inter-application lookup name (VM + tool
    only); note inter-application lookups search the database by that
    prefix rather than an exact name.
    """
    app_part = app_key.digest if app_key is not None else "*"
    blob = "%s|%s|%s" % (app_part, vm_key(vm_version), tool_key(tool_identity))
    return hashlib.sha256(blob.encode()).hexdigest()
