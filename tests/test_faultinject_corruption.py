"""Corruption fuzz of the cache-file format.

Exhaustive single-byte flips and truncation at every offset: every
induced fault must surface as a typed :class:`CacheFileError` naming a
real section — never a ``struct.error``, ``zlib.error``, ``KeyError`` or
a silently wrong cache object.
"""

import json

import pytest

from repro.persist.cachefile import (
    CacheFileError,
    FORMAT_VERSION,
    MAGIC,
    PREAMBLE,
    SUPPORTED_FEATURES,
    PersistentCache,
)
from repro.persist.framing import damage_map
from repro.testing.faultfs import flip_byte, truncate_file

from tests.test_persist_cachefile import make_cache

pytestmark = pytest.mark.faultinject

#: Sections a validation error may legitimately attribute damage to.
KNOWN_SECTIONS = {
    "preamble", "header", "directory", "code_pool", "data_pool", "trailer",
}


@pytest.fixture(scope="module")
def blob():
    return make_cache(n_traces=2).to_bytes()


class TestByteFlips:
    def test_every_single_byte_flip_is_detected(self, blob):
        """No offset exists where a flipped byte goes unnoticed."""
        for offset in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0xFF
            with pytest.raises(CacheFileError) as excinfo:
                PersistentCache.from_bytes(bytes(corrupt))
            assert excinfo.value.section in KNOWN_SECTIONS, offset

    def test_low_bit_flips_sampled(self, blob):
        """Single-bit damage (the most plausible media fault) sampled
        across the file."""
        for offset in range(0, len(blob), 7):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0x01
            with pytest.raises(CacheFileError):
                PersistentCache.from_bytes(bytes(corrupt))

    def test_flip_on_disk_helper(self, tmp_path, blob):
        path = str(tmp_path / "x.cache")
        cache = make_cache(n_traces=2)
        cache.save(path)
        flip_byte(path, len(blob) // 2)
        with pytest.raises(CacheFileError):
            PersistentCache.load(path)


class TestSectionAttribution:
    """Damage is localized: the error names the section holding it."""

    def _section_spans(self, blob):
        _, _, _, header_len, _ = PREAMBLE.unpack_from(blob, 0)
        header_start = PREAMBLE.size
        header = json.loads(blob[header_start:header_start + header_len])
        spans = {"header": (header_start, header_start + header_len)}
        offset = header_start + header_len
        for name in ("directory", "code_pool", "data_pool"):
            size = header["sections"][name][0]
            spans[name] = (offset, offset + size)
            offset += size
        return spans

    @pytest.mark.parametrize(
        "section", ["header", "directory", "code_pool", "data_pool"]
    )
    def test_flip_inside_section_is_attributed(self, blob, section):
        start, end = self._section_spans(blob)[section]
        assert end > start, "empty section cannot be fuzzed"
        corrupt = bytearray(blob)
        corrupt[(start + end) // 2] ^= 0xFF
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(bytes(corrupt))
        assert excinfo.value.section == section

    def test_trailer_flip_attributed_to_trailer(self, blob):
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(bytes(corrupt))
        assert excinfo.value.section == "trailer"

    def test_verify_sections_reports_damage(self, blob):
        spans = self._section_spans(blob)
        start, end = spans["code_pool"]
        corrupt = bytearray(blob)
        corrupt[(start + end) // 2] ^= 0xFF
        damage = damage_map(PersistentCache.from_bytes, bytes(corrupt))
        assert list(damage) == ["code_pool"]
        assert damage_map(PersistentCache.from_bytes, blob) == {}


class TestTruncation:
    def test_truncation_at_every_offset_is_detected(self, blob):
        for length in range(len(blob)):
            with pytest.raises(CacheFileError) as excinfo:
                PersistentCache.from_bytes(blob[:length])
            assert excinfo.value.section in KNOWN_SECTIONS, length

    def test_truncate_on_disk_helper(self, tmp_path):
        path = str(tmp_path / "x.cache")
        cache = make_cache()
        cache.save(path)
        truncate_file(path, cache.file_size // 2)
        with pytest.raises(CacheFileError):
            PersistentCache.load(path)

    def test_garbage_and_short_files_raise_typed_error(self):
        for junk in (b"", b"\x00", b"PCC", b"garbage" * 100, b"\xff" * 64):
            with pytest.raises(CacheFileError):
                PersistentCache.from_bytes(junk)


class TestVersionAndFeatureGates:
    def test_legacy_v1_magic_has_defined_incompatibility_path(self, blob):
        corrupt = b"PCC1" + blob[len(MAGIC):]
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(corrupt)
        assert "version" in str(excinfo.value)
        assert excinfo.value.section == "header"

    def test_legacy_v2_magic_has_defined_incompatibility_path(self, blob):
        corrupt = b"PCC2" + blob[len(MAGIC):]
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(corrupt)
        assert str(excinfo.value) == (
            "unsupported format version 2 (legacy PCC2 file)"
        )
        assert excinfo.value.section == "header"

    def test_future_version_rejected(self, blob):
        _, _, flags, header_len, header_crc = PREAMBLE.unpack_from(blob, 0)
        corrupt = (
            PREAMBLE.pack(MAGIC, FORMAT_VERSION + 1, flags, header_len, header_crc)
            + blob[PREAMBLE.size:]
        )
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(corrupt)
        assert "unsupported format version" in str(excinfo.value)

    def test_unknown_feature_flag_rejected(self, blob):
        unknown = 0x8000
        assert not SUPPORTED_FEATURES & unknown
        _, version, flags, header_len, header_crc = PREAMBLE.unpack_from(blob, 0)
        corrupt = (
            PREAMBLE.pack(MAGIC, version, flags | unknown, header_len, header_crc)
            + blob[PREAMBLE.size:]
        )
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(corrupt)
        assert "feature flags" in str(excinfo.value)

    def test_supported_feature_flag_roundtrips(self):
        cache = make_cache()
        cache.feature_flags = SUPPORTED_FEATURES
        clone = PersistentCache.from_bytes(cache.to_bytes())
        assert clone.feature_flags == SUPPORTED_FEATURES
