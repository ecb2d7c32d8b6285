"""Tests for the on-disk persistent cache format."""

import gc

import pytest

from repro.isa.encoding import decode_uops
from repro.persist import cachefile
from repro.persist.cachefile import (
    DATA_PREFIX,
    EXIT_TARGET,
    ROW,
    CacheFileError,
    PersistedReloc,
    PersistentCache,
    TraceRow,
)
from repro.persist.keys import MappingKey
from repro.vm.trace import ExitKind, TraceExit


def make_trace(offset=0, path="app", n=4, data_size=400):
    code = bytes(range(n)) * 8  # n*8 bytes of fake encoded code
    return TraceRow(
        image_path=path,
        entry=0x40_0000 + offset,
        image_offset=offset,
        code=code,
        body=code,
        uops=decode_uops(code),
        exits=[TraceExit(ExitKind.DIRECT, n - 1, 0x41_0000)],
        exit_places=[(0, 0x100)],
        relocs=[PersistedReloc(n - 1, path, 0x100)],
        data_size=data_size,
        liveness=[0xFF] * n,
        paths=[path],
    )


def exit_targets(row):
    """``row``'s exit targets as (image path, offset) pairs."""
    return [(row.paths[path], offset) for path, offset in row.exit_places]


def make_cache(n_traces=3):
    cache = PersistentCache(
        vm_version="vm-1", tool_identity="tool-1", app_path="app"
    )
    cache.image_keys["app"] = MappingKey("app", 0x40_0000, 0x1000, "hd", 1)
    for index in range(n_traces):
        cache.traces.append(make_trace(offset=index * 64))
    return cache


class TestRoundTrip:
    def test_full_roundtrip(self):
        cache = make_cache()
        clone = PersistentCache.from_bytes(cache.to_bytes())
        assert clone.vm_version == cache.vm_version
        assert clone.tool_identity == cache.tool_identity
        assert clone.app_path == cache.app_path
        assert clone.image_keys == cache.image_keys
        assert len(clone.traces) == len(cache.traces)
        for original, loaded in zip(cache.traces, clone.traces):
            assert loaded.entry == original.entry
            assert loaded.code == original.code
            assert loaded.exits == original.exits
            assert exit_targets(loaded) == exit_targets(original)
            assert loaded.relocs == original.relocs
            assert loaded.liveness == original.liveness
            assert loaded.data_size == original.data_size

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "x.cache")
        cache = make_cache()
        cache.save(path)
        assert len(PersistentCache.load(path).traces) == 3

    def test_corruption_detected(self):
        blob = bytearray(make_cache().to_bytes())
        blob[len(blob) // 2] ^= 0x5A
        with pytest.raises(CacheFileError):
            PersistentCache.from_bytes(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(CacheFileError):
            PersistentCache.from_bytes(b"XXXX" + b"\x00" * 32)

    def test_empty_cache_roundtrip(self):
        cache = PersistentCache(vm_version="v", tool_identity="t", app_path="a")
        clone = PersistentCache.from_bytes(cache.to_bytes())
        assert clone.traces == []


class TestPools:
    def test_data_blob_exact_size(self):
        trace = make_trace(data_size=512)
        assert len(trace.data_blob()) == 512

    def test_data_pool_matches_directory(self):
        cache = make_cache()
        blob = cache.to_bytes()
        # from_bytes validates pool sizes internally; this must not raise.
        PersistentCache.from_bytes(blob)

    def test_pool_totals(self):
        cache = make_cache(n_traces=4)
        assert cache.total_code_bytes == sum(len(t.code) for t in cache.traces)
        assert cache.total_data_bytes == 4 * 400

    def test_file_size_includes_both_pools(self):
        small = make_cache(n_traces=1).file_size
        large = make_cache(n_traces=5).file_size
        assert large > small + 4 * 400  # at least the extra data blobs


class TestAccumulation:
    def test_adds_only_new_identities(self):
        cache = make_cache(n_traces=2)
        existing = make_trace(offset=0)  # duplicate identity
        fresh = make_trace(offset=999)
        added = cache.accumulate([existing, fresh], {})
        assert added == 1
        assert len(cache.traces) == 3

    def test_generation_bumped(self):
        cache = make_cache()
        before = cache.generation
        cache.accumulate([], {})
        assert cache.generation == before + 1

    def test_keys_refreshed(self):
        cache = make_cache()
        new_key = MappingKey("libz.so", 0x9000, 64, "zz", 3)
        cache.accumulate([], {"libz.so": new_key})
        assert cache.image_keys["libz.so"] == new_key

    def test_drop_traces(self):
        cache = make_cache(n_traces=3)
        dropped = cache.drop_traces({("app", 0), ("app", 64)})
        assert dropped == 2
        assert len(cache.traces) == 1

    def test_identity(self):
        trace = make_trace(offset=8, path="libq.so")
        assert trace.identity == ("libq.so", 8)


class TestDirectoryValidation:
    """A row or a data-pool field that does not fit the file is typed
    damage of the section holding it, even when every CRC holds."""

    #: field -> (section, byte offset in the first trace's row or data,
    #: struct format, section an out-of-range value is charged to).  A
    #: trace's code offset is the code sizes of the rows before it, so a
    #: wrong offset of the second trace is a wrong size of the first.
    #: The first trace's exit kind is its first link record's, after its
    #: four instructions' liveness and address-table entries; its
    #: relocation index is the first after the rows and exit targets of
    #: the three traces.
    FIELDS = {
        "code_offset": ("directory", 4, "<I", "directory"),
        "path": ("directory", 0, "<H", "directory"),
        "flags": ("directory", 2, "<H", "directory"),
        "code_size": ("directory", 4, "<I", "directory"),
        "data_size": ("directory", 8, "<I", "data_pool"),
        "n_exits": ("directory", 12, "<H", "directory"),
        "n_relocs": ("directory", 14, "<H", "directory"),
        "n_insts": ("data_pool", 16, "<i", "data_pool"),
        "data_exits": ("data_pool", 20, "<i", "data_pool"),
        "exit_kind": ("data_pool", DATA_PREFIX.size + 4 * 16, "<i",
                      "data_pool"),
        "reloc_index": ("directory", 3 * (ROW.size + EXIT_TARGET.size),
                        "<H", "directory"),
    }

    def _tamper(self, field, value):
        """Serialize a cache, overwrite one field of its first trace, and
        re-frame with valid checksums at every level, so the *semantic*
        validation is what gets exercised — not the CRCs."""
        import struct

        from repro.persist.cachefile import (
            DIRECTORY_COUNT,
            FRAMING,
            SECTIONS,
        )

        section, offset, fmt, _charged = self.FIELDS[field]
        flags, header, sections = FRAMING.parse(make_cache().to_bytes())
        payload = bytearray(sections[section])
        if section == "directory":
            offset += DIRECTORY_COUNT.size
        if field == "code_offset":
            (code_size,) = struct.unpack_from(fmt, payload, offset)
            value += code_size
        # A negative size reads back as its unsigned two's complement.
        struct.pack_into(fmt, payload, offset,
                         value & 0xFFFFFFFF if fmt == "<I" else value)
        sections[section] = bytes(payload)
        return FRAMING.pack(
            header, [sections[name] for name in SECTIONS[1:]], flags=flags
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("code_offset", -8),
            ("code_offset", 10**6),
            ("code_size", -1),
            ("code_size", 3),
            ("data_size", -1),
            ("data_size", 100),
            ("data_size", 300),
            ("n_insts", 0),
            ("n_insts", 5),
            ("n_insts", 40),
            ("path", 7),
            ("flags", 0x8000),
            ("n_exits", 2),
            ("n_relocs", 0),
            ("data_exits", 2),
            ("exit_kind", 9),
            ("exit_kind", -1),
            ("reloc_index", 4),
        ],
    )
    def test_out_of_bounds_records_rejected(self, field, value):
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(self._tamper(field, value))
        charged = self.FIELDS[field][3]
        if (field, value) in {("code_offset", -8), ("code_size", 3),
                              ("n_insts", 5)}:
            # The code is shorter than the body the data pool declares.
            charged = "code_pool"
        assert excinfo.value.section == charged

    @pytest.mark.parametrize(
        "field,value",
        [("n_insts", 4), ("exit_kind", int(ExitKind.DIRECT)),
         ("reloc_index", 3)],
    )
    def test_tamper_without_change_parses(self, field, value):
        assert PersistentCache.from_bytes(self._tamper(field, value))

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("damaged", [False, True],
                             ids=["good", "damaged"])
    def test_rows_are_read_with_the_collector_paused(
        self, monkeypatch, enabled, damaged
    ):
        """The cyclic collector is off while the rows are read, and as
        the caller had it afterwards, after a parse and after a
        ``CacheFileError`` alike."""
        blob = self._tamper("n_insts", 40 if damaged else 4)
        during = []
        read_rows = cachefile._read_rows

        def spy(*args):
            during.append(gc.isenabled())
            return read_rows(*args)

        monkeypatch.setattr(cachefile, "_read_rows", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                PersistentCache.from_bytes(blob)
            except CacheFileError:
                assert damaged
            else:
                assert not damaged
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]

    @pytest.mark.parametrize(
        "name,value",
        [("data_size", 64), ("liveness", [1, 2])],
        ids=["data_size-below-model", "liveness-not-per-instruction"],
    )
    def test_unserializable_record_is_a_value_error(self, name, value):
        cache = make_cache(n_traces=1)
        cache.traces[0] = cache.traces[0]._replace(**{name: value})
        with pytest.raises(ValueError):
            cache.to_bytes()
