"""The shared framing (``repro.persist.framing``) behind every format.

Three contracts:

* **bytes never move** — one fixed object per format (PCC3, PCS1,
  PCSS2 and PCRL1) serializes to a pinned sha256, so files written
  before the framing was shared stay valid byte for byte, and each blob
  round-trips through the shared parser; the same cache object as the
  retired PCC2 wrote it is kept as a legacy fixture, which parses as a
  typed header error, and so does a shard in the retired PCSS1 layout;
* **crafted headers fail typed** — a section table whose entry is not a
  pair of JSON integers with a non-negative size is header damage in
  every file format, even when the header CRC is valid;
* **flags are checked per format** — only PCC3 defines feature bits; a
  set reserved bit in any other format is header damage.
"""

import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.cli import main
from repro.persist.cachefile import CacheFileError, PersistentCache
from repro.persist.database import CacheDatabase
from repro.persist.framing import (
    FrameError,
    Framing,
    FsckReport,
    pack_records,
    parse_records,
)
from repro.persist.sharedstore import (
    SharedBodyStore,
    SharedStoreError,
    pack_shard,
    parse_shard,
    shard_prefix,
)
from repro.persist.sidecar import CompiledBodyStore, SidecarError
from repro.replay.log import ReplayLog, ReplayLogError

from tests.test_persist_cachefile import make_cache

VM = "repro-dbi-1.5.0"
HOST = "cpython-311|marshal4"
D0 = "00" + "ab" * 31
D1 = "7f" + "cd" * 31


def pcs1_store():
    return CompiledBodyStore(
        vm_version=VM, host_tag=HOST,
        entries={D0: b"body-zero", D1: b"body-one\x00\xff"},
    )


SHARD_ENTRIES = {
    D0: (b"body-zero", 1700000000),
    D1: (b"body-one\x00\xff", 1700000001),
}


def pcrl1_log():
    return ReplayLog(
        meta={"workload": "dice", "input": "short", "suite": "nondet",
              "pid": 4242, "rng_state": 7, "layout_seed": None,
              "vm_version": VM},
        events=[["v", 7, 12345], ["s", 1], ["t", "yield", 1], ["n", 2]],
        baseline={"exit_status": 0, "output_b64": "aGk=",
                  "stats": {"traces_translated": 3}},
    )


#: ``make_cache(n_traces=2)`` as the retired PCC2 format wrote it.
LEGACY_PCC2 = os.path.join(os.path.dirname(__file__), "fixtures",
                           "pcc2_sample.cache")


def legacy_pcc2() -> bytes:
    with open(LEGACY_PCC2, "rb") as handle:
        return handle.read()


#: One fixed object per format, serialized (PCC2: the legacy fixture).
#: The shard sample keeps the key "PCSS1", so its test ids stay put,
#: but it is written in the current shard format, PCSS2.
SAMPLES = {
    "PCC2": legacy_pcc2,
    "PCC3": lambda: make_cache(n_traces=2).to_bytes(),
    "PCS1": lambda: pcs1_store().to_bytes(),
    "PCSS1": lambda: pack_shard(VM, HOST, SHARD_ENTRIES),
    "PCRL1": lambda: pcrl1_log().to_bytes(),
}

#: What each format's own serializer wrote for SAMPLES before the
#: framing was shared (PCC2 FORMAT_VERSION 2, PCS1/PCRL1 1), and what
#: PCC3 (FORMAT_VERSION 3) and PCSS2 (FORMAT_VERSION 2, no cost column)
#: write.
GOLDEN_SHA256 = {
    "PCC2":
        "a351282619d6632e3ac117136c6254b90fc4bb00ef2ce737dca17af2a2c384fb",
    "PCC3":
        "f444e2ea7bd27752dc2b07f9986c61ef7527d946b67639fe8df643e5f8e37350",
    "PCS1":
        "058b6875f0a5c352b30d612076db238e5993b0feba15927417b62b099a4d07f3",
    "PCSS1":
        "c118e522f469413c1b410f1941268bb98f571caae3982d14f4abd41496c1752f",
    "PCRL1":
        "8e451ab3ec086e79246ee62379f25af87abf593de1929ae0c6e00212999ea16b",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_bytes_are_pinned(self, name):
        blob = SAMPLES[name]()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]

    def test_pcc3_round_trip(self):
        blob = SAMPLES["PCC3"]()
        cache = PersistentCache.from_bytes(blob)
        assert len(cache.traces) == 2
        assert cache.traces == make_cache(n_traces=2).traces
        assert cache.to_bytes() == blob

    def test_pcc2_fixture_is_a_typed_legacy_error(self):
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(legacy_pcc2())
        assert excinfo.value.section == "header"
        assert str(excinfo.value) == (
            "unsupported format version 2 (legacy PCC2 file)"
        )

    def test_pcs1_round_trip(self):
        blob = SAMPLES["PCS1"]()
        store = CompiledBodyStore.from_bytes(blob)
        assert (store.vm_version, store.host_tag) == (VM, HOST)
        assert store.entries == pcs1_store().entries
        assert store.to_bytes() == blob

    def test_pcss1_round_trip(self):
        assert parse_shard(SAMPLES["PCSS1"]()) == (VM, HOST, SHARD_ENTRIES)

    def test_pcss1_legacy_four_element_record(self, tmp_path):
        """A sound format-version-1 shard is header damage, and a store
        quarantines it.  Its four-element rows are valid PCSS2 rows, so
        the version alone rejects it."""
        directory = json.dumps([[D0, 0, 9, 1234]]).encode()
        pool = b"body-zero"
        header = json.dumps({
            "format_version": 1, "vm_version": VM, "host_tag": HOST,
            "sections": {"directory": [len(directory), crc(directory)],
                         "body_pool": [len(pool), crc(pool)]},
        }, sort_keys=True).encode()
        body = (struct.pack("<4sHHII", b"PCSS", 1, 0, len(header),
                            crc(header))
                + header + directory + pool)
        blob = body + struct.pack("<I", crc(body))
        with pytest.raises(SharedStoreError) as excinfo:
            parse_shard(blob)
        assert excinfo.value.section == "header"
        assert str(excinfo.value) == "unsupported format version 1"
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM)
        store.host_tag = HOST
        path = store.shard_path(shard_prefix(D0))
        os.makedirs(os.path.dirname(path))  # nothing published yet
        store.storage.write_atomic(path, blob)
        assert store.lookup(D0) is None
        [(kind, _name, reason)] = store.events
        assert (kind, reason) == (
            "quarantine", "damaged header: unsupported format version 1"
        )
        assert not os.path.exists(path)

    def test_pcrl1_round_trip(self):
        blob = SAMPLES["PCRL1"]()
        assert ReplayLog.from_bytes(blob) == pcrl1_log()


def crc(blob: bytes) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


def reframe(blob: bytes, edit_header=None, flags=None) -> bytes:
    """Rewrite a sectioned file's header or flags with every CRC fixed
    up, so the edit is the file's only defect."""
    magic, version, old_flags, header_len, _ = struct.unpack_from(
        "<4sHHII", blob, 0
    )
    header = json.loads(blob[16:16 + header_len])
    if edit_header is not None:
        edit_header(header)
    header_blob = json.dumps(header, sort_keys=True).encode()
    body = (
        struct.pack("<4sHHII", magic, version,
                    old_flags if flags is None else flags,
                    len(header_blob), crc(header_blob))
        + header_blob
        + blob[16 + header_len:-4]
    )
    return body + struct.pack("<I", crc(body))


#: format → (a valid blob, its parser, its error type, first section).
FILE_FORMATS = {
    "PCC3": (SAMPLES["PCC3"], PersistentCache.from_bytes, CacheFileError,
             "directory"),
    "PCS1": (SAMPLES["PCS1"], CompiledBodyStore.from_bytes, SidecarError,
             "directory"),
    "PCSS1": (SAMPLES["PCSS1"], parse_shard, SharedStoreError, "directory"),
    "PCRL1": (SAMPLES["PCRL1"], ReplayLog.from_bytes, ReplayLogError,
              "events"),
}

BAD_SIZES = {
    "string": str,
    "float": float,
    "negative": lambda size: -1,
}


def crafted(name: str, bad: str) -> bytes:
    build, _parse, _error, section = FILE_FORMATS[name]

    def edit(header):
        entry = header["sections"][section]
        entry[0] = BAD_SIZES[bad](entry[0])

    return reframe(build(), edit)


class TestCraftedSectionTable:
    @pytest.mark.parametrize("bad", sorted(BAD_SIZES))
    @pytest.mark.parametrize("name", sorted(FILE_FORMATS))
    def test_bad_length_is_typed_header_damage(self, name, bad):
        _build, parse, error, _section = FILE_FORMATS[name]
        with pytest.raises(error) as excinfo:
            parse(crafted(name, bad))
        assert excinfo.value.section == "header"
        assert isinstance(excinfo.value, FrameError)

    def test_cli_fsck_reports_crafted_replay_log(self, tmp_path, capsys):
        db = CacheDatabase(str(tmp_path / "db"))
        name = db.store_replay_log(pcrl1_log(), name="crafted")
        path = os.path.join(db.replay_directory(), name)
        with open(path, "wb") as handle:
            handle.write(crafted("PCRL1", "string"))
        code = main(["cache", "fsck", db.directory])
        out = capsys.readouterr().out
        assert code == 1
        row = [line for line in out.splitlines() if name in line]
        assert row and "corrupt" in row[0] and "header" in row[0]
        assert "fsck: damage found" in out


class TestFeatureFlags:
    @pytest.mark.parametrize("name", ["PCS1", "PCSS1", "PCRL1"])
    def test_reserved_bits_are_rejected(self, name):
        build, parse, error, _section = FILE_FORMATS[name]
        with pytest.raises(error) as excinfo:
            parse(reframe(build(), flags=0x0001))
        assert excinfo.value.section == "header"
        assert "feature flags" in str(excinfo.value)

    def test_pcc3_feature_bit_round_trips(self):
        cache = make_cache(n_traces=1)
        cache.feature_flags = 0x0001
        assert PersistentCache.from_bytes(cache.to_bytes()).feature_flags == 1


class TestFramingModule:
    FORMAT = Framing(b"TEST", 3, ("alpha", "beta"), FrameError)

    def test_pack_parse_round_trip(self):
        blob = self.FORMAT.pack({"key": "value"}, [b"one", b""])
        flags, header, sections = self.FORMAT.parse(blob)
        assert flags == 0
        assert header["key"] == "value" and header["format_version"] == 3
        assert sections == {"alpha": b"one", "beta": b""}

    def test_every_flip_names_a_section(self):
        blob = self.FORMAT.pack({"key": "value"}, [b"one", b"two"])
        for offset in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0x10
            with pytest.raises(FrameError) as excinfo:
                self.FORMAT.parse(bytes(corrupt))
            assert excinfo.value.section in (
                "preamble", "header", "alpha", "beta", "trailer",
            ), offset

    def test_records_round_trip(self):
        stamped = {D1: (b"b", 2), D0: (b"a", 1)}
        records, pool = pack_records(stamped)
        assert records == [[D0, 0, 1, 1], [D1, 1, 1, 2]]
        assert parse_records(records, pool, FrameError, "directory") == (
            stamped
        )
        records, pool = pack_records({D0: b"xy"}, stamped=False)
        assert records == [[D0, 0, 2]]
        assert parse_records(
            records, pool, FrameError, "directory", stamped=False
        ) == {D0: b"xy"}

    @pytest.mark.parametrize(
        "record", [[D0, 0, 5, 1], [D0, -1, 1, 1], [D0, 0, 1, 1, 0, 9],
                   [7, 0, 1, 1], ["x"], 3],
    )
    def test_bad_records_are_typed(self, record):
        with pytest.raises(FrameError) as excinfo:
            parse_records([record], b"ab", FrameError, "records")
        assert excinfo.value.section == "records"

    def test_fsck_check_reports_and_quarantines(self, tmp_path):
        from repro.persist.storage import FileStorage

        path = tmp_path / "shard"
        path.write_bytes(b"garbage")
        report = FsckReport()
        moved = []
        parsed = report.check(FileStorage(), str(path), "shard", parse_shard,
                              moved.append)
        assert parsed is None and not report.clean
        assert report.items[0].section == "preamble"
        assert report.quarantined == ["shard"] and len(moved) == 1
        assert report.check(FileStorage(), str(tmp_path / "none"), "none",
                            parse_shard) is None
        assert report.items[-1].status == "corrupt"
