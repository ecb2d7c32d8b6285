"""The shared framing (``repro.persist.framing``) behind every format.

Three contracts:

* **bytes never move** — one fixed object per format (PCC2, PCS1,
  PCSS1, PCRL1 and two PCSD1 frames) serializes to a pinned sha256, so
  files written before the framing was shared stay valid byte for byte,
  and each blob round-trips through the shared parser;
* **crafted headers fail typed** — a section table whose entry is not a
  pair of JSON integers with a non-negative size is header damage in
  every file format, even when the header CRC is valid;
* **flags are checked per format** — only PCC2 defines feature bits; a
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
from repro.persist.cacheserver import pack_frame, parse_frame
from repro.persist.database import CacheDatabase
from repro.persist.framing import (
    FrameError,
    Framing,
    FsckReport,
    pack_records,
    parse_records,
)
from repro.persist.sharedstore import SharedStoreError, pack_shard, parse_shard
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
    D0: (b"body-zero", 1700000000, 1250),
    D1: (b"body-one\x00\xff", 1700000001),  # no cost: packs as 0
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


LOOKUP_META = {"vm": VM, "host": HOST, "digests": [D0, D1]}
PUBLISH_META = {"vm": VM, "host": HOST, "touch": [D1]}

#: One fixed object per format, serialized.
SAMPLES = {
    "PCC2": lambda: make_cache(n_traces=2).to_bytes(),
    "PCS1": lambda: pcs1_store().to_bytes(),
    "PCSS1": lambda: pack_shard(VM, HOST, SHARD_ENTRIES),
    "PCRL1": lambda: pcrl1_log().to_bytes(),
    "PCSD1-lookup": lambda: pack_frame("lookup", LOOKUP_META),
    "PCSD1-publish": lambda: pack_frame(
        "publish", PUBLISH_META, {D0: SHARD_ENTRIES[D0]}
    ),
}

#: What each format's own serializer wrote for SAMPLES before the
#: framing was shared (PCC2 FORMAT_VERSION 2, PCS1/PCSS1/PCRL1 1, PCSD1
#: PROTOCOL_VERSION 1).
GOLDEN_SHA256 = {
    "PCC2":
        "a351282619d6632e3ac117136c6254b90fc4bb00ef2ce737dca17af2a2c384fb",
    "PCS1":
        "058b6875f0a5c352b30d612076db238e5993b0feba15927417b62b099a4d07f3",
    "PCSS1":
        "b68317b49e4030d43a1d14a9b4932f4fec9f6e042a336a7ca0057b0db7ffd2e4",
    "PCRL1":
        "8e451ab3ec086e79246ee62379f25af87abf593de1929ae0c6e00212999ea16b",
    "PCSD1-lookup":
        "ef20483e24ac108988779660176cf3218bd84e612e24584c938cdaf88ed6cb9e",
    "PCSD1-publish":
        "ebb8d184ba4df7afc000711649ccfdfd63752c2aae83b226675d9b37577b8335",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_bytes_are_pinned(self, name):
        blob = SAMPLES[name]()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]

    def test_pcc2_round_trip(self):
        blob = SAMPLES["PCC2"]()
        cache = PersistentCache.from_bytes(blob)
        assert len(cache.traces) == 2
        assert cache.to_bytes() == blob

    def test_pcs1_round_trip(self):
        blob = SAMPLES["PCS1"]()
        store = CompiledBodyStore.from_bytes(blob)
        assert (store.vm_version, store.host_tag) == (VM, HOST)
        assert store.entries == pcs1_store().entries
        assert store.to_bytes() == blob

    def test_pcss1_round_trip(self):
        assert parse_shard(SAMPLES["PCSS1"]()) == (VM, HOST, {
            D0: (b"body-zero", 1700000000, 1250),
            D1: (b"body-one\x00\xff", 1700000001, 0),
        })

    def test_pcss1_legacy_four_element_record(self):
        """A shard written before compile costs were tracked: its
        ``[digest, offset, size, stamp]`` rows parse with cost 0."""
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
        assert parse_shard(blob) == (VM, HOST, {D0: (b"body-zero", 1234, 0)})

    def test_pcrl1_round_trip(self):
        blob = SAMPLES["PCRL1"]()
        assert ReplayLog.from_bytes(blob) == pcrl1_log()

    def test_pcsd1_round_trip(self):
        assert parse_frame(SAMPLES["PCSD1-lookup"]()) == (
            "lookup", LOOKUP_META, {}
        )
        assert parse_frame(SAMPLES["PCSD1-publish"]()) == (
            "publish", PUBLISH_META, {D0: SHARD_ENTRIES[D0]}
        )


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
    "PCC2": (SAMPLES["PCC2"], PersistentCache.from_bytes, CacheFileError,
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

    def test_pcc2_feature_bit_round_trips(self):
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
        stamped = {D1: (b"b", 2, 30), D0: (b"a", 1)}
        records, pool = pack_records(stamped)
        assert records == [[D0, 0, 1, 1, 0], [D1, 1, 1, 2, 30]]
        assert parse_records(records, pool, FrameError, "directory") == {
            D0: (b"a", 1, 0), D1: (b"b", 2, 30),
        }
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
