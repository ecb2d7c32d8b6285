"""Warm revive builds a trace straight from its persisted bytes.

A verbatim revive reads a trace's micro-ops from its code bytes and
builds :class:`~repro.isa.instructions.Instruction` objects only when
something reads ``trace.instructions``; the compiled tier's body digest
hashes its key's bytes without ``repr``.
"""

import struct

import pytest

from repro.isa import encoding
from repro.isa.encoding import decode_all
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.machine.cpu import Machine
from repro.persist.cachefile import PersistentCache
from repro.persist.convert import revive_trace
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.vm.client import NullTool
from repro.vm.compile import _body_digest
from repro.vm.trace import TraceSelector
from repro.vm.translator import Translator
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.spec2k import build_suite


@pytest.fixture(scope="module")
def gui_apps():
    apps, _store = build_gui_suite()
    return apps


def warm_database(app, input_name, directory):
    """A database holding ``app``'s traces after one cold run."""
    database = CacheDatabase(str(directory))
    run_vm(app, input_name, persistence=PersistenceConfig(database=database))
    return database


def persisted_traces(database):
    [entry] = database.entries()
    path = "%s/%s" % (database.directory, entry.filename)
    with open(path, "rb") as handle:
        return PersistentCache.from_bytes(handle.read()).traces


@pytest.mark.parametrize(
    "app_name, input_name",
    [("gvim", "startup"), ("dia", "startup"), ("176.gcc", "train")],
)
def test_revived_uops_match_a_fresh_translation(
    gui_apps, tmp_path, app_name, input_name
):
    """Every persisted trace revives to the uops that selecting and
    translating it fresh gives, and its on-demand instructions are the
    decoded body."""
    if app_name in gui_apps:
        app = gui_apps[app_name]
    else:
        app = build_suite((app_name,))[app_name]
    traces = persisted_traces(warm_database(app, input_name, tmp_path))
    process = app.load()
    machine = Machine(process)
    selector = TraceSelector(machine.fetch)
    translator = Translator(DEFAULT_COST_MODEL, NullTool())
    base_of = PersistentCacheSession._base_of(process)
    assert len(traces) > 100
    for persisted in traces:
        revived = revive_trace(persisted, NullTool(), base_of)
        fresh = translator.translate(selector.select(
            persisted.entry, persisted.image_path,
            base_of(persisted.image_path),
        )).translated
        assert revived.trace.uops == fresh.trace.uops, hex(persisted.entry)
        assert revived.trace.exits == fresh.trace.exits
        assert revived.code_bytes == fresh.code_bytes
        body = persisted.code[: persisted.n_insts * 8]
        assert revived.trace.instructions == decode_all(body)


def test_warm_gui_runs_build_no_instructions(gui_apps, tmp_path,
                                             monkeypatch):
    """A warm NullTool run of each GUI app decodes no instruction: every
    trace it runs is revived, and revive reads uops from the bytes."""
    decoded = []
    original = encoding.decode

    def counting_decode(data, offset=0):
        decoded.append(offset)
        return original(data, offset)

    for name, app in sorted(gui_apps.items()):
        database = warm_database(app, "startup", tmp_path / name)
        monkeypatch.setattr(encoding, "decode", counting_decode)
        warm = run_vm(app, "startup", tool=NullTool(),
                      persistence=PersistenceConfig(database=database))
        monkeypatch.undo()
        assert warm.stats.traces_translated == 0, name
        assert warm.persistence_report["preloaded"] > 100, name
        assert decoded == [], name


def _key(entry=0x401000, code=bytes(range(24)), links=((2, 2), (0, 1)),
         points=(), costs=(1.0, 25.0, 12.0)):
    """A trace key in :func:`repro.vm.compile._trace_key`'s layout."""
    return (entry, code, links, points) + costs


class TestBodyDigest:
    """Sidecar and shared-store bodies are named by these digests, so
    they must not move without a ``VM_VERSION`` bump."""

    def test_trace_key_golden(self):
        key = _key(points=((0, "bbcount", 1.5, False),
                           (2, "memread", 0.0, True)))
        assert _body_digest(key) == (
            "90f6e9f56dcd49e5e4152bdb67c6761dbc99c822ebc91e67dc0376a42e2dbc7f"
        )

    def test_region_key_golden(self):
        key = ("region", _key(), _key(entry=0x401018, links=((1, 0),)))
        assert _body_digest(key) == (
            "7dd24534767b55dbd7fa5b1ea46dff3f46cd8ccf594971bdad88e1f404826c51"
        )

    def test_digest_is_64_hex_characters(self):
        digest = _body_digest(_key())
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_field_boundaries_are_delimited(self):
        """Code bytes followed by a link pair, and the same bytes with
        the pair moved into the code, concatenate alike: their
        digests still differ."""
        code = bytes(range(16))
        pair = struct.pack("<ii", 2, 2)
        assert _body_digest(_key(code=code, links=((2, 2),))) != (
            _body_digest(_key(code=code + pair, links=()))
        )

    def test_region_differs_from_its_member(self):
        member = _key()
        assert _body_digest(("region", member)) != _body_digest(member)
        assert _body_digest(("region", member, _key(entry=0x401018))) != (
            _body_digest(("region", _key(entry=0x401018), member))
        )
