"""Warm revive and cold selection build a trace straight from bytes.

A verbatim revive reads a trace's micro-ops from its code bytes, and so
does selection from the mapping that holds the trace; either builds
:class:`~repro.isa.instructions.Instruction` objects only when
something reads ``trace.instructions``.  The compiled tier's body
digest hashes its key's bytes without ``repr``.
"""

import struct

import pytest

from repro.isa import encoding, instructions
from repro.isa.encoding import decode_all
from repro.isa.instructions import Instruction
from repro.loader.layout import PerturbedLayout
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.machine.cpu import Machine
from repro.persist.cachefile import PersistentCache
from repro.persist.convert import revive_trace
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.vm.client import NullTool
from repro.vm.codecache import CodeCache
from repro.vm.compile import _body_digest
from repro.vm.engine import Engine
from repro.vm.stats import VMStats
from repro.vm.trace import Trace, TraceSelector
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


def program(gui_apps, name):
    if name in gui_apps:
        return gui_apps[name]
    return build_suite((name,))[name]


def fresh_translation(process, persisted):
    """``persisted``'s trace selected and translated fresh in
    ``process``, at its image's base there."""
    base = PersistentCacheSession._base_of(process)(persisted.image_path)
    selector = TraceSelector(process.space.mapping_at)
    return Translator(DEFAULT_COST_MODEL, NullTool()).translate(
        selector.select(base + persisted.image_offset, persisted.image_path,
                        base)
    ).translated


@pytest.mark.parametrize(
    "app_name, input_name, layout",
    [("gvim", "startup", None), ("dia", "startup", None),
     ("176.gcc", "train", None), ("gvim", "startup", PerturbedLayout(7))],
    ids=["gvim-startup", "dia-startup", "176.gcc-train",
         "gvim-startup-rebased"],
)
def test_revived_uops_match_a_fresh_translation(
    gui_apps, tmp_path, app_name, input_name, layout
):
    """Every persisted trace revives to the uops, exits and code bytes
    (body and exit stubs) that selecting and translating it fresh gives,
    and its on-demand instructions are the decoded body.  A trace
    rebased into a moved layout included: its stubs encode the rebased
    exit targets, so it keys its compiled body as a fresh translation
    there would."""
    app = program(gui_apps, app_name)
    rebase = layout is not None
    traces = persisted_traces(warm_database(app, input_name, tmp_path))
    process = app.load(layout)
    base_of = PersistentCacheSession._base_of(process)
    assert len(traces) > 100
    for persisted in traces:
        revived = revive_trace(persisted, NullTool(), base_of, rebase)
        fresh = fresh_translation(process, persisted)
        assert revived.trace.uops == fresh.trace.uops, hex(persisted.entry)
        assert revived.trace.exits == fresh.trace.exits
        assert revived.code_bytes == fresh.code_bytes, hex(persisted.entry)
        body = revived.code_bytes[: len(persisted.uops) * 8]
        assert revived.trace.instructions == decode_all(body)
    if rebase:
        assert any(base_of(persisted.image_path) + persisted.image_offset
                   != persisted.entry for persisted in traces)


def _cache_state(cache, machine):
    """What a preload leaves behind, as comparable data: each resident
    in insertion order with its code-cache fields and the entry each
    slot links to, the pending-link map as ``(owner entry, slot
    position)`` lists, the ``HostStats.cache`` counters and the tracked
    code pages."""
    residents = cache.traces()
    owner = {id(slot): (resident.entry, position)
             for resident in residents
             for position, slot in enumerate(resident.links)}
    state = []
    for resident in residents:
        links = resident.links
        for slot in links:
            assert (slot.linked_resident is None
                    or cache.lookup(slot.exit.target) is slot.linked_resident)
        state.append((
            resident.entry, resident.trace.uops, resident.trace.exits,
            resident.trace.image_path, resident.trace.image_base,
            resident.code_bytes, resident.code_size, resident.data_size,
            resident.liveness, resident.points, resident.points_by_index,
            resident.cache_offset, resident.executions,
            resident.compiled_body,
            [slot.exit for slot in links],
            [(index, owner[id(slot)])
             for index, slot in sorted(resident.branch_slots.items())],
            owner[id(resident.final_slot)] if links else None,
            [None if slot.linked_resident is None
             else slot.linked_resident.entry for slot in links],
        ))
    pending = {target: [owner[id(slot)] for slot in slots]
               for target, slots in cache._pending_links.items()}
    return (state, pending, cache.occupancy(),
            sorted(machine.executed_code_pages),
            [mapping.code_free for mapping in machine.process.space.mappings])


@pytest.mark.parametrize(
    "app_name, input_name, layout",
    [("gvim", "startup", None), ("dia", "startup", None),
     ("file-roller", "startup", None), ("gqview", "startup", None),
     ("gftp", "startup", None), ("176.gcc", "ref-1", None),
     ("gvim", "startup", PerturbedLayout(7))],
    ids=["gvim", "dia", "file-roller", "gqview", "gftp", "176.gcc",
         "gvim-rebased"],
)
def test_preload_builds_the_cache_fresh_translations_build(
    gui_apps, tmp_path, app_name, input_name, layout
):
    """After ``on_process_start`` the code cache equals the one that
    selecting and translating every persisted trace fresh and inserting
    them in file order builds: residents, offsets, slots and their
    links, pending links, cache counters and tracked code pages, page
    ranges tracked in the same order.  Only ``from_persistent`` and
    ``demand_loaded`` tell them apart."""
    app = program(gui_apps, app_name)
    rebase = layout is not None
    database = CacheDatabase(str(tmp_path))
    run_vm(app, input_name, persistence=PersistenceConfig(
        database=database, relocatable=rebase))
    traces = persisted_traces(database)

    machine = Machine(app.load(layout))
    session = PersistentCacheSession(PersistenceConfig(
        database=database, relocatable=rebase, readonly=True))
    engine = Engine(persistence=session)
    tracked = []
    cache = CodeCache(track_pages=_recording(machine, tracked),
                      stats=engine.host.cache)
    session.on_process_start(engine, machine, cache, VMStats())
    assert engine.host.preloaded == len(traces) > 100
    assert (engine.host.rebased > 0) == rebase
    assert all(resident.from_persistent and not resident.demand_loaded
               for resident in cache.traces())

    oracle_machine = Machine(app.load(layout))
    oracle_tracked = []
    oracle = CodeCache(
        track_pages=_recording(oracle_machine, oracle_tracked))
    for persisted in traces:
        oracle.insert(fresh_translation(oracle_machine.process, persisted))
    assert engine.host.cache == oracle.stats
    assert tracked == oracle_tracked
    assert _cache_state(cache, machine) == _cache_state(oracle,
                                                        oracle_machine)


def test_a_cache_whose_records_moved_revives_its_records(gui_apps, tmp_path):
    """A cache revives the rows it holds now: a row dropped from a
    parsed file is not preloaded."""
    app = gui_apps["gftp"]
    database = warm_database(app, "startup", tmp_path)
    [entry] = database.entries()
    cache = PersistentCache.load(
        "%s/%s" % (database.directory, entry.filename))
    count = len(cache.traces)
    assert cache.drop_traces({cache.traces[0].identity}) == 1
    assert len(cache.traces) == count - 1
    warm = run_vm(app, "startup", persistence=PersistenceConfig(
        prime_with=cache, readonly=True))
    assert warm.host.preloaded == count - 1


def _recording(machine, calls):
    """``machine.track_code_pages``, logging each ``(first, last)``."""
    def track(first, last):
        calls.append((first, last))
        machine.track_code_pages(first, last)
    return track


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


def test_cold_gui_runs_build_no_instructions(gui_apps, monkeypatch):
    """A cold NullTool run of each GUI app selects and translates every
    trace from its code bytes: nothing fetches a pc, decodes a word,
    reads a trace's instructions or builds any other Instruction."""
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("an Instruction was built")

    monkeypatch.setattr(Machine, "fetch_uop", refuse)
    monkeypatch.setattr(encoding, "decode", refuse)
    monkeypatch.setattr(Trace, "instructions", property(refuse))
    # The constructor and the decoder's shortcut past its checks.
    monkeypatch.setattr(Instruction, "__init__", refuse)
    monkeypatch.setattr(instructions, "_new", refuse)
    for name, app in sorted(gui_apps.items()):
        cold = run_vm(app, "startup", tool=NullTool())
        assert cold.exit_status == app.input("startup").exit_status, name
        assert cold.stats.traces_translated > 100, name
    assert built == []


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
        key = ("region", None, _key(), _key(entry=0x401018, links=((1, 0),)))
        assert _body_digest(key) == (
            "7dd24534767b55dbd7fa5b1ea46dff3f46cd8ccf594971bdad88e1f404826c51"
        )

    def test_loop_key_golden(self):
        key = ("region", 0, _key(), _key(entry=0x401018, links=((0, 0),)))
        assert _body_digest(key) == (
            "9698c6286b8712d97c4e9bf3b8ad48bc4756b853b36ba94a61b41a38fb2c7c9c"
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
        assert _body_digest(("region", None, member)) != _body_digest(member)
        assert _body_digest(
            ("region", None, member, _key(entry=0x401018))
        ) != _body_digest(("region", None, _key(entry=0x401018), member))

    def test_loop_differs_from_its_straight_chain(self):
        """A loop's digest names its back edge: the same members as a
        straight region, or closed through another exit, differ."""
        tail = _key(entry=0x401018, links=((0, 0), (2, 1)))
        digests = {
            _body_digest(("region", back, _key(), tail))
            for back in (None, 0, 1)
        }
        assert len(digests) == 3
