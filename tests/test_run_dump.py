"""Golden dump of what whole runs do: outputs, counters and cache bytes.

Each of the 5 GUI ``startup`` runs and the 11 SPEC ``ref-1`` programs
runs cold, warm and warm again against a database of its own; 176.gcc
and 253.perlbmk also run ``ref-1``, ``ref-2`` and ``ref-3`` in turn
against one database each, which accumulates the new traces of every
input.  Four more databases reach the other write-backs: gvim started
cold, then at a ``PerturbedLayout`` without position independence (the
invalid traces are dropped and the new ones join the parsed ones in
one file) and with it (the rebased revive); ``dlopen_smc``, whose
module is closed before exit, so its traces are converted at unload
and written at exit; and 164.gzip in a code pool small enough to flush,
so a flush write-back comes before the exit one.  Every leg records its exit status, a digest of its output, its
``VMStats`` (sets sorted), its ``HostStats`` with no field left out,
the sha256 of every ``.cache`` file in the database after it, and the
digests of the registers and memory the run leaves
(:func:`tests.conftest.final_state`).  A long
``VMStats`` list is recorded as its length and digest.  The
compiled-body sidecar (``.pcs``) and ``index.json`` are left out: a
marshal blob need not repeat byte for byte.

The runs share one process.  Since a run keeps no state beyond its own
result (the closure-factory memo dies with its engine), each leg gives
what a run in a new process gives; ``bench/run.py`` forks one child per
run and reads the same numbers.

A change that moves a recorded field must say which field moved and
why, and record the fixture again with
``PYTHONPATH=src python -m tests.test_run_dump`` from the repository
root.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.loader.layout import PerturbedLayout
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm.engine import VMConfig
from repro.workloads.adversarial import build_adversarial_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.spec2k import build_suite

from tests.conftest import recording_final_state

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "run_dump.json")

#: Legs of one database each: ``(label, program, inputs in run order)``.
ACCUMULATING = (
    ("176.gcc-acc", "176.gcc", ("ref-1", "ref-2", "ref-3")),
    ("253.perlbmk-acc", "253.perlbmk", ("ref-1", "ref-2", "ref-3")),
)

#: Legs of one database each that reach the other write paths:
#: ``(label, program, input, ((leg, run options), ...))``.
WRITE_PATHS = (
    ("gvim-moved", "gvim", "startup", (
        ("cold", {}),
        ("moved", {"layout": PerturbedLayout(7)}),
    )),
    ("gvim-rebased", "gvim", "startup", (
        ("cold", {"relocatable": True}),
        ("moved", {"layout": PerturbedLayout(7), "relocatable": True}),
    )),
    ("dlopen_smc", "dlopen_smc", "run", (("cold", {}), ("warm", {}))),
    ("164.gzip-flush", "164.gzip", "ref-1", (
        ("flush", {"vm_config": VMConfig(code_pool_bytes=2000)}),
        ("warm", {}),
    )),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _canonical(value):
    """``value`` as JSON-able data that compares equal across runs: sets
    sorted, tuples as lists, dict keys in order."""
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item)
                for key, item in sorted(value.items())}
    return value


def _vmstats(stats) -> dict:
    """Every field; a list field (the translation events, the trace
    identities) as its length and the digest of its canonical JSON."""
    fields = {}
    for item in dataclasses.fields(stats):
        value = _canonical(getattr(stats, item.name))
        if isinstance(value, list):
            value = {"len": len(value),
                     "sha256": _sha(json.dumps(value).encode())}
        fields[item.name] = value
    return fields


def _cache_files(directory: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cache"):
            with open(os.path.join(directory, name), "rb") as handle:
                digests[name] = _sha(handle.read())
    return digests


def _leg(program, input_name, directory: str, layout=None,
         relocatable=False, vm_config=None) -> dict:
    result = run_vm(
        program, input_name, layout=layout, vm_config=vm_config,
        persistence=PersistenceConfig(database=CacheDatabase(directory),
                                      relocatable=relocatable))
    return {
        "exit_status": result.exit_status,
        "output_sha256": _sha(result.output),
        "vmstats": _vmstats(result.stats),
        "host": _canonical(result.host.to_dict()),
        "cache_files": _cache_files(directory),
        "final_state": result.final_state,
    }


def dump(root: str) -> dict:
    """Every leg, keyed ``<program>/<input>/<leg>``, each database under
    ``root``."""
    apps, _store = build_gui_suite()
    spec = build_suite()
    programs = {**apps, **spec, **build_adversarial_suite()}
    cases = [(name, apps[name], "startup") for name in sorted(apps)]
    cases += [(name, spec[name], "ref-1") for name in sorted(spec)]
    legs = {}
    with recording_final_state():
        for name, program, input_name in cases:
            directory = os.path.join(root, name)
            for leg in ("cold", "warm", "warm2"):
                legs["%s/%s/%s" % (name, input_name, leg)] = _leg(
                    program, input_name, directory)
        for label, name, inputs in ACCUMULATING:
            directory = os.path.join(root, label)
            for input_name in inputs:
                legs["%s/%s/accumulate" % (label, input_name)] = _leg(
                    spec[name], input_name, directory)
        for label, name, input_name, runs in WRITE_PATHS:
            directory = os.path.join(root, label)
            for leg, options in runs:
                legs["%s/%s/%s" % (label, input_name, leg)] = _leg(
                    programs[name], input_name, directory, **options)
    return legs


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return dump(str(tmp_path_factory.mktemp("run-dump")))


def test_every_leg_is_recorded(recorded, current):
    assert sorted(current) == sorted(recorded)


@pytest.mark.parametrize("part", [
    "exit_status", "output_sha256", "vmstats", "host", "cache_files",
    "final_state",
])
def test_legs_match_the_recording(recorded, current, part):
    moved = {}
    for leg in sorted(set(current) & set(recorded)):
        was, now = recorded[leg][part], current[leg][part]
        if was == now:
            continue
        if isinstance(now, dict):
            moved[leg] = {key: [was.get(key), now.get(key)]
                          for key in sorted(set(was) | set(now))
                          if was.get(key) != now.get(key)}
        else:
            moved[leg] = [was, now]
    assert not moved, "moved [recorded, now]: %s" % json.dumps(
        moved, indent=1, sort_keys=True)[:4000]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        legs = dump(scratch)
    with open(FIXTURE, "w") as handle:
        json.dump(legs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d legs in %s" % (len(legs), FIXTURE), file=sys.stderr)
