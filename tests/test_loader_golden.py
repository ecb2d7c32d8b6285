"""The loader's output, pinned: mapped bytes, load events and dlopen.

Every GUI and SPEC program is loaded under :class:`FixedLayout` and
:class:`PerturbedLayout` ``(7)``; the digest of each mapping's relocated
bytes, its base and size, the load events and the entry address must
equal the recording.  Each optional module a program carries is opened
as well.  Record the fixture again with
``PYTHONPATH=src python tests/test_loader_golden.py`` only when a change
means to move what the loader maps.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.binfmt.image import ImageBuilder, ImageKind
from repro.isa import instructions as ins
from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.loader.linker import LinkError, load_process
from repro.workloads.adversarial import build_adversarial_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.spec2k import build_suite

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "loader_golden.json")

LAYOUTS = {"fixed": FixedLayout, "perturbed-7": lambda: PerturbedLayout(7)}


def _mapping(mapping) -> list:
    return [mapping.image.path, mapping.base, mapping.size,
            hashlib.sha256(bytes(mapping.data)).hexdigest()]


def _programs() -> dict:
    apps, _store = build_gui_suite()
    programs = dict(apps)
    programs.update(build_suite())
    programs.update({name: workload for name, workload
                     in build_adversarial_suite().items() if workload.modules})
    return programs


def dump() -> dict:
    """``{"<program>/<layout>": what loading it maps}``."""
    loads = {}
    for name, program in sorted(_programs().items()):
        for layout_name, layout in LAYOUTS.items():
            process = program.load(layout())
            loads["%s/%s" % (name, layout_name)] = {
                "entry": process.entry_address,
                "events": [[event.image.path, event.base, event.size,
                            event.order] for event in process.load_events],
                "mappings": [_mapping(mapping)
                             for mapping in process.mappings],
                "modules": [_mapping(process.load_module(index))
                            for index in sorted(process.optional_modules)],
            }
    return loads


def test_loads_match_the_recording():
    with open(FIXTURE) as handle:
        recorded = json.load(handle)
    current = dump()
    assert sorted(current) == sorted(recorded)
    moved = sorted(key for key in recorded if current[key] != recorded[key])
    assert not moved


def _library(name, source_symbol):
    """A shared library whose one function calls ``source_symbol``."""
    builder = ImageBuilder(name, ImageKind.SHARED_LIBRARY, mtime=1)
    builder.add_function("%s_entry" % name.split(".")[0],
                         [ins.call(0), ins.ret()],
                         symbol_refs=[(0, source_symbol)])
    return builder.build()


def _host():
    builder = ImageBuilder("host", ImageKind.EXECUTABLE, mtime=1)
    builder.add_function("main", [ins.ret()])
    builder.add_function("helper", [ins.ret()])
    builder.set_entry("main")
    return builder.build()


def test_dlopen_of_a_module_that_does_not_link_leaves_no_trace():
    """A module with an undefined symbol fails to open with the
    "relocating module" error, leaves no mapping and no
    ``loaded_modules`` entry, and a later dlopen of a module that links
    still works and resolves into the executable."""
    broken = _library("broken.so", "nowhere")
    good = _library("good.so", "helper")
    process = load_process(_host(), optional_modules=[broken, good])
    mappings = list(process.space.mappings)
    with pytest.raises(LinkError, match="relocating module broken.so: "
                       "undefined symbol 'nowhere'"):
        process.load_module(0)
    assert process.loaded_modules == {}
    assert process.space.mappings == mappings
    mapping = process.load_module(1)
    assert process.loaded_modules == {1: mapping}
    helper = process.resolve_symbol("helper")
    assert int.from_bytes(mapping.data[4:8], "little") == helper


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(dump(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %s" % FIXTURE, file=sys.stderr)
