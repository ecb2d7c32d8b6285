"""Stateful property test: persistence transparency under arbitrary runs.

The system's core safety property: no matter what sequence of runs shares
a cache database — different inputs, relocated layouts, position-
independent mode on or off — every run's *architectural* outcome (exit
status, instruction count, output) equals a clean native run of the same
input under the same layout.  Invalidation bugs, stale-literal reuse, or
accumulation corruption would all break this.
"""

from hypothesis import given, settings, strategies as st

from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.workloads.harness import run_native, run_vm

from tests.test_persist_manager import mini_workload

_INPUTS = ("a", "b", "ab")
_LAYOUT_SEEDS = (None, 3, 7)

run_step = st.tuples(
    st.sampled_from(_INPUTS),
    st.sampled_from(_LAYOUT_SEEDS),
    st.booleans(),  # position-independent translations
)


def _layout(seed):
    return FixedLayout() if seed is None else PerturbedLayout(seed)


@settings(max_examples=12, deadline=None)
@given(steps=st.lists(run_step, min_size=1, max_size=6))
def test_any_run_sequence_is_transparent(steps, tmp_path_factory):
    workload = mini_workload()
    database = CacheDatabase(str(tmp_path_factory.mktemp("seqdb")))

    # Native references, computed once per (input, seed) pair.
    references = {}
    for input_name, seed, _pic in steps:
        key = (input_name, seed)
        if key not in references:
            references[key] = run_native(
                workload, input_name, layout=_layout(seed)
            )

    for input_name, seed, pic in steps:
        result = run_vm(
            workload,
            input_name,
            persistence=PersistenceConfig(database=database, relocatable=pic),
            layout=_layout(seed),
        )
        reference = references[(input_name, seed)]
        assert result.exit_status == reference.exit_status
        assert result.instructions == reference.instructions
        assert result.output == reference.output


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(run_step, min_size=2, max_size=5))
def test_cache_files_always_parse(steps, tmp_path_factory):
    """Whatever sequence wrote the cache, the file stays well-formed."""
    import os

    from repro.persist.cachefile import PersistentCache

    workload = mini_workload()
    database = CacheDatabase(str(tmp_path_factory.mktemp("seqdb")))
    for input_name, seed, pic in steps:
        run_vm(
            workload,
            input_name,
            persistence=PersistenceConfig(database=database, relocatable=pic),
            layout=_layout(seed),
        )
    for entry in database.entries():
        cache = PersistentCache.load(
            os.path.join(database.directory, entry.filename)
        )
        # Identities are unique and every directory record is consistent.
        identities = [trace.identity for trace in cache.traces]
        assert len(identities) == len(set(identities))
        for trace in cache.traces:
            assert len(trace.code) >= len(trace.uops) * 8
            assert trace.data_size > 0
