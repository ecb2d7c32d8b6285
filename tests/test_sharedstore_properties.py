"""Property-based interleaving tests for the shared body store.

The invariant under test, quoted from the store's design contract:
*every digest referenced by a registered database's index is revivable
(exact bytes) or cleanly absent — never corrupt* — and it must hold
after **any** interleaving of publishes, touches, gcs, revives
(lookups), cap enforcement, and on-disk corruption.  Hypothesis drives
random operation sequences against a model: a digest's bytes are a pure
function of the digest (content addressing), so "revivable" is checked
exactly, and ``lookup`` may never raise or return foreign bytes no
matter what the sequence did to the files.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.persist.sharedstore import SharedBodyStore, shard_prefix
from repro.testing.faultfs import flip_byte, truncate_file
from repro.vm.engine import VM_VERSION

from tests.test_sharedstore import write_reference_index

pytestmark = pytest.mark.faultinject

#: A small digest universe spanning a handful of shards keeps the
#: interleavings dense: operations actually collide on shard files.
DIGESTS = tuple("%02x%062x" % (i % 4, i) for i in range(12))


def body_of(digest: str) -> bytes:
    return (b"canonical:" + digest.encode()) * 2


# Operations a sequence can take, as (opcode, payload) tuples.  Payload
# indexes pick digests; corrupt ops pick a victim shard and an offset.
OPS = st.one_of(
    st.tuples(st.just("publish"), st.lists(
        st.integers(0, len(DIGESTS) - 1), min_size=1, max_size=6)),
    st.tuples(st.just("touch"), st.lists(
        st.integers(0, len(DIGESTS) - 1), min_size=1, max_size=4)),
    st.tuples(st.just("revive"), st.integers(0, len(DIGESTS) - 1)),
    st.tuples(st.just("gc"), st.just(None)),
    st.tuples(st.just("gc-capped"), st.integers(0, 2000)),
    st.tuples(st.just("flip"), st.tuples(
        st.integers(0, len(DIGESTS) - 1), st.integers(0, 2**16))),
    st.tuples(st.just("truncate"), st.tuples(
        st.integers(0, len(DIGESTS) - 1), st.integers(0, 2**16))),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(OPS, min_size=1, max_size=24),
    referenced_idx=st.lists(
        st.integers(0, len(DIGESTS) - 1), min_size=0, max_size=8
    ),
)
def test_any_interleaving_keeps_referenced_digests_sound(
    tmp_path_factory, ops, referenced_idx
):
    tmp = tmp_path_factory.mktemp("interleave")
    store = SharedBodyStore(str(tmp / "store"), vm_version=VM_VERSION)
    store.clock = iter(range(1, 10_000)).__next__  # deterministic stamps
    referenced = sorted({DIGESTS[i] for i in referenced_idx})
    db_dir = str(tmp / "db")
    write_reference_index(db_dir, referenced)
    store.register_database(db_dir)

    for opcode, payload in ops:
        if opcode == "publish":
            store.publish({DIGESTS[i]: body_of(DIGESTS[i]) for i in payload})
        elif opcode == "touch":
            store.publish({}, touch=[DIGESTS[i] for i in payload])
        elif opcode == "revive":
            digest = DIGESTS[payload]
            blob = store.lookup(digest)  # must not raise
            assert blob is None or blob == body_of(digest), digest
        elif opcode == "gc":
            store.gc()
        elif opcode == "gc-capped":
            store.gc(max_bytes=payload)
        elif opcode in ("flip", "truncate"):
            index, offset = payload
            path = store.shard_path(shard_prefix(DIGESTS[index]))
            if os.path.exists(path) and os.path.getsize(path) > 0:
                if opcode == "flip":
                    flip_byte(path, offset % os.path.getsize(path))
                else:
                    truncate_file(path, offset % os.path.getsize(path))

    # The invariant, checked from a *fresh* store instance (no warm
    # shard cache hiding on-disk state):
    final = SharedBodyStore(str(tmp / "store"), vm_version=VM_VERSION)
    for digest in DIGESTS:
        blob = final.lookup(digest)  # never raises
        assert blob is None or blob == body_of(digest), digest
    # Structural soundness: every surviving file parses clean; damage
    # at most sits quarantined off to the side.
    assert final.fsck().clean
    # And an uncapped gc after the dust settles keeps every referenced,
    # still-present digest revivable (sweep may never remove them).
    survivors = {d for d in referenced if final.lookup(d) is not None}
    final.gc()
    for digest in survivors:
        assert final.lookup(digest) == body_of(digest), digest


@settings(max_examples=25, deadline=None)
@given(
    publishes=st.lists(
        st.lists(st.integers(0, len(DIGESTS) - 1), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    cap=st.integers(0, 4000),
)
def test_cap_enforcement_is_exact_bytes_or_absent(
    tmp_path_factory, publishes, cap
):
    """``gc``'s LRU cap after any publish order: the cap is honored and
    the survivors are bit-exact.  Every digest is referenced, so only
    the cap evicts."""
    tmp = tmp_path_factory.mktemp("cap")
    store = SharedBodyStore(str(tmp / "store"), vm_version=VM_VERSION)
    store.clock = iter(range(1, 10_000)).__next__
    db_dir = str(tmp / "db")
    write_reference_index(db_dir, DIGESTS)
    store.register_database(db_dir)
    for batch in publishes:
        store.publish({DIGESTS[i]: body_of(DIGESTS[i]) for i in batch})
        report = store.gc(max_bytes=cap)
        assert report.swept_entries == 0
        assert store.total_bytes() == report.remaining_bytes <= cap
    for digest in DIGESTS:
        blob = store.lookup(digest)
        assert blob is None or blob == body_of(digest), digest
