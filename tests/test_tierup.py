"""Hotness tier-up: interpreting cold traces must change nothing.

The contract (:mod:`repro.vm.compile`'s tier-up): every trace, fresh
or revived from the persistent cache, runs on the cold tier until a
body is attached.  On entry ``min(compile_threshold, BIND_THRESHOLD)``
it binds a body that the run's factory memo or the attached store
holds, at no host ``compile()``; on entry ``compile_threshold`` it
host-compiles one that neither held; never earlier.  At a threshold of
32 or below both happen on one entry.
Because the interpreted oracle and the compiled tier are bit-identical
*per execution*, every observable of a run (output, exit status, every
``VMStats`` field, code-cache occupancy, the registers and memory it
leaves) must be the same at every threshold, through SMC, cache churn
and a persistence round trip.
"""

import sys
from collections import Counter, namedtuple
from dataclasses import replace

import pytest

from repro.loader.linker import load_process
from repro.machine.cpu import ExecutionContext
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.persist.sharedstore import SharedBodyStore
from repro.persist.sidecar import CompiledBodyStore
from repro.vm import compile as vm_compile
from repro.vm.codecache import CodeCache
from repro.vm.compile import (
    BIND_THRESHOLD,
    DEFAULT_COMPILE_THRESHOLD,
    TraceCompiler,
)
from repro.vm.engine import VM_VERSION, Engine, EngineError, VMConfig
from repro.workloads.chains import build_chain_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.spec2k import build_suite
from repro.workloads.warmup import build_warmup_workload

from tests.conftest import signature
from tests.test_loop_regions import EXIT, PAGE, program
from tests.test_smc import build_smc_image

#: Every engine run's result carries its machine's final state, which
#: :func:`~tests.conftest.signature` compares.
pytestmark = pytest.mark.usefixtures("final_states")

THRESHOLDS = (1, 2, BIND_THRESHOLD, DEFAULT_COMPILE_THRESHOLD)
ORACLE = VMConfig(dispatch_mode="interpreted")

#: One ``TraceCompiler.compile`` call: the trace, the entry it was made
#: on, its ``stored`` and ``host`` arguments and what it returned.
Call = namedtuple("Call", "trace entry stored host body")


def assert_thresholds_match_oracle(run_one, context):
    """``run_one(config)`` at every threshold equals the oracle run."""
    oracle = signature(run_one(ORACLE))
    results = {}
    for threshold in THRESHOLDS:
        results[threshold] = run_one(VMConfig(compile_threshold=threshold))
        assert signature(results[threshold]) == oracle, (
            "%s diverged at compile_threshold=%d" % (context, threshold)
        )
    return results


@pytest.fixture
def compile_log(monkeypatch):
    """Every ``TraceCompiler.compile`` call, as a :class:`Call`."""
    calls = []
    original = TraceCompiler.compile

    def recording(self, translated, stored=True, host=True):
        entry = translated.executions
        body = original(self, translated, stored, host)
        calls.append(Call(translated, entry, stored, host, body))
        return body

    monkeypatch.setattr(TraceCompiler, "compile", recording)
    return calls


def loop_image(trips: int, phases: int = 1):
    """A self-loop of ``trips`` iterations on a code page of its own,
    entered ``phases`` times.  Between phases ``main`` stores the loop's
    first word back over itself: the store changes no byte but evicts
    the loop's trace, so the next phase translates it again with the
    same factory key."""
    return program(
        "main:",
        "    movi t9, %d" % phases,
        "    movi t5, loop",
        "    ld t2, 0(t5)",
        "phase:",
        "    movi s0, %d" % trips,
        "    jmp loop",
        "back:",
        "    st t2, 0(t5)",
        "    addi t9, t9, -1",
        "    bne t9, zero, phase",
        *EXIT,
        PAGE,
        "loop:",
        "    addi s1, s1, 1",
        "    addi s0, s0, -1",
        "    bne s0, zero, loop",
        "    jmp back",
    )


def run_image(image, config=VMConfig(), database=None):
    """One engine run of ``image``, against ``database`` when given."""
    persistence = None
    if database is not None:
        persistence = PersistentCacheSession(
            PersistenceConfig(database=database))
    return Engine(config=config, persistence=persistence).run(
        load_process(image))


class TestDifferential:
    """Thresholds 1, 2, 32 and the default (128, where the bind and the
    host entry differ) vs. the interpreted oracle."""

    def test_startup_corpus_all_tiers(self):
        """The compile-dominated warm-up corpus: most traces run once,
        so the default tier leaves them interpreted."""
        workload = build_warmup_workload("startup_a")
        results = assert_thresholds_match_oracle(
            lambda config: run_vm(workload, "default", vm_config=config),
            "warmup corpus",
        )
        assert results[1].link_stats.link_direct_hops > 0

    def test_hot_chains_tier_up(self):
        """Hot re-entered chains reach their compile entry and link."""
        workload = build_chain_suite()["relay_4"]
        results = assert_thresholds_match_oracle(
            lambda config: run_vm(workload, "run", vm_config=config),
            "relay_4",
        )
        for result in results.values():
            assert result.link_stats.link_direct_hops > 0
            assert result.link_stats.link_bounces == 0

    def test_smc_under_tier_up(self):
        """Self-modifying code evicts traces at every threshold."""
        results = assert_thresholds_match_oracle(
            lambda config: Engine(config=config).run(
                load_process(build_smc_image())
            ),
            "smc",
        )
        for result in results.values():
            assert result.exit_status == 99
            assert result.stats.smc_invalidations > 0

    def test_cache_churn_under_tier_up(self):
        """A 768-byte pool flushes mid-run: execution counts die with
        the flushed traces and every flush epoch stays bit-identical."""
        apps, _store = build_gui_suite()
        _name, app = sorted(apps.items())[0]

        def run_one(config):
            return run_vm(app, "startup",
                          vm_config=replace(config, code_pool_bytes=768))

        results = assert_thresholds_match_oracle(run_one, "cache churn")
        for result in results.values():
            assert result.stats.cache_flushes > 0

    def test_persistence_round_trip(self, tmp_path):
        """Cold then warm over one database per threshold: revived
        traces tier up by the same rule and the pair still matches the
        interpreted oracle's pair."""
        workload = build_warmup_workload("startup_b")

        def round_trip(config, tag):
            results = []
            for _run in ("cold", "warm"):
                results.append(run_vm(
                    workload, "default",
                    persistence=PersistenceConfig(
                        database=CacheDatabase(str(tmp_path / tag))
                    ),
                    vm_config=config,
                ))
            return results

        oracle = [signature(r) for r in round_trip(ORACLE, "oracle")]
        for threshold in THRESHOLDS:
            cold, warm = round_trip(
                VMConfig(compile_threshold=threshold), "t%d" % threshold
            )
            assert [signature(cold), signature(warm)] == oracle, threshold
            assert warm.stats.traces_from_persistent > 0

    def test_invalid_threshold_rejected(self):
        workload = build_warmup_workload("startup_a")
        with pytest.raises(EngineError):
            run_vm(workload, "default",
                   vm_config=VMConfig(compile_threshold=0))

    def test_unreachable_threshold_runs_fully_interpreted(self, compile_log):
        """With a threshold no trace reaches, nothing compiles and the
        run is the oracle run: with no store, the bind entries find
        nothing to bind."""
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        result = run_vm(workload, "run",
                        vm_config=VMConfig(compile_threshold=10 ** 9))
        assert signature(result) == signature(oracle)
        assert [call for call in compile_log if call.body is not None] == []


def _warm_db(tmp_path, workload, input_name, config):
    """A database that one cold ``config`` run of ``workload`` filled."""
    db = str(tmp_path / "db")
    run_vm(workload, input_name,
           persistence=PersistenceConfig(database=CacheDatabase(db)),
           vm_config=config)
    return db


class TestTierUpRule:
    """Pins the tier-up rule: a held body binds on the bind entry, a
    host compile lands on the threshold entry, and nothing happens
    between or before them."""

    @pytest.mark.parametrize("threshold", [2, BIND_THRESHOLD,
                                           DEFAULT_COMPILE_THRESHOLD])
    def test_fresh_trace_compiles_on_its_nth_entry(self, compile_log,
                                                   threshold):
        """Every call happens on the trace's bind or threshold entry,
        after that entry was counted; the bind entry below the
        threshold never host-compiles, and the threshold entry above
        the bind entry never probes the store again."""
        bind_at = min(threshold, BIND_THRESHOLD)
        result = run_vm(
            build_warmup_workload("startup_a"), "default",
            vm_config=VMConfig(compile_threshold=threshold),
        )
        assert compile_log
        assert {call.entry for call in compile_log} <= {bind_at, threshold}
        for call in compile_log:
            assert call.stored == (call.entry == bind_at)
            assert call.host == (call.entry == threshold)
        assert result.stats.traces_translated > len(compile_log)

    def test_linked_successor_compiles_on_its_nth_entry(self, compile_log):
        """A successor a closure hands over compiles on its threshold
        entry too, after that entry was counted: the dispatch loop
        counts every entry before it decides."""
        run_vm(build_chain_suite()["relay_4"], "run",
               vm_config=VMConfig(compile_threshold=5))
        assert compile_log
        for call in compile_log:
            assert call.entry == 5
            assert call.trace.executions >= 5

    def test_memo_hit_compiles_at_threshold(self, compile_log):
        """A trace the run translates again after a code-cache flush
        finds its factory in the run's memo: the hit saves the host
        compile() but still waits for the threshold entry, and every
        factory is either a memo hit or a host compile."""
        apps, _store = build_gui_suite()
        result = run_vm(
            apps["dia"], "startup",
            vm_config=VMConfig(compile_threshold=2, code_pool_bytes=768),
        )
        host = result.host
        assert result.stats.cache_flushes > 0
        assert host.memo_hits > 0
        assert compile_log
        assert {call.entry for call in compile_log} == {2}
        assert host.memo_hits + host.host_compiles == (
            host.compiles + host.regions_compiled
        )

    def test_memo_and_stored_bodies_bind_on_the_bind_entry(
            self, tmp_path, compile_log):
        """At the default threshold a body the store holds binds on the
        trace's 32nd entry, and so does the memo's copy of it when a
        store into the loop's page (of the word it holds) makes the run
        translate the loop again: no host compile()."""
        image = loop_image(40, phases=2)
        db = CacheDatabase(str(tmp_path / "db"))
        run_image(image, VMConfig(compile_threshold=BIND_THRESHOLD), db)
        del compile_log[:]
        warm = run_image(image, database=db)
        host = warm.host
        assert warm.stats.smc_invalidations > 0
        assert (host.body_hits, host.memo_hits, host.host_compiles) == (
            1, 1, 0)
        assert [(call.entry, call.host) for call in compile_log
                if call.body is not None] == [(BIND_THRESHOLD, False)] * 2

    def test_trace_with_no_held_body_compiles_on_the_threshold_entry(
            self, monkeypatch, compile_log):
        """With neither the memo nor a store holding its body, the loop
        runs on the cold tier through entry 127: its bind entry finds
        nothing, and entry 128 host-compiles it."""
        cold = Counter()
        original = ExecutionContext.run_uops

        def counting(context, uops, entry):
            cold[entry] += 1
            return original(context, uops, entry)

        monkeypatch.setattr(ExecutionContext, "run_uops", counting)
        result = run_image(loop_image(2 * DEFAULT_COMPILE_THRESHOLD))
        assert [(call.entry, call.body is None) for call in compile_log] == [
            (BIND_THRESHOLD, True), (DEFAULT_COMPILE_THRESHOLD, False)]
        assert compile_log[0].trace is compile_log[1].trace
        assert cold[compile_log[0].trace.entry] == (
            DEFAULT_COMPILE_THRESHOLD - 1)
        assert result.host.host_compiles == 1

    @pytest.mark.parametrize("threshold", [2, BIND_THRESHOLD])
    def test_low_threshold_binds_and_compiles_on_one_entry(
            self, tmp_path, compile_log, threshold):
        """At 32 or below the bind and the host entry are one: each
        trace makes one call, which may bind or host-compile, and a run
        against the database it filled binds every body on that entry."""
        image = loop_image(40)
        db = CacheDatabase(str(tmp_path / "db"))
        config = VMConfig(compile_threshold=threshold)
        cold = run_image(image, config, db)
        warm = run_image(image, config, db)
        assert cold.host.host_compiles > 0
        assert warm.host.host_compiles == 0
        assert warm.host.body_hits == cold.host.host_compiles
        assert compile_log
        for call in compile_log:
            assert (call.entry, call.stored, call.host) == (
                threshold, True, True)
            assert call.body is not None

    def test_bind_miss_then_host_compile_probes_the_store_once(
            self, tmp_path, monkeypatch, compile_log):
        """The threshold entry after a bind-entry miss host-compiles
        without a second probe: one ``lookup_code`` call, one shared
        pool miss, and the body is recorded for the next process."""
        probes = []
        original = CompiledBodyStore.lookup_code

        def counting(store, digest):
            probes.append(digest)
            return original(store, digest)

        monkeypatch.setattr(CompiledBodyStore, "lookup_code", counting)
        pool = SharedBodyStore(str(tmp_path / "store"),
                               vm_version=VM_VERSION)
        db = CacheDatabase(str(tmp_path / "db"), shared_store=pool)
        result = run_image(loop_image(2 * DEFAULT_COMPILE_THRESHOLD),
                           database=db)
        assert [(call.entry, call.stored, call.host)
                for call in compile_log] == [
            (BIND_THRESHOLD, True, False),
            (DEFAULT_COMPILE_THRESHOLD, False, True)]
        assert len(probes) == 1
        assert result.host.shared_misses == 1
        assert result.host.host_compiles == 1
        assert result.host.sidecar_new_entries == 1

    def test_runs_share_no_factories(self):
        """The memo dies with its run: a second gvim start-up in the same
        process, without persistence, host-compiles every body the
        first one did (44 trace bodies at threshold 32; its short loops
        fuse no region)."""
        apps, _store = build_gui_suite()
        config = VMConfig(compile_threshold=BIND_THRESHOLD)
        first, second = [run_vm(apps["gvim"], "startup", vm_config=config)
                         for _ in range(2)]
        assert first.host.host_compiles == 44
        assert first.host.regions_compiled == 0
        assert second.host.memo_hits == 0
        assert second.host.host_compiles == first.host.host_compiles

    def test_stored_body_binds_at_threshold(self, tmp_path, compile_log):
        """A body the sidecar holds needs no host compile(), but it is
        bound on the trace's bind entry, not its first."""
        workload = build_warmup_workload("startup_a")
        db = _warm_db(tmp_path, workload, "default",
                      VMConfig(compile_threshold=1))
        del compile_log[:]
        warm = run_vm(
            workload, "default",
            persistence=PersistenceConfig(database=CacheDatabase(db)),
        )
        assert warm.host.host_compiles == 0
        assert warm.host.body_hits > 0
        assert compile_log
        assert {call.entry for call in compile_log} == {BIND_THRESHOLD}

    def test_revived_trace_below_threshold_never_compiles(self, tmp_path,
                                                          monkeypatch):
        """A revived trace tiers up by the same rule as a fresh one: the
        startup code a warm gvim run enters fewer than
        ``BIND_THRESHOLD`` times stays on the cold tier, what it enters
        more often binds the bodies a threshold-32 run stored, and a
        warm run of the input that filled the database records no new
        body."""
        inserted = []
        original = CodeCache.insert

        def recording(cache, *residents):
            inserted.extend(residents)
            return original(cache, *residents)

        monkeypatch.setattr(CodeCache, "insert", recording)
        apps, _store = build_gui_suite()
        db = _warm_db(tmp_path, apps["gvim"], "startup",
                      VMConfig(compile_threshold=BIND_THRESHOLD))
        del inserted[:]
        warm = run_vm(
            apps["gvim"], "startup",
            persistence=PersistenceConfig(database=CacheDatabase(db)),
        )
        revived = [t for t in inserted if t.from_persistent]
        cold = [t for t in revived if 1 < t.executions < BIND_THRESHOLD]
        assert len(cold) > 100
        assert all(t.compiled_body is None for t in cold)
        hot = [t for t in revived if t.executions >= BIND_THRESHOLD]
        assert hot
        assert all(t.compiled_body is not None for t in hot)
        assert warm.host.sidecar_new_entries == 0
        assert warm.host.host_compiles == 0

    @staticmethod
    def _cold_gvim_digests(tmp_path, monkeypatch, threshold):
        """A cold gvim start-up against an empty database, and every key
        ``_body_digest`` was called with."""
        digests = []
        original = vm_compile._body_digest

        def counting(key):
            digests.append(key)
            return original(key)

        monkeypatch.setattr(vm_compile, "_body_digest", counting)
        apps, _store = build_gui_suite()
        result = run_vm(
            apps["gvim"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
            vm_config=VMConfig(compile_threshold=threshold),
        )
        assert result.stats.traces_translated > 500
        return result, digests

    def test_cold_run_digests_only_what_it_compiles(self, tmp_path,
                                                    monkeypatch):
        """Against an empty database at threshold 32, the run takes a
        body digest only to look up and record each host compile."""
        result, digests = self._cold_gvim_digests(tmp_path, monkeypatch,
                                                  BIND_THRESHOLD)
        assert result.host.host_compiles > 0
        assert len(digests) == result.host.host_compiles

    def test_cold_run_digests_one_probe_per_bind_entry(
            self, tmp_path, monkeypatch, compile_log):
        """At the default, the same run takes one digest per trace that
        reached its bind entry, to probe the store, and compiles
        nothing: 44 probes, none of which can hit."""
        result, digests = self._cold_gvim_digests(
            tmp_path, monkeypatch, DEFAULT_COMPILE_THRESHOLD)
        assert result.host.host_compiles == 0
        assert [call.entry for call in compile_log] == [BIND_THRESHOLD] * 44
        assert len(digests) == 44

    def test_keys_are_built_only_to_compile(self, tmp_path, monkeypatch,
                                            compile_log):
        """No first entry builds a factory-memo key: a cold gvim start-up
        builds one per bind or compile call and per region member,
        nowhere else."""
        callers = []
        original = vm_compile._trace_key

        def key(translated, cost):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a genexpr
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return original(translated, cost)

        monkeypatch.setattr(vm_compile, "_trace_key", key)
        apps, _store = build_gui_suite()
        result = run_vm(
            apps["gvim"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
        )
        assert result.stats.traces_translated > 500
        assert compile_log
        assert set(callers) <= {"compile", "compile_region"}
        assert callers.count("compile") == len(compile_log)

    def test_flushed_memo_still_finds_this_runs_bodies(self, tmp_path,
                                                       monkeypatch):
        """Once the memo flushes mid-run, a body this run recorded is in
        the store but no longer in the memo: a trace translated again
        after a code-cache flush binds it from the store on its
        threshold entry, and no digest is host-compiled twice."""
        monkeypatch.setattr(vm_compile, "_FACTORIES_CAP", 4)
        from_store = []
        compiled = Counter()
        original = TraceCompiler.compile

        def recording(self, translated, stored=True, host=True):
            key = vm_compile._trace_key(translated, self.cost)
            digest = vm_compile._body_digest(key)
            held = (digest in self.body_store.entries
                    and key not in self._factories)
            counters = self.host
            before = counters.body_hits, counters.host_compiles
            body = original(self, translated, stored, host)
            if counters.host_compiles > before[1]:
                compiled[digest] += 1
            if held:
                from_store.append((translated.executions,
                                   counters.body_hits - before[0]))
            return body

        monkeypatch.setattr(TraceCompiler, "compile", recording)
        apps, _store = build_gui_suite()
        result = run_vm(
            apps["dia"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
            vm_config=VMConfig(compile_threshold=2, code_pool_bytes=768),
        )
        assert result.stats.cache_flushes > 0
        assert from_store
        assert set(from_store) == {(2, 1)}
        assert compiled and set(compiled.values()) == {1}


class TestCorpusAtTheDefault:
    """What the default tier-up does to whole runs of the corpus."""

    def test_gui_startups_compile_nothing(self, tmp_path):
        """A GUI start-up's traces run a few dozen times at most: cold
        against an empty database, each of the five apps host-compiles
        nothing and stores no body."""
        apps, _store = build_gui_suite()
        for name, app in sorted(apps.items()):
            result = run_vm(app, "startup", persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / name))))
            assert result.host.host_compiles == 0, name
            assert result.host.sidecar_new_entries == 0, name

    def test_spec_loops_still_fuse_and_warm_runs_bind(self, tmp_path):
        """Each SPEC ``ref-1`` program still compiles and fuses its hot
        loop, and its warm rerun binds every body it needs from the
        database on the bind entry."""
        for name, program_ in sorted(build_suite().items()):
            db = str(tmp_path / name)
            cold, warm = [
                run_vm(program_, "ref-1", persistence=PersistenceConfig(
                    database=CacheDatabase(db)))
                for _leg in ("cold", "warm")
            ]
            assert cold.host.links.regions_fused >= 1, name
            assert warm.host.links.regions_fused >= 1, name
            assert warm.host.host_compiles == 0, name
            assert warm.host.body_hits > 0, name


class TestLinkBounces:
    def test_cold_successor_is_not_a_bounce(self, monkeypatch):
        """A hot trace whose linked successor is still below its compile
        entry hands the successor back to the dispatch loop to run
        interpreted; ``link_bounces`` keeps counting only uncompilable
        successors."""
        original = TraceCompiler.compile
        order = {}

        def alternating(self, translated, stored=True, host=True):
            # Every other trace in the ring stays cold until entry 64.
            rank = order.setdefault(id(translated), len(order))
            if rank % 2 == 0 and translated.executions < 64:
                return None
            return original(self, translated, stored, host)

        monkeypatch.setattr(TraceCompiler, "compile", alternating)
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        result = run_vm(workload, "run",
                        vm_config=VMConfig(compile_threshold=2))
        assert signature(result) == signature(oracle)
        assert result.link_stats.link_direct_hops > 0
        assert result.link_stats.link_bounces == 0
