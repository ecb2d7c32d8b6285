"""Hotness tier-up: interpreting cold traces must change nothing.

The contract (:meth:`repro.vm.compile.TraceCompiler.compile_entry`): a
trace runs on the interpreted tier until its compile entry, decided
once at its first entry — 1 when its body needs no host ``compile()``
(factory-memo hit, or a body the attached store opened with), 2 when it was
revived from the persistent cache, otherwise ``compile_threshold``.
Because the interpreted oracle and the compiled tier are bit-identical
*per execution*, every observable of a run (output, exit status, every
``VMStats`` field, code-cache occupancy) must be the same at every
threshold, through SMC, cache churn and a persistence round trip.
"""

from dataclasses import replace

import pytest

from repro.loader.linker import load_process
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm import compile as vm_compile
from repro.vm.compile import (
    DEFAULT_COMPILE_THRESHOLD,
    TraceCompiler,
    clear_code_object_cache,
)
from repro.vm.engine import Engine, EngineError, VMConfig
from repro.workloads.chains import build_chain_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.warmup import build_warmup_workload

from tests.test_smc import build_smc_image

THRESHOLDS = (1, 2, DEFAULT_COMPILE_THRESHOLD)
ORACLE = VMConfig(dispatch_mode="interpreted")


def signature(result):
    return {
        "output": result.output,
        "exit_status": result.exit_status,
        "instructions": result.instructions,
        "stats": vars(result.stats),
        "cache_traces": result.cache_traces,
        "cache_code_bytes": result.cache_code_bytes,
        "cache_data_bytes": result.cache_data_bytes,
    }


def assert_thresholds_match_oracle(run_one, context):
    """``run_one(config)`` at every threshold equals the oracle run."""
    oracle = signature(run_one(ORACLE))
    results = {}
    for threshold in THRESHOLDS:
        clear_code_object_cache()
        results[threshold] = run_one(VMConfig(compile_threshold=threshold))
        assert signature(results[threshold]) == oracle, (
            "%s diverged at compile_threshold=%d" % (context, threshold)
        )
    return results


@pytest.fixture
def compile_log(monkeypatch):
    """Every ``TraceCompiler.compile`` call as ``(trace, executions)``."""
    calls = []
    original = TraceCompiler.compile

    def recording(self, translated):
        calls.append((translated, translated.executions))
        return original(self, translated)

    monkeypatch.setattr(TraceCompiler, "compile", recording)
    return calls


class TestDifferential:
    """Thresholds 1, 2 and the default vs. the interpreted oracle."""

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
        traces tier up by their own rule and the pair still matches the
        interpreted oracle's pair."""
        workload = build_warmup_workload("startup_b")

        def round_trip(config, tag):
            results = []
            for _run in ("cold", "warm"):
                clear_code_object_cache()
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
        """With an empty memo and a threshold no trace reaches, nothing
        compiles and the run is the oracle run."""
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        clear_code_object_cache()
        result = run_vm(workload, "run",
                        vm_config=VMConfig(compile_threshold=10 ** 9))
        assert signature(result) == signature(oracle)
        assert compile_log == []


class TestCompileEntryRule:
    """Pins each branch of the compile-entry decision."""

    @pytest.mark.parametrize("threshold", [2, DEFAULT_COMPILE_THRESHOLD])
    def test_fresh_trace_compiles_on_its_nth_entry(self, compile_log,
                                                   threshold):
        """Every compile happens on the trace's compile entry, after
        that entry was counted."""
        clear_code_object_cache()
        result = run_vm(
            build_warmup_workload("startup_a"), "default",
            vm_config=VMConfig(compile_threshold=threshold),
        )
        assert compile_log
        assert {entry for _trace, entry in compile_log} == {threshold}
        assert result.stats.traces_translated > len(compile_log)

    def test_linked_successor_compiles_on_its_nth_entry(self, compile_log):
        """A successor a closure hands over compiles on its compile
        entry too, after that entry was counted: the dispatch loop
        counts every entry before it decides."""
        clear_code_object_cache()
        run_vm(build_chain_suite()["relay_4"], "run",
               vm_config=VMConfig(compile_threshold=5))
        assert compile_log
        for translated, executions in compile_log:
            assert translated.compile_at == 5
            assert executions == 5
            assert translated.executions >= 5

    def test_memo_hit_compiles_at_entry_one(self, compile_log):
        workload = build_warmup_workload("startup_a")
        clear_code_object_cache()
        run_vm(workload, "default", vm_config=VMConfig(compile_threshold=1))
        del compile_log[:]
        run_vm(workload, "default", vm_config=VMConfig())
        assert compile_log
        assert all(entry == 1 for _trace, entry in compile_log)
        assert all(trace.compile_at == 1 for trace, _entry in compile_log)

    def test_stored_body_binds_at_first_entry(self, tmp_path, compile_log):
        """A body the sidecar holds needs no host compile(): it binds
        at the trace's first entry and the run compiles nothing."""
        workload = build_warmup_workload("startup_a")
        db = str(tmp_path / "db")
        clear_code_object_cache()
        run_vm(workload, "default",
               persistence=PersistenceConfig(database=CacheDatabase(db)),
               vm_config=VMConfig(compile_threshold=1))
        clear_code_object_cache()
        del compile_log[:]
        warm = run_vm(
            workload, "default",
            persistence=PersistenceConfig(database=CacheDatabase(db)),
        )
        report = warm.persistence_report
        assert report["sidecar_host_compiles"] == 0
        assert report["sidecar_hits"] > 0
        assert compile_log
        assert all(entry == 1 for _trace, entry in compile_log)

    def test_cold_run_digests_only_what_it_compiles(self, tmp_path,
                                                    monkeypatch):
        """With an empty memo and a database that opened with no bodies,
        no first entry can compile at entry 1: the run takes a body
        digest only to record each host compile."""
        digests = []
        original = vm_compile._body_digest

        def counting(key):
            digests.append(key)
            return original(key)

        monkeypatch.setattr(vm_compile, "_body_digest", counting)
        apps, _store = build_gui_suite()
        clear_code_object_cache()
        result = run_vm(
            apps["gvim"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
        )
        assert result.stats.traces_translated > 500
        assert result.host.host_compiles > 0
        assert len(digests) == result.host.host_compiles

    def test_empty_memo_builds_no_key_at_first_entry(self, tmp_path,
                                                     monkeypatch):
        """While the memo is empty and the store opened with no bodies,
        a first entry cannot compile at entry 1, so it builds no memo
        key.  A cold dia start-up compiles its first body only near its
        end: nearly all of its first entries find the memo empty."""
        memo_was_empty = []
        keys_built = []
        inside_empty = [False]
        original_entry = TraceCompiler.compile_entry
        original_key = vm_compile._trace_key

        def entry(self, translated):
            inside_empty[0] = not vm_compile._FACTORIES
            memo_was_empty.append(inside_empty[0])
            try:
                return original_entry(self, translated)
            finally:
                inside_empty[0] = False

        def key(translated, cost):
            if inside_empty[0]:
                keys_built.append(translated.entry)
            return original_key(translated, cost)

        monkeypatch.setattr(TraceCompiler, "compile_entry", entry)
        monkeypatch.setattr(vm_compile, "_trace_key", key)
        apps, _store = build_gui_suite()
        clear_code_object_cache()
        run_vm(
            apps["dia"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
        )
        assert sum(memo_was_empty) > 500
        assert keys_built == []

    def test_flushed_memo_still_finds_this_runs_bodies(self, tmp_path,
                                                       monkeypatch):
        """Once the memo flushes mid-run, a body this run recorded is in
        the store but no longer in the memo: a trace translated again
        after a code-cache flush still binds it at its first entry."""
        monkeypatch.setattr(vm_compile, "_FACTORIES_CAP", 4)
        decisions = []
        original = TraceCompiler.compile_entry

        def entry(self, translated):
            digest = vm_compile._body_digest(
                vm_compile._trace_key(translated, self.cost)
            )
            held = digest in self.body_store.entries
            decided = original(self, translated)
            decisions.append((held, decided))
            return decided

        monkeypatch.setattr(TraceCompiler, "compile_entry", entry)
        apps, _store = build_gui_suite()
        clear_code_object_cache()
        result = run_vm(
            apps["dia"], "startup",
            persistence=PersistenceConfig(
                database=CacheDatabase(str(tmp_path / "db"))
            ),
            vm_config=VMConfig(compile_threshold=2, code_pool_bytes=768),
        )
        assert result.stats.cache_flushes > 0
        held = [decided for was_held, decided in decisions if was_held]
        assert len(held) > 10
        assert set(held) == {1}

    def test_revived_trace_entered_once_never_compiles(self, tmp_path,
                                                       monkeypatch):
        """Bodies the cold run never compiled are not in the store: the
        warm run's revived traces compile on entry 2, so the startup
        blocks that run once stay interpreted."""
        decided = []
        original = TraceCompiler.compile_entry

        def recording(self, translated):
            decided.append(translated)
            return original(self, translated)

        monkeypatch.setattr(TraceCompiler, "compile_entry", recording)
        workload = build_warmup_workload("startup_a")
        db = str(tmp_path / "db")
        clear_code_object_cache()
        run_vm(workload, "default",
               persistence=PersistenceConfig(database=CacheDatabase(db)))
        clear_code_object_cache()
        del decided[:]
        warm = run_vm(
            workload, "default",
            persistence=PersistenceConfig(database=CacheDatabase(db)),
        )
        revived = [t for t in decided if t.from_persistent]
        once = [t for t in revived if t.compile_at == 2 and t.executions == 1]
        assert once
        assert all(t.compiled_body is None for t in once)
        hot = [t for t in revived if t.compile_at == 2 and t.executions >= 2]
        assert all(t.compiled_body is not None for t in hot)
        assert warm.persistence_report["sidecar_host_compiles"] == len(hot)


class TestLinkBounces:
    def test_cold_successor_is_not_a_bounce(self, monkeypatch):
        """A hot trace whose linked successor is still below its compile
        entry hands the successor back to the dispatch loop to run
        interpreted; ``link_bounces`` keeps counting only uncompilable
        successors."""
        original = TraceCompiler.compile_entry
        decided = []

        def alternating(self, translated):
            original(self, translated)
            # Every other trace in the ring stays cold for a long time.
            decided.append(translated)
            translated.compile_at = 64 if len(decided) % 2 else 2
            return translated.compile_at

        monkeypatch.setattr(TraceCompiler, "compile_entry", alternating)
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        clear_code_object_cache()
        result = run_vm(workload, "run", vm_config=VMConfig())
        assert signature(result) == signature(oracle)
        assert result.link_stats.link_direct_hops > 0
        assert result.link_stats.link_bounces == 0
