"""Hotness tier-up: interpreting cold traces must change nothing.

The contract (:mod:`repro.vm.compile`'s tier-up): every trace, fresh
or revived from the persistent cache, runs on the cold tier until its
``compile_threshold``-th entry and compiles on that entry.  A body in
the run's factory memo or the attached store is bound then, at no host
``compile()``, but never earlier.
Because the interpreted oracle and the compiled tier are bit-identical
*per execution*, every observable of a run (output, exit status, every
``VMStats`` field, code-cache occupancy, the registers and memory it
leaves) must be the same at every threshold, through SMC, cache churn
and a persistence round trip.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.loader.linker import load_process
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm import compile as vm_compile
from repro.vm.codecache import CodeCache
from repro.vm.compile import DEFAULT_COMPILE_THRESHOLD, TraceCompiler
from repro.vm.engine import Engine, EngineError, VMConfig
from repro.workloads.chains import build_chain_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.warmup import build_warmup_workload

from tests.conftest import signature
from tests.test_smc import build_smc_image

#: Every engine run's result carries its machine's final state, which
#: :func:`~tests.conftest.signature` compares.
pytestmark = pytest.mark.usefixtures("final_states")

THRESHOLDS = (1, 2, DEFAULT_COMPILE_THRESHOLD)
ORACLE = VMConfig(dispatch_mode="interpreted")


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
        run is the oracle run."""
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        result = run_vm(workload, "run",
                        vm_config=VMConfig(compile_threshold=10 ** 9))
        assert signature(result) == signature(oracle)
        assert compile_log == []


def _warm_db(tmp_path, workload, input_name, config):
    """A database that one cold ``config`` run of ``workload`` filled."""
    db = str(tmp_path / "db")
    run_vm(workload, input_name,
           persistence=PersistenceConfig(database=CacheDatabase(db)),
           vm_config=config)
    return db


class TestTierUpRule:
    """Pins the one tier-up rule: every compile lands on the threshold
    entry, whatever the source of the body."""

    @pytest.mark.parametrize("threshold", [2, DEFAULT_COMPILE_THRESHOLD])
    def test_fresh_trace_compiles_on_its_nth_entry(self, compile_log,
                                                   threshold):
        """Every compile happens on the trace's threshold entry, after
        that entry was counted."""
        result = run_vm(
            build_warmup_workload("startup_a"), "default",
            vm_config=VMConfig(compile_threshold=threshold),
        )
        assert compile_log
        assert {entry for _trace, entry in compile_log} == {threshold}
        assert result.stats.traces_translated > len(compile_log)

    def test_linked_successor_compiles_on_its_nth_entry(self, compile_log):
        """A successor a closure hands over compiles on its threshold
        entry too, after that entry was counted: the dispatch loop
        counts every entry before it decides."""
        run_vm(build_chain_suite()["relay_4"], "run",
               vm_config=VMConfig(compile_threshold=5))
        assert compile_log
        for translated, executions in compile_log:
            assert executions == 5
            assert translated.executions >= 5

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
        assert {entry for _trace, entry in compile_log} == {2}
        assert host.memo_hits + host.host_compiles == (
            host.compiles + host.regions_compiled
        )

    def test_runs_share_no_factories(self):
        """The memo dies with its run: a second gvim start-up in the same
        process, without persistence, host-compiles every body the
        first one did (44 trace bodies; its short loops fuse no
        region)."""
        apps, _store = build_gui_suite()
        first, second = [run_vm(apps["gvim"], "startup") for _ in range(2)]
        assert first.host.host_compiles == 44
        assert first.host.regions_compiled == 0
        assert second.host.memo_hits == 0
        assert second.host.host_compiles == first.host.host_compiles

    def test_stored_body_binds_at_threshold(self, tmp_path, compile_log):
        """A body the sidecar holds needs no host compile(), but it is
        bound on the trace's threshold entry, not its first."""
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
        assert {entry for _trace, entry in compile_log} == {
            DEFAULT_COMPILE_THRESHOLD
        }

    def test_revived_trace_below_threshold_never_compiles(self, tmp_path,
                                                          monkeypatch):
        """A revived trace compiles by the same rule as a fresh one: the
        startup code a warm gvim run enters fewer than
        ``compile_threshold`` times stays on the cold tier, and a warm
        run of the input that filled the database records no new body."""
        inserted = []
        original = CodeCache.insert

        def recording(cache, *residents):
            inserted.extend(residents)
            return original(cache, *residents)

        monkeypatch.setattr(CodeCache, "insert", recording)
        apps, _store = build_gui_suite()
        db = _warm_db(tmp_path, apps["gvim"], "startup", VMConfig())
        del inserted[:]
        warm = run_vm(
            apps["gvim"], "startup",
            persistence=PersistenceConfig(database=CacheDatabase(db)),
        )
        revived = [t for t in inserted if t.from_persistent]
        cold = [t for t in revived
                if 1 < t.executions < DEFAULT_COMPILE_THRESHOLD]
        assert len(cold) > 100
        assert all(t.compiled_body is None for t in cold)
        hot = [t for t in revived
               if t.executions >= DEFAULT_COMPILE_THRESHOLD]
        assert hot
        assert all(t.compiled_body is not None for t in hot)
        assert warm.host.sidecar_new_entries == 0
        assert warm.host.host_compiles == 0

    def test_cold_run_digests_only_what_it_compiles(self, tmp_path,
                                                    monkeypatch):
        """Against an empty database, the run takes a body digest only
        to look up and record each host compile."""
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
        )
        assert result.stats.traces_translated > 500
        assert result.host.host_compiles > 0
        assert len(digests) == result.host.host_compiles

    def test_keys_are_built_only_to_compile(self, tmp_path, monkeypatch,
                                            compile_log):
        """No first entry builds a factory-memo key: a cold gvim start-up
        builds one per trace compile and per region member, nowhere
        else."""
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

        def recording(self, translated):
            key = vm_compile._trace_key(translated, self.cost)
            digest = vm_compile._body_digest(key)
            held = (digest in self.body_store.entries
                    and key not in self._factories)
            host = self.host
            before = host.body_hits, host.host_compiles
            body = original(self, translated)
            if host.host_compiles > before[1]:
                compiled[digest] += 1
            if held:
                from_store.append((translated.executions,
                                   host.body_hits - before[0]))
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


class TestLinkBounces:
    def test_cold_successor_is_not_a_bounce(self, monkeypatch):
        """A hot trace whose linked successor is still below its compile
        entry hands the successor back to the dispatch loop to run
        interpreted; ``link_bounces`` keeps counting only uncompilable
        successors."""
        original = TraceCompiler.compile
        order = {}

        def alternating(self, translated):
            # Every other trace in the ring stays cold until entry 64.
            rank = order.setdefault(id(translated), len(order))
            if rank % 2 == 0 and translated.executions < 64:
                return None
            return original(self, translated)

        monkeypatch.setattr(TraceCompiler, "compile", alternating)
        workload = build_chain_suite()["relay_4"]
        oracle = run_vm(workload, "run", vm_config=ORACLE)
        result = run_vm(workload, "run",
                        vm_config=VMConfig(compile_threshold=2))
        assert signature(result) == signature(oracle)
        assert result.link_stats.link_direct_hops > 0
        assert result.link_stats.link_bounces == 0
