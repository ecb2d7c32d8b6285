"""Differential suite: the two dispatch tiers must be bit-identical.

The engine executes traces either through the interpreted uop loop (the
reference oracle) or through per-trace compiled closures
(:mod:`repro.vm.compile`).  The tiers are an implementation detail of
the *simulator*, so every observable of a run — output bytes, exit
status, retired instruction count, every :class:`VMStats` counter and
float cycle total, and the tool accounting — must match exactly, across
every workload corpus, with and without persistence, and through the
hard cases (self-modifying code, module unload/reload, instrumentation
callbacks).

Any divergence here means a closure specialization changed observable
behavior, which docs/performance.md forbids.
"""

import pytest

from repro.binfmt.image import ImageBuilder, ImageKind
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.loader.linker import load_process
from repro.loader.mapper import AddressSpace
from repro.machine.cpu import (
    HEAP_BASE,
    HEAP_SIZE,
    Machine,
    MachineFault,
    run_native,
)
from repro.machine.syscalls import SYS_DLCLOSE, SYS_DLOPEN, SYS_EXIT, SYS_WRITE
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.tools import BBCountTool, InsCountTool, MemTraceTool
from repro.vm.engine import Engine, VMConfig
from repro.workloads.adversarial import (
    CODE_PAGE,
    _materialize,
    _pad_to_page_boundary,
    _straddle_words,
)
from repro.workloads.builder import FunctionCode
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm
from repro.workloads.oracle import PHASES, build_oracle
from repro.workloads.regression import round_robin_cases
from repro.workloads.spec2k import build_suite

from tests.test_modules import make_workload as make_module_workload
from tests.test_smc import _word_of, build_smc_image

MODES = ("interpreted", "compiled")


def _config(mode):
    return VMConfig(dispatch_mode=mode)


def _eager_config(mode, **kwargs):
    """Compile every trace at its first entry: for suites that test
    compiled-tier mechanics (ICs, regions), not tiering."""
    return VMConfig(dispatch_mode=mode, compile_threshold=1, **kwargs)


def signature(result):
    """Everything observable from a run, ready for exact comparison."""
    return {
        "output": result.output,
        "exit_status": result.exit_status,
        "instructions": result.instructions,
        "stats": vars(result.stats),
        "accounting": vars(result.tool_accounting),
        "cache_traces": result.cache_traces,
        "cache_code_bytes": result.cache_code_bytes,
        "cache_data_bytes": result.cache_data_bytes,
    }


def assert_equivalent(run_one, context=""):
    """``run_one(mode)`` must produce identical signatures per mode."""
    results = {mode: run_one(mode) for mode in MODES}
    sig_i = signature(results["interpreted"])
    sig_c = signature(results["compiled"])
    for key in sig_i:
        assert sig_i[key] == sig_c[key], (context, key)
    return results


@pytest.fixture(scope="module")
def spec_suite():
    return build_suite()


@pytest.fixture(scope="module")
def gui_suite():
    apps, _store = build_gui_suite()
    return apps


@pytest.fixture(scope="module")
def oracle_workload():
    return build_oracle()


class TestCorpora:
    #: Run config per mode; the subclass below compiles every trace.
    config = staticmethod(_config)

    def test_spec2k_train(self, spec_suite):
        for name, workload in sorted(spec_suite.items()):
            assert_equivalent(
                lambda mode, wl=workload: run_vm(
                    wl, "train", vm_config=self.config(mode)
                ),
                context=("spec2k", name),
            )

    def test_gui_startup(self, gui_suite):
        for name, app in sorted(gui_suite.items()):
            assert_equivalent(
                lambda mode, wl=app: run_vm(
                    wl, "startup", vm_config=self.config(mode)
                ),
                context=("gui", name),
            )

    def test_oracle_phases(self, oracle_workload):
        for phase in PHASES:
            assert_equivalent(
                lambda mode, ph=phase: run_vm(
                    oracle_workload, ph, vm_config=self.config(mode)
                ),
                context=("oracle", phase),
            )

    def test_regression_sequence(self, spec_suite, tmp_path):
        """The regression-farm pattern: a case sequence accumulating one
        persistent cache — per-case equivalence across tiers."""
        gcc = spec_suite["176.gcc"]
        cases = round_robin_cases(gcc, ["ref-1", "ref-2"], rounds=2)

        def run_sequence(mode):
            db = CacheDatabase(str(tmp_path / ("regress-" + mode)))
            return [
                run_vm(workload, input_name,
                       persistence=PersistenceConfig(database=db),
                       vm_config=self.config(mode))
                for workload, input_name in cases
            ]

        sequences = {mode: run_sequence(mode) for mode in MODES}
        for index, (res_i, res_c) in enumerate(
            zip(sequences["interpreted"], sequences["compiled"])
        ):
            assert signature(res_i) == signature(res_c), ("case", index)


class TestCorporaEager(TestCorpora):
    """The corpora at ``compile_threshold=1``: at the default threshold
    the traces GUI startup enters only a few times never compile, so
    this pass is what runs the compiled tier's codegen on them."""

    config = staticmethod(_eager_config)


class TestPersistence:
    @pytest.mark.parametrize("suite,name,input_name", [
        ("gui", "gvim", "startup"),
        ("spec", "176.gcc", "train"),
    ])
    def test_cold_and_warm(
        self, suite, name, input_name, spec_suite, gui_suite, tmp_path
    ):
        workload = (gui_suite if suite == "gui" else spec_suite)[name]

        def cold_warm(mode):
            db = CacheDatabase(str(tmp_path / ("%s-%s" % (name, mode))))
            cold = run_vm(workload, input_name,
                          persistence=PersistenceConfig(database=db),
                          vm_config=_config(mode))
            warm = run_vm(workload, input_name,
                          persistence=PersistenceConfig(database=db),
                          vm_config=_config(mode))
            return cold, warm

        runs = {mode: cold_warm(mode) for mode in MODES}
        for phase, index in (("cold", 0), ("warm", 1)):
            sig_i = signature(runs["interpreted"][index])
            sig_c = signature(runs["compiled"][index])
            assert sig_i == sig_c, (name, phase)
        # The warm runs really were warm (everything revived, nothing
        # translated), so the compiled tier executed demand-loaded
        # persistent traces, not freshly translated ones.
        for mode in MODES:
            assert runs[mode][1].stats.traces_translated == 0, mode


def build_indirect_image(n_helpers=8, mono_iters=60, poly_iters=40,
                         mega_iters=48):
    """An image whose control flow is dominated by indirect branches.

    Three phases stress the compiled tier's indirect-branch inline
    caches across the behaviors a real IC must survive:

    * **monomorphic**: one ``callr`` site calling the same helper every
      iteration — the IC's best case (steady hits after one miss).
    * **polymorphic**: one ``callr`` site alternating between two
      helpers via a heap-resident dispatch table — the monomorphic IC
      misses every iteration and must fall back without diverging.
    * **megamorphic**: the same table-driven site cycling through all
      ``n_helpers`` targets — the paper's indirect "switch" shape.

    Every helper ends in ``ret`` (itself an indirect branch), so return
    sites are exercised too.  ``n_helpers`` must be a power of two (the
    index wraps with a mask).
    """
    assert n_helpers & (n_helpers - 1) == 0
    builder = ImageBuilder("indirect-app")
    for i in range(n_helpers):
        builder.add_function(
            "h%d" % i, [ins.addi(regs.A0, regs.A0, i + 1), ins.ret()]
        )

    t0, t1, t2, t3, t4, t5 = (regs.T0 + i for i in range(6))
    code = []
    refs = []
    # Dispatch table at HEAP_BASE: table[i] = &h_i.
    code.append(ins.movi(t0, HEAP_BASE))
    for i in range(n_helpers):
        refs.append((len(code), "h%d" % i))
        code.append(ins.movi(t1, 0))              # t1 = &h_i    [reloc]
        code.append(ins.st(t0, t1, i * 8))

    # Phase 1: monomorphic callr loop (one site, one target).
    refs.append((len(code), "h0"))
    code.append(ins.movi(t1, 0))                  # t1 = &h0     [reloc]
    code.append(ins.movi(t2, mono_iters))
    head = len(code)
    code.append(ins.callr(t1))
    code.append(ins.addi(t2, t2, -1))
    here = len(code)
    code.append(ins.bne(t2, regs.ZERO, (head - (here + 1)) * 8))

    # Phases 2+3: table-driven callr, index wrapped with a mask — mask 1
    # gives the polymorphic pair, mask n-1 the megamorphic cycle.
    for mask, iters in ((1, poly_iters), (n_helpers - 1, mega_iters)):
        code.append(ins.movi(t3, 0))              # t3 = index
        code.append(ins.movi(t2, iters))
        head = len(code)
        code.append(ins.shli(t4, t3, 3))
        code.append(ins.add(t4, t0, t4))
        code.append(ins.ld(t5, t4, 0))            # t5 = table[index]
        code.append(ins.callr(t5))
        code.append(ins.addi(t3, t3, 1))
        code.append(ins.andi(t3, t3, mask))
        code.append(ins.addi(t2, t2, -1))
        here = len(code)
        code.append(ins.bne(t2, regs.ZERO, (head - (here + 1)) * 8))

    code.append(ins.andi(regs.A0, regs.A0, 127))  # exit-status range
    code.append(ins.movi(regs.RV, SYS_EXIT))
    code.append(ins.syscall())
    builder.add_function("main", code, symbol_refs=refs)
    builder.set_entry("main")
    return builder.build()


def build_indirect_smc_image():
    """SMC between executions of one indirect call site.

    A two-iteration loop calls ``patchme`` through ``callr`` and patches
    its first instruction after the call, so the second iteration's
    indirect transfer must reach the *new* code (exit 99).  A stale
    inline cache that survived the SMC eviction would dispatch the old
    closure instead — this is the IC generation-guard's load-bearing
    case.
    """
    builder = ImageBuilder("indirect-smc-app")
    builder.add_function("patchme", [ins.movi(regs.A0, 1), ins.ret()])
    new_word = _word_of(ins.movi(regs.A0, 99))
    lo = new_word & 0xFFFF
    hi = (new_word >> 16) & ((1 << 47) - 1)
    t1, t2, t3 = (regs.T0 + i for i in (1, 2, 3))
    code = [
        ins.movi(t1, 0),                      # t1 = &patchme    [reloc]
        ins.movi(t3, 2),                      # t3 = iterations
        # loop: the SAME indirect site runs old code, then patched code.
        ins.callr(t1),                        # index 2 == loop head
        ins.movi(t2, hi),
        ins.shli(t2, t2, 16),
        ins.ori(t2, t2, lo),
        ins.st(t1, t2, 0),                    # patch patchme[0]
        ins.addi(t3, t3, -1),
        ins.bne(t3, regs.ZERO, (2 - (8 + 1)) * 8),
        ins.movi(regs.RV, SYS_EXIT),
        ins.syscall(),                        # exit(a0) -> 99
    ]
    builder.add_function("main", code, symbol_refs=[(0, "patchme")])
    builder.set_entry("main")
    return builder.build()


def build_ic_reset_image(iters=4):
    """SMC that evicts an IC'd *target* but not the calling closure.

    ``patchme`` sits alone on code page 0; a never-executed filler
    function pads everything else onto page 1 (pages are ``1 <<
    CODE_PAGE_SHIFT`` = 512 bytes = 64 instructions).  ``main`` loops
    over ONE ``callr`` site: the early iterations warm its IC chain
    (miss + fill, then hits) while a branchless select parks the patch
    store harmlessly in the heap; the last iteration steers it onto
    ``patchme[0]`` *before* the call.  The store runs inside a separate
    ``do_store`` function (direct call, own trace) so the SMC exit it
    triggers cannot bisect the trace holding the ``callr``.  The patch
    evicts page 0 only, so the very same closure (page 1 survived)
    re-executes its warm ``callr`` with a non-empty chain under a stale
    generation — the wholesale chain reset is the only correct path,
    and the final call must reach the patched code (exit 99).
    """
    from tests.test_smc import _word_of

    builder = ImageBuilder("ic-reset-app")
    builder.add_function("patchme", [ins.movi(regs.A0, 1), ins.ret()])
    # 2 insts so far (16 bytes); 64 filler insts push the rest past 512.
    builder.add_function("filler", [ins.nop() for _ in range(64)])
    new_word = _word_of(ins.movi(regs.A0, 99))
    lo = new_word & 0xFFFF
    hi = (new_word >> 16) & ((1 << 47) - 1)
    t1, t2, t3, t5, t6, t7 = (regs.T0 + i for i in (1, 2, 3, 5, 6, 7))
    builder.add_function("do_store", [ins.st(t7, t2, 0), ins.ret()])
    code = [
        ins.movi(t1, 0),                      # t1 = &patchme    [reloc]
        ins.movi(t2, hi),
        ins.shli(t2, t2, 16),
        ins.ori(t2, t2, lo),                  # t2 = patched word
        ins.movi(t5, HEAP_BASE),              # harmless store target
        ins.movi(t3, iters),
    ]
    head = len(code)
    # t7 = heap + (patchme - heap) * (counter < 2): do_store writes to
    # plain heap data until the final iteration patches patchme[0].
    code.extend([
        ins.movi(t7, 2),
        ins.slt(t6, t3, t7),                  # t6 = is-last-iteration
        ins.sub(t7, t1, t5),
        ins.mul(t7, t7, t6),
        ins.add(t7, t5, t7),
    ])
    refs = [(0, "patchme"), (len(code), "do_store")]
    code.extend([
        ins.call(0),                          # do_store         [reloc]
        ins.callr(t1),                        # same IC site every iter
        ins.addi(t3, t3, -1),
    ])
    here = len(code)
    code.append(ins.bne(t3, regs.ZERO, (head - (here + 1)) * 8))
    code.extend([
        ins.movi(regs.RV, SYS_EXIT),
        ins.syscall(),                        # exit(a0) -> 99
    ])
    builder.add_function("main", code, symbol_refs=refs)
    builder.set_entry("main")
    return builder.build()


class TestIndirectHeavy:
    """Indirect-branch-dominated corpus: the inline caches' test bed."""

    def test_matches_native(self):
        image = build_indirect_image()
        native = run_native(Machine(load_process(image)))
        vm = Engine().run(load_process(image))
        assert vm.exit_status == native.exit_status
        assert vm.instructions == native.instructions

    def test_tiers_agree(self):
        results = assert_equivalent(
            lambda mode: Engine(config=_config(mode)).run(
                load_process(build_indirect_image())
            ),
            context="indirect-heavy",
        )
        # The corpus is actually indirect-heavy: every helper call and
        # return resolves indirectly, under both tiers identically.
        stats = results["compiled"].stats
        assert stats.indirect_resolutions >= 2 * (60 + 40 + 48)

    def test_tiers_agree_with_persistence(self, tmp_path):
        from repro.persist.manager import PersistentCacheSession

        def cold_warm(mode):
            db = CacheDatabase(str(tmp_path / ("ind-" + mode)))

            def one():
                session = PersistentCacheSession(
                    PersistenceConfig(database=db)
                )
                return Engine(config=_config(mode), persistence=session).run(
                    load_process(build_indirect_image())
                )

            return one(), one()

        runs = {mode: cold_warm(mode) for mode in MODES}
        for index in (0, 1):
            assert (signature(runs["interpreted"][index])
                    == signature(runs["compiled"][index])), index

    def test_ic_cuts_host_lookups_on_monomorphic_loop(self, monkeypatch):
        """The IC is invisible to the simulation but must actually work:
        on a monomorphic loop the compiled tier resolves repeat indirect
        transfers from the inline cache, so it calls the host-level
        ``CodeCache.lookup`` far less often than the interpreted tier."""
        from repro.vm import codecache

        image_args = dict(n_helpers=2, mono_iters=200, poly_iters=1,
                          mega_iters=1)
        counts = {}
        original = codecache.CodeCache.lookup
        for mode in MODES:
            calls = [0]

            def counting(self, addr, _calls=calls, _orig=original):
                _calls[0] += 1
                return _orig(self, addr)

            monkeypatch.setattr(codecache.CodeCache, "lookup", counting)
            Engine(config=_config(mode)).run(
                load_process(build_indirect_image(**image_args))
            )
            monkeypatch.setattr(codecache.CodeCache, "lookup", original)
            counts[mode] = calls[0]
        assert counts["compiled"] < counts["interpreted"] - 100, counts

    def test_smc_between_indirect_calls(self):
        """Patching an indirect target between calls must reach the new
        code under both tiers: the cache-generation guard forbids an IC
        from dispatching a closure whose trace was evicted by SMC."""
        results = assert_equivalent(
            lambda mode: Engine(config=_config(mode)).run(
                load_process(build_indirect_smc_image())
            ),
            context="indirect-smc",
        )
        assert results["compiled"].exit_status == 99
        assert results["compiled"].stats.smc_invalidations > 0


class TestPolymorphicIC:
    """The polymorphic IC chain: pure host-side, observably invisible.

    Every assertion pairs a chain-engagement check (hits, depths,
    promotions, resets — host wall-clock machinery) with the tier
    bit-identity contract: :class:`ICStats` rides on
    ``VMRunResult.ic_stats``, *outside* the signature, precisely so the
    chain can never leak into simulated observables.
    """

    def _suite(self):
        from repro.workloads.indirect import build_indirect_suite

        return build_indirect_suite()

    def test_bench_corpora_tiers_agree(self):
        """Every bench corpus is bit-identical across tiers, and every
        compiled-tier indirect resolution went through the IC path."""
        for name, workload in sorted(self._suite().items()):
            results = assert_equivalent(
                lambda mode, wl=workload: run_vm(
                    wl, "run", vm_config=_eager_config(mode)
                ),
                context=("indirect-corpus", name),
            )
            compiled = results["compiled"]
            ics = compiled.ic_stats
            assert (ics.hits + ics.overflow_hits + ics.misses
                    == compiled.stats.indirect_resolutions), name
            # The oracle has no ICs: its counters must stay untouched.
            interp = results["interpreted"].ic_stats
            assert interp.hits == interp.misses == 0, name
            assert interp.overflow_hits == 0, name
            assert interp.depth_hits == [0] * len(interp.depth_hits), name

    def test_alternating_pair_hits_through_move_to_front(self):
        """The acceptance corpus: >80% hit rate where the monomorphic
        cell missed every call, with MTF keeping the pair in the top
        two chain entries."""
        workload = self._suite()["alternating_pair"]
        result = run_vm(workload, "run", vm_config=_eager_config("compiled"))
        ics = result.ic_stats
        assert ics.hit_rate > 0.8, ics.to_dict()
        assert ics.depth_hits[0] > 0 and ics.depth_hits[1] > 0
        assert ics.promotions > 0
        # MTF keeps the working pair in the first two entries: nothing
        # ever hits deeper.
        assert sum(ics.depth_hits[2:]) == 0

    def test_rotating_three_exercises_chain_depth(self):
        """Three cycling targets settle at chain depth 3 under MTF (the
        hit target moves to front, pushing the next one to the back)."""
        workload = self._suite()["rotating_3"]
        result = run_vm(workload, "run", vm_config=_eager_config("compiled"))
        ics = result.ic_stats
        assert ics.hit_rate > 0.8, ics.to_dict()
        assert ics.depth_hits[2] > 0
        assert ics.promotions > 0

    def test_megamorphic_chain_stays_bounded(self):
        """Eight cycling targets overflow the chain: cycling + MTF is
        the bounded chain's worst case, so the chain itself misses by
        design — and the overflow hash tier behind it must absorb the
        whole cycle.  Steady state resolves every callr from the
        overflow table: misses stay bounded near the target count (the
        first-cycle fills), the chain never grows past its depth, and
        no indirect exit bounces through the dispatcher."""
        from repro.vm.stats import IC_CHAIN_DEPTH

        suite = self._suite()
        workload = suite["megamorphic"]
        result = run_vm(workload, "run", vm_config=_eager_config("compiled"))
        ics = result.ic_stats
        # The callr site's eight targets (plus the helpers' ret sites
        # resolving back to the loop) all fill within the first cycles;
        # everything after is a chain hit (ret sites, near-monomorphic)
        # or an overflow hit (the callr cycle).
        assert ics.overflow_hits > ics.misses * 10, ics.to_dict()
        assert ics.misses <= 32, ics.to_dict()
        assert ics.hit_rate > 0.95, ics.to_dict()
        assert len(ics.depth_hits) == IC_CHAIN_DEPTH
        # The satellite acceptance: the megamorphic corpus resolves
        # without dispatcher bounces — every IC-predicted successor was
        # trampolined, never handed back to the dispatch loop.
        assert result.link_stats.link_bounces == 0, (
            result.link_stats.to_dict()
        )
        assert result.link_stats.link_ic_hops > 0

    def test_generation_bump_resets_stale_chain(self):
        """Patching an IC'd target evicts its page but not the calling
        closure: the survivor's chain is non-empty and stale, so the
        generation guard must reset it wholesale and re-resolve into
        the patched code."""
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(build_ic_reset_image())
            ),
            context="ic-reset",
        )
        compiled = results["compiled"]
        assert compiled.exit_status == 99
        assert compiled.stats.smc_invalidations > 0
        ics = compiled.ic_stats
        assert ics.resets >= 1, ics.to_dict()
        assert ics.hits > 0  # the chain was warm before the patch

    def test_eviction_between_indirect_calls(self):
        """A code pool small enough to flush mid-run churns every chain:
        flushes kill all resident closures, so re-translated traces come
        back with *fresh* (empty) ICs — no stale ``(target, resident)``
        pair can survive into the next epoch, and the tiers stay
        bit-identical through the churn.  (The surviving-closure case,
        where the generation guard must reset a warm chain in place, is
        ``test_generation_bump_resets_stale_chain``.)"""
        config_kwargs = dict(code_pool_bytes=768)
        results = assert_equivalent(
            lambda mode: Engine(
                config=_eager_config(mode, **config_kwargs)
            ).run(load_process(build_indirect_image())),
            context="ic-flush",
        )
        compiled = results["compiled"]
        assert compiled.stats.cache_flushes > 0
        ics = compiled.ic_stats
        # Post-flush re-fills still land, and the IC path saw every
        # compiled-tier indirect resolution despite the churn.
        assert ics.hits > 0 and ics.fills > 0, ics.to_dict()
        assert (ics.hits + ics.overflow_hits + ics.misses
                == compiled.stats.indirect_resolutions), ics.to_dict()


class TestHardCases:
    def test_self_modifying_code(self):
        """SMC invalidation must behave identically: the closure of the
        patched trace dies with its cache residency, and the patched
        code executes (exit 99) under both tiers."""
        results = assert_equivalent(
            lambda mode: Engine(config=_config(mode)).run(
                load_process(build_smc_image())
            ),
            context="smc",
        )
        assert results["compiled"].exit_status == 99
        assert results["compiled"].stats.smc_invalidations > 0

    def test_smc_with_persistence(self, tmp_path):
        def cold_warm(mode):
            from repro.persist.manager import PersistentCacheSession

            db = CacheDatabase(str(tmp_path / ("smc-" + mode)))

            def one():
                session = PersistentCacheSession(
                    PersistenceConfig(database=db)
                )
                return Engine(config=_config(mode), persistence=session).run(
                    load_process(build_smc_image())
                )

            return one(), one()

        runs = {mode: cold_warm(mode) for mode in MODES}
        for index in (0, 1):
            assert (signature(runs["interpreted"][index])
                    == signature(runs["compiled"][index])), index
        assert runs["compiled"][1].exit_status == 99

    def test_module_reload(self, tmp_path):
        """dlopen/dlclose cycles: unload evicts traces (and their
        closures); reload re-registers retained translations."""
        workload = make_module_workload(cycles=3, increment=5)
        assert_equivalent(
            lambda mode: run_vm(workload, "go", vm_config=_config(mode)),
            context="module-reload",
        )

        def with_persistence(mode):
            db = CacheDatabase(str(tmp_path / ("mod-" + mode)))
            cold = run_vm(workload, "go",
                          persistence=PersistenceConfig(database=db),
                          vm_config=_config(mode))
            warm = run_vm(workload, "go",
                          persistence=PersistenceConfig(database=db),
                          vm_config=_config(mode))
            return cold, warm

        runs = {mode: with_persistence(mode) for mode in MODES}
        for index in (0, 1):
            assert (signature(runs["interpreted"][index])
                    == signature(runs["compiled"][index])), index


class TestInstrumentation:
    @pytest.mark.parametrize("tool_factory", [
        BBCountTool, InsCountTool, MemTraceTool,
    ])
    def test_tool_state_matches(self, tool_factory, gui_suite):
        """Analysis callbacks fire with identical context under both
        tiers: final tool state (not just accounting) must agree."""
        app = gui_suite["gftp"]
        states = {}
        results = {}
        for mode in MODES:
            tool = tool_factory()
            results[mode] = run_vm(
                app, "startup", tool=tool, vm_config=_config(mode)
            )
            states[mode] = vars(tool)
        assert (signature(results["interpreted"])
                == signature(results["compiled"]))
        assert states["interpreted"] == states["compiled"]

    def test_tool_with_persistence(self, gui_suite, tmp_path):
        app = gui_suite["gqview"]

        def cold_warm(mode):
            db = CacheDatabase(str(tmp_path / ("tool-" + mode)))
            runs = []
            for _ in range(2):
                tool = BBCountTool()
                result = run_vm(app, "startup", tool=tool,
                                persistence=PersistenceConfig(database=db),
                                vm_config=_config(mode))
                runs.append((signature(result), vars(tool)))
            return runs

        runs = {mode: cold_warm(mode) for mode in MODES}
        assert runs["interpreted"] == runs["compiled"]


def build_chain_smc_image(iters=24):
    """SMC on a *direct-linked* (and by then region-fused) successor.

    ``patchme`` sits alone on code page 0 (the filler pads everything
    else onto page 1) and is reached through a direct ``call`` — the
    exact slot the chain trampoline patches and the fusion driver walks.
    The loop runs long enough for the call slot to cross the fusion
    threshold (the two-trace chain call-site -> ``patchme`` fuses into a
    region), then the last iteration patches ``patchme[0]`` before the
    call: the eviction must unlink the incoming slot, kill the region,
    and the very next call must reach the *new* code (exit 99).  A stale
    link or a surviving fused body would execute the old instruction.
    """
    from tests.test_smc import _word_of

    builder = ImageBuilder("chain-smc-app")
    builder.add_function("patchme", [ins.movi(regs.A0, 99), ins.ret()])
    # 2 insts so far (16 bytes); 64 filler insts push the rest past 512.
    builder.add_function("filler", [ins.nop() for _ in range(64)])
    new_word = _word_of(ins.movi(regs.A0, 7))
    lo = new_word & 0xFFFF
    hi = (new_word >> 16) & ((1 << 47) - 1)
    t1, t2, t3, t5, t6, t7 = (regs.T0 + i for i in (1, 2, 3, 5, 6, 7))
    builder.add_function("do_store", [ins.st(t7, t2, 0), ins.ret()])
    code = [
        ins.movi(t1, 0),                      # t1 = &patchme    [reloc]
        ins.movi(t2, hi),
        ins.shli(t2, t2, 16),
        ins.ori(t2, t2, lo),                  # t2 = patched word
        ins.movi(t5, HEAP_BASE),              # harmless store target
        ins.movi(t3, iters),
    ]
    head = len(code)
    # t7 = heap + (patchme - heap) * (counter < 2): do_store writes to
    # plain heap data until the final iteration patches patchme[0].
    code.extend([
        ins.movi(t7, 2),
        ins.slt(t6, t3, t7),                  # t6 = is-last-iteration
        ins.sub(t7, t1, t5),
        ins.mul(t7, t7, t6),
        ins.add(t7, t5, t7),
    ])
    refs = [(0, "patchme"), (len(code), "do_store")]
    code.append(ins.call(0))                  # do_store         [reloc]
    refs.append((len(code), "patchme"))
    code.extend([
        ins.call(0),                          # DIRECT call      [reloc]
        ins.addi(t3, t3, -1),
    ])
    here = len(code)
    code.append(ins.bne(t3, regs.ZERO, (head - (here + 1)) * 8))
    code.extend([
        ins.movi(regs.RV, SYS_EXIT),
        ins.syscall(),                        # exit(a0) -> 7 after patch
    ])
    builder.add_function("main", code, symbol_refs=refs)
    builder.set_entry("main")
    return builder.build()


class TestTraceLinking:
    """Cross-trace linking and superblock fusion: pure host-side.

    Three tiers must agree bit-for-bit on every chain corpus:
    interpreted (the oracle), compiled without linking (the PR-5
    baseline, ``trace_linking=False``) and compiled with the chain
    trampoline + region fusion.  :class:`~repro.vm.stats.LinkStats`
    rides on ``VMRunResult.link_stats``, *outside* the signature,
    exactly like the IC counters — the trampoline may never leak into
    simulated observables.
    """

    LINK_MODES = ("interpreted", "nolink", "linked")

    @staticmethod
    def _link_config(mode, **kwargs):
        if mode == "interpreted":
            return VMConfig(dispatch_mode="interpreted", **kwargs)
        return VMConfig(
            dispatch_mode="compiled",
            trace_linking=(mode == "linked"),
            **kwargs
        )

    def _suite(self):
        from repro.workloads.chains import build_chain_suite

        return build_chain_suite()

    def assert_three_way(self, run_one, context=""):
        """``run_one(mode)`` must produce identical signatures for the
        oracle, the unlinked compiled tier and the linked one."""
        results = {mode: run_one(mode) for mode in self.LINK_MODES}
        base = signature(results["interpreted"])
        for mode in ("nolink", "linked"):
            sig = signature(results[mode])
            for key in base:
                assert base[key] == sig[key], (context, mode, key)
        return results

    def test_chain_corpora_three_way(self):
        """Every bench corpus: three-way bit-identity, the stable
        chains never bounce through the dispatcher, and fusion engages
        (the ``trace_linking`` family's correctness gate)."""
        for name, workload in sorted(self._suite().items()):
            results = self.assert_three_way(
                lambda mode, wl=workload: run_vm(
                    wl, "run", vm_config=self._link_config(mode)
                ),
                context=("chain-corpus", name),
            )
            links = results["linked"].link_stats
            assert links.link_bounces == 0, (name, links.to_dict())
            assert links.link_direct_hops > 0, name
            assert links.regions_fused > 0, name
            assert links.region_entries > 0, name
            assert links.region_hops > 0, name
            # Linking machinery must stay cold when disabled, and the
            # oracle has none at all.
            assert results["nolink"].link_stats.chained_exits == 0, name
            assert results["nolink"].link_stats.regions_fused == 0, name
            assert results["interpreted"].link_stats.chained_exits == 0

    def test_relay_ring_fuses_into_one_region(self):
        """relay_4 fits one region: steady state is one region entry
        plus one back-edge hop per iteration, with zero per-exit
        dispatcher re-entries (the acceptance criterion)."""
        workload = self._suite()["relay_4"]
        result = run_vm(
            workload, "run", vm_config=self._link_config("linked")
        )
        links = result.link_stats
        assert links.link_bounces == 0, links.to_dict()
        assert links.regions_fused == 1, links.to_dict()
        # 4000 iterations, 4 transfers each: nearly all stay host-side.
        assert links.chained_exits > 3 * 4000, links.to_dict()
        assert links.region_entries > 3500, links.to_dict()

    def test_long_relay_splits_at_region_cap(self):
        """relay_12 exceeds ``REGION_MAX_MEMBERS``: the fusion driver
        must cap the first region and fuse the tail separately instead
        of growing without bound."""
        from repro.vm.compile import REGION_MAX_MEMBERS

        workload = self._suite()["relay_12"]
        result = run_vm(
            workload, "run", vm_config=self._link_config("linked")
        )
        links = result.link_stats
        assert links.regions_fused >= 2, links.to_dict()
        assert links.link_bounces == 0, links.to_dict()
        assert 12 > REGION_MAX_MEMBERS  # the corpus really overflows

    def test_smc_on_linked_successor(self):
        """Patching a direct-linked, region-fused successor: eviction
        must unlink the incoming slot and kill the region, and the next
        call reaches the new code under all three tiers."""
        results = self.assert_three_way(
            lambda mode: Engine(
                config=self._link_config(mode, compile_threshold=1)
            ).run(load_process(build_chain_smc_image())),
            context="chain-smc",
        )
        linked = results["linked"]
        assert linked.exit_status == 7
        assert linked.stats.smc_invalidations > 0
        links = linked.link_stats
        assert links.link_direct_hops > 0, links.to_dict()
        assert links.regions_fused >= 1, links.to_dict()
        assert links.region_invalidations >= 1, links.to_dict()

    def test_cache_flush_mid_chain(self):
        """A code pool small enough to flush mid-run: flushes unlink
        every slot and drop every region wholesale, and the re-formed
        chains re-fuse without diverging from the oracle."""
        # Sized to hold most — not all — of relay_4's five traces, so
        # links form and take hops between the recurring flushes.
        config_kwargs = dict(code_pool_bytes=320)
        workload = self._suite()["relay_4"]
        results = self.assert_three_way(
            lambda mode: run_vm(
                workload, "run",
                vm_config=self._link_config(mode, **config_kwargs),
            ),
            context="chain-flush",
        )
        linked = results["linked"]
        assert linked.stats.cache_flushes > 0
        links = linked.link_stats
        assert links.link_direct_hops > 0, links.to_dict()

    def test_budget_faults_identically_mid_chain(self):
        """An instruction budget that runs out mid-trampoline must
        fault at exactly the pc the oracle faults at: the trampoline
        checks the budget before every hop and hands the successor back
        to the dispatch loop's own check."""
        from repro.machine.cpu import MachineFault

        workload = self._suite()["relay_4"]
        faults = {}
        for mode in self.LINK_MODES:
            with pytest.raises(MachineFault) as excinfo:
                run_vm(
                    workload, "run",
                    vm_config=self._link_config(
                        mode, max_instructions=50_000
                    ),
                )
            faults[mode] = str(excinfo.value)
        assert faults["interpreted"] == faults["nolink"] == faults["linked"]

    def test_persistence_round_trip_three_way(self, tmp_path):
        """Link state must never persist: warm runs revive traces with
        fresh (unlinked) slots, re-link on insertion, re-fuse regions,
        and stay bit-identical to the oracle — a revived stale link
        would dispatch a dead closure or diverge."""
        workload = self._suite()["relay_4"]

        def cold_warm(mode):
            db = CacheDatabase(str(tmp_path / ("chain-" + mode)))
            return [
                run_vm(workload, "run",
                       persistence=PersistenceConfig(database=db),
                       vm_config=self._link_config(mode))
                for _ in range(2)
            ]

        runs = {mode: cold_warm(mode) for mode in self.LINK_MODES}
        for index in (0, 1):
            base = signature(runs["interpreted"][index])
            for mode in ("nolink", "linked"):
                assert base == signature(runs[mode][index]), (mode, index)
        warm = runs["linked"][1]
        assert warm.stats.traces_translated == 0
        links = warm.link_stats
        assert links.link_bounces == 0, links.to_dict()
        assert links.regions_fused > 0, links.to_dict()
        assert links.link_direct_hops > 0, links.to_dict()


def _exiting(code, name="memops-app"):
    """``code`` followed by ``exit(a0)`` as ``main`` of a fresh image."""
    builder = ImageBuilder(name)
    builder.add_function(
        "main", list(code) + [ins.movi(regs.RV, SYS_EXIT), ins.syscall()]
    )
    builder.set_entry("main")
    return builder.build()


#: An address below every mapping.
_UNMAPPED = 0x100
_HEAP_END = HEAP_BASE + HEAP_SIZE


class TestMemoryOps:
    """LD/ST through the compiled tier's two per-run memory helpers.

    The compiled tier runs at ``compile_threshold=1`` here, so every
    trace compiles at its first entry and every memory op executes as a
    ``load``/``store`` call.  Each case pins one path of the helpers
    (window hit, lookup, fault, wrap, SMC check) against the
    interpreted oracle.
    """

    @staticmethod
    def fault(image, mode):
        """``(message, pc)`` of the MachineFault ``image`` ends in."""
        with pytest.raises(MachineFault) as excinfo:
            if mode == "native":
                run_native(Machine(load_process(image)))
            else:
                Engine(config=_eager_config(mode)).run(load_process(image))
        return str(excinfo.value), excinfo.value.pc

    def assert_same_fault(self, image, expected):
        faults = {mode: self.fault(image, mode)
                  for mode in ("native",) + MODES}
        assert len(set(faults.values())) == 1, faults
        message, pc = faults["compiled"]
        assert expected in message, message
        return pc

    @pytest.mark.parametrize("op", ["ld", "st"])
    def test_unmapped_access_faults_identically(self, op):
        t0, t1 = regs.T0, regs.T0 + 1
        access = (ins.ld(regs.A0, t0, 16) if op == "ld"
                  else ins.st(t0, t1, 16))
        image = _exiting([
            ins.movi(t0, _UNMAPPED),
            ins.movi(t1, 5),
            access,
        ])
        pc = self.assert_same_fault(
            image, "unmapped address 0x%x" % (_UNMAPPED + 16)
        )
        process = load_process(image)
        assert pc == process.entry_address + 2 * 8

    @pytest.mark.parametrize("op", ["ld", "st"])
    def test_word_crossing_mapping_end_faults_identically(self, op):
        """The heap's last word hits the window; a word at its last 4
        bytes must fall through to the lookup and fault."""
        t0, t1, t2 = regs.T0, regs.T0 + 1, regs.T0 + 2
        access = (ins.ld(regs.A0, t0, 4) if op == "ld"
                  else ins.st(t0, t1, 4))
        image = _exiting([
            ins.movi(t0, _HEAP_END - 8),
            ins.movi(t1, 7),
            ins.st(t0, t1, 0),          # the last word: in bounds
            ins.ld(t2, t0, 0),
            access,                     # heap end - 4: crosses the end
        ])
        self.assert_same_fault(
            image, "word %s at 0x%x crosses mapping end"
            % ("read" if op == "ld" else "write", _HEAP_END - 4)
        )

    def test_alternating_stack_and_heap_in_one_trace(self):
        """Every access moves the window to the other mapping."""
        t0, t1, t2, t3 = (regs.T0 + i for i in range(4))
        loop = [
            ins.ld(t1, regs.SP, -8),    # stack
            ins.ld(t2, t0, 0),          # heap
            ins.add(t1, t1, t3),
            ins.st(regs.SP, t1, -8),    # stack
            ins.add(t2, t2, t1),
            ins.st(t0, t2, 0),          # heap
            ins.addi(t3, t3, -1),
        ]
        head = 2
        code = [ins.movi(t0, HEAP_BASE), ins.movi(t3, 40)] + loop
        code.append(ins.bne(t3, regs.ZERO, (head - (len(code) + 1)) * 8))
        code += [
            ins.movi(regs.A0, 8),
            ins.or_(regs.A1, t0, regs.ZERO),
            ins.movi(regs.RV, SYS_WRITE),
            ins.syscall(),
            ins.andi(regs.A0, t2, 127),
        ]
        image = _exiting(code)
        native = run_native(Machine(load_process(image)))
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image)
            ),
            context="stack-heap",
        )
        compiled = results["compiled"]
        assert compiled.output == native.output
        assert compiled.exit_status == native.exit_status
        stack = heap = 0
        for counter in range(40, 0, -1):
            stack += counter
            heap += stack
        assert compiled.output == heap.to_bytes(8, "little")

    def test_out_of_int64_argument_wraps_on_store(self):
        """``set_args`` does not wrap; a store of such a value leaves
        the window fast path and wraps exactly like ``write_word``."""
        args = ((1 << 64) + 5, -(1 << 63) - 3)
        image = _exiting([
            ins.ld(regs.T0, regs.SP, 0),    # the window is the stack
            ins.st(regs.SP, regs.A0, -16),
            ins.st(regs.SP, regs.A1, -8),
            ins.ld(regs.T0 + 1, regs.SP, -16),
            ins.addi(regs.A1, regs.SP, -16),
            ins.movi(regs.A0, 16),
            ins.movi(regs.RV, SYS_WRITE),
            ins.syscall(),
            ins.andi(regs.A0, regs.T0 + 1, 127),
        ])
        machine = Machine(load_process(image))
        machine.set_args(*args)
        native = run_native(machine)
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image), args=args
            ),
            context="wrap",
        )
        expected = (5).to_bytes(8, "little") + (
            (1 << 63) - 3
        ).to_bytes(8, "little")
        for result in (native, results["compiled"]):
            assert result.output == expected
            assert result.exit_status == 5

    @staticmethod
    def build_dlclose_image():
        """Each iteration dlopens a plugin, stores 0x1111 into its
        ``slot`` and dlcloses it, then stores 0x2222 through a pointer
        that is a heap word in the first iteration and the dead slot in
        the second.  The second store runs in a resident compiled trace,
        with nothing between the unmap and the store that could move the
        window."""
        plugin = ImageBuilder("slot-plugin.so", ImageKind.SHARED_LIBRARY)
        plugin.add_function("plugin_noop", [ins.ret()])
        plugin.add_data("slot", bytes(8))
        module = plugin.build()
        slot = module.find_symbol("slot").vaddr
        t0, t1, t2, t3, t4, t5 = (regs.T0 + i for i in range(6))
        code = [ins.movi(regs.S0, 0), ins.movi(t5, HEAP_BASE)]
        head = len(code)
        code += [
            ins.movi(regs.A0, 0),
            ins.movi(regs.RV, SYS_DLOPEN),
            ins.syscall(),
            ins.addi(t0, regs.RV, slot),
            ins.movi(t1, 0x1111),
            ins.st(t0, t1, 0),
            ins.movi(regs.A0, 0),
            ins.movi(regs.RV, SYS_DLCLOSE),
            ins.syscall(),
            # t4 = heap + (slot - heap) * (s0 >= 1)
            ins.movi(t2, 1),
            ins.slt(t3, regs.S0, t2),
            ins.xori(t3, t3, 1),
            ins.sub(t4, t0, t5),
            ins.mul(t4, t4, t3),
            ins.add(t4, t5, t4),
            ins.movi(t1, 0x2222),
            ins.st(t4, t1, 0),
            ins.addi(regs.S0, regs.S0, 1),
            ins.movi(t2, 2),
        ]
        code.append(ins.blt(regs.S0, t2, (head - (len(code) + 1)) * 8))
        return _exiting(code, name="dlclose-window-app"), module, slot

    def test_dlclose_resets_the_window(self):
        image, module, slot = self.build_dlclose_image()
        faults = {}
        for mode in MODES:
            machine = Machine(load_process(image, optional_modules=[module]))
            unloaded = []
            machine.module_listeners.append(
                lambda kind, mapping, seen=unloaded:
                kind == "unload" and seen.append(mapping)
            )
            with pytest.raises(MachineFault) as excinfo:
                Engine(config=_eager_config(mode)).run(
                    machine.process, machine=machine
                )
            faults[mode] = (str(excinfo.value), excinfo.value.pc)
            assert len(unloaded) == 2, mode
            dead = unloaded[-1]
            word = int.from_bytes(dead.data[slot:slot + 8], "little")
            assert word == 0x1111, (mode, hex(word))
            assert "unmapped address 0x%x" % (dead.base + slot) in (
                faults[mode][0]
            )
        assert faults["interpreted"] == faults["compiled"]

    @staticmethod
    def build_heap_code_image():
        """Writes ``movi a0, 1; ret`` to the heap and calls it, then
        patches the first word to ``movi a0, 98`` and calls it again
        (exit 99).  A heap load before each group of stores puts the
        window on the heap, so every store to the heap code is a
        window hit."""
        t0, t2, t4 = regs.T0, regs.T0 + 2, regs.T0 + 4
        main = FunctionCode()
        main.emit(ins.movi(t0, HEAP_BASE))
        main.emit(ins.ld(t4, t0, 64))
        _materialize(main, t2, _word_of(ins.movi(regs.A0, 1)))
        main.emit(ins.st(t0, t2, 0))
        _materialize(main, t2, _word_of(ins.ret()))
        main.emit(ins.st(t0, t2, 8))
        main.emit(ins.callr(t0))                 # a0 = 1
        main.emit(ins.or_(regs.S0, regs.A0, regs.ZERO))
        main.emit(ins.ld(t4, t0, 64))
        _materialize(main, t2, _word_of(ins.movi(regs.A0, 98)))
        main.emit(ins.st(t0, t2, 0))             # SMC on an anonymous page
        main.emit(ins.callr(t0))                 # a0 = 98
        main.emit(ins.add(regs.A0, regs.A0, regs.S0))
        return _exiting(main.code, name="heap-code-app")

    def test_fast_path_store_into_executed_anonymous_page_evicts(
        self, monkeypatch
    ):
        image = self.build_heap_code_image()
        slow_writes = []
        original = AddressSpace.write_word

        def spy(space, addr, value):
            if HEAP_BASE <= addr < HEAP_BASE + 16:
                slow_writes.append(addr)
            return original(space, addr, value)

        monkeypatch.setattr(AddressSpace, "write_word", spy)
        counts = {}

        def run_one(mode):
            del slow_writes[:]
            result = Engine(config=_eager_config(mode)).run(
                load_process(image)
            )
            counts[mode] = len(slow_writes)
            return result

        results = assert_equivalent(run_one, context="heap-smc")
        compiled = results["compiled"]
        assert compiled.exit_status == 99
        assert compiled.stats.smc_invalidations > 0
        # The oracle writes every word through write_word; the compiled
        # tier wrote all three, the patch included, on the fast path.
        assert counts == {"interpreted": 3, "compiled": 0}

    @staticmethod
    def build_second_page_image():
        """A word store at ``&patchme - 4`` whose first page holds only
        padding that never runs, so only the next-page check sees the
        write to ``patchme``'s page.  ``patchme`` sets t8 before the
        patch and t9 after it: exit ``(500 + 2 * 500) & 127`` = 92, or
        104 if the patched call ran stale code."""
        t1, t6, t8, t9 = (regs.T0 + i for i in (1, 6, 8, 9))
        builder = ImageBuilder("second-page-smc-app")
        main = FunctionCode()
        main.symbol_refs.append((len(main.code), "patchme"))
        main.emit(ins.movi(t1, 0))                  # t1 = &patchme
        main.emit(ins.callr(t1))                    # t8 = 500
        main.emit(ins.add(regs.S0, regs.S0, t8))
        _materialize(main, t6, _straddle_words()[1])
        main.emit(ins.st(t1, t6, -4))               # the straddle
        main.emit(ins.movi(t8, 0))
        main.emit(ins.movi(t9, 0))
        main.emit(ins.callr(t1))                    # t9 = 500
        main.emit(ins.add(regs.S0, regs.S0, t8))
        main.emit(ins.shli(t9, t9, 1))
        main.emit(ins.add(regs.S0, regs.S0, t9))
        main.emit(ins.andi(regs.A0, regs.S0, 127))
        main.emit(ins.movi(regs.RV, SYS_EXIT))
        main.emit(ins.syscall())
        builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
        first = _pad_to_page_boundary(builder)
        boundary = _pad_to_page_boundary(builder)
        assert boundary == first + CODE_PAGE
        vaddr = builder.add_function("patchme", [ins.movi(t8, 500), ins.ret()])
        assert vaddr == boundary
        builder.set_entry("main")
        return builder.build()

    def test_straddling_store_checks_the_next_page(self):
        image = self.build_second_page_image()
        native = run_native(Machine(load_process(image)))
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image)
            ),
            context="second-page",
        )
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == 92
        assert compiled.stats.smc_invalidations > 0

    def test_generated_sites_are_single_helper_calls(self, monkeypatch):
        from repro.vm.compile import TraceCompiler, clear_code_object_cache

        sources = []
        original = TraceCompiler._generate

        def capture(self, *args):
            source = original(self, *args)
            sources.append(source)
            return source

        monkeypatch.setattr(TraceCompiler, "_generate", capture)
        clear_code_object_cache()
        Engine(config=_eager_config("compiled")).run(
            load_process(self.build_heap_code_image())
        )
        memory = [source for source in sources if "store(" in source]
        assert memory
        for source in memory:
            for word in ("try", "MachineFault", "pages", "code_write"):
                assert word not in source, (word, source)


class TestConfig:
    def test_default_mode_is_compiled(self):
        assert VMConfig().dispatch_mode == "compiled"

    def test_unknown_mode_rejected(self, gui_suite):
        from repro.vm.engine import EngineError

        with pytest.raises(EngineError):
            run_vm(gui_suite["dia"], "startup",
                   vm_config=VMConfig(dispatch_mode="jit"))
