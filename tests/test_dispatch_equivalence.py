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

import traceback

import pytest

from repro.binfmt.image import ImageBuilder, ImageKind
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.loader.linker import load_process
from repro.loader.mapper import AddressSpace
from repro.machine.cpu import (
    HEAP_BASE,
    HEAP_SIZE,
    ExecutionContext,
    Machine,
    MachineFault,
    run_native,
)
from repro.machine.syscalls import SYS_DLCLOSE, SYS_DLOPEN, SYS_EXIT, SYS_WRITE
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.tools import BBCountTool, InsCountTool, MemTraceTool
from repro.vm.compile import clear_code_object_cache
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


def _cold_config(mode, **kwargs):
    """A compile threshold no trace reaches: compiled dispatch runs every
    fresh trace on its cold tier (``ExecutionContext.run_uops``).  A
    factory-memo hit still compiles at entry 1, so tests using this
    start from an empty memo (the ``run_uops_calls`` fixture)."""
    return VMConfig(dispatch_mode=mode, compile_threshold=1 << 30, **kwargs)


@pytest.fixture
def run_uops_calls(monkeypatch):
    """A one-item list counting ``ExecutionContext.run_uops`` calls,
    starting from an empty factory memo."""
    clear_code_object_cache()
    calls = [0]
    original = ExecutionContext.run_uops

    def spy(context, uops, entry):
        calls[0] += 1
        return original(context, uops, entry)

    monkeypatch.setattr(ExecutionContext, "run_uops", spy)
    return calls


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


class TestCorporaCold(TestCorpora):
    """The corpora with a compile threshold no trace reaches, so compiled
    dispatch runs every fresh trace on its cold tier, one
    ``ExecutionContext.run_uops`` call per trace entry.  Traces the
    regression sequence revives from its cache still compile at their
    second entry."""

    config = staticmethod(_cold_config)

    @pytest.fixture(autouse=True)
    def _cold_tier_ran(self, run_uops_calls):
        yield
        assert run_uops_calls[0] > 0


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
        assert ics.hit_rate > 0.8, ics
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
        assert ics.hit_rate > 0.8, ics
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
        assert ics.overflow_hits > ics.misses * 10, ics
        assert ics.misses <= 32, ics
        assert ics.hit_rate > 0.95, ics
        assert len(ics.depth_hits) == IC_CHAIN_DEPTH
        # The satellite acceptance: the megamorphic corpus resolves
        # without dispatcher bounces — every IC-predicted successor was
        # trampolined, never handed back to the dispatch loop.
        assert result.link_stats.link_bounces == 0, (
            result.link_stats
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
        assert ics.resets >= 1, ics
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
        assert ics.hits > 0 and ics.fills > 0, ics
        assert (ics.hits + ics.overflow_hits + ics.misses
                == compiled.stats.indirect_resolutions), ics


def _ic_group(result):
    """The ``ic.*`` entries of a run's ``HostStats.to_dict()``, keyed
    without their prefix."""
    return {
        key[len("ic."):]: value
        for key, value in result.host.to_dict().items()
        if key.startswith("ic.")
    }


def _ic_counts(hits, misses, fills, promotions, resets, overflow_hits,
               depth_hits):
    """An :func:`_ic_group`, its hit rate derived as ICStats does."""
    total = hits + overflow_hits + misses
    return {
        "hits": hits, "misses": misses, "fills": fills,
        "promotions": promotions, "resets": resets,
        "overflow_hits": overflow_hits, "depth_hits": depth_hits,
        "hit_rate": (hits + overflow_hits) / total,
    }


def _indirect_runs(tmp_path):
    """Each inline-cache test program, by name: a function of no
    arguments returning the :func:`_ic_group` of its run(s)."""
    from repro.workloads.indirect import build_indirect_suite

    def one(config, image_fn=build_indirect_image, **image_args):
        return _ic_group(Engine(config=config).run(
            load_process(image_fn(**image_args))
        ))

    def persisted():
        db = CacheDatabase(str(tmp_path / "ic-db"))
        return [
            _ic_group(Engine(
                config=_config("compiled"),
                persistence=PersistentCacheSession(
                    PersistenceConfig(database=db)
                ),
            ).run(load_process(build_indirect_image())))
            for _ in range(2)
        ]

    runs = {
        "default": lambda: one(_config("compiled")),
        "eager": lambda: one(_eager_config("compiled")),
        "monomorphic": lambda: one(
            _config("compiled"),
            n_helpers=2, mono_iters=200, poly_iters=1, mega_iters=1,
        ),
        "flushing": lambda: one(
            _eager_config("compiled", code_pool_bytes=768)
        ),
        "cold-warm": persisted,
        "ic-reset": lambda: one(
            _eager_config("compiled"), image_fn=build_ic_reset_image
        ),
    }
    for name, workload in build_indirect_suite().items():
        runs["corpus-" + name] = (
            lambda wl=workload: _ic_group(run_vm(
                wl, "run", vm_config=_eager_config("compiled")
            ))
        )
    return runs


#: Exact inline-cache counts of every program in :func:`_indirect_runs`,
#: each run from an empty factory memo (a memo hit compiles at entry 1,
#: which changes how many exits run compiled).  A slow path that served
#: a hit from the wrong tier, promoted differently or reset a cell it
#: did not need to would change them.
_PINNED_IC_COUNTS = {
    "default": _ic_counts(87, 18, 16, 10, 0, 4, [77, 6, 0, 4]),
    "eager": _ic_counts(245, 35, 24, 53, 0, 16, [192, 37, 0, 16]),
    "monomorphic": _ic_counts(335, 5, 3, 0, 0, 0, [335, 0, 0, 0]),
    "flushing": _ic_counts(235, 46, 29, 48, 0, 15, [187, 36, 0, 12]),
    "cold-warm": [
        _ic_counts(87, 18, 16, 10, 0, 4, [77, 6, 0, 4]),
        _ic_counts(244, 24, 24, 56, 0, 20, [188, 37, 0, 19]),
    ],
    "ic-reset": _ic_counts(3, 9, 5, 0, 2, 0, [3, 0, 0, 0]),
    "corpus-alternating_pair": _ic_counts(
        7993, 7, 4, 3996, 0, 0, [3997, 3996, 0, 0]
    ),
    "corpus-megamorphic": _ic_counts(
        2983, 25, 16, 992, 0, 992, [1991, 0, 0, 992]
    ),
    "corpus-rotating_3": _ic_counts(
        5990, 10, 6, 2994, 0, 0, [2996, 0, 2994, 0]
    ),
}


class TestPinnedICCounts:
    """The inline caches' exact counts, where the tests above assert
    only inequalities."""

    @pytest.mark.parametrize("name", sorted(_PINNED_IC_COUNTS))
    def test_counts_are_exact(self, name, tmp_path):
        run = _indirect_runs(tmp_path)[name]
        clear_code_object_cache()
        assert run() == _PINNED_IC_COUNTS[name]


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
            assert links.link_bounces == 0, (name, links)
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
        assert links.link_bounces == 0, links
        assert links.regions_fused == 1, links
        # 4000 iterations, 4 transfers each: nearly all stay host-side.
        assert links.chained_exits > 3 * 4000, links
        assert links.region_entries > 3500, links

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
        assert links.regions_fused >= 2, links
        assert links.link_bounces == 0, links
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
        assert links.link_direct_hops > 0, links
        assert links.regions_fused >= 1, links
        assert linked.host.cache.region_invalidations >= 1, links

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
        assert links.link_direct_hops > 0, links

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
        assert links.link_bounces == 0, links
        assert links.regions_fused > 0, links
        assert links.link_direct_hops > 0, links


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

#: Calls through one direct call site in :func:`_region_loop`.  The
#: site's trace and the callee fuse into a region at the 16th call
#: (``REGION_FUSE_THRESHOLD``), so the last calls run in the region body.
_REGION_CALLS = 24
#: :func:`_region_loop`'s call counter, and its last-call flag (1 on the
#: last call, 0 before).
_COUNTER, _LAST = regs.S1, regs.T15
#: The counter value of the round that first runs the heap code in
#: ``build_region_heap_code_image``, past the fusing calls.
_HEAP_CALL = 4


def _region_loop(op, prologue=(), before_call=(), epilogue=(),
                 name="memops-region-app"):
    """``main``: ``prologue``, then ``_REGION_CALLS`` rounds of
    ``before_call`` and a direct call of ``op`` (``op`` then ``ret``),
    then ``epilogue`` and ``exit(a0)``."""
    builder = ImageBuilder(name)
    builder.add_function("op", list(op) + [ins.ret()])
    main = FunctionCode(list(prologue))
    main.emit(ins.movi(_COUNTER, _REGION_CALLS))
    head = len(main.code)
    main.emit(ins.movi(_LAST, 2))
    main.emit(ins.slt(_LAST, _COUNTER, _LAST))
    main.code.extend(before_call)
    main.emit_call("op")
    main.emit(ins.addi(_COUNTER, _COUNTER, -1))
    main.emit(ins.bne(_COUNTER, regs.ZERO, (head - (len(main.code) + 1)) * 8))
    main.code.extend(epilogue)
    main.emit(ins.movi(regs.RV, SYS_EXIT))
    main.emit(ins.syscall())
    builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
    builder.set_entry("main")
    return builder.build()


def _through_region(walk):
    """Whether a fused region body is among the frames of ``walk``
    (``traceback.walk_stack`` or ``traceback.walk_tb``)."""
    return any(
        frame.f_code.co_filename.startswith("<region@") for frame, _ in walk
    )


def _record_region_code_writes(machine):
    """Per code write on ``machine``: whether a region body made it."""
    seen = []
    machine.code_write_listeners.append(
        lambda _addr: seen.append(_through_region(traceback.walk_stack(None)))
    )
    return seen


class TestMemoryOps:
    """LD/ST through the compiled tier's two per-run memory helpers.

    The compiled tier runs at ``compile_threshold=1`` here, so every
    trace compiles at its first entry and every memory op of a solo
    body executes as a ``load``/``store`` call.  Each case pins one path
    of the helpers (window hit, lookup, fault, wrap, SMC check) against
    the interpreted oracle.  The ``region`` cases run each path again
    with the memory op inside a fused region body, whose sites do the
    window hit inline and call the helpers only on a fallback.
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

    # -- the same paths inside a fused region body --------------------------
    #
    # Region bodies inline each memory op as a window hit and call the
    # helpers only on a fallback (repro.vm.compile), so every path above
    # runs again with its memory op in the region-fused callee of
    # _region_loop.

    def assert_same_region_fault(self, image, expected):
        """As :meth:`assert_same_fault`, and the compiled tier raised the
        fault inside a fused region body."""
        pc = self.assert_same_fault(image, expected)
        engine = Engine(config=_eager_config("compiled"))
        with pytest.raises(MachineFault) as excinfo:
            engine.run(load_process(image))
        assert engine.host.links.regions_fused > 0
        assert _through_region(traceback.walk_tb(excinfo.tb))
        return pc

    @pytest.mark.parametrize("op", ["ld", "st"])
    @pytest.mark.parametrize("bad", [_UNMAPPED, _HEAP_END - 4],
                             ids=["unmapped", "crossing"])
    def test_faults_identically_in_a_region_body(self, op, bad):
        """Every call but the last hits the window at the heap's last
        word.  The last one, run by the region body, is an unmapped
        address or a word crossing the heap's end."""
        t0, t1, t2, t3 = (regs.T0 + i for i in range(4))
        good = _HEAP_END - 8
        image = _region_loop(
            [ins.ld(regs.A0, t0, 0) if op == "ld" else ins.st(t0, t1, 0)],
            prologue=[ins.movi(t1, 7), ins.movi(t2, good),
                      ins.movi(t3, bad - good)],
            before_call=[ins.mul(t0, t3, _LAST), ins.add(t0, t2, t0)],
        )
        if bad == _UNMAPPED:
            expected = "unmapped address 0x%x" % bad
        else:
            expected = "word %s at 0x%x crosses mapping end" % (
                "read" if op == "ld" else "write", bad
            )
        pc = self.assert_same_region_fault(image, expected)
        assert pc == load_process(image).resolve_symbol("op")

    def test_window_hits_in_a_region_body(self):
        """Every access after the first hits the stack window, so the
        region body's inline load and store paths carry the values the
        output depends on."""
        t1, t2 = regs.T0 + 1, regs.T0 + 2
        image = _region_loop(
            [
                ins.ld(t1, regs.SP, -8),
                ins.add(t1, t1, _COUNTER),
                ins.st(regs.SP, t1, -8),
                ins.ld(t2, regs.SP, -16),
                ins.add(t2, t2, t1),
                ins.st(regs.SP, t2, -16),
            ],
            epilogue=[
                ins.movi(regs.A0, 16),
                ins.addi(regs.A1, regs.SP, -16),
                ins.movi(regs.RV, SYS_WRITE),
                ins.syscall(),
                ins.andi(regs.A0, t2, 127),
            ],
        )
        native = run_native(Machine(load_process(image)))
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image)
            ),
            context="window-hits-region",
        )
        compiled = results["compiled"]
        assert compiled.link_stats.regions_fused > 0
        first = second = 0
        for counter in range(_REGION_CALLS, 0, -1):
            first += counter
            second += first
        expected = second.to_bytes(8, "little") + first.to_bytes(8, "little")
        assert compiled.output == native.output == expected
        assert compiled.exit_status == native.exit_status == second & 127

    def test_alternating_stack_and_heap_in_a_region_body(self):
        t0, t1, t2 = regs.T0, regs.T0 + 1, regs.T0 + 2
        image = _region_loop(
            [
                ins.ld(t1, regs.SP, -8),    # stack
                ins.ld(t2, t0, 0),          # heap
                ins.add(t1, t1, _COUNTER),
                ins.st(regs.SP, t1, -8),    # stack
                ins.add(t2, t2, t1),
                ins.st(t0, t2, 0),          # heap
            ],
            prologue=[ins.movi(t0, HEAP_BASE)],
            epilogue=[
                ins.movi(regs.A0, 8),
                ins.or_(regs.A1, t0, regs.ZERO),
                ins.movi(regs.RV, SYS_WRITE),
                ins.syscall(),
                ins.andi(regs.A0, t2, 127),
            ],
        )
        native = run_native(Machine(load_process(image)))
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image)
            ),
            context="stack-heap-region",
        )
        compiled = results["compiled"]
        assert compiled.link_stats.regions_fused > 0
        assert compiled.link_stats.region_entries > 0
        stack = heap = 0
        for counter in range(_REGION_CALLS, 0, -1):
            stack += counter
            heap += stack
        assert compiled.output == native.output == heap.to_bytes(8, "little")
        assert compiled.exit_status == native.exit_status

    def test_out_of_int64_argument_wraps_on_store_in_a_region_body(self):
        args = ((1 << 64) + 5, -(1 << 63) - 3)
        t0, t1 = regs.T0, regs.T0 + 1
        image = _region_loop(
            [ins.st(regs.SP, regs.A0, -16), ins.st(regs.SP, regs.A1, -8)],
            prologue=[ins.ld(t0, regs.SP, 0)],  # the window is the stack
            epilogue=[
                ins.ld(t1, regs.SP, -16),
                ins.addi(regs.A1, regs.SP, -16),
                ins.movi(regs.A0, 16),
                ins.movi(regs.RV, SYS_WRITE),
                ins.syscall(),
                ins.andi(regs.A0, t1, 127),
            ],
        )
        machine = Machine(load_process(image))
        machine.set_args(*args)
        native = run_native(machine)
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image), args=args
            ),
            context="wrap-region",
        )
        assert results["compiled"].link_stats.regions_fused > 0
        expected = (5).to_bytes(8, "little") + (
            (1 << 63) - 3
        ).to_bytes(8, "little")
        for result in (native, results["compiled"]):
            assert result.output == expected
            assert result.exit_status == 5

    def test_dlclose_resets_the_window_in_a_region_body(self):
        """Each round dlopens the plugin, stores 0x1111 into its ``slot``
        and dlcloses it; the region-fused ``op`` then stores 0x2222 to a
        heap word, and in the last round to the dead slot.  The region
        is entered after the unmap, so it must bind the reset window."""
        plugin = ImageBuilder("slot-plugin.so", ImageKind.SHARED_LIBRARY)
        plugin.add_function("plugin_noop", [ins.ret()])
        plugin.add_data("slot", bytes(8))
        module = plugin.build()
        slot = module.find_symbol("slot").vaddr
        t0, t1, t4, t5 = regs.T0, regs.T0 + 1, regs.T0 + 4, regs.T0 + 5
        image = _region_loop(
            [ins.st(t4, t1, 0)],
            prologue=[ins.movi(t5, HEAP_BASE)],
            before_call=[
                ins.movi(regs.A0, 0),
                ins.movi(regs.RV, SYS_DLOPEN),
                ins.syscall(),
                ins.addi(t0, regs.RV, slot),
                ins.movi(t1, 0x1111),
                ins.st(t0, t1, 0),
                ins.movi(regs.A0, 0),
                ins.movi(regs.RV, SYS_DLCLOSE),
                ins.syscall(),
                # t4 = heap, or the dead slot in the last round
                ins.sub(t4, t0, t5),
                ins.mul(t4, t4, _LAST),
                ins.add(t4, t5, t4),
                ins.movi(t1, 0x2222),
            ],
            name="dlclose-region-app",
        )
        faults = {}
        for mode in MODES:
            machine = Machine(load_process(image, optional_modules=[module]))
            unloaded = []
            machine.module_listeners.append(
                lambda kind, mapping, seen=unloaded:
                kind == "unload" and seen.append(mapping)
            )
            engine = Engine(config=_eager_config(mode))
            with pytest.raises(MachineFault) as excinfo:
                engine.run(machine.process, machine=machine)
            faults[mode] = (str(excinfo.value), excinfo.value.pc)
            assert len(unloaded) == _REGION_CALLS, mode
            dead = unloaded[-1]
            word = int.from_bytes(dead.data[slot:slot + 8], "little")
            assert word == 0x1111, (mode, hex(word))
            assert "unmapped address 0x%x" % (dead.base + slot) in (
                faults[mode][0]
            )
        assert faults["interpreted"] == faults["compiled"]
        assert engine.host.links.regions_fused > 0
        assert _through_region(traceback.walk_tb(excinfo.tb))

    @staticmethod
    def build_region_heap_code_image():
        """Rounds of a region-fused ``op: st t4, t3, 0`` followed by
        ``callr t5``.  The prologue writes ``movi a0, 1; ret`` to the
        heap base but nothing runs it yet, so the region fuses while the
        heap, where ``op`` stores data two pages up, holds no executed
        code.  ``t5`` is ``nop_fn`` except in round ``_HEAP_CALL``,
        which runs the heap code; every later ``op``, run by the region
        body, patches its first word to ``movi a0, 98``.  The return
        site of ``callr`` is resident by then, so nothing moves the
        window between the first run of the heap code and the patch.
        The closing call exits ``98 + 1`` = 99, or 2 if it ran stale
        code."""
        t0, t2, t3, t4, t5, t6, t7 = (
            regs.T0 + i for i in (0, 2, 3, 4, 5, 6, 7)
        )
        builder = ImageBuilder("heap-code-region-app")
        builder.add_function("op", [ins.st(t4, t3, 0), ins.ret()])
        builder.add_function("nop_fn", [ins.movi(regs.A0, 0), ins.ret()])
        main = FunctionCode()
        main.emit(ins.movi(t0, HEAP_BASE))
        _materialize(main, t2, _word_of(ins.movi(regs.A0, 1)))
        main.emit(ins.st(t0, t2, 0))
        _materialize(main, t2, _word_of(ins.ret()))
        main.emit(ins.st(t0, t2, 8))
        _materialize(main, t3, _word_of(ins.movi(regs.A0, 98)))
        main.symbol_refs.append((len(main.code), "nop_fn"))
        main.emit(ins.movi(regs.S0, 0))             # s0 = &nop_fn
        main.emit(ins.movi(t7, 0))                  # sum
        main.emit(ins.movi(_COUNTER, _REGION_CALLS + _HEAP_CALL))
        head = len(main.code)
        # t4 = heap + 2 pages until the heap code has run, then the heap
        main.emit(ins.movi(t6, _HEAP_CALL - 1))
        main.emit(ins.slt(t6, t6, _COUNTER))
        main.emit(ins.movi(t4, 2 * CODE_PAGE))
        main.emit(ins.mul(t4, t4, t6))
        main.emit(ins.add(t4, t0, t4))
        main.emit_call("op")
        # t5 = the heap in round _HEAP_CALL, else nop_fn
        main.emit(ins.movi(t6, _HEAP_CALL + 1))
        main.emit(ins.slt(t5, _COUNTER, t6))
        main.emit(ins.movi(t6, _HEAP_CALL))
        main.emit(ins.slt(t6, _COUNTER, t6))
        main.emit(ins.sub(t6, t5, t6))
        main.emit(ins.sub(t5, t0, regs.S0))
        main.emit(ins.mul(t5, t5, t6))
        main.emit(ins.add(t5, regs.S0, t5))
        main.emit(ins.callr(t5))
        main.emit(ins.add(t7, t7, regs.A0))
        main.emit(ins.addi(_COUNTER, _COUNTER, -1))
        main.emit(ins.bne(
            _COUNTER, regs.ZERO, (head - (len(main.code) + 1)) * 8
        ))
        main.emit(ins.callr(t0))                    # a0 = 98
        main.emit(ins.add(regs.A0, regs.A0, t7))
        main.emit(ins.movi(regs.RV, SYS_EXIT))
        main.emit(ins.syscall())
        builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
        builder.set_entry("main")
        return builder.build()

    def test_region_store_into_executed_heap_page_evicts(self):
        image = self.build_region_heap_code_image()
        native = run_native(Machine(load_process(image)))
        writes = {}

        def run_one(mode):
            machine = Machine(load_process(image))
            writes[mode] = _record_region_code_writes(machine)
            return Engine(config=_eager_config(mode)).run(
                machine.process, machine=machine
            )

        results = assert_equivalent(run_one, context="heap-smc-region")
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == 99
        assert compiled.stats.smc_invalidations > 0
        assert compiled.link_stats.regions_fused > 0
        # The first write into the executed heap page is a region store.
        assert writes["compiled"][0] is True

    @staticmethod
    def build_region_second_page_image():
        """build_second_page_image's straddling store as the region-fused
        ``op``, called each round after ``patchme``.  ``patchme`` sets t8
        before the first patch and t9 after it; main sums ``t8 + 2 *
        t9``: exit ``(500 + 23 * 1000) & 127`` = 76, or 96 if the patch
        was missed."""
        t1, t6, t8, t9 = (regs.T0 + i for i in (1, 6, 8, 9))
        builder = ImageBuilder("second-page-region-app")
        main = FunctionCode()
        main.symbol_refs.append((len(main.code), "patchme"))
        main.emit(ins.movi(t1, 0))                  # t1 = &patchme
        _materialize(main, t6, _straddle_words()[1])
        main.emit(ins.movi(_COUNTER, _REGION_CALLS))
        head = len(main.code)
        main.emit(ins.movi(t8, 0))
        main.emit(ins.movi(t9, 0))
        main.emit(ins.callr(t1))
        main.emit(ins.add(regs.S0, regs.S0, t8))
        main.emit(ins.shli(t9, t9, 1))
        main.emit(ins.add(regs.S0, regs.S0, t9))
        main.emit_call("op")
        main.emit(ins.addi(_COUNTER, _COUNTER, -1))
        main.emit(ins.bne(
            _COUNTER, regs.ZERO, (head - (len(main.code) + 1)) * 8
        ))
        main.emit(ins.andi(regs.A0, regs.S0, 127))
        main.emit(ins.movi(regs.RV, SYS_EXIT))
        main.emit(ins.syscall())
        builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
        builder.add_function("op", [ins.st(t1, t6, -4), ins.ret()])
        first = _pad_to_page_boundary(builder)
        boundary = _pad_to_page_boundary(builder)
        assert boundary == first + CODE_PAGE
        vaddr = builder.add_function("patchme", [ins.movi(t8, 500), ins.ret()])
        assert vaddr == boundary
        builder.set_entry("main")
        return builder.build()

    def test_straddling_store_checks_the_next_page_in_a_region_body(self):
        image = self.build_region_second_page_image()
        native = run_native(Machine(load_process(image)))
        writes = {}

        def run_one(mode):
            machine = Machine(load_process(image))
            writes[mode] = _record_region_code_writes(machine)
            return Engine(config=_eager_config(mode)).run(
                machine.process, machine=machine
            )

        results = assert_equivalent(run_one, context="second-page-region")
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == 76
        assert compiled.stats.smc_invalidations > 0
        assert compiled.link_stats.regions_fused > 0
        assert any(writes["compiled"])

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


class TestCodeFreeFlag:
    """The window's code-free slot lets window-hit stores skip the SMC
    check, so it must turn false as soon as a page of the mapping holds
    executed code, whichever way the page got tracked.  Each program
    below makes its patching store a window hit into a mapping whose
    code only page tracking can know about; a flag left "code-free"
    runs the stale code and exits differently.  (The region-body case,
    a heap that held no code while the region fused, is
    ``TestMemoryOps::test_region_store_into_executed_heap_page_evicts``.)
    """

    @staticmethod
    def build_revived_patch_image():
        """``patchme`` (``movi a0, 1; ret``) runs, then main loads from
        and stores ``movi a0, 99`` to the word at ``t4``, and runs
        ``patchme`` again.  ``t4`` is a heap word when ``a0`` is 0 (a
        cold run that leaves every page unmodified, so all its traces
        persist) and ``patchme`` when it is 1: exit 100, or 2 stale."""
        t1, t2, t3, t4, t5 = (regs.T0 + i for i in range(1, 6))
        builder = ImageBuilder("revived-patch-app")
        builder.add_function("patchme", [ins.movi(regs.A0, 1), ins.ret()])
        main = FunctionCode()
        main.emit(ins.or_(regs.S1, regs.A0, regs.ZERO))
        main.symbol_refs.append((len(main.code), "patchme"))
        main.emit(ins.movi(t1, 0))                  # t1 = &patchme
        main.emit_call("patchme")
        main.emit(ins.or_(regs.S0, regs.A0, regs.ZERO))
        main.emit(ins.movi(t5, HEAP_BASE))
        main.emit(ins.sub(t4, t1, t5))
        main.emit(ins.mul(t4, t4, regs.S1))
        main.emit(ins.add(t4, t5, t4))
        _materialize(main, t2, _word_of(ins.movi(regs.A0, 99)))
        main.emit(ins.ld(t3, t4, 0))                # window: t4's mapping
        main.emit(ins.st(t4, t2, 0))                # a window hit
        main.emit_call("patchme")
        main.emit(ins.add(regs.A0, regs.A0, regs.S0))
        main.emit(ins.movi(regs.RV, SYS_EXIT))
        main.emit(ins.syscall())
        builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
        builder.set_entry("main")
        return builder.build()

    def test_store_into_revived_trace_evicts(self, tmp_path):
        """The warm run revives every trace from the PCC file, so only
        ``CodeCache.insert`` tracks the image's code pages: no
        ``Machine.fetch`` runs before the patch."""
        image = self.build_revived_patch_image()
        machine = Machine(load_process(image))
        machine.set_args(1)
        native = run_native(machine)

        def warm(mode):
            db = CacheDatabase(str(tmp_path / mode))
            for arg in (0, 1):
                session = PersistentCacheSession(
                    PersistenceConfig(database=db)
                )
                result = Engine(
                    config=_eager_config(mode), persistence=session
                ).run(load_process(image), args=(arg,))
            return result

        results = assert_equivalent(warm, context="revived-patch")
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == 100
        assert compiled.stats.traces_from_persistent > 0
        assert compiled.stats.smc_invalidations > 0

    @staticmethod
    def build_reload_patch_image():
        """Two rounds of: dlopen the plugin, call its ``f`` (``movi a0,
        7; ret``), load from and store ``movi a0, 50`` to the word at
        ``t4``, call ``f`` again, dlclose.  ``t4`` is a heap word in
        round 1 and ``f`` in round 2, after the reload at the same base
        re-inserted ``f``'s retained trace.  Exit ``7 * 3 + 50`` = 71,
        or 28 stale."""
        plugin = ImageBuilder("patch-plugin.so", ImageKind.SHARED_LIBRARY)
        plugin.add_function("f", [ins.movi(regs.A0, 7), ins.ret()])
        module = plugin.build()
        f = module.find_symbol("f").vaddr
        t1, t2, t3, t4, t5, t6 = (regs.T0 + i for i in range(1, 7))
        main = FunctionCode()
        main.emit(ins.movi(regs.S0, 0))             # round
        main.emit(ins.movi(regs.S1, 0))             # sum
        main.emit(ins.movi(t5, HEAP_BASE))
        _materialize(main, t2, _word_of(ins.movi(regs.A0, 50)))
        head = len(main.code)
        main.emit(ins.movi(regs.A0, 0))
        main.emit(ins.movi(regs.RV, SYS_DLOPEN))
        main.emit(ins.syscall())
        main.emit(ins.addi(t1, regs.RV, f))
        main.emit(ins.callr(t1))
        main.emit(ins.add(regs.S1, regs.S1, regs.A0))
        main.emit(ins.sub(t4, t1, t5))
        main.emit(ins.mul(t4, t4, regs.S0))
        main.emit(ins.add(t4, t5, t4))
        main.emit(ins.ld(t3, t4, 0))                # window: t4's mapping
        main.emit(ins.st(t4, t2, 0))                # a window hit
        main.emit(ins.callr(t1))
        main.emit(ins.add(regs.S1, regs.S1, regs.A0))
        main.emit(ins.movi(regs.A0, 0))
        main.emit(ins.movi(regs.RV, SYS_DLCLOSE))
        main.emit(ins.syscall())
        main.emit(ins.addi(regs.S0, regs.S0, 1))
        main.emit(ins.movi(t6, 2))
        main.emit(ins.blt(regs.S0, t6, (head - (len(main.code) + 1)) * 8))
        main.emit(ins.andi(regs.A0, regs.S1, 127))
        main.emit(ins.movi(regs.RV, SYS_EXIT))
        main.emit(ins.syscall())
        builder = ImageBuilder("reload-patch-app")
        builder.add_function("main", main.code)
        builder.set_entry("main")
        return builder.build(), module

    def test_store_into_module_reloaded_at_the_same_base_evicts(self):
        """dlclose drops the module's page tracking; the reload maps a
        fresh mapping, and only re-inserting the retained trace tracks
        ``f``'s page again before the patch."""
        image, module = self.build_reload_patch_image()
        native = run_native(
            Machine(load_process(image, optional_modules=[module]))
        )
        results = assert_equivalent(
            lambda mode: Engine(config=_eager_config(mode)).run(
                load_process(image, optional_modules=[module])
            ),
            context="reload-patch",
        )
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == 71
        assert compiled.stats.module_traces_retained > 0
        assert compiled.stats.smc_invalidations > 0


def _in_run_uops(walk):
    """Whether ``ExecutionContext.run_uops`` is among the frames of
    ``walk`` (``traceback.walk_stack`` or ``traceback.walk_tb``)."""
    return any(frame.f_code.co_name == "run_uops" for frame, _ in walk)


def _cold_program_fault(name):
    """``(image, expected message)`` of a one-trace program that faults
    at its third instruction."""
    t0, t1 = regs.T0, regs.T0 + 1
    last_word = _HEAP_END - 8
    programs = {
        "unmapped-ld": (
            [ins.movi(t0, _UNMAPPED), ins.movi(t1, 5),
             ins.ld(regs.A0, t0, 16)],
            "unmapped address 0x%x" % (_UNMAPPED + 16),
        ),
        "unmapped-st": (
            [ins.movi(t0, _UNMAPPED), ins.movi(t1, 5), ins.st(t0, t1, 16)],
            "unmapped address 0x%x" % (_UNMAPPED + 16),
        ),
        "crossing-ld": (
            [ins.movi(t0, last_word), ins.movi(t1, 7),
             ins.ld(regs.A0, t0, 4)],
            "word read at 0x%x crosses mapping end" % (last_word + 4),
        ),
        "crossing-st": (
            [ins.movi(t0, last_word), ins.movi(t1, 7), ins.st(t0, t1, 4)],
            "word write at 0x%x crosses mapping end" % (last_word + 4),
        ),
        "div-zero": (
            [ins.movi(t0, 5), ins.movi(t1, 0), ins.div(regs.A0, t0, t1)],
            "division by zero",
        ),
    }
    code, expected = programs[name]
    return _exiting(code), expected


def build_zero_offset_branch_image():
    """``beq zero, zero, 0`` is always taken and lands on the
    fall-through address, so the trace must go on to ``addi``: exit 42
    from one trace entry and no link."""
    builder = ImageBuilder("zero-offset-branch-app")
    builder.add_function("main", [
        ins.movi(regs.A0, 5),
        ins.beq(regs.ZERO, regs.ZERO, 0),
        ins.addi(regs.A0, regs.A0, 37),
        ins.movi(regs.RV, SYS_EXIT),
        ins.syscall(),
    ])
    builder.set_entry("main")
    return builder.build()


def build_in_trace_smc_image():
    """``main`` stores ``movi a0, 99`` over its own instruction 7 and
    then runs it, all in one trace.  Native execution decodes the new
    word (exit 99); a running VM trace keeps the uops it was translated
    with (exit 1)."""
    new_word = _word_of(ins.movi(regs.A0, 99))
    t1, t2 = regs.T0 + 1, regs.T0 + 2
    builder = ImageBuilder("in-trace-smc-app")
    builder.add_function("main", [
        ins.movi(t1, 0),                        # t1 = &main        [reloc]
        ins.movi(t2, new_word >> 16),
        ins.shli(t2, t2, 16),
        ins.ori(t2, t2, new_word & 0xFFFF),     # t2 = movi a0, 99
        ins.st(t1, t2, 7 * 8),                  # patch instruction 7
        ins.nop(),
        ins.nop(),
        ins.movi(regs.A0, 1),
        ins.movi(regs.RV, SYS_EXIT),
        ins.syscall(),
    ], symbol_refs=[(0, "main")])
    builder.set_entry("main")
    return builder.build()


class TestColdTier:
    """Compiled dispatch's cold tier: a trace below its compile entry
    runs as one ``ExecutionContext.run_uops`` call instead of one
    ``step_uop`` call per uop.  Each case holds it to the interpreted
    oracle (and to native execution where the program faults), with a
    compile threshold no trace reaches; ``TestMemoryOps`` runs the same
    programs compiled."""

    @staticmethod
    def fault(image, mode):
        """``((message, pc), traceback)`` of the MachineFault ``image``
        ends in."""
        with pytest.raises(MachineFault) as excinfo:
            if mode == "native":
                run_native(Machine(load_process(image)))
            else:
                Engine(config=_cold_config(mode)).run(load_process(image))
        return (str(excinfo.value), excinfo.value.pc), excinfo.tb

    @pytest.mark.parametrize("name", [
        "unmapped-ld", "unmapped-st", "crossing-ld", "crossing-st",
        "div-zero",
    ])
    def test_faults_identically(self, name, run_uops_calls):
        image, expected = _cold_program_fault(name)
        faults, tracebacks = {}, {}
        for mode in ("native",) + MODES:
            faults[mode], tracebacks[mode] = self.fault(image, mode)
        assert len(set(faults.values())) == 1, faults
        message, pc = faults["compiled"]
        assert expected in message, message
        assert pc == load_process(image).entry_address + 2 * 8
        assert _in_run_uops(traceback.walk_tb(tracebacks["compiled"]))
        assert run_uops_calls[0] > 0

    def test_out_of_int64_argument_wraps_on_store(self, run_uops_calls):
        args = ((1 << 64) + 5, -(1 << 63) - 3)
        image = _exiting([
            ins.st(regs.SP, regs.A0, -16),
            ins.st(regs.SP, regs.A1, -8),
            ins.ld(regs.T0 + 1, regs.SP, -16),
            ins.addi(regs.A1, regs.SP, -16),
            ins.movi(regs.A0, 16),
            ins.movi(regs.RV, SYS_WRITE),
            ins.syscall(),
            ins.andi(regs.A0, regs.T0 + 1, 127),
        ])
        results = assert_equivalent(
            lambda mode: Engine(config=_cold_config(mode)).run(
                load_process(image), args=args
            ),
            context="wrap-cold",
        )
        expected = (5).to_bytes(8, "little") + (
            (1 << 63) - 3
        ).to_bytes(8, "little")
        assert results["compiled"].output == expected
        assert results["compiled"].exit_status == 5
        assert run_uops_calls[0] > 0

    @pytest.mark.parametrize("build,status", [
        (TestMemoryOps.build_heap_code_image, 99),
        (TestMemoryOps.build_second_page_image, 92),
    ], ids=["executed-heap-page", "straddling-store"])
    def test_store_into_executed_code_evicts(
        self, build, status, run_uops_calls
    ):
        """The patching store runs in ``run_uops``, whose SMC check sees
        the executed page: the store's own page for the heap code, only
        the next page for the straddling store."""
        image = build()
        native = run_native(Machine(load_process(image)))
        writes = {}

        def run_one(mode):
            machine = Machine(load_process(image))
            seen = writes[mode] = []
            machine.code_write_listeners.append(
                lambda _addr: seen.append(
                    _in_run_uops(traceback.walk_stack(None))
                )
            )
            return Engine(config=_cold_config(mode)).run(
                machine.process, machine=machine
            )

        results = assert_equivalent(run_one, context=build.__name__)
        compiled = results["compiled"]
        assert native.exit_status == compiled.exit_status == status
        assert compiled.stats.smc_invalidations > 0
        assert writes["compiled"] and all(writes["compiled"])
        assert not any(writes["interpreted"])
        assert run_uops_calls[0] > 0

    def test_zero_offset_taken_branch_stays_in_the_trace(
        self, run_uops_calls
    ):
        image = build_zero_offset_branch_image()
        configs = {
            "oracle": VMConfig(dispatch_mode="interpreted"),
            "cold": VMConfig(dispatch_mode="compiled"),
            "compiled": _eager_config("compiled"),
        }
        signatures = {}
        for name, config in configs.items():
            calls_before = run_uops_calls[0]
            result = Engine(config=config).run(load_process(image))
            assert result.exit_status == 42, name
            signatures[name] = signature(result)
            ran_cold = run_uops_calls[0] > calls_before
            assert ran_cold == (name == "cold"), name
        assert signatures["cold"] == signatures["oracle"]
        assert signatures["compiled"] == signatures["oracle"]
        assert signatures["oracle"]["stats"]["vm_entries"] == 1
        assert signatures["oracle"]["stats"]["link_patches"] == 0

    def _in_trace_smc_runs(self):
        image = build_in_trace_smc_image()
        configs = {
            "oracle": VMConfig(dispatch_mode="interpreted"),
            "cold": _cold_config("compiled"),
            "compiled": _eager_config("compiled"),
        }
        native = run_native(Machine(load_process(image)))
        return native, {
            name: Engine(config=config).run(load_process(image))
            for name, config in configs.items()
        }

    def test_tiers_agree_on_in_trace_self_modification(
        self, run_uops_calls
    ):
        """All three VM tiers run the patched instruction's old uop."""
        _native, results = self._in_trace_smc_runs()
        oracle = signature(results["oracle"])
        assert signature(results["cold"]) == oracle
        assert signature(results["compiled"]) == oracle
        assert results["oracle"].exit_status == 1
        assert results["oracle"].stats.smc_invalidations > 0
        assert run_uops_calls[0] > 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 'In-trace self-modification': a running"
        " trace keeps the uops it was translated with, so a store into"
        " a later instruction of the same trace takes effect only at the"
        " trace's next entry",
    )
    def test_in_trace_self_modification_matches_native(self):
        native, results = self._in_trace_smc_runs()
        assert native.exit_status == 99
        for name, result in results.items():
            assert result.exit_status == native.exit_status, name


class TestConfig:
    def test_default_mode_is_compiled(self):
        assert VMConfig().dispatch_mode == "compiled"

    def test_unknown_mode_rejected(self, gui_suite):
        from repro.vm.engine import EngineError

        with pytest.raises(EngineError):
            run_vm(gui_suite["dia"], "startup",
                   vm_config=VMConfig(dispatch_mode="jit"))
