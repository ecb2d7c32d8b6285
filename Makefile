# Convenience entry points.  All targets run against the in-tree sources.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Directory `make fsck` checks: a cache database or a shared store, since
# `cache fsck` handles both (override: make fsck DB=...)
DB ?= /tmp/pcc-db

.PHONY: test faultinject benchmarks bench-wallclock bench-contract-smoke layers pairs fsck stress gc replay-smoke transparency-smoke loc

test:
	$(PYTHON) -m pytest -x -q

# Code lines of src/: non-blank lines of src/**/*.py that hold a token
# other than a comment, not counting module, class and function
# docstrings.  ROADMAP.md and CHANGES.md quote this count.
loc:
	@$(PYTHON) tools/loc.py src

# The crash-consistency / fault-injection suite alone.
faultinject:
	$(PYTHON) -m pytest -q -m faultinject tests

benchmarks:
	$(PYTHON) -m pytest -q benchmarks

# Wall-clock suite (docs/performance.md), every family.  Writes
# BENCH_wallclock.json at the repo root and fails when any family's gate
# fails; each gate is declared with its family in src/repro/bench.py.
# --check-threshold 1.0 lowers the acceptance gate to "compiled is not
# slower", as in CI.
bench-wallclock:
	$(PYTHON) -m repro.cli bench --check --check-threshold 1.0

# The benchmark's correctness checks, end to end: bench/run.py's
# contract mode (BENCHMARK.json's command) for 3 s on spec_ref, where
# all 11 SPEC programs must match their native references, on gui_warm,
# where no warm run may translate or host-compile anything, on
# gui_cold, whose runs execute almost entirely on compiled dispatch's
# cold tier (traces below their compile entry) and must match their
# native references too, and on farm_mixed, the only workload that
# revives bodies from the shared store and from accumulating databases
# (about 20 s with its set-up).  Each run's last line must read
# "correct": true with "failed": 0; otherwise the target prints the
# run's output and fails.
BENCH_RESULT_OK = import json, sys; line = sys.stdin.read(); \
	print(line.strip()); result = json.loads(line); \
	sys.exit(not (result["correct"] is True and result["failed"] == 0))

bench-contract-smoke:
	@for workload in spec_ref gui_warm gui_cold farm_mixed; do \
		echo "$$workload:"; \
		out=$$(python3 bench/run.py --workload $$workload --seconds 3) \
			&& printf '%s\n' "$$out" | tail -n 1 \
			| $(PYTHON) -c '$(BENCH_RESULT_OK)' \
			|| { printf '%s\n' "$$out"; exit 1; }; \
	done

# Every layer of one bench/run.py workload (override: make layers
# W=gui_cold LAYERS_S=5, SEED=S for other than tools/layers.py's
# default seed, so two checkouts can be compared at one seed): each
# layer's self time per run and the counters, from untraced and traced
# rounds, ending in one JSON line.
W ?= gui_warm
LAYERS_S ?= 15
layers:
	python3 tools/layers.py --workload $(W) --seconds $(LAYERS_S) \
		$(if $(SEED),--seed $(SEED))

# Interleaved bench/run.py pairs of one workload between a checkout of
# the parent commit and this tree (make pairs PARENT=../parent
# W=spec_ref SEED=S, PAIRS=N for other than 10): both medians, the
# parent's quartiles and the change's wins per end-to-end metric, then
# one JSON line.  SEED has no default: use seeds no earlier
# measurement of the change ran.
PARENT ?= ../parent
pairs:
	$(if $(SEED),,$(error make pairs needs SEED=S, seeds not used before))
	python3 tools/pairs.py --parent $(PARENT) --change . --workload $(W) \
		--seed $(SEED) $(if $(PAIRS),--pairs $(PAIRS))

# Check a persistent-cache database's integrity section by section.
fsck:
	$(PYTHON) -m repro.cli cache fsck $(DB)

# Multi-process stress for the shared per-host body store, and for one
# database and store that runs of different apps write back at once.
stress:
	$(PYTHON) -m pytest -q tests/test_sharedstore_concurrency.py

# Replay-log database for `make replay-smoke` (override: make replay-smoke RDB=...)
RDB ?= /tmp/pcc-replay-db

# Record/replay smoke (docs/record-replay.md): record one session per
# nondeterminism-sensitive workload, then differentially replay the
# whole database under both dispatch tiers.  Any structural divergence
# or result drift fails the target.  The closing fsck reads every PCRL1
# log back section by section.
replay-smoke:
	rm -rf $(RDB)
	$(PYTHON) -m repro.cli run nondet dice short --record --pcache $(RDB)
	$(PYTHON) -m repro.cli run nondet clockwork short --record --pcache $(RDB)
	$(PYTHON) -m repro.cli run nondet relay long --record --pcache $(RDB) --layout-seed 7
	$(PYTHON) -m repro.cli replay $(RDB) --diff
	$(PYTHON) -m repro.cli cache fsck $(RDB)

# Transparency smoke (docs/architecture.md "Transparency guarantees"):
# the anti-instrumentation differential suite, whose transparency
# audit (TestTransparencyAudit) holds every member at compile threshold
# 1 and under the default tier-up bit-identical to the interpreted
# oracle, every self-observing member byte-identical to its native run,
# and warm restarts from the sidecar and from the shared store equal to
# the cold run, each leg reviving bodies from the layer it names; the
# one guest word access (the machine's load/store pair and the inline
# window hit that the cold tier's arms and the region sites are
# rendered from: faults, window, SMC probe, the window's code-free
# flag, the tiers' agreement on in-trace SMC) on native, oracle, cold
# and compiled execution; the int64-edge corpus of the trace-body pass
# (tests/test_body_pass.py: every op with an interval rule at and next
# to the int64 edges, in solo traces and fused loops, and the
# dead-write boundaries, on native, oracle, cold and compiled execution
# at threshold 1 and the default); the tier-up's differential suite
# (tests/test_tierup.py::TestDifferential: compile thresholds 1, 2, 32
# and 128 against the interpreted oracle, through SMC, cache churn and
# a persistence round trip) and its rule (TestTierUpRule: a held body
# binds on the bind entry, a host compile lands on the threshold entry,
# one store probe per trace); and trace selection against a word-by-word
# fetch (same traces and faults over every corpus, and a patched word
# selected again after its trace's eviction: SMC transparency rests on
# selection reading the current code bytes).  The differential classes
# compare each run's final state too: a digest of every thread's
# registers and of every mapping's bytes (tests/conftest.py).
transparency-smoke:
	$(PYTHON) -m pytest -q tests/test_adversarial.py tests/test_smc.py \
		tests/test_dispatch_equivalence.py::TestMemoryOps \
		tests/test_dispatch_equivalence.py::TestCodeFreeFlag \
		tests/test_dispatch_equivalence.py::TestCodeFreeFlagCold \
		tests/test_dispatch_equivalence.py::TestColdTier \
		tests/test_body_pass.py \
		tests/test_tierup.py::TestDifferential \
		tests/test_tierup.py::TestTierUpRule \
		tests/test_vm_trace.py::TestAgainstPerPcFetch \
		tests/test_vm_trace.py::TestFaults \
		tests/test_vm_trace.py::TestSelfModification

# Shared per-host body store directory for `make gc` (override: make gc STORE=...)
STORE ?= /tmp/pcc-shared-store

# Mark-and-sweep the shared store (docs/cache-format.md).
gc:
	$(PYTHON) -m repro.cli cache gc $(STORE)
