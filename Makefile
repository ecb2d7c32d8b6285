# Convenience entry points.  All targets run against the in-tree sources.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Persistent-cache database directory for `make fsck` (override: make fsck DB=...)
DB ?= /tmp/pcc-db

.PHONY: test faultinject benchmarks bench-wallclock bench-contract-smoke fsck stress gc replay-smoke prewarm-smoke transparency-smoke

test:
	$(PYTHON) -m pytest -x -q

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

# Check a persistent-cache database's integrity section by section.
fsck:
	$(PYTHON) -m repro.cli cache fsck $(DB)

# Multi-process stress for the shared per-host body store.
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

# Prewarm database/store directories (override: make prewarm-smoke PWDB=... PWSTORE=...)
PWDB ?= /tmp/pcc-prewarm-db
PWSTORE ?= /tmp/pcc-prewarm-store

# Parallel-prewarm smoke (docs/performance.md): mass-compile the tiny
# startup corpus across two worker processes into a fresh database +
# shared store, then re-prewarm with --verify — the second pass must
# perform zero host compiles or the target fails.  The closing fscks
# read back the database (PCC2 caches + PCS1 sidecar) and the store
# (PCSS1 shards).
prewarm-smoke:
	rm -rf $(PWDB) $(PWSTORE)
	$(PYTHON) -m repro.cli prewarm --pcache $(PWDB) --jobs 2 \
		--corpus tiny --shared-store $(PWSTORE)
	$(PYTHON) -m repro.cli prewarm --pcache $(PWDB) --jobs 2 \
		--corpus tiny --shared-store $(PWSTORE) --verify
	$(PYTHON) -m repro.cli cache fsck $(PWDB)
	$(PYTHON) -m repro.cli cache fsck $(PWSTORE)

# Transparency smoke (docs/architecture.md "Transparency guarantees"):
# the anti-instrumentation differential suite, the compiled tier's
# memory helpers and inline region sites (faults, window, SMC check,
# the window's code-free flag) against the oracle, plus
# the transparency bench family's --check gate — every dispatch tier
# bit-identical to the interpreted oracle on the adversarial corpus,
# zero stale code-byte reads cold and warm (sidecar and shared
# store), and the SMC detector engaged on every churner.
transparency-smoke:
	$(PYTHON) -m pytest -q tests/test_adversarial.py tests/test_smc.py \
		tests/test_dispatch_equivalence.py::TestMemoryOps \
		tests/test_dispatch_equivalence.py::TestCodeFreeFlag
	$(PYTHON) -m repro.cli bench --family transparency --check \
		--warmup 1 --reps 2 --out /tmp/pcc-bench-transparency.json

# Shared per-host body store directory for `make gc` (override: make gc STORE=...)
STORE ?= /tmp/pcc-shared-store

# Mark-and-sweep the shared store (docs/cache-format.md).
gc:
	$(PYTHON) -m repro.cli cache gc $(STORE)
