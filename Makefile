# Convenience entry points.  All targets run against the in-tree sources.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Persistent-cache database directory for `make fsck` (override: make fsck DB=...)
DB ?= /tmp/pcc-db

.PHONY: test faultinject benchmarks bench-wallclock fsck stress gc replay-smoke prewarm-smoke daemon-smoke transparency-smoke

test:
	$(PYTHON) -m pytest -x -q

# The crash-consistency / fault-injection suite alone.
faultinject:
	$(PYTHON) -m pytest -q -m faultinject tests

benchmarks:
	$(PYTHON) -m pytest -q benchmarks

# Wall-clock dispatch-tier suite (docs/performance.md).  Writes
# BENCH_wallclock.json at the repo root; fails if compiled dispatch is
# slower than interpreted on the fig5a GUI workload, or if the
# trace_linking family's linked tier diverges from the interpreted
# oracle or bounces through the dispatcher on a stable chain.
bench-wallclock:
	$(PYTHON) -m repro.cli bench --check --check-threshold 1.0

# Check a persistent-cache database's integrity section by section.
fsck:
	$(PYTHON) -m repro.cli cache fsck $(DB)

# Multi-process stress for the shared per-host body store and the
# cache-server daemon transport on top of it.
stress:
	$(PYTHON) -m pytest -q tests/test_sharedstore_concurrency.py \
		tests/test_cacheserver_concurrency.py

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

# Daemon-smoke directories (override: make daemon-smoke DSDB=... DSSTORE=...)
DSDB ?= /tmp/pcc-daemon-db
DSSTORE ?= /tmp/pcc-daemon-store

# Cache-server daemon smoke (docs/cache-format.md): start a detached
# daemon on a fresh store, prewarm the tiny corpus through the socket
# (daemon:// transport), re-prewarm with --verify (zero host compiles
# or the CLI fails), then stop the daemon and fsck the store — the
# daemon's write-backs must leave the shard files fully sound.
daemon-smoke:
	rm -rf $(DSDB) $(DSSTORE)
	$(PYTHON) -m repro.cli cache serve $(DSSTORE) --detach
	$(PYTHON) -m repro.cli prewarm --pcache $(DSDB) --jobs 2 \
		--corpus tiny --shared-store daemon://$(DSSTORE)
	$(PYTHON) -m repro.cli prewarm --pcache $(DSDB) --jobs 2 \
		--corpus tiny --shared-store daemon://$(DSSTORE) --verify
	$(PYTHON) -m repro.cli cache serve $(DSSTORE) --status
	$(PYTHON) -m repro.cli cache serve $(DSSTORE) --stop
	$(PYTHON) -m repro.cli cache fsck $(DSSTORE)

# Transparency smoke (docs/architecture.md "Transparency guarantees"):
# the anti-instrumentation differential suite, the compiled tier's
# memory helpers (faults, window, SMC check) against the oracle, plus
# the transparency bench family's --check gate — every dispatch tier
# bit-identical to the interpreted oracle on the adversarial corpus,
# zero stale code-byte reads cold and warm (sidecar/shared
# store/daemon), and the SMC detector engaged on every churner.
transparency-smoke:
	$(PYTHON) -m pytest -q tests/test_adversarial.py tests/test_smc.py \
		tests/test_dispatch_equivalence.py::TestMemoryOps
	$(PYTHON) -m repro.cli bench --family transparency --check \
		--warmup 1 --reps 2 --out /tmp/pcc-bench-transparency.json

# Shared per-host body store directory for `make gc` (override: make gc STORE=...)
STORE ?= /tmp/pcc-shared-store

# Mark-and-sweep the shared store (docs/cache-format.md).
gc:
	$(PYTHON) -m repro.cli cache gc $(STORE)
