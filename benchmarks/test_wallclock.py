"""Wall-clock dispatch-tier benchmark (host seconds, not cycles).

Unlike the figure regenerators, this suite measures the *simulator
itself*: how fast each dispatch tier (interpreted vs. trace-compiled,
see docs/performance.md) gets through the paper's workload families in
real time.  It drives :mod:`repro.bench` — the same harness behind
``python -m repro.cli bench`` — and writes ``BENCH_wallclock.json`` at
the repository root.

The headline acceptance gate lives on the fig5a GUI family: compiled
dispatch must be at least 1.5x faster than interpreted dispatch on warm
persistent-cache startup, with bit-identical results.
"""

from __future__ import annotations

import json
import os

from conftest import RESULTS_DIR

from repro.bench import (
    GATE_THRESHOLD_X,
    GATE_WORKLOAD,
    default_output_path,
    run_wallclock,
)


def test_wallclock_dispatch_tiers(record, tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("bench-wallclock"))
    out_path = default_output_path()
    # More reps than the CLI default: the fig5a gate margin is real but
    # thin, and min-of-5 is much less noise-sensitive than min-of-3.
    results = run_wallclock(
        scratch_dir=scratch, warmup=2, reps=5, out_path=out_path
    )

    rows = []
    for name, family in sorted(results["workloads"].items()):
        if "isolated_s" in family:
            rows.append(
                "%-18s isolated %.3fs  shared %.3fs  speedup %.2fx  "
                "host compiles %d/%d  identical=%s"
                % (name, family["isolated_s"], family["shared_s"],
                   family["speedup_x"], family["host_compiles_isolated"],
                   family["host_compiles_shared"],
                   family["identical_results"])
            )
        elif "nolink_s" in family:
            rows.append(
                "%-18s nolink %.3fs  linked %.3fs  speedup %.2fx "
                "(trimmed)  bounces %d  regions %d  identical=%s"
                % (name, family["nolink_s"], family["linked_s"],
                   family["speedup_trimmed_x"], family["link_bounces"],
                   family["regions_fused"], family["identical_results"])
            )
        elif "eager_s" in family:
            rows.append(
                "%-18s eager %.3fs  tiered %.3fs  ttfo %.3f/%.3fs "
                "(%.2fx)  warm compiles %d  identical=%s"
                % (name, family["eager_s"], family["tiered_s"],
                   family["eager_ttfo_s"], family["tiered_ttfo_s"],
                   family["ttfo_ratio_x"],
                   family["prewarm_warm_host_compiles"],
                   family["identical_results"])
            )
        elif "flock_s" in family:
            rows.append(
                "%-18s flock %.3fs  daemon %.3fs  %d procs  "
                "host compiles %d/%d  lookup p50 %.1f/%.1fus  "
                "fallback=%s  identical=%s"
                % (name, family["flock_s"], family["daemon_s"],
                   family["fleet_processes"],
                   family["fleet_host_compiles_flock"],
                   family["fleet_host_compiles_daemon"],
                   family["flock_lookup_p50_us"],
                   family["daemon_lookup_p50_us"],
                   family["fallback_ok"], family["identical_results"])
            )
        elif "plain_s" in family:
            rows.append(
                "%-18s plain %.3fs  record %.3fs  overhead %.1f%%  "
                "identical=%s"
                % (name, family["plain_s"], family["record_s"],
                   100.0 * (family["record_s"] / family["plain_s"] - 1.0),
                   family["identical_results"])
            )
        elif "interpreted_s" in family:
            rows.append(
                "%-18s interpreted %.3fs  compiled %.3fs  speedup %.2fx  "
                "spread %.0f%%/%.0f%%  identical=%s"
                % (name, family["interpreted_s"], family["compiled_s"],
                   family["speedup_x"], family["interpreted_spread_pct"],
                   family["compiled_spread_pct"],
                   family["identical_results"])
            )
        else:
            rows.append(
                "%-18s cold %.3fs  warm %.3fs  speedup %.2fx  "
                "host compiles %d/%d  identical=%s"
                % (name, family["cold_s"], family["warm_s"],
                   family["speedup_x"], family["host_compiles_cold"],
                   family["host_compiles_warm"],
                   family["identical_results"])
            )
    record("wallclock_dispatch", "\n".join(rows))

    # Both modes must agree bit-for-bit on every family before any
    # speedup is meaningful.
    for name, family in results["workloads"].items():
        assert family["identical_results"], name

    # The sidecar's contract: a warm process revives every compiled
    # body from disk and performs zero host compile() calls, while the
    # cold sweep (sidecar disabled, factory memo cleared) pays them all.
    sidecar = results["workloads"]["sidecar_cold_warm"]
    assert sidecar["host_compiles_warm"] == 0, sidecar
    assert sidecar["host_compiles_cold"] > 0, sidecar

    # The polymorphic IC chains must engage on the corpora built to fit
    # them (megamorphic overflows the chain by design and is excluded).
    indirect = results["workloads"]["indirect_heavy"]["ic_per_corpus"]
    assert indirect["alternating_pair"]["hit_rate"] > 0.8, indirect
    assert indirect["rotating_3"]["hit_rate"] > 0.8, indirect

    # Trace linking + superblock fusion: the linked compiled tier must
    # beat the unlinked one by 1.3x trimmed mean while staying
    # bit-identical to both the unlinked tier and the interpreted
    # oracle, with every stable-chain exit resolved in cache.
    linking = results["workloads"]["trace_linking"]
    assert linking["oracle_identical"], linking
    assert linking["link_bounces"] == 0, linking
    assert linking["regions_fused"] > 0, linking
    assert linking["speedup_trimmed_x"] >= 1.3, (
        "linked compiled tier %.2fx < 1.3x over nolink"
        % linking["speedup_trimmed_x"]
    )

    # Tiered warm-up: the default tier-up must agree bit-for-bit with
    # the interpreted oracle, cut time-to-first-output to at most 0.6x
    # of compile threshold 1, and leave a prewarmed corpus
    # with nothing to compile.  The prewarm --jobs monotonicity check
    # is core-aware (see docs/performance.md), so it holds on 1-core
    # runners too.
    warmup = results["workloads"]["tiered_warmup"]
    assert warmup["oracle_identical"], warmup
    assert warmup["ttfo_ratio_x"] <= 0.6, (
        "tiered TTFO %.2fx of threshold 1 exceeds the 0.6x cap"
        % warmup["ttfo_ratio_x"]
    )
    assert warmup["prewarm_warm_host_compiles"] == 0, warmup
    assert warmup["jobs_monotonic_ok"], warmup["prewarm_jobs_sweep"]

    # Fleet warm-up: an 8-process warm fleet over the cache-server
    # daemon compiles nothing, warm daemon lookups beat the flock
    # store's stat-revalidated path, sessions against the stopped
    # daemon silently fall back, and the store is fsck-clean after the
    # daemon's write-backs.
    fleet = results["workloads"]["fleet_warmup"]
    assert fleet["daemon_alive"], fleet
    assert fleet["fleet_host_compiles_daemon"] == 0, fleet
    assert fleet["daemon_lookup_p50_us"] < fleet["flock_lookup_p50_us"], (
        "daemon lookup p50 %.1fus not under flock %.1fus"
        % (fleet["daemon_lookup_p50_us"], fleet["flock_lookup_p50_us"])
    )
    assert fleet["fallback_ok"], fleet
    assert fleet["fsck_clean"], fleet

    # The acceptance gate: compiled >= 1.5x on fig5a warm-persistent GUI
    # startup (the configuration Figure 5(a) celebrates).
    gate = results["gate"]
    assert gate["workload"] == GATE_WORKLOAD
    assert gate["pass"], (
        "compiled dispatch %.2fx < %.1fx gate on %s"
        % (gate["speedup_x"], GATE_THRESHOLD_X, GATE_WORKLOAD)
    )

    # The artifact landed at the repo root and round-trips as JSON.
    assert os.path.exists(out_path)
    with open(out_path) as handle:
        on_disk = json.load(handle)
    assert on_disk["gate"]["workload"] == GATE_WORKLOAD
    assert RESULTS_DIR  # conftest import is intentional (results dir)
