"""The wall-clock harness's result file accumulates across invocations.

``run_wallclock`` records a *trajectory*: each family's numbers stay in
``BENCH_wallclock.json`` until that family is re-measured.  A selective
``--family`` invocation used to rewrite the file wholesale, silently
discarding every family measured earlier — these tests pin the merge
semantics (preserve untouched families, refresh re-run ones, recompute
the gate over the merged set, degrade to a plain write on a missing or
corrupt file).
"""

import json
import os

import pytest

from repro.bench import (
    GATE_WORKLOAD,
    _merge_existing,
    run_wallclock,
)


def _fake_results(**families):
    return {
        "host": {"python": "x", "platform": "y"},
        "config": {"warmup_reps": 0, "timed_reps": 1},
        "workloads": dict(families),
    }


class TestMergeExisting:
    def test_missing_file_degrades_to_plain_write(self, tmp_path):
        results = _fake_results(fam_a={"speedup_x": 1.0})
        merged = _merge_existing(str(tmp_path / "absent.json"), results)
        assert merged == results

    def test_corrupt_file_degrades_to_plain_write(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        results = _fake_results(fam_a={"speedup_x": 1.0})
        assert _merge_existing(str(path), results) == results

    def test_untouched_families_preserved(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_fake_results(
            fam_old={"speedup_x": 3.0}, fam_both={"speedup_x": 1.0},
        )))
        merged = _merge_existing(str(path), _fake_results(
            fam_both={"speedup_x": 2.0}, fam_new={"speedup_x": 9.0},
        ))
        workloads = merged["workloads"]
        assert workloads["fam_old"] == {"speedup_x": 3.0}   # preserved
        assert workloads["fam_both"] == {"speedup_x": 2.0}  # refreshed
        assert workloads["fam_new"] == {"speedup_x": 9.0}   # added

    def test_host_and_config_describe_current_invocation(self, tmp_path):
        path = tmp_path / "bench.json"
        stale = _fake_results(fam_old={})
        stale["host"] = {"python": "ancient", "platform": "other-box"}
        path.write_text(json.dumps(stale))
        merged = _merge_existing(str(path), _fake_results(fam_new={}))
        assert merged["host"] == {"python": "x", "platform": "y"}


class TestRunWallclockMerge:
    """End-to-end: two invocations into one file, nothing lost."""

    @pytest.fixture(scope="class")
    def merged_file(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("bench-merge")
        out_path = str(tmp_path / "bench.json")
        # First invocation stands in for an earlier full run that
        # measured the gate family (fabricated numbers keep this fast).
        seed = {
            "host": {"python": "old"},
            "config": {"warmup_reps": 9, "timed_reps": 9},
            "workloads": {
                GATE_WORKLOAD: {
                    "speedup_x": 2.5,
                    "identical_results": True,
                    "interpreted_s": 0.5,
                    "compiled_s": 0.2,
                },
            },
            "gate": {"workload": GATE_WORKLOAD, "threshold_x": 1.5},
        }
        with open(out_path, "w") as handle:
            json.dump(seed, handle)
        results = run_wallclock(
            scratch_dir=str(tmp_path / "scratch"),
            warmup=0,
            reps=1,
            families=("indirect_heavy",),
            out_path=out_path,
        )
        with open(out_path) as handle:
            return results, json.load(handle)

    def test_selective_rerun_preserves_other_families(self, merged_file):
        results, on_disk = merged_file
        assert GATE_WORKLOAD in on_disk["workloads"]
        assert "indirect_heavy" in on_disk["workloads"]
        assert on_disk["workloads"][GATE_WORKLOAD]["speedup_x"] == 2.5

    def test_returned_results_match_file(self, merged_file):
        results, on_disk = merged_file
        assert results == on_disk

    def test_gate_recomputed_over_merged_set(self, merged_file):
        """The gate family wasn't re-run, but its preserved numbers
        still drive the recorded gate verdict."""
        _results, on_disk = merged_file
        gate = on_disk["gate"]
        assert gate["workload"] == GATE_WORKLOAD
        assert gate["speedup_x"] == 2.5
        assert gate["pass"] is True

    def test_rerun_family_carries_ic_counters(self, merged_file):
        _results, on_disk = merged_file
        family = on_disk["workloads"]["indirect_heavy"]
        assert family["identical_results"] is True
        per = family["ic_per_corpus"]
        assert per["alternating_pair"]["hit_rate"] > 0.8
        assert per["rotating_3"]["hit_rate"] > 0.8


_COMMITTED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_wallclock.json"
)


def _committed_results():
    with open(_COMMITTED) as handle:
        workloads = json.load(handle)["workloads"]
    return _fake_results(**workloads)


def _set(family, path, value):
    """Set ``family[a][b]...`` for a dotted ``path``."""
    *parents, leaf = path.split(".")
    for key in parents:
        family = family[key]
    family[leaf] = value


#: One case per ``--check`` predicate: (family, field, failing value).
#: A callable value computes the failing value from the family.
_FLIPS = [
    ("fig5a_gui", "identical_results", False),
    ("fig5a_gui", "speedup_trimmed_x", 1.2),
    ("fig5a_gui", "host_compiles_compiled", 1),
    ("record_overhead", "identical_results", False),
    ("record_overhead", "record_s", lambda f: f["plain_s"] * 1.10),
    ("indirect_heavy", "identical_results", False),
    ("indirect_heavy", "ic_per_corpus.alternating_pair.hit_rate", 0.0),
    ("indirect_heavy", "ic_per_corpus.rotating_3.hit_rate", 0.0),
    ("trace_linking", "identical_results", False),
    ("trace_linking", "link_bounces", 1),
    ("trace_linking", "regions_fused", 0),
    ("tiered_warmup", "identical_results", False),
    ("tiered_warmup", "ttfo_ratio_x", 0.7),
]


class TestCheck:
    """``repro bench --check`` over fixed results: every predicate the
    gate judges fails the command when its one field is flipped."""

    @staticmethod
    def check(monkeypatch, capsys, tmp_path, results, *extra):
        import repro.bench
        from repro.cli import main

        def fake_run_wallclock(scratch_dir, warmup=2, reps=3,
                               families=None, out_path=None):
            fig5a = results["workloads"][GATE_WORKLOAD]
            results["gate"] = {
                "workload": GATE_WORKLOAD,
                "threshold_x": 1.5,
                "speedup_x": fig5a["speedup_x"],
                "speedup_trimmed_x": fig5a["speedup_trimmed_x"],
                "pass": fig5a["identical_results"]
                and fig5a["speedup_trimmed_x"] >= 1.5,
            }
            return results

        monkeypatch.setattr(repro.bench, "run_wallclock", fake_run_wallclock)
        code = main(["bench", "--check", "--out",
                     str(tmp_path / "bench.json")] + list(extra))
        return code, capsys.readouterr().out

    def test_committed_results_pass(self, monkeypatch, capsys, tmp_path):
        code, out = self.check(monkeypatch, capsys, tmp_path,
                               _committed_results())
        assert code == 0, out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "name,path,value", _FLIPS,
        ids=["%s-%s" % (name, path) for name, path, _value in _FLIPS],
    )
    def test_flipped_field_fails(self, monkeypatch, capsys, tmp_path,
                                 name, path, value):
        results = _committed_results()
        family = results["workloads"][name]
        _set(family, path, value(family) if callable(value) else value)
        code, out = self.check(monkeypatch, capsys, tmp_path, results)
        assert code == 1, out
        assert "FAIL" in out
        assert name in out

    def test_carried_over_families_are_not_judged(
        self, monkeypatch, capsys, tmp_path
    ):
        """A family this invocation did not measure gets no verdict and
        cannot fail the exit code; it is listed as carried over."""
        results = _committed_results()
        results["workloads"][GATE_WORKLOAD]["speedup_trimmed_x"] = 1.2
        code, out = self.check(monkeypatch, capsys, tmp_path, results,
                               "--family", "indirect_heavy")
        assert code == 0, out
        verdicts = [line for line in out.splitlines() if " -> " in line]
        assert len(verdicts) == 1 and "indirect_heavy" in verdicts[0], out
        carried = [line for line in out.splitlines() if "carried over" in line]
        assert len(carried) == 1 and GATE_WORKLOAD in carried[0], out

    @pytest.mark.parametrize("threshold,expected", [("1.0", 0), ("1.3", 1)])
    def test_verdict_prints_what_it_judged(
        self, monkeypatch, capsys, tmp_path, threshold, expected
    ):
        """The gate line shows the trimmed speedup the exit code reads
        and the ``--check-threshold`` it applied, not the best rep
        against the recorded 1.5x."""
        results = _committed_results()
        fig5a = results["workloads"][GATE_WORKLOAD]
        fig5a["speedup_x"], fig5a["speedup_trimmed_x"] = 1.24, 1.2
        code, out = self.check(monkeypatch, capsys, tmp_path, results,
                               "--check-threshold", threshold)
        assert code == expected, out
        [line] = [line for line in out.splitlines()
                  if GATE_WORKLOAD in line and " -> " in line]
        assert "speedup_trimmed_x=1.2 (>= %g)" % float(threshold) in line
        assert line.endswith("PASS") if expected == 0 else "FAIL" in line

    @pytest.mark.parametrize("name", ["fig2b_gui", "headline_spec"])
    def test_identity_gated_on_every_family(
        self, monkeypatch, capsys, tmp_path, name
    ):
        results = _committed_results()
        results["workloads"][name]["identical_results"] = False
        code, out = self.check(monkeypatch, capsys, tmp_path, results)
        assert code == 1, out
        [line] = [line for line in out.splitlines() if "FAIL" in line]
        assert name in line and "identical_results=False" in line

    def test_ic_hit_rate_floor(self, monkeypatch, capsys, tmp_path):
        """``--check`` holds the IC chains to the same 0.8 hit rate the
        benchmark suite asserts."""
        results = _committed_results()
        per = results["workloads"]["indirect_heavy"]["ic_per_corpus"]
        per["rotating_3"]["hit_rate"] = 0.5
        code, out = self.check(monkeypatch, capsys, tmp_path, results)
        assert code == 1, out
        assert "rotating_3.hit_rate=0.5 (> 0.8)" in out
