"""Ablation: position-independent translations (paper §3.2.3 extension).

The paper's implementation "cannot use the persisted translations if
library locations vary across executions ... however, the run-time
compiler can be adapted to generate position independent translations".
This ablation measures exactly that adaptation, in both scenarios that
lose performance without it:

* **cross-run relocation** — the same application under a perturbed
  library layout (the PaX/ASLR case);
* **inter-application reuse with conflicting bases** — File-Roller loads
  libcairo at a different address than the other GUI apps, so its cairo
  traces conflict when donated.
"""

from conftest import baseline_vm, fresh_db

from repro.analysis.report import format_table
from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.persist.manager import PersistenceConfig
from repro.workloads.harness import run_vm


def _relocation_case(gui_suite, tmp_path_factory, relocatable):
    """Same app, library layout perturbed between runs."""
    app = gui_suite["gftp"]
    db = fresh_db(tmp_path_factory, "reloc-%s" % relocatable)
    run_vm(app, "startup",
           persistence=PersistenceConfig(database=db, relocatable=relocatable),
           layout=FixedLayout())
    moved = run_vm(
        app, "startup",
        persistence=PersistenceConfig(database=db, relocatable=relocatable,
                                      readonly=True),
        layout=PerturbedLayout(11),
    )
    base = baseline_vm(app, "startup", layout=PerturbedLayout(11))
    return base, moved


def _interapp_case(gui_suite, tmp_path_factory, relocatable):
    """Donate dia's cache (cairo at the common base) to file-roller
    (cairo at a conflicting base)."""
    db = fresh_db(tmp_path_factory, "xapp-%s" % relocatable)
    run_vm(gui_suite["dia"], "startup",
           persistence=PersistenceConfig(database=db, relocatable=relocatable))
    base = baseline_vm(gui_suite["file-roller"], "startup")
    crossed = run_vm(
        gui_suite["file-roller"], "startup",
        persistence=PersistenceConfig(
            database=db, relocatable=relocatable,
            inter_application=True, readonly=True,
        ),
    )
    return base, crossed


def _sweep(gui_suite, tmp_path_factory):
    rows = []
    for label, case in (("cross-run-relocation", _relocation_case),
                        ("inter-app-conflict", _interapp_case)):
        for relocatable in (False, True):
            base, primed = case(gui_suite, tmp_path_factory, relocatable)
            rows.append(
                {
                    "scenario": label,
                    "pic": relocatable,
                    "baseline": base.stats.total_cycles,
                    "primed": primed.stats.total_cycles,
                    "improvement_pct": 100 * (
                        1 - primed.stats.total_cycles / base.stats.total_cycles
                    ),
                    "reused": primed.stats.traces_from_persistent,
                    "invalidated": primed.host.invalidated,
                    "rebased": primed.host.rebased,
                    "retranslated": primed.stats.traces_translated,
                }
            )
    return rows


def test_ablation_position_independent_translations(
    benchmark, gui_suite, record, tmp_path_factory
):
    rows = benchmark.pedantic(
        _sweep, args=(gui_suite, tmp_path_factory), rounds=1, iterations=1
    )

    record(
        "ablation_relocatable",
        format_table(
            rows,
            columns=["scenario", "pic", "baseline", "primed",
                     "improvement_pct", "reused", "invalidated", "rebased",
                     "retranslated"],
            title="Ablation: position-independent translations",
        ),
    )

    by_key = {(row["scenario"], row["pic"]): row for row in rows}

    for scenario in ("cross-run-relocation", "inter-app-conflict"):
        plain = by_key[(scenario, False)]
        pic = by_key[(scenario, True)]
        # Without PIC, relocation invalidates translations and forces
        # retranslation; with PIC they are rebased and reused.
        assert plain["invalidated"] > 0, scenario
        assert pic["rebased"] > 0, scenario
        assert pic["retranslated"] < plain["retranslated"], scenario
        assert pic["reused"] > plain["reused"], scenario
        # PIC recovers performance.
        assert pic["improvement_pct"] > plain["improvement_pct"], scenario

    # Fully-relocatable same-app reuse retranslates nothing at all.
    assert by_key[("cross-run-relocation", True)]["retranslated"] == 0
