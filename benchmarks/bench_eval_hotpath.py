"""Evaluation hot path: compiled physical plans vs the interpreted evaluator.

Trigger firing is the system's innermost loop: every DML statement evaluates
the pushed-down XQGM plan of each qualifying trigger group.  PR 4 lowers
those logical plans once into *compiled physical plans* — tuple rows with
integer slot layouts, pre-compiled expression closures, slot-aware hash
joins and index probes (:mod:`repro.xqgm.physical`).

On top sits the data-level realization of the paper's shared trigger
processing (Section 5): the trigger groups compiled for one monitored path
share one translation (and all three XML events share its OLD/NEW node
sides), and the plan engines keep each side's rows and each translation's
derived pairs in the firing statement's evaluation memo — the *first* group
fired by a statement computes, every sibling group reads back.  This
benchmark therefore drives the paper's own trigger-scaling stress — the
Figure 17 population of structurally similar triggers — in UNGROUPED mode,
where every trigger is its own group and the interpreted engine re-evaluates
the same plan once per trigger per statement.  That is exactly the workload
the paper built GROUPED mode for; the compiled engine recovers the sharing
at the data level, and the gate asserts it fires triggers at **>= 3x** the
interpreted throughput (measured speedups are far higher).

The batch-oriented *columnar* engine (:mod:`repro.xqgm.columnar`) shares
the statement memo, so it is gated like the compiled one: **>= 3x** the
interpreted evaluator on the ungrouped stress — measured against the full
Figure 17 trigger population (pinned, not scaled down, because per-statement
amortization across sibling groups is exactly the quantity under test; the
table sizes still scale with ``REPRO_BENCH_SCALE``) — and **>= 0.7x** the
compiled engine there (no regression; batch execution of a one-node delta
sits at parity with row execution).

For transparency the standalone run also reports the GROUPED_AGG default
point, where one group serves the whole population and per-statement
evaluation is already delta-bounded — there nothing repeats within a
statement, and both fast engines are gated only on *not regressing*
(>= 0.7x; in practice they sit at parity, with the XML-node construction
shared by all engines dominating).

Run with pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_eval_hotpath.py -q

or standalone for a text comparison (also asserts every gate)::

    PYTHONPATH=src python -m benchmarks.bench_eval_hotpath
"""

import dataclasses
import gc
import time

from repro.core.service import ExecutionMode
from repro.workloads import ExperimentHarness, WorkloadParameters

from benchmarks.common import BENCH_SCALE, record_result

#: Figure-17-style population for the UNGROUPED gate (scaled).
HOTPATH_PARAMETERS = WorkloadParameters(
    depth=2,
    leaf_tuples=max(256, int(4_096 * BENCH_SCALE)),
    fanout=32,
    num_triggers=max(16, int(100 * BENCH_SCALE)),
    satisfied_triggers=min(20, max(4, int(20 * BENCH_SCALE))),
    seed=42,
)

#: The columnar gate's stress: same tables, but the trigger population is
#: pinned at the full Figure 17 count regardless of ``REPRO_BENCH_SCALE`` —
#: scaling the population down would scale away the sibling-group sharing
#: the columnar engine is built to exploit.
COLUMNAR_STRESS_PARAMETERS = dataclasses.replace(
    HOTPATH_PARAMETERS, num_triggers=100, satisfied_triggers=20
)

#: Statements per timed run (plus warm-up).
_CHECK_STATEMENTS = 40
_WARMUP_STATEMENTS = 5


def _run(mode: ExecutionMode, use_compiled: bool,
         parameters: WorkloadParameters = HOTPATH_PARAMETERS,
         statements: int = _CHECK_STATEMENTS,
         use_columnar: bool = False):
    """Time ``statements`` updates; returns (seconds, firings, firing log)."""
    harness = ExperimentHarness(parameters, updates=1)
    setup = harness.build_setup(
        parameters, mode, use_compiled_plans=use_compiled, use_columnar=use_columnar
    )
    pool = setup.workload.update_statements(
        statements + _WARMUP_STATEMENTS, setup.database
    )
    for statement in pool[:_WARMUP_STATEMENTS]:
        setup.run_statement(statement)
    fired_before = setup.fired_count
    started = time.perf_counter()
    for statement in pool[_WARMUP_STATEMENTS:]:
        setup.run_statement(statement)
    elapsed = time.perf_counter() - started
    fired = setup.fired_count - fired_before
    log = [
        (f.trigger, f.key) for f in setup.service.fired
    ] if setup.service is not None else []
    return elapsed, fired, log, setup


def test_compiled_hotpath_3x_ungrouped():
    """Acceptance gate: >= 3x trigger-firing throughput on the Figure 17 stress."""
    best = 0.0
    for _ in range(3):  # best-of-3 shields the ratio from scheduler noise
        interpreted, fired_i, log_i, _ = _run(ExecutionMode.UNGROUPED, False)
        compiled, fired_c, log_c, setup = _run(ExecutionMode.UNGROUPED, True)
        # Same activations either way: the engines are interchangeable.
        assert fired_i == fired_c > 0
        assert sorted(log_i) == sorted(log_c)
        # The sibling groups must actually be sharing one evaluation.
        assert setup.service.evaluation_report()["pairs_memo_hits"] > 0
        best = max(best, interpreted / compiled)
        if best >= 3.0:
            break
    assert best >= 3.0, (
        f"compiled trigger firing only {best:.2f}x the interpreted evaluator"
    )


def test_columnar_hotpath_3x_ungrouped():
    """Acceptance gate: the columnar engine fires triggers at >= 3x the
    interpreted evaluator's throughput on the ungrouped Figure 17 stress,
    and does not regress against the compiled row engine there (>= 0.7x).

    Ratios are taken between each engine's *best* run (min over trials):
    scheduler noise hits individual runs, not engines, so min/min converges
    on the true ratio where per-trial ratios flake.
    """
    best = {"interpreted": float("inf"), "compiled": float("inf"), "columnar": float("inf")}
    for _ in range(3):
        logs = {}
        for engine, options in (
            ("interpreted", dict(use_compiled=False)),
            ("compiled", dict(use_compiled=True)),
            ("columnar", dict(use_compiled=False, use_columnar=True)),
        ):
            gc.collect()
            seconds, fired, log, setup = _run(
                ExecutionMode.UNGROUPED, parameters=COLUMNAR_STRESS_PARAMETERS, **options
            )
            assert fired > 0
            logs[engine] = sorted(log)
            best[engine] = min(best[engine], seconds)
        # Same activations whichever engine: they are interchangeable.
        assert logs["columnar"] == logs["compiled"] == logs["interpreted"]
        # The columnar engine must actually have served every firing.
        report = setup.service.evaluation_report()
        assert report["columnar_firings"] > 0
        assert report["columnar_fallbacks"] == 0
        assert report["columnar_plan_errors"] == 0
        if (
            best["interpreted"] / best["columnar"] >= 3.3
            and best["compiled"] / best["columnar"] >= 0.85
        ):
            break
    over_interpreted = best["interpreted"] / best["columnar"]
    over_compiled = best["compiled"] / best["columnar"]
    assert over_interpreted >= 3.0, (
        f"columnar trigger firing only {over_interpreted:.2f}x the interpreted evaluator"
    )
    assert over_compiled >= 0.7, (
        f"columnar engine regressed against the compiled one: {over_compiled:.2f}x "
        f"(compiled {best['compiled'] * 1000:.1f} ms, columnar {best['columnar'] * 1000:.1f} ms)"
    )


def test_compiled_no_regression_grouped_agg():
    """The grouped default point must not regress (evaluation is delta-bounded).

    Per-update time here is dominated by costs both engines share (node
    construction, activation, the row update itself), so the expected ratio
    is ~1.0; the 0.7 floor with a best-of-4 and a longer window merely
    guards against a real constant-factor regression without flaking on
    scheduler noise.
    """
    best = 0.0
    for _ in range(4):
        gc.collect()
        interpreted, fired_i, log_i, _ = _run(
            ExecutionMode.GROUPED_AGG, False, statements=100
        )
        gc.collect()
        compiled, fired_c, log_c, _ = _run(
            ExecutionMode.GROUPED_AGG, True, statements=100
        )
        assert fired_i == fired_c > 0
        assert sorted(log_i) == sorted(log_c)
        best = max(best, interpreted / compiled)
        if best >= 0.85:
            break
    assert best >= 0.7, f"compiled engine regressed the grouped path: {best:.2f}x"


def test_columnar_no_regression_grouped_agg():
    """The columnar engine must not regress the grouped default point either
    (same rationale and floor as the compiled no-regression gate)."""
    best = 0.0
    for _ in range(4):
        gc.collect()
        interpreted, fired_i, log_i, _ = _run(
            ExecutionMode.GROUPED_AGG, False, statements=100
        )
        gc.collect()
        columnar, fired_k, log_k, setup = _run(
            ExecutionMode.GROUPED_AGG, False, statements=100, use_columnar=True
        )
        assert fired_i == fired_k > 0
        assert sorted(log_i) == sorted(log_k)
        assert setup.service.evaluation_report()["columnar_fallbacks"] == 0
        best = max(best, interpreted / columnar)
        if best >= 0.85:
            break
    assert best >= 0.7, f"columnar engine regressed the grouped path: {best:.2f}x"


def main() -> None:  # pragma: no cover - CLI convenience
    record: dict = {
        "statements": _CHECK_STATEMENTS,
        "num_triggers": HOTPATH_PARAMETERS.num_triggers,
        "columnar_num_triggers": COLUMNAR_STRESS_PARAMETERS.num_triggers,
    }
    for mode in (ExecutionMode.UNGROUPED, ExecutionMode.GROUPED_AGG):
        interpreted, fired, _, _ = _run(mode, False)
        compiled, fired_c, _, setup = _run(mode, True)
        columnar, fired_k, _, columnar_setup = _run(mode, False, use_columnar=True)
        assert fired == fired_c == fired_k
        sharing = setup.service.evaluation_report()
        report = columnar_setup.service.evaluation_report()
        print(
            f"{mode.value:>12}: {_CHECK_STATEMENTS} updates, {fired} firings  "
            f"interpreted {interpreted * 1000:8.1f} ms   "
            f"compiled {compiled * 1000:8.1f} ms   "
            f"columnar {columnar * 1000:8.1f} ms   "
            f"speedup {interpreted / compiled:5.1f}x / {interpreted / columnar:5.1f}x   "
            f"pairs-memo hits {sharing['pairs_memo_hits']}"
        )
        record[mode.value] = {
            "interpreted_ms": round(interpreted * 1000, 2),
            "compiled_ms": round(compiled * 1000, 2),
            "columnar_ms": round(columnar * 1000, 2),
            "speedup": round(interpreted / compiled, 2),
            "columnar_speedup": round(interpreted / columnar, 2),
            "firings": fired,
            "pairs_memo_hits": sharing["pairs_memo_hits"],
            "shared_side_evaluations": sharing["shared_side_evaluations"],
            "columnar_batches": report["columnar_batches"],
            "columnar_fallbacks": report["columnar_fallbacks"],
        }
    test_compiled_hotpath_3x_ungrouped()
    print("hot-path assertion (>= 3x on the ungrouped Figure 17 stress): OK")
    test_columnar_hotpath_3x_ungrouped()
    print("columnar assertion (>= 3x interpreted, >= 0.7x compiled, ungrouped stress): OK")
    test_compiled_no_regression_grouped_agg()
    print("no-regression assertion (grouped_agg, compiled): OK")
    test_columnar_no_regression_grouped_agg()
    print("no-regression assertion (grouped_agg, columnar): OK")
    print("trajectory:", record_result(
        "eval_hotpath", record,
        headline="ungrouped.compiled_ms", higher_is_better=False,
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
