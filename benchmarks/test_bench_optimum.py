"""Batched analytic-optimum engine vs the historical scalar pass.

The declare phase of every default-evaluator study solves one
first-order closed form and one numerical ``(T, P)`` optimisation per
grid cell — at ~20 ms a cell, the analytic pass dominates any
``--no-sim`` sweep and the staging of scenario families.  PR 8 replaced
the per-cell loop with one array sweep per study column
(:func:`repro.optimize.allocation.optimize_allocation_batch`) plus a
cross-replicate memo that serves repeated cells without recompute.

The acceptance workload is the Figure 5 scenario-family analytic pass
(3 resampled replicates of the 27-cell error-rate grid, no
simulation): the batched+memoized engine must beat the scalar path —
the same study with a ``point_eval`` hook delegating to
:func:`~repro.experiments.spec.pattern_point`, which evaluates every
cell inline — by ``REPRO_BENCH_OPTIMUM_FLOOR`` (default 5x; the
measured gain is ~3x memo x ~4x batch).  The workload is pure
single-process compute, so the bench is 1-CPU-safe: the gain measures
vectorization and dedup, not parallelism.  An exact assertion pins the
emitted tables of both modes byte-identical — the engine trades only
time, never bits.

A count gate bounds the engine's work independently of the clock: over
the analytic columns of ``all --paper``, each
:func:`~repro.experiments.analytic.evaluate_analytic` call may make at
most ``OVERHEAD_CALL_BUDGET`` broadcast ``PatternModel.overhead`` calls
(one per joint-zoom round), and none at all when the memo serves every
model of the call.  Every measurement lands in ``BENCH_optimum.json``
(path overridable via ``REPRO_BENCH_OPTIMUM_JSON``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import time

import pytest

import repro.experiments.pipeline as pipeline_module
from repro.core.pattern import PatternModel
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.scenarios import Resample, ScenarioSet
from repro.experiments.spec import pattern_point, run_study

#: Batched-over-scalar floor on the analytic pass (measured ~12x; the
#: floor derates for noisy CI hardware while still catching a broken
#: batch path, which would clock in at ~1x).
OPTIMUM_FLOOR = float(os.environ.get("REPRO_BENCH_OPTIMUM_FLOOR", "5.0"))

REPLICATES = 3

#: Overhead calls one evaluate_analytic call may make (the joint zoom
#: converges in 13 rounds on the paper's columns).
OVERHEAD_CALL_BUDGET = 20

#: Analytic columns only: the bench times the optimisers, not sampling.
SETTINGS = SimSettings(simulate=False)

RESULTS: dict[str, float | int | str] = {
    "study": "fig5 scenario family (3 replicates), analytic pass only",
    "replicates": REPLICATES,
    "floor": OPTIMUM_FLOOR,
}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_OPTIMUM_JSON", "BENCH_optimum.json", RESULTS)


def _scalar_hook(spec):
    """``spec`` evaluated cell by cell by the scalar optimisers (no engine)."""
    return dataclasses.replace(spec, point_eval=lambda c, m, n: pattern_point(c, m, n))


def _family_pass(spec=REGISTRY["fig5"]) -> tuple[float, list[str], dict[str, int]]:
    """One full scenario-family analytic pass on a fresh pipeline."""
    sset = ScenarioSet("bench", spec, [Resample(REPLICATES)])
    with SimulationPipeline(jobs=1) as pipe:
        start = time.perf_counter()
        families = sset.stage(pipe, SETTINGS)
        pipe.resolve()
        tables = [t.table() for family in families for t in family.finish()]
        elapsed = time.perf_counter() - start
        counts = {
            "evaluated": pipe.analytic_memo.evaluated,
            "served": pipe.analytic_memo.served,
        }
    return elapsed, tables, counts


def _timed(fn, repeats: int = 2):
    """Best-of-N wall clock (and the last call's payload)."""
    best = float("inf")
    payload = None
    for _ in range(repeats):
        elapsed, *payload = fn()
        best = min(best, elapsed)
    return best, payload


def test_batched_analytic_pass_speedup(wallclock_assertions):
    """Acceptance: batched+memoized analytic pass >= floor x scalar."""
    t_scalar, (scalar_tables, scalar_counts) = _timed(
        lambda: _family_pass(_scalar_hook(REGISTRY["fig5"]))
    )
    t_batch, (batch_tables, batch_counts) = _timed(_family_pass)

    # Exact: the engine changes wall-clock only, never a table byte.
    assert batch_tables == scalar_tables
    # The scalar path bypasses the engine entirely; the batch path
    # evaluates each unique cell once and memo-serves the replicates.
    assert scalar_counts == {"evaluated": 0, "served": 0}
    assert batch_counts == {"evaluated": 27, "served": 54}

    gain = t_scalar / t_batch
    RESULTS["points"] = 27 * REPLICATES
    RESULTS["unique_points"] = batch_counts["evaluated"]
    RESULTS["scalar_seconds"] = t_scalar
    RESULTS["batched_seconds"] = t_batch
    RESULTS["analytic_batch_gain"] = gain
    print(
        f"\n  {27 * REPLICATES} analytic points ({batch_counts['evaluated']} "
        f"unique): scalar {t_scalar * 1e3:.0f} ms, batched "
        f"{t_batch * 1e3:.0f} ms, gain {gain:.2f}x"
    )
    assert gain >= OPTIMUM_FLOOR, (
        f"batched analytic pass only {gain:.2f}x over scalar "
        f"(floor {OPTIMUM_FLOOR}x)"
    )


def test_single_study_engine_gain():
    """Informational: pure engine gain on one cold fig5 grid (no memo)."""
    start = time.perf_counter()
    scalar_results = run_study(_scalar_hook(REGISTRY["fig5"]), settings=SETTINGS)
    t_scalar = time.perf_counter() - start
    start = time.perf_counter()
    batch_results = run_study(REGISTRY["fig5"], settings=SETTINGS)
    t_batch = time.perf_counter() - start
    assert [r.table() for r in batch_results] == [r.table() for r in scalar_results]
    RESULTS["single_study_scalar_seconds"] = t_scalar
    RESULTS["single_study_batched_seconds"] = t_batch
    RESULTS["single_study_gain"] = t_scalar / t_batch
    print(
        f"\n  single fig5 grid: scalar {t_scalar * 1e3:.0f} ms, "
        f"batched {t_batch * 1e3:.0f} ms, gain {t_scalar / t_batch:.2f}x"
    )


def test_overhead_calls_per_analytic_call(monkeypatch):
    """Count gate: <= budget overhead calls per call, 0 when memo-served."""
    overhead_calls = 0
    real_overhead = PatternModel.overhead

    def counting_overhead(self, T, P):
        nonlocal overhead_calls
        overhead_calls += 1
        return real_overhead(self, T, P)

    real_evaluate = pipeline_module.evaluate_analytic
    log: list[tuple[int, int, int]] = []

    def logging_evaluate(models, memo=None):
        before = overhead_calls
        points, evaluated, served = real_evaluate(models, memo)
        log.append((evaluated, served, overhead_calls - before))
        return points, evaluated, served

    monkeypatch.setattr(PatternModel, "overhead", counting_overhead)
    monkeypatch.setattr(pipeline_module, "evaluate_analytic", logging_evaluate)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all", "--paper", "--no-sim", "--no-cache"]) == 0

    assert sum(evaluated for evaluated, _, _ in log) == 93
    served_only = [calls for evaluated, _, calls in log if evaluated == 0]
    computing = [calls for evaluated, _, calls in log if evaluated > 0]
    assert served_only, "expected memo-served analytic columns in all --paper"
    assert served_only == [0] * len(served_only)
    assert max(computing) <= OVERHEAD_CALL_BUDGET, log
    RESULTS["analytic_calls"] = len(log)
    RESULTS["analytic_calls_memo_served"] = len(served_only)
    RESULTS["max_overhead_calls_per_analytic_call"] = max(computing)
    print(
        f"\n  all --paper analytic: {len(log)} calls ({len(served_only)} "
        f"memo-served), at most {max(computing)} overhead calls per call "
        f"(budget {OVERHEAD_CALL_BUDGET})"
    )
