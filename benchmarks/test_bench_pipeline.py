"""Fused pipeline vs per-point sequential simulation, and the warm cache.

The acceptance bars of the batched-simulation subsystem, as counts that
hold on any host (one CPU included):

* a ``jobs=2`` pipeline resolving several scheduling rounds constructs
  exactly **one** process pool, and per-point ``simulate_mean`` calls
  construct none — the pipeline is the only place samples run in
  parallel;
* a warm-cache re-run of the same sweep schedules no job: every unique
  point is a disk hit and nothing misses;
* in both cases the produced values are **bit-identical** to the
  per-point sequential path for the same seed;
* every result-cache entry a ``fig2`` run writes is one small JSON
  record (at most :data:`MAX_RECORD_BYTES`), and the warm re-run reads
  them back without ever calling ``numpy.load``.

Wall-clock seconds of the three paths, and the per-entry read and
write microseconds of the cache, are recorded, not gated, in
``BENCH_pipeline.json`` (path overridable via
``REPRO_BENCH_PIPELINE_JSON``) so CI can archive the perf trajectory.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from contextlib import redirect_stdout
from io import StringIO

import pytest

from repro.experiments.common import SimSettings, simulate_mean
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.runner import main
from repro.optimize.allocation import optimize_allocation
from repro.platforms.catalog import DEFAULT_ALPHA
from repro.platforms.scenarios import build_model
from repro.sim.montecarlo import FAST
from repro.sim.plan import ResultCache
from repro.sim.results import OverheadEstimate

SEED = 20160913

#: Worker processes of the fused pipeline's one pool.
JOBS = 2

#: Size bound of one cache entry (a record is about 200 bytes).
MAX_RECORD_BYTES = 512

#: Collected measurements, dumped to JSON at module teardown.
RESULTS: dict[str, float | int | str] = {
    "fidelity": f"{FAST.n_runs}x{FAST.n_patterns}",
    "seed": SEED,
    "jobs": JOBS,
}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_PIPELINE_JSON", "BENCH_pipeline.json", RESULTS)


@pytest.fixture
def pools_made(monkeypatch) -> list:
    """Records every ``ProcessPoolExecutor`` constructed while active."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return made


@pytest.fixture(scope="module")
def sweep_points():
    """A multi-figure sweep: fig2-, fig5- and fig7-shaped workloads."""
    points = []
    for sc in (1, 3, 5):  # fig2: optimal pattern per scenario
        model = build_model("Hera", sc, alpha=DEFAULT_ALPHA)
        sol = optimize_allocation(model)
        points.append((model, sol.period, sol.processors))
    for sc in (1, 3):  # fig5: error-rate sweep at alpha = 0.1
        for lam in (1e-10, 1e-9, 5e-9):
            model = build_model("Hera", sc, alpha=DEFAULT_ALPHA, lambda_ind=lam)
            sol = optimize_allocation(model)
            points.append((model, sol.period, sol.processors))
    for D in (600.0, 3600.0, 7200.0):  # fig7: downtime sweep
        model = build_model("Hera", 1, alpha=DEFAULT_ALPHA, downtime=D)
        sol = optimize_allocation(model)
        points.append((model, sol.period, sol.processors))
    return points


@pytest.fixture(scope="module")
def settings() -> SimSettings:
    return SimSettings(fidelity=FAST, seed=SEED, method="vectorized")


@pytest.fixture(scope="module")
def sequential_run(sweep_points, settings):
    """(wall-clock, values) of per-point sequential simulation, best of 2."""

    def run():
        return [simulate_mean(m, T, P, settings) for m, T, P in sweep_points]

    values = run()  # warm imports and allocator caches
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        values = run()
        best = min(best, time.perf_counter() - start)
    RESULTS["n_points"] = len(sweep_points)
    RESULTS["sequential_seconds"] = best
    return best, values


def _fused_run(sweep_points, settings, cache_dir=None):
    """(wall-clock, values, pipeline) of a two-round fused resolve."""
    half = len(sweep_points) // 2
    with SimulationPipeline(jobs=JOBS, cache_dir=cache_dir) as pipe:
        start = time.perf_counter()
        deferred = []
        for chunk in (sweep_points[:half], sweep_points[half:]):
            deferred += [pipe.simulate_mean(m, T, P, settings) for m, T, P in chunk]
            pipe.resolve()
        elapsed = time.perf_counter() - start
    return elapsed, [d.value for d in deferred], pipe


def test_fused_pipeline_uses_one_process_pool(
    sweep_points, settings, sequential_run, pools_made
):
    """Acceptance: one pool for every round; none for per-point calls."""
    _, sequential_values = sequential_run
    [simulate_mean(m, T, P, settings) for m, T, P in sweep_points]
    assert pools_made == [], "per-point simulate_mean started a process pool"
    elapsed, fused_values, pipe = _fused_run(sweep_points, settings)
    assert fused_values == sequential_values, "fused pipeline changed the numbers"
    assert pipe._rounds >= 2
    assert pools_made == [JOBS], f"expected one {JOBS}-worker pool, got {pools_made}"
    RESULTS["fused_seconds"] = elapsed
    RESULTS["fused_rounds"] = pipe._rounds
    RESULTS["fused_pools"] = len(pools_made)
    print(
        f"\n  {len(sweep_points)} points: sequential "
        f"{sequential_run[0] * 1e3:.1f} ms, fused (jobs={JOBS}, "
        f"{pipe._rounds} rounds, 1 pool) {elapsed * 1e3:.1f} ms"
    )


def test_warm_rerun_schedules_no_jobs(sweep_points, settings, sequential_run, tmp_path):
    """Acceptance: a warm re-run is all disk hits and schedules nothing."""
    _, sequential_values = sequential_run
    _, _, cold = _fused_run(sweep_points, settings, cache_dir=tmp_path)
    unique = cold.cache.misses
    assert unique == cold.points_computed > 0
    elapsed, warm_values, warm = _fused_run(sweep_points, settings, cache_dir=tmp_path)
    assert warm_values == sequential_values, "cache served different numbers"
    assert warm.cache_stats == (unique, 0)
    assert warm.points_computed == 0
    assert warm.metrics.value("scheduler_jobs") == 0
    RESULTS["warm_cache_seconds"] = elapsed
    RESULTS["warm_cache_hits"] = unique
    print(f"\n  warm cache: {elapsed * 1e3:.1f} ms, {unique} hits, 0 misses, 0 jobs")


def test_all_no_sim_wallclock(wallclock_assertions):
    """Record the analytic-only full evaluation (the CLI's fast path)."""
    start = time.perf_counter()
    with redirect_stdout(StringIO()) as out:
        code = main(["all", "--no-sim"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "[done in" in out.getvalue()
    RESULTS["all_no_sim_seconds"] = elapsed
    print(f"\n  all --no-sim: {elapsed:.2f} s")
    # Generous ceiling: catches pathological regressions, not noise.
    assert elapsed < 60.0


def test_figure_tables_bit_identical_through_pipeline(settings):
    """Acceptance: emitted FigureResult tables match the sequential path.

    ``fig7`` exercises first-order + numerical points per row; the
    reference rows are rebuilt here with per-point ``simulate_mean``
    calls (the unchanged pre-pipeline path) at the same settings.
    """
    import numpy as np

    from repro.core.first_order import optimal_pattern
    from repro.experiments import fig7_downtime

    downtimes = np.array([0.0, 3600.0])
    with SimulationPipeline(jobs=JOBS) as pipe:
        results = fig7_downtime.run(
            scenarios=(1, 3), downtimes=downtimes, settings=settings, pipeline=pipe
        )
    overhead_panel = next(r for r in results if r.figure_id.endswith("c_overhead"))
    for row_index, D in enumerate(downtimes):
        for col_offset, sc in enumerate((1, 3)):
            model = build_model("Hera", sc, alpha=DEFAULT_ALPHA, downtime=float(D))
            fo = optimal_pattern(model)
            num = optimize_allocation(model)
            expected_fo = simulate_mean(model, fo.period, fo.processors, settings)
            expected_num = simulate_mean(model, num.period, num.processors, settings)
            row = overhead_panel.rows[row_index]
            assert row[1 + 2 * col_offset] == expected_fo
            assert row[2 + 2 * col_offset] == expected_num


def test_cache_entries_are_small_records(tmp_path, monkeypatch):
    """Acceptance: small JSON records, and a warm re-run never ``np.load``s."""
    import numpy as np

    cache_dir = tmp_path / "cache"
    args = ["fig2", "--cache-dir", str(cache_dir)]
    with redirect_stdout(StringIO()):
        assert main(args) == 0
    entries = ResultCache(cache_dir).entries()
    assert entries
    for entry in entries:
        assert entry.size <= MAX_RECORD_BYTES, (entry.key, entry.size)
        record = json.loads(entry.path.read_bytes())
        assert record["kind"] in ("estimate", "value")

    def no_load(*args, **kwargs):
        raise AssertionError("numpy.load called on a warm cache re-run")

    monkeypatch.setattr(np, "load", no_load)
    with redirect_stdout(StringIO()) as out:
        assert main(args) == 0
    assert f"[cache] {len(entries)} hits, 0 misses" in out.getvalue()

    # Per-entry cost of the record store itself (recorded, not gated).
    n = 200
    cache = ResultCache(tmp_path / "micro")
    estimate = OverheadEstimate(0.1, 0.02, 0.001, 0.098, 0.102, n_runs=50)
    start = time.perf_counter()
    for i in range(n):
        cache.put_estimate(f"{i:064x}", estimate)
    write_us = (time.perf_counter() - start) / n * 1e6
    start = time.perf_counter()
    for i in range(n):
        assert cache.get_estimate(f"{i:064x}") == estimate
    read_us = (time.perf_counter() - start) / n * 1e6
    RESULTS["cache_entry_bytes_max"] = max(e.size for e in entries)
    RESULTS["cache_write_us_per_entry"] = round(write_us, 1)
    RESULTS["cache_read_us_per_entry"] = round(read_us, 1)
    print(f"\n  cache record: <= {RESULTS['cache_entry_bytes_max']} B, "
          f"write {write_us:.0f} us, read {read_us:.0f} us per entry")
