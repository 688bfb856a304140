"""Extension bench: interleaved verifications (k segments per checkpoint).

Prints the overhead as a function of the segment count k on each SCR
platform (scenario 3, where the checkpoint is expensive and constant),
next to the first-order k* — showing when the paper's single
verification (k = 1) leaves measurable performance on the table.

The 1-CPU-safe gate is a call count: one ``optimize_segments`` call
zooms every ``k`` at once, so it makes at most ``MAX_OVERHEAD_CALLS``
broadcast ``segmented_overhead`` calls (one per zoom round) where a
per-k scalar scan made about 2,000.  The seconds per call are recorded
ungated in ``BENCH_twolevel.json`` (path overridable via
``REPRO_BENCH_TWOLEVEL_JSON``).
"""

from __future__ import annotations

import time

import pytest

from repro.extensions import twolevel
from repro.extensions.twolevel import (
    optimal_segment_count,
    optimize_segments,
    segmented_overhead,
    segmented_period,
)
from repro.io.tables import render_table
from repro.optimize import optimize_allocation
from repro.platforms import PLATFORM_NAMES, build_model

#: Upper bound on ``segmented_overhead`` calls per ``optimize_segments``
#: call (the zoom converges in about 11 rounds).
MAX_OVERHEAD_CALLS = 20

RESULTS: dict[str, dict] = {"max_overhead_calls": MAX_OVERHEAD_CALLS}


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(bench_writer):
    yield
    bench_writer("REPRO_BENCH_TWOLEVEL_JSON", "BENCH_twolevel.json", RESULTS)


@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_optimize_segments_call_count(monkeypatch, platform):
    model = build_model(platform, 3)
    P = optimize_allocation(model).processors
    calls = 0
    overhead = twolevel.segmented_overhead

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return overhead(*args, **kwargs)

    monkeypatch.setattr(twolevel, "segmented_overhead", counted)
    start = time.perf_counter()
    best = twolevel.optimize_segments(model, P)
    elapsed = time.perf_counter() - start
    RESULTS[platform] = {
        "segmented_overhead_calls": calls,
        "seconds": round(elapsed, 6),
        "k_best": int(best.segments),
    }
    print(f"\n{platform} sc3: {calls} segmented_overhead calls, {elapsed * 1e3:.1f} ms")
    assert calls <= MAX_OVERHEAD_CALLS


@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_segment_sweep(benchmark, platform):
    model = build_model(platform, 3)
    P = optimize_allocation(model).processors

    def sweep():
        rows = []
        for k in (1, 2, 4, 8, 16):
            T = segmented_period(P, k, model.errors, model.costs)
            rows.append((k, round(T, 1), float(segmented_overhead(T, P, k, model))))
        return rows

    rows = benchmark(sweep)
    k_star = optimal_segment_count(P, model.errors, model.costs)
    best = optimize_segments(model, P)
    print()
    print(
        render_table(
            ("k", "T*_k (s)", "overhead"),
            rows,
            title=(
                f"{platform} scenario 3 at P={P:.0f}: overhead vs segment count "
                f"(first-order k* = {k_star:.2f}, numerical best k = {best.segments:.0f})"
            ),
        )
    )
    # The numerical best never loses to the single-verification pattern.
    h_k1 = [h for (k, _, h) in rows if k == 1][0]
    assert best.overhead <= h_k1 * (1 + 1e-12)


def test_joint_optimum_with_segments(benchmark):
    # How much does interleaving buy at the jointly optimal allocation?
    model = build_model("Atlas", 3)  # 94% silent: the best case for k > 1
    base = optimize_allocation(model)

    def run():
        return optimize_segments(model, base.processors)

    best = benchmark(run)
    gain = (base.overhead - best.overhead) / base.overhead
    print(
        f"\nAtlas sc3 @ P={base.processors:.0f}: k=1 overhead {base.overhead:.5f} "
        f"-> k={best.segments:.0f} overhead {best.overhead:.5f} "
        f"({gain:.2%} improvement)"
    )
    assert best.segments > 1
    assert gain > 0.0
