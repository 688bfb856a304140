"""Batched optimisers vs their scalar references — bit-level parity.

The batch engine's contract is strict: per column it must reproduce the
scalar search *exactly* (same abscissas, same best-so-far updates, same
break rounds), because the figure goldens are pinned byte-for-byte.
These tests drive randomized valid models through both code paths and
compare every result field with exact float equality, plus the
``{:.6g}`` rendering the table emitters apply.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    AmdahlSpeedup,
    CheckpointCost,
    ErrorModel,
    GustafsonSpeedup,
    PatternModel,
    ResilienceCosts,
    VerificationCost,
)
from repro.exceptions import OptimizationError
from repro.optimize import allocation
from repro.optimize.allocation import optimize_allocation, optimize_allocation_batch
from repro.optimize.grid import refine_log_minimum, refine_log_minimum_batch
from repro.platforms import build_model

FLOATFMT = "{:.6g}"  # the emitters' float rendering (FigureResult.table)


def random_model(rng: np.random.Generator) -> PatternModel:
    """One valid model drawn across the paper's parameter regimes."""
    form = rng.choice(["constant", "linear", "scaling"])
    if form == "constant":
        checkpoint = CheckpointCost.constant(float(rng.uniform(60.0, 600.0)))
    elif form == "linear":
        checkpoint = CheckpointCost.linear(float(rng.uniform(0.1, 2.0)))
    else:
        checkpoint = CheckpointCost.scaling(float(rng.uniform(1e4, 1e6)))
    return PatternModel(
        errors=ErrorModel(
            lambda_ind=float(10.0 ** rng.uniform(-9.0, -5.0)),
            fail_stop_fraction=float(rng.choice([0.25, 0.5, 1.0])),
        ),
        costs=ResilienceCosts(
            checkpoint=checkpoint,
            verification=VerificationCost.constant(float(rng.uniform(5.0, 100.0))),
            downtime=float(rng.uniform(0.0, 7200.0)),
        ),
        speedup=AmdahlSpeedup(float(rng.choice([0.0, 1e-6, 1e-4, 1e-2]))),
    )


def assert_results_identical(batch, scalar):
    """Every AllocationResult field bit-identical (NaN-aware)."""
    assert len(batch) == len(scalar)
    for got, want in zip(batch, scalar):
        for field in (
            "processors",
            "period",
            "overhead",
            "expected_time",
            "nfev",
            "at_lower",
            "at_upper",
        ):
            g, w = getattr(got, field), getattr(want, field)
            if isinstance(w, float) and math.isnan(w):
                assert math.isnan(g), f"{field}: {g!r} != NaN"
            else:
                assert g == w, f"{field}: {g!r} != {w!r}"
        # The emitters render floats through {:.6g}; identical bits
        # imply identical bytes, but assert it anyway as the contract
        # the goldens actually depend on.
        for g, w in zip(
            (got.processors, got.period, got.overhead),
            (want.processors, want.period, want.overhead),
        ):
            assert FLOATFMT.format(g) == FLOATFMT.format(w)


class TestAllocationBatchParity:
    def test_randomized_models_bit_identical(self):
        rng = np.random.default_rng(20160920)  # the paper's conference date
        models = [random_model(rng) for _ in range(24)]
        scalar = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, scalar)

    def test_platform_scenarios_bit_identical(self):
        models = [build_model("Hera", sc) for sc in (1, 2, 3, 4, 5, 6)]
        scalar = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, scalar)

    def test_edge_pinned_brackets(self, hera_sc1, hera_sc3):
        # Hera's interior optimum sits near P ~ 200: a range entirely
        # above it is monotone increasing (lower-pinned), one entirely
        # below it monotone decreasing (upper-pinned).
        scalar = [
            optimize_allocation(hera_sc1, p_min=1e4),
            optimize_allocation(hera_sc3, p_min=1e4),
        ]
        batch = optimize_allocation_batch([hera_sc1, hera_sc3], p_min=1e4)
        assert_results_identical(batch, scalar)
        assert scalar[0].at_lower and scalar[1].at_lower

        scalar = [
            optimize_allocation(hera_sc1, p_max=50.0),
            optimize_allocation(hera_sc3, p_max=50.0),
        ]
        batch = optimize_allocation_batch([hera_sc1, hera_sc3], p_max=50.0)
        assert_results_identical(batch, scalar)
        assert scalar[0].at_upper and scalar[1].at_upper

    def test_mixed_speedup_profiles_fall_back(self, hera_sc1):
        # Heterogeneous profile types cannot stack; the batch entry
        # point must still answer, via per-model scalar solves.
        gustafson = PatternModel(
            errors=hera_sc1.errors, costs=hera_sc1.costs,
            speedup=GustafsonSpeedup(0.1),
        )
        models = [hera_sc1, gustafson]
        scalar = [optimize_allocation(m) for m in models]
        batch = optimize_allocation_batch(models)
        assert_results_identical(batch, scalar)

    def test_single_model_and_empty(self, hera_sc3):
        assert_results_identical(
            optimize_allocation_batch([hera_sc3]),
            [optimize_allocation(hera_sc3)],
        )
        assert optimize_allocation_batch([]) == []

    def test_integer_mode(self):
        rng = np.random.default_rng(7)
        models = [random_model(rng) for _ in range(6)]
        scalar = [optimize_allocation(m, integer=True) for m in models]
        batch = optimize_allocation_batch(models, integer=True)
        assert_results_identical(batch, scalar)
        assert all(r.processors == int(r.processors) for r in batch)


def count_overhead_cells(monkeypatch) -> dict[str, int]:
    """Spy on ``PatternModel.overhead``: calls and cells evaluated."""
    counts = {"calls": 0, "cells": 0}
    real = PatternModel.overhead

    def spy(self, T, P):
        counts["calls"] += 1
        counts["cells"] += int(np.broadcast(np.asarray(T), np.asarray(P)).size)
        return real(self, T, P)

    monkeypatch.setattr(PatternModel, "overhead", spy)
    return counts


class TestAllocationNfev:
    """``nfev`` is the number of overhead cells actually evaluated."""

    def test_single_model_counts_cells(self, monkeypatch, hera_sc1):
        counts = count_overhead_cells(monkeypatch)
        result = optimize_allocation(hera_sc1)
        assert result.nfev == counts["cells"] == counts["calls"] * 17 * 17

    def test_batch_counts_cells(self, monkeypatch):
        rng = np.random.default_rng(11)
        models = [random_model(rng) for _ in range(8)]
        counts = count_overhead_cells(monkeypatch)
        results = optimize_allocation_batch(models)
        assert sum(r.nfev for r in results) == counts["cells"]
        # One broadcast call per round, however many models ride along.
        assert counts["calls"] == max(r.nfev for r in results) // (17 * 17)

    def test_integer_mode_adds_period_solves(self, monkeypatch, hera_sc1):
        counts = count_overhead_cells(monkeypatch)
        result = optimize_allocation(hera_sc1, integer=True)
        assert result.nfev == counts["cells"]

    def test_widened_window_counts_both_zooms(self, monkeypatch, hera_sc1):
        # Hera's optimum sits 0.0045 decades below T_YD(P): a 0.003-decade
        # window pins, the once-widened 0.006-decade one does not.  (The
        # narrow P range keeps such a thin box aligned with the valley.)
        want = optimize_allocation(hera_sc1, p_min=200.0, p_max=215.0)
        monkeypatch.setattr(allocation, "_V_DECADES", 0.003)
        counts = count_overhead_cells(monkeypatch)
        got = optimize_allocation(hera_sc1, p_min=200.0, p_max=215.0)
        assert got.nfev == counts["cells"] > want.nfev
        assert got.overhead == pytest.approx(want.overhead, rel=1e-12)
        assert got.processors == pytest.approx(want.processors, rel=1e-6)

    def test_still_pinned_after_widening_raises(self, monkeypatch, hera_sc1):
        monkeypatch.setattr(allocation, "_V_DECADES", 0.001)
        with pytest.raises(OptimizationError, match="monotone in T"):
            optimize_allocation(hera_sc1)


class TestRefineLogMinimumBatch:
    def test_independent_columns_converge(self):
        targets = np.array([3.0, 50.0, 700.0])

        def objective(xs, idx):
            return (np.log(xs) - np.log(targets[idx])) ** 2

        result = refine_log_minimum_batch(objective, 1.0, np.full(3, 1e4))
        np.testing.assert_allclose(result.x, targets, rtol=1e-8)
        assert result.x.shape == (3,)
        assert np.all(result.nfev > 0)
        assert not result.at_lower.any()
        assert not result.at_upper.any()

    def test_scalar_wrapper_matches_batch(self):
        def f_batch(xs, idx):
            return (np.log(xs) - np.log(50.0)) ** 2

        single = refine_log_minimum(lambda x: (np.log(x) - np.log(50.0)) ** 2, 1.0, 1e4)
        batch = refine_log_minimum_batch(f_batch, 1.0, np.array([1e4]))
        assert single.x == batch.x[0]
        assert single.fun == batch.fun[0]
        assert single.nfev == batch.nfev[0]

    def test_monotone_objectives_flag_bounds(self):
        def objective(xs, idx):
            # column 0 decreasing (upper-pinned), column 1 increasing.
            return np.where(idx == 0, -np.log(xs), np.log(xs))

        result = refine_log_minimum_batch(objective, 1.0, np.array([1e4, 1e4]))
        assert bool(result.at_upper[0]) and not bool(result.at_lower[0])
        assert bool(result.at_lower[1]) and not bool(result.at_upper[1])

    def test_all_infinite_column_keeps_init(self):
        def objective(xs, idx):
            out = np.full_like(xs, np.inf)
            out[:, idx == 1] = (np.log(xs) - np.log(50.0))[:, idx == 1] ** 2
            return out

        result = refine_log_minimum_batch(
            objective, 1.0, np.array([1e4, 1e4]),
            init_x=1.0, require_finite=False,
        )
        # The doomed column stays at its init with an infinite value and
        # must not perturb its healthy neighbour.
        assert result.x[0] == 1.0
        assert math.isinf(result.fun[0])
        np.testing.assert_allclose(result.x[1], 50.0, rtol=1e-8)
