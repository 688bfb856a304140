"""Joint (T, P) optimisation — the paper's numerical 'optimal' solution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts
from repro.core.first_order import optimal_pattern
from repro.exceptions import OptimizationError
from repro.optimize.allocation import optimize_allocation
from repro.optimize.period import optimize_period


class TestOptimizeAllocation:
    def test_interior_optimum_on_hera(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        assert result.interior
        # Figure 2 (Hera): numerical P* around 200, T* around 6500s.
        assert 150 < result.processors < 300
        assert 5000 < result.period < 8500
        assert 0.105 < result.overhead < 0.115

    def test_is_a_joint_minimum(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        H = result.overhead
        # Perturb P (re-optimising T) and T (fixed P): both must not improve.
        for factor in (0.9, 1.1):
            assert optimize_period(hera_sc1, result.processors * factor).overhead > H
            assert hera_sc1.overhead(result.period * factor, result.processors) > H

    def test_close_to_theorem2_on_hera(self, hera_sc1):
        fo = optimal_pattern(hera_sc1)
        num = optimize_allocation(hera_sc1)
        assert num.processors == pytest.approx(fo.processors, rel=0.15)
        assert num.overhead == pytest.approx(fo.overhead, rel=0.02)

    def test_close_to_theorem3_on_hera(self, hera_sc3):
        fo = optimal_pattern(hera_sc3)
        num = optimize_allocation(hera_sc3)
        assert num.processors == pytest.approx(fo.processors, rel=0.15)
        assert num.overhead == pytest.approx(fo.overhead, rel=0.02)

    def test_scenario6_numerical_only(self, hera_sc6):
        # Decaying-cost regime: no closed form, but a finite numerical
        # optimum exists (paper Fig. 2, Hera scenario 6 ~ 800).
        result = optimize_allocation(hera_sc6)
        assert result.interior
        assert 500 < result.processors < 1500

    def test_integer_rounding(self, hera_sc1):
        result = optimize_allocation(hera_sc1, integer=True)
        assert result.processors == int(result.processors)
        cont = optimize_allocation(hera_sc1)
        assert abs(result.processors - cont.processors) <= 1.0
        # Rounding costs essentially nothing on a flat optimum.
        assert result.overhead == pytest.approx(cont.overhead, rel=1e-4)

    def test_respects_bounds(self, hera_sc1):
        result = optimize_allocation(hera_sc1, p_min=400.0, p_max=1000.0)
        assert 400.0 <= result.processors <= 1000.0
        assert result.at_lower  # true optimum (~207) is below the range

    def test_perfectly_parallel_scenario1(self, hera_sc1):
        # alpha = 0 with linear costs: finite optimum ~ lambda^-1/2.
        model = hera_sc1.with_alpha(0.0)
        result = optimize_allocation(model)
        assert result.interior
        lam = model.errors.lambda_ind
        assert 0.1 * lam**-0.5 < result.processors < 10 * lam**-0.5

    def test_expected_time_consistent(self, hera_sc3):
        result = optimize_allocation(hera_sc3)
        assert result.expected_time == pytest.approx(
            hera_sc3.expected_time(result.period, result.processors), rel=1e-9
        )

    def test_speedup_property(self, hera_sc1):
        result = optimize_allocation(hera_sc1)
        assert result.speedup == pytest.approx(1.0 / result.overhead)

    def test_error_free_raises(self, simple_costs):
        model = PatternModel(
            ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            simple_costs,
            AmdahlSpeedup(0.1),
        )
        with pytest.raises(OptimizationError):
            optimize_allocation(model)

    def test_overflow_everywhere_raises(self, simple_costs):
        # lambda_P * C_P > 709 already at P = 1: exp() overflows on the
        # whole search domain, so there is no finite optimum to report.
        model = PatternModel(
            ErrorModel(lambda_ind=100.0, fail_stop_fraction=0.5),
            simple_costs,
            AmdahlSpeedup(0.1),
        )
        with pytest.raises(OptimizationError, match="no finite optimum"):
            optimize_allocation(model)

    def test_invalid_range_raises(self, hera_sc1):
        with pytest.raises(OptimizationError):
            optimize_allocation(hera_sc1, p_min=100.0, p_max=10.0)

    def test_downtime_shifts_optimum_down(self, hera_sc1):
        # Figure 7: larger D argues for fewer processors.
        low = optimize_allocation(hera_sc1.with_downtime(0.0))
        high = optimize_allocation(hera_sc1.with_downtime(3 * 3600.0))
        assert high.processors < low.processors

    def test_gustafson_profile_supported(self, hera_sc3):
        # The numerical path accepts non-Amdahl profiles (future work).
        from repro.core import GustafsonSpeedup

        model = PatternModel(hera_sc3.errors, hera_sc3.costs, GustafsonSpeedup(0.1))
        result = optimize_allocation(model, p_max=1e7)
        assert result.overhead > 0.0
        assert np.isfinite(result.processors)
