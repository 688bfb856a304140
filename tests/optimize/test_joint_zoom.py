"""The joint ``(ln P, ln T/T_YD(P))`` zoom against the nested-search oracle.

The oracle is the search the joint zoom replaced: an outer 33-point
log-zoom over ``P`` whose objective at each abscissa is the optimal
period found by :func:`repro.optimize.period.optimize_period_batch`.
It is kept here, built on public API only, to pin the joint zoom's
accuracy on a probe set spanning the four platforms, the six
scenarios, three sequential fractions and three error-rate scales.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.pattern import PatternModel
from repro.optimize.allocation import optimize_allocation_batch
from repro.optimize.period import optimize_period_batch
from repro.platforms import PLATFORM_NAMES, build_model, get_platform


def nested_optimum(model: PatternModel, p_min: float = 1.0, p_max: float | None = None):
    """``(P*, T*, H*, at_lower, at_upper)`` by the nested outer/inner zoom."""
    if p_max is None:
        p_max = max(1e4, 100.0 / model.errors.lambda_ind)
    lo, hi = p_min, p_max
    best_P, best_T, best_H = lo, np.nan, np.inf
    for _ in range(12):
        Ps = np.logspace(np.log10(lo), np.log10(hi), 33)
        Ts, Hs = optimize_period_batch(model, Ps)
        Hs = np.where(np.isfinite(Hs), Hs, np.inf)
        i = int(np.argmin(Hs))
        if Hs[i] < best_H:
            best_P, best_T, best_H = float(Ps[i]), float(Ts[i]), float(Hs[i])
        lo_new, hi_new = Ps[max(i - 1, 0)], Ps[min(i + 1, 32)]
        if hi_new / lo_new - 1.0 < 1e-10:
            break
        lo, hi = lo_new, hi_new
    return (
        best_P,
        best_T,
        best_H,
        best_P / p_min < 1.0 + 1e-6,
        p_max / best_P < 1.0 + 1e-6,
    )


def probe_models() -> list[PatternModel]:
    """4 platforms x 6 scenarios x 3 alphas x 3 error-rate scales."""
    return [
        build_model(
            name, scenario, alpha=alpha,
            lambda_ind=get_platform(name).lambda_ind * scale,
        )
        for name, scenario, alpha, scale in itertools.product(
            PLATFORM_NAMES, range(1, 7), (0.0, 0.1, 0.3), (0.1, 1.0, 10.0)
        )
    ]


class TestJointZoomAgainstNestedOracle:
    @pytest.fixture(scope="class")
    def pairs(self):
        models = probe_models()
        return list(zip(models, optimize_allocation_batch(models)))

    def test_probe_set_size(self, pairs):
        assert len(pairs) == 216

    def test_matches_nested_search(self, pairs):
        for model, joint in pairs:
            P, T, H, at_lower, at_upper = nested_optimum(model)
            label = (model.errors.lambda_ind, model.alpha, model.costs.regime)
            assert joint.overhead <= H * (1.0 + 1e-12), label
            assert joint.processors == pytest.approx(P, rel=1e-6), label
            assert joint.period == pytest.approx(T, rel=1e-6), label
            assert (joint.at_lower, joint.at_upper) == (at_lower, at_upper), label
