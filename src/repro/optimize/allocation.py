"""Joint numerical optimisation of the pattern: processors *and* period.

This is the "optimal" solution the paper's figures compare the
first-order formulas against: minimise the exact expected overhead

.. math::

    \\min_{P \\ge 1,\\; T > 0} \\; H(T, P) = H(P)\\,\\frac{E(T, P)}{T}

with :math:`E` from Proposition 1.  The search is one joint log-zoom
per model in the coordinates

.. math::

    u = \\ln P, \\qquad v = \\ln\\big(T / T_{YD}(P)\\big)

where :math:`T_{YD}(P)` is Theorem 1's first-order period.  The exact
optimal period tracks :math:`T_{YD}(P)` within a small factor, so the
curved valley of :math:`\\min_T H(T, P)` runs nearly parallel to the
``u`` axis and a rectangular zoom box never loses it.  ``P`` values of
interest span 1e2 … 1e13 across the figures, hence the log scale.

Monotone cases (perfectly parallel jobs with cheap resilience — case 3
and parts of case 4) have no interior optimum; the result then carries
``at_upper = True`` and the caller decides how to interpret the bound
(the paper caps those sweeps at the validity limit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.first_order import optimal_period
from ..core.pattern import PatternModel, stack_models
from ..exceptions import InvalidParameterError, OptimizationError
from .period import PeriodResult, optimize_period

__all__ = ["AllocationResult", "optimize_allocation", "optimize_allocation_batch"]

#: Half-width of the initial ``v`` window, and of each widening.
_V_DECADES = 3.0

#: A column stops zooming once both box sides are below this (natural
#: log units, i.e. relative width).
_RTOL = 1e-10


@dataclass(frozen=True)
class AllocationResult:
    """Jointly optimal pattern found by the numerical search.

    Attributes
    ----------
    processors:
        Optimal processor count ``P_opt`` (integer if requested).
    period:
        Optimal period ``T_opt`` at that allocation.
    overhead:
        Exact expected overhead at ``(T_opt, P_opt)``.
    expected_time:
        Exact expected pattern time at the optimum.
    nfev:
        Overhead cells evaluated for this model (zoom grids, the
        widened re-zoom if any, and the integer rounding's period
        solves).
    at_lower / at_upper:
        The optimum pinned to the search bound — the objective is
        monotone over ``[p_min, p_max]`` in that direction.
    """

    processors: float
    period: float
    overhead: float
    expected_time: float
    nfev: int
    at_lower: bool = False
    at_upper: bool = False

    @property
    def interior(self) -> bool:
        return not (self.at_lower or self.at_upper)

    @property
    def speedup(self) -> float:
        return 1.0 / self.overhead


def _integer_optimum(model: PatternModel, P: float) -> tuple[int, PeriodResult, int]:
    """Round a continuous optimum ``P`` to the better of its floor/ceil.

    Returns the integer allocation, its optimal period and the overhead
    evaluations both candidate period solves used.
    """
    candidates = sorted({max(1, int(np.floor(P))), max(1, int(np.ceil(P)))})
    results = [(optimize_period(model, float(c)), c) for c in candidates]
    inner, P_int = min(results, key=lambda pair: pair[0].overhead)
    return P_int, inner, sum(r.nfev for r, _ in results)


def _one_model(models) -> PatternModel:
    """The lone model itself, or all of them stacked column-wise."""
    return models[0] if len(models) == 1 else stack_models(models)


def _joint_zoom(models, model, p_lo, p_hi, v_half, points, rounds):
    """Zoom every column's ``(u, v)`` box around its grid argmin.

    ``model`` evaluates the columns of ``models`` (stacked, or the lone
    model itself) over ``P`` in ``[p_lo, p_hi]`` and ``v`` in
    ``[-v_half, v_half]``.  Converged columns drop out of later rounds,
    so a column's iterates never depend on its neighbours.  Returns the
    best-so-far ``(P, T, H, v)`` per column and the overhead cells each
    one evaluated.  A column that never sees a finite overhead keeps
    ``(p_lo, nan, inf, 0)``.
    """
    n = p_lo.size
    u_lo, u_hi = np.log(p_lo), np.log(p_hi)
    v_lo, v_hi = np.full(n, -v_half), np.full(n, v_half)
    best_P, best_T, best_v = p_lo.copy(), np.full(n, np.nan), np.zeros(n)
    best_H = np.full(n, np.inf)
    nfev = np.zeros(n, dtype=int)
    idx = np.arange(n)
    for _ in range(rounds):
        us = np.linspace(u_lo[idx], u_hi[idx], points)  # (points, k)
        vs = np.linspace(v_lo[idx], v_hi[idx], points)
        # Clip so the rounding of exp(ln p) never leaves [p_lo, p_hi].
        P = np.clip(np.exp(us), p_lo[idx], p_hi[idx])
        T = (
            np.asarray(optimal_period(P, model.errors, model.costs))[:, None, :]
            * np.exp(vs)[None, :, :]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            H = np.asarray(model.overhead(T, P[:, None, :]), dtype=float)
        H = np.where(np.isfinite(H), H, np.inf).reshape(points * points, idx.size)
        nfev[idx] += points * points
        cols = np.arange(idx.size)
        a, b = np.divmod(np.argmin(H, axis=0), points)
        round_best = H[a * points + b, cols]
        better = round_best < best_H[idx]
        upd = idx[better]
        best_H[upd] = round_best[better]
        best_P[upd] = P[a[better], cols[better]]
        best_T[upd] = T[a[better], b[better], cols[better]]
        best_v[upd] = vs[b[better], cols[better]]
        # Shrink each side of the box to the argmin's grid neighbours.
        lo_a, hi_a = np.maximum(a - 1, 0), np.minimum(a + 1, points - 1)
        lo_b, hi_b = np.maximum(b - 1, 0), np.minimum(b + 1, points - 1)
        u_lo[idx], u_hi[idx] = us[lo_a, cols], us[hi_a, cols]
        v_lo[idx], v_hi[idx] = vs[lo_b, cols], vs[hi_b, cols]
        done = (u_hi[idx] - u_lo[idx] < _RTOL) & (v_hi[idx] - v_lo[idx] < _RTOL)
        if done.all():
            break
        if done.any():
            idx = idx[~done]
            model = _one_model([models[i] for i in idx])
    return best_P, best_T, best_H, best_v, nfev


def optimize_allocation_batch(
    models,
    p_min: float = 1.0,
    p_max: float | None = None,
    integer: bool = False,
    points: int = 17,
    rounds: int = 14,
) -> list[AllocationResult]:
    """Minimise the exact overhead jointly over ``(T, P)`` for many models.

    Every round evaluates one broadcast ``(points, points, models)``
    overhead grid in ``(u, v) = (ln P, ln(T / T_YD(P)))`` and shrinks
    each model's box around its own argmin (see the module docstring).
    ``u`` spans ``[ln p_min, ln p_max]``; ``v`` starts at ±3 decades.  A
    model whose optimum pins to a ``v`` edge is re-zoomed once on a
    window three decades wider each side, and
    :class:`~repro.exceptions.OptimizationError` is raised if it still
    pins (the overhead appears monotone in ``T``).

    Per model the result is bit-identical to
    :func:`optimize_allocation`: numpy's elementwise kernels do not
    depend on array width, and converged models drop out of later
    rounds without perturbing the rest.  Models whose parameters cannot
    be stacked into one array-parameter model (heterogeneous speedup
    profile types, mixed recovery overrides) fall back to one joint
    zoom per model.

    Parameters
    ----------
    p_min, p_max:
        Processor search range.  ``p_max`` defaults per model to
        ``max(1e4, 100 / lambda_ind)``, which comfortably contains every
        optimum reported in the paper
        (:math:`P^* \\lesssim \\lambda^{-1}`, Fig. 6).
    integer:
        Round the final allocation to the better of floor/ceil.
    points, rounds:
        Grid points per axis and maximum zoom rounds.

    Returns
    -------
    list[AllocationResult]
        With boundary flags set (1e-6 relative tolerance) when the
        objective is monotone over the requested range instead of
        raising, since "enrol the whole machine" is a meaningful answer
        for case-3/4 models.
    """
    models = list(models)
    if not models:
        return []
    p_maxs = np.empty(len(models))
    for j, model in enumerate(models):
        lam = model.errors.lambda_ind
        if lam <= 0.0:
            raise OptimizationError(
                "error-free platform: enrol all processors, never checkpoint"
            )
        p_maxs[j] = p_max if p_max is not None else max(1e4, 100.0 / lam)
        if not (0.0 < p_min < p_maxs[j]):
            raise OptimizationError(f"invalid processor range [{p_min}, {p_maxs[j]}]")
    try:
        stacked = _one_model(models)
    except InvalidParameterError:
        return [
            optimize_allocation(
                model, p_min=p_min, p_max=p_max, integer=integer,
                points=points, rounds=rounds,
            )
            for model in models
        ]

    p_mins = np.full(len(models), float(p_min))
    v_half = _V_DECADES * np.log(10.0)
    P, T, H, v, nfev = _joint_zoom(
        models, stacked, p_mins, p_maxs, v_half, points, rounds
    )
    edge = np.log(1.001)
    pinned = v_half - np.abs(v) < edge
    if pinned.any():
        # The first-order seed window missed the optimal period: widen
        # it once by three decades each side and re-zoom those models.
        idx = np.flatnonzero(pinned)
        sub = [models[i] for i in idx]
        P[idx], T[idx], H[idx], v_w, nfev_w = _joint_zoom(
            sub, _one_model(sub), p_mins[idx], p_maxs[idx], 2.0 * v_half,
            points, rounds,
        )
        nfev[idx] += nfev_w
        still = 2.0 * v_half - np.abs(v_w) < edge
        if still.any():
            raise OptimizationError(
                "optimal period not interior to the widened window at "
                f"P={np.array2string(P[idx][still], max_line_width=60)}; "
                "the overhead appears monotone in T"
            )
    if not np.all(np.isfinite(H)):
        raise OptimizationError(
            f"the exact overhead overflows for every P >= {p_min:g} for "
            f"{int(np.sum(~np.isfinite(H)))} model(s); no finite optimum"
        )

    at_lower = P / p_min < 1.0 + 1e-6
    at_upper = p_maxs / P < 1.0 + 1e-6
    expected = np.asarray(stacked.expected_time(T, P), dtype=float).reshape(-1)
    out: list[AllocationResult] = []
    for j, model in enumerate(models):
        result = AllocationResult(
            processors=float(P[j]),
            period=float(T[j]),
            overhead=float(H[j]),
            expected_time=float(expected[j]),
            nfev=int(nfev[j]),
            at_lower=bool(at_lower[j]),
            at_upper=bool(at_upper[j]),
        )
        if integer:
            P_int, inner, inner_nfev = _integer_optimum(model, result.processors)
            result = AllocationResult(
                processors=float(P_int),
                period=inner.period,
                overhead=inner.overhead,
                expected_time=inner.expected_time,
                nfev=result.nfev + inner_nfev,
                at_lower=result.at_lower,
                at_upper=result.at_upper,
            )
        out.append(result)
    return out


def optimize_allocation(
    model: PatternModel,
    p_min: float = 1.0,
    p_max: float | None = None,
    integer: bool = False,
    points: int = 17,
    rounds: int = 14,
) -> AllocationResult:
    """Minimise the exact overhead jointly over ``(T, P)`` for one model.

    One-column front end of :func:`optimize_allocation_batch` (same
    options, same result bits).
    """
    return optimize_allocation_batch(
        [model], p_min=p_min, p_max=p_max, integer=integer,
        points=points, rounds=rounds,
    )[0]
