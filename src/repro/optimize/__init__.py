"""Numerical optimisation of checkpointing patterns.

The "optimal" reference curves in the paper's figures are numerical
minimisations of the exact overhead from Proposition 1; this package
provides those solvers:

``scalar``
    Bracket / golden-section / Brent primitives (scipy-free).
``grid``
    Log-space zooming grid search (processor counts span 1e0..1e13).
``period``
    Optimal ``T`` for fixed ``P`` (scalar and vectorised-batch forms).
``allocation``
    Joint ``(T, P)`` optimum — the paper's "optimal" solution.
``relaxation``
    Alternating T/P fixed-point baseline (Jin et al. style).
"""

from .allocation import AllocationResult, optimize_allocation, optimize_allocation_batch
from .grid import (
    BatchGridResult,
    GridResult,
    log_grid,
    refine_log_minimum,
    refine_log_minimum_batch,
)
from .period import PeriodResult, optimize_period, optimize_period_batch
from .relaxation import RelaxationResult, relaxation_optimize
from .scalar import ScalarResult, bracket_minimum, brent, golden_section, minimize_scalar

__all__ = [
    "ScalarResult",
    "bracket_minimum",
    "golden_section",
    "brent",
    "minimize_scalar",
    "GridResult",
    "BatchGridResult",
    "log_grid",
    "refine_log_minimum",
    "refine_log_minimum_batch",
    "PeriodResult",
    "optimize_period",
    "optimize_period_batch",
    "AllocationResult",
    "optimize_allocation",
    "optimize_allocation_batch",
    "RelaxationResult",
    "relaxation_optimize",
]
