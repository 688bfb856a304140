"""Plan execution through the scheduler, for tests below the pipeline.

``run_plan`` resolves a :class:`~repro.sim.plan.SimulationPlan` the way
:class:`repro.experiments.pipeline.SimulationPipeline` does — one
``claim_serve_expand`` -> :class:`~repro.sim.scheduler.Scheduler` ->
``merge_request_results`` round with memo and cache write-back — so
tests of keys, partitioning and bit-identity exercise the one dispatch
path the CLI uses.
"""

from __future__ import annotations

import pytest

from repro.sim.executors import SerialExecutor
from repro.sim.plan import claim_serve_expand, merge_request_results, plan_simulations
from repro.sim.scheduler import Scheduler


def _run_plan(plan, executor=None, cache=None, memo=None) -> list:
    """Per-unique-request estimates; ``None`` where the executor did not claim."""
    executor = executor if executor is not None else SerialExecutor()
    estimates, tagged, books = claim_serve_expand(plan, cache, memo, executor=executor)
    scheduler = Scheduler(executor)
    for job, tag in tagged:
        scheduler.add(job, tag)
    for (i, part), result in scheduler.events():
        if not books[i].deliver(part, result):
            continue
        estimate = merge_request_results(plan.requests[i], plan.methods[i], books[i].parts)
        estimates[i] = estimate
        if memo is not None:
            memo[plan.keys[i]] = estimate
        if cache is not None:
            cache.put_estimate(plan.keys[i], estimate)
    return estimates


def _simulate_requests(requests, executor=None, cache=None) -> list:
    """One estimate per *submitted* request (duplicates fan back out)."""
    plan = plan_simulations(requests)
    estimates = _run_plan(plan, executor=executor, cache=cache)
    return [estimates[slot] for slot in plan.slots]


@pytest.fixture
def run_plan():
    return _run_plan


@pytest.fixture
def simulate_requests():
    return _simulate_requests
