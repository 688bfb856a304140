"""Fused simulation planning: requests, keys, cache, scheduled dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.executors import PoolExecutor
from repro.sim.montecarlo import simulate_overhead
from repro.sim.plan import (
    BACKEND_VERSION,
    ResultCache,
    SimRequest,
    canonical_signature,
    claim_serve_expand,
    plan_simulations,
    request_jobs,
    request_key,
)
from repro.sim.results import OverheadEstimate


@pytest.fixture
def request_(hera_sc1) -> SimRequest:
    return SimRequest(hera_sc1, T=6000.0, P=256.0, n_runs=8, n_patterns=10, seed=3)


class TestCanonicalSignature:
    def test_model_signature_is_stable(self, hera_sc1):
        assert canonical_signature(hera_sc1) == canonical_signature(hera_sc1)

    def test_float_exactness(self):
        # hex rendering is lossless: adjacent float64 values stay distinct.
        a = np.nextafter(0.1, 1.0)
        assert canonical_signature(0.1) != canonical_signature(float(a))
        assert canonical_signature(0.1) == canonical_signature(0.1)

    def test_rejects_unsupported_types(self):
        with pytest.raises(SimulationError):
            canonical_signature(object())


class TestRequestKey:
    def test_deterministic(self, request_):
        assert request_key(request_) == request_key(request_)

    def test_differs_by_parameters(self, hera_sc1, hera_sc3, request_):
        base = request_key(request_)
        variants = [
            SimRequest(hera_sc3, 6000.0, 256.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6001.0, 256.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 512.0, 8, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 9, 10, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 11, seed=3),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=4),
            SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="des"),
        ]
        keys = {base} | {request_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_pinned_digests(self):
        # Users' result caches are addressed by these hex
        # digests: a change here silently invalidates every stored
        # entry, so it must come with a BACKEND_VERSION bump instead.
        from repro.experiments.ext_weibull import _renewal_overhead
        from repro.platforms import build_model
        from repro.sim.plan import call_key
        from repro.sim.streams import WeibullArrivals

        model = build_model("Hera", 1)
        assert request_key(SimRequest(model, T=6000.0, P=256.0, seed=7)) == (
            "398553f9250a28490a73a780c2820be8cd7b3f368e1cf54cca06033ebf10665f"
        )
        paper = SimRequest(model, 6000.0, 256.0, 500, 500, seed=7, method="vectorized")
        assert request_key(paper) == (
            "588720ce6f37dfaccfbabee64d24b2d26cdd1428ae9043611187964c490f2097"
        )
        stream = WeibullArrivals.from_mean(0.7, 1e5)
        args = (model, 6000.0, 256.0, 100, stream, 50, 1042)
        assert call_key(_renewal_overhead, args, {}) == (
            "2fd09f10db9112a3d3fd548c6a9c206860f090deb962786f15d00cfd1bbb69ee"
        )

    def test_auto_resolves_to_concrete_backend(self, hera_sc1):
        # auto and its resolution share one key (and one cache entry).
        auto = SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="auto")
        batch = SimRequest(hera_sc1, 6000.0, 256.0, 8, 10, seed=3, method="batch")
        assert request_key(auto) == request_key(batch)

    def test_unknown_method_raises(self, hera_sc1):
        bad = SimRequest(hera_sc1, 6000.0, 256.0, method="quantum")
        with pytest.raises(SimulationError):
            request_key(bad)


class TestPlanSimulations:
    def test_dedup_and_slots(self, hera_sc1, request_):
        other = SimRequest(hera_sc1, 7000.0, 256.0, 8, 10, seed=3)
        plan = plan_simulations([request_, other, request_])
        assert plan.n_points == 3
        assert plan.n_unique == 2
        assert plan.slots == (0, 1, 0)

    def test_groups_by_backend(self, hera_sc1, request_):
        des = SimRequest(hera_sc1, 6000.0, 256.0, 4, 5, seed=3, method="des")
        plan = plan_simulations([request_, des])
        groups = plan.groups()
        assert set(groups) == {"batch", "des"}

    def test_dispatch_order_puts_slow_backends_first(
        self, hera_sc1, request_, simulate_requests
    ):
        des = SimRequest(hera_sc1, 6000.0, 256.0, 4, 5, seed=3, method="des")
        plan = plan_simulations([request_, des])  # batch is unique index 0
        assert plan.dispatch_order() == [1, 0]
        # The scheduler receives every des job ahead of the batch job.
        _, tagged, _ = claim_serve_expand(plan)
        assert [tag[0] for _, tag in tagged] == [1] * len(request_jobs(des)) + [0]
        # Dispatch order never changes the returned values or alignment.
        fused = simulate_requests([request_, des])
        assert fused[0].n_runs == request_.n_runs
        assert fused[1].n_runs == 4


class TestRequestJobs:
    def test_small_batch_is_one_job(self, request_):
        assert len(request_jobs(request_)) == 1

    def test_vectorized_below_the_chunk_cap_is_one_job(self, hera_sc1):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 500, 500, seed=3, method="vectorized")
        assert len(request_jobs(req)) == 1

    def test_des_slices_cover_all_runs(self, hera_sc1):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 20, 5, seed=3, method="des")
        jobs = request_jobs(req)
        total = sum(len(job[1][4]) for job in jobs)
        assert total == 20

    def test_rejects_nonpositive_budget(self, hera_sc1):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 0, 10, seed=3)
        with pytest.raises(SimulationError):
            request_jobs(req)


class TestBitIdentity:
    """The fused path must equal per-point simulate_overhead bit for bit."""

    @pytest.mark.parametrize("method", ["batch", "vectorized", "des"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_matches_sequential(
        self, hera_sc1, hera_sc3, method, jobs, simulate_requests
    ):
        n_runs, n_patterns = (6, 8) if method == "des" else (10, 20)
        points = [(hera_sc1, 6000.0, 256.0), (hera_sc3, 5000.0, 512.0)]
        sequential = [
            simulate_overhead(m, T, P, n_runs, n_patterns, seed=5, method=method)
            for m, T, P in points
        ]
        requests = [
            SimRequest(m, T, P, n_runs, n_patterns, seed=5, method=method)
            for m, T, P in points
        ]
        if jobs is None:
            fused = simulate_requests(requests)
        else:
            with PoolExecutor(jobs) as executor:
                fused = simulate_requests(requests, executor=executor)
        assert fused == sequential

    def test_pool_width_never_changes_results(self, hera_sc1, simulate_requests):
        requests = [
            SimRequest(hera_sc1, 6000.0, 256.0, 10, 20, seed=5),
            SimRequest(hera_sc1, 7000.0, 256.0, 10, 20, seed=5),
        ]
        serial = simulate_requests(requests)
        with PoolExecutor(2) as executor:
            pooled = simulate_requests(requests, executor=executor)
        assert serial == pooled

    def test_error_free_point(self, simulate_requests):
        from repro.core import AmdahlSpeedup, ErrorModel, PatternModel, ResilienceCosts

        model = PatternModel(
            errors=ErrorModel(lambda_ind=0.0, fail_stop_fraction=0.5),
            costs=ResilienceCosts.simple(checkpoint=60.0, verification=10.0),
            speedup=AmdahlSpeedup(0.1),
        )
        req = SimRequest(model, 3600.0, 100.0, 5, 10, seed=1)
        est = simulate_requests([req])[0]
        seq = simulate_overhead(model, 3600.0, 100.0, 5, 10, seed=1)
        assert est == seq


class TestWorkerPool:
    """Sizing of the process pool a :class:`PoolExecutor` owns."""

    def test_serial_when_single_worker(self):
        with PoolExecutor(1) as executor:
            future = executor.submit(abs, -2)
            assert future.done and future.result() == 2
            assert executor._pool is None  # no process was ever spawned

    def test_zero_clamps_to_serial(self):
        assert PoolExecutor(0).workers == 1


class TestResultCache:
    def test_estimate_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        est = OverheadEstimate(
            mean=0.11, std=0.01, stderr=0.002, ci_low=0.106, ci_high=0.114, n_runs=25
        )
        assert cache.get_estimate("k" * 64) is None
        cache.put_estimate("k" * 64, est)
        assert cache.get_estimate("k" * 64) == est
        assert (cache.hits, cache.misses) == (1, 1)

    def test_value_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("v" * 64, 0.125)
        assert cache.get_value("v" * 64) == 0.125

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("x" * 64, 1.0)
        assert cache.get_estimate("x" * 64) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("c" * 64 + ".rec")).write_bytes(b"not a record")
        assert cache.get_estimate("c" * 64) is None

    def test_scheduled_plan_uses_cache(self, tmp_path, hera_sc1, run_plan):
        req = SimRequest(hera_sc1, 6000.0, 256.0, 10, 20, seed=5)
        plan = plan_simulations([req])
        cache = ResultCache(tmp_path)
        cold = run_plan(plan, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        warm_cache = ResultCache(tmp_path)
        _, jobs, _ = claim_serve_expand(plan, warm_cache)
        assert jobs == []  # a warm cache expands no job
        warm = run_plan(plan, cache=ResultCache(tmp_path))
        assert warm == cold

    def test_backend_version_isolates_entries(self, hera_sc1, request_, monkeypatch):
        import repro.sim.plan as plan_mod

        before = request_key(request_)
        monkeypatch.setattr(plan_mod, "BACKEND_VERSION", BACKEND_VERSION + 1)
        assert request_key(request_) != before
