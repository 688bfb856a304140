"""The analytic batch engine's memo, keys and sweep integration."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    AmdahlSpeedup,
    GustafsonSpeedup,
    PatternModel,
    stack_models,
)
from repro.experiments.analytic import (
    ANALYTIC_VERSION,
    AnalyticMemo,
    AnalyticPoint,
    evaluate_analytic,
    model_key,
)
from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.spec import pattern_point, run_study
from repro.platforms import build_model

NO_SIM = SimSettings(simulate=False)

#: Studies whose analytic columns the sweep engine batches.
DEFAULT_EVALUATOR_STUDIES = ("fig2", "fig4", "fig5", "fig6", "fig7")


#: One flusher process: 200 dirty flushes of its own growing table.
FLUSHER = """
import sys
from repro.experiments.analytic import AnalyticMemo, AnalyticPoint
memo = AnalyticMemo(sys.argv[1])
for i in range(int(sys.argv[3])):
    memo.put(f"{sys.argv[2]}-{i}", AnalyticPoint(None, None, None, 1.0, 2.0, float(i)))
    memo.flush()
"""

#: One merging process: its own 50 entries, flushed once every process
#: has loaded the (still empty) memo and the parent creates the go file.
MERGER = """
import sys, time
from pathlib import Path
from repro.experiments.analytic import AnalyticMemo, AnalyticPoint
path, worker, go = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
memo = AnalyticMemo(path)
for i in range(50):
    memo.put(f"{worker}-{i}", AnalyticPoint(None, None, None, float(worker), float(i), 1.0))
memo.count(served=3, evaluated=50)
Path(f"{go}.{worker}").touch()
deadline = time.monotonic() + 60
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
memo.flush()
"""


def _src_env() -> dict:
    """Environment whose PYTHONPATH imports this checkout's ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def scalar_hook(spec):
    """``spec`` with a custom evaluator that computes every cell inline.

    Delegating to :func:`pattern_point` without an ``analytic`` point
    runs the scalar optimisers per cell: the oracle the batch engine
    must match bit for bit.
    """
    return dataclasses.replace(spec, point_eval=lambda c, m, n: pattern_point(c, m, n))


class TestModelKey:
    def test_equal_models_share_a_key(self):
        a = build_model("Hera", 1)
        b = build_model("Hera", 1)
        assert model_key(a) == model_key(b)
        assert isinstance(model_key(a), str)

    def test_every_result_relevant_parameter_changes_the_key(self):
        base = model_key(build_model("Hera", 1))
        assert model_key(build_model("Hera", 2)) != base
        assert model_key(build_model("Hera", 1, alpha=1e-5)) != base
        assert model_key(build_model("Hera", 1, lambda_ind=1e-6)) != base
        assert model_key(build_model("Hera", 1, downtime=600.0)) != base

    def test_exotic_profiles_are_uncacheable(self):
        hera = build_model("Hera", 1)
        exotic = PatternModel(
            errors=hera.errors, costs=hera.costs, speedup=GustafsonSpeedup(0.1)
        )
        assert model_key(exotic) is None

    def test_array_valued_parameters_are_uncacheable(self):
        stacked = stack_models([build_model("Hera", 1), build_model("Hera", 2)])
        assert model_key(stacked) is None


class TestAnalyticMemo:
    def point(self, seed: float = 1.0) -> AnalyticPoint:
        return AnalyticPoint(
            P_fo=seed, T_fo=2 * seed, H_pred_fo=None,
            P_num=3 * seed, T_num=4 * seed, H_pred_num=5 * seed,
        )

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "memo.json"
        memo = AnalyticMemo(path)
        point = self.point(0.1)  # 0.1 is not exactly representable
        memo.put("k", point)
        memo.count(served=2, evaluated=1)
        memo.flush()
        reloaded = AnalyticMemo(path)
        assert reloaded.get("k") == point
        assert (reloaded.served, reloaded.evaluated) == (2, 1)
        assert len(reloaded) == 1
        assert reloaded.hit_rate == pytest.approx(2 / 3)

    def test_version_guard_discards_stale_tables(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({
            "version": ANALYTIC_VERSION + 1,
            "served": 9, "evaluated": 9,
            "entries": {"k": self.point().as_list()},
        }))
        memo = AnalyticMemo(path)
        assert len(memo) == 0
        assert memo.lookups == 0

    def test_corrupt_file_is_tolerated(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text("{not json")
        memo = AnalyticMemo(path)
        assert len(memo) == 0
        memo.put("k", self.point())
        memo.flush()
        assert AnalyticMemo(path).get("k") == self.point()

    def test_pathless_memo_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        memo = AnalyticMemo()
        memo.put("k", self.point())
        memo.flush()
        assert list(tmp_path.iterdir()) == []

    def test_clean_flush_is_a_noop(self, tmp_path):
        path = tmp_path / "memo.json"
        memo = AnalyticMemo(path)
        memo.flush()
        assert not path.exists()

    def test_concurrent_flushes_on_a_shared_dir_never_raise(self, tmp_path):
        """Several processes flushing one memo file all exit cleanly."""
        path = tmp_path / "analytic_memo.json"
        flushers = [
            subprocess.Popen(
                [sys.executable, "-c", FLUSHER, str(path), str(worker), "200"],
                env=_src_env(), stderr=subprocess.PIPE, text=True,
            )
            for worker in range(4)
        ]
        errors = [proc.communicate(timeout=120)[1] for proc in flushers]
        assert [proc.returncode for proc in flushers] == [0] * 4, errors
        final = AnalyticMemo(path)
        assert len(final) == 4 * 200  # every flush merged, none lost
        # No temp file left behind: only the memo and its lock file.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, f".{path.name}.lock"]
        )

    def test_concurrent_flushes_merge_disjoint_tables(self, tmp_path):
        """4 processes flushing disjoint entries at once: the union survives."""
        path = tmp_path / "memo" / "analytic_memo.json"
        go = tmp_path / "go"
        mergers = [
            subprocess.Popen(
                [sys.executable, "-c", MERGER, str(path), str(worker), str(go)],
                env=_src_env(), stderr=subprocess.PIPE, text=True,
            )
            for worker in range(4)
        ]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not all(
            Path(f"{go}.{w}").exists() for w in range(4)
        ):
            time.sleep(0.01)
        go.touch()
        errors = [proc.communicate(timeout=60)[1] for proc in mergers]
        assert [proc.returncode for proc in mergers] == [0] * 4, errors
        final = AnalyticMemo(path)
        assert len(final) == 4 * 50
        assert all(
            final.get(f"{w}-{i}") is not None for w in range(4) for i in range(50)
        )
        assert final.get("2-7") == AnalyticPoint(None, None, None, 2.0, 7.0, 1.0)
        assert (final.served, final.evaluated) == (4 * 3, 4 * 50)

    def test_cache_verify_clean_with_memo_lock_present(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig5", "--runs", "2", "--patterns", "3",
                     "--cache-dir", str(cache)]) == 0
        assert (cache / ".analytic_memo.json.lock").exists()
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p["entries"].update({next(iter(p["entries"])): ["oops"]}),
            lambda p: p["entries"].update({next(iter(p["entries"])): [1.0] * 5}),
            lambda p: p["entries"].update({next(iter(p["entries"])): "1,2,3"}),
            lambda p: p["entries"].update(
                {next(iter(p["entries"])): [1.0, 2.0, 3.0, None, 5.0, 6.0]}
            ),
            lambda p: p["entries"].update(
                {next(iter(p["entries"])): [True, 2.0, 3.0, 4.0, 5.0, 6.0]}
            ),
            lambda p: p.update(entries=[["k", 1.0]]),
            lambda p: p.update(served="3"),
            lambda p: p.update(evaluated=2.5),
        ],
        ids=["string-entry", "short-entry", "non-list-entry", "null-numeric",
             "bool-value", "entries-not-object", "served-not-int",
             "evaluated-not-int"],
    )
    def test_malformed_memo_reads_as_miss(self, tmp_path, capsys, damage):
        cache = tmp_path / "cache"
        memo_path = cache / "analytic_memo.json"
        run = ["fig2", "--no-sim", "--cache-dir", str(cache)]

        def corrupt():
            payload = json.loads(memo_path.read_text())
            damage(payload)
            memo_path.write_text(json.dumps(payload))

        assert main(run) == 0
        reference = capsys.readouterr().out.splitlines()[:-2]

        # A re-run treats the damage as a miss and flushes a clean file.
        corrupt()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
        assert "[verify] malformed analytic memo" in capsys.readouterr().out
        assert main(run) == 0
        assert capsys.readouterr().out.splitlines()[:-2] == reference
        assert AnalyticMemo(memo_path).verify() == []

        # `cache verify --delete` drops the damage without a run.
        corrupt()
        assert main(["cache", "verify", "--cache-dir", str(cache), "--delete"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0


class TestEvaluateAnalytic:
    def test_intra_call_dedup(self):
        model = build_model("Hera", 1)
        memo = AnalyticMemo()
        points, evaluated, served = evaluate_analytic([model, model, model], memo)
        assert (evaluated, served) == (1, 2)
        assert points[0] == points[1] == points[2]
        assert (memo.evaluated, memo.served) == (1, 2)

    def test_memo_serves_across_calls(self):
        model = build_model("Hera", 1)
        memo = AnalyticMemo()
        first, _, _ = evaluate_analytic([model], memo)
        again, evaluated, served = evaluate_analytic([model], memo)
        assert (evaluated, served) == (0, 1)
        assert again[0] == first[0]

    def test_uncacheable_models_always_evaluate(self):
        hera = build_model("Hera", 1)
        exotic = PatternModel(
            errors=hera.errors, costs=hera.costs, speedup=GustafsonSpeedup(0.1)
        )
        memo = AnalyticMemo()
        _, evaluated, served = evaluate_analytic([exotic, exotic], memo)
        assert (evaluated, served) == (2, 0)
        assert len(memo) == 0

    def test_counters_reach_pending_report(self):
        models = [build_model("Hera", sc) for sc in (1, 2)]
        with SimulationPipeline(jobs=1) as pipe:
            pipe.current_group = "studyA"
            pipe.evaluate_analytic(models)
            pipe.evaluate_analytic(models)
            report = pipe.pending_report()
        assert report["studyA"]["analytic_evaluated"] == 2
        assert report["studyA"]["analytic_served"] == 2


class TestSweepEngineParity:
    def test_batch_engine_is_the_default(self):
        with SimulationPipeline(jobs=1) as pipe:
            run_study(REGISTRY["fig5"], settings=NO_SIM, pipeline=pipe)
            assert pipe.analytic_memo.evaluated == 27
        with SimulationPipeline(jobs=1) as pipe:
            run_study(scalar_hook(REGISTRY["fig5"]), settings=NO_SIM, pipeline=pipe)
            assert pipe.analytic_memo.lookups == 0  # the hook bypasses the engine

    def test_sweep_tables_identical_with_engine_off(self):
        for name in DEFAULT_EVALUATOR_STUDIES:
            batch = run_study(REGISTRY[name], settings=NO_SIM)
            scalar = run_study(scalar_hook(REGISTRY[name]), settings=NO_SIM)
            assert [r.table() for r in batch] == [r.table() for r in scalar], name


class TestCacheStatsCLI:
    def test_reports_analytic_memo(self, tmp_path, capsys):
        memo = AnalyticMemo(tmp_path / "analytic_memo.json")
        memo.put("k", AnalyticPoint(None, None, None, 1.0, 2.0, 3.0))
        memo.count(served=3, evaluated=1)
        memo.flush()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[analytic] 1 memo entries, 3/4 served (hit rate 75.00%)" in out
