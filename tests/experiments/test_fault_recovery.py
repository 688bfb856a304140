"""Crash recovery through the result cache, and the fault-plan harness.

The result cache is the run's checkpoint: every completed point is a
content-addressed record on disk, so after a crash the *same command*
re-run on the same ``--cache-dir`` serves every completed point and
computes only the rest.  The property pinned here, for the full
evaluation and for the adaptive scenario family:

* a ``--fault-plan crash-after=K`` run exits with the dedicated crash
  code;
* a plain re-run exits 0 and its cache hit count equals the number of
  records the crash left;
* its stdout, minus the ``[done in``/``[cache]`` lines, is
  byte-identical to an uncached run.

A damaged record (``corrupt-entry``) reads as a miss and is recomputed
to the same bytes.  Everything runs serially at a tiny budget through
the real CLI (``main``), so it is safe on one CPU.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from repro.experiments.runner import main
from repro.sim.faults import CRASH_EXIT_CODE
from repro.sim.plan import ResultCache

FAST_ARGS = ["--runs", "2", "--patterns", "3"]
ALL = ["all", *FAST_ARGS]
EXAMPLE = Path(__file__).parents[2] / "examples" / "scenario_jitter.toml"
ADAPTIVE = ["scenario", "report", str(EXAMPLE), "--adaptive", *FAST_ARGS]


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strip_volatile(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("[done in", "[cache]"))
    )


def _cache_counts(text: str) -> tuple[int, int]:
    """``(hits, misses)`` from the run's ``[cache] H hits, M misses`` line."""
    match = re.search(r"^\[cache\] (\d+) hits, (\d+) misses", text, re.MULTILINE)
    assert match is not None, text
    return int(match.group(1)), int(match.group(2))


@pytest.fixture(scope="module")
def uncached():
    """Reference stdout of each command run without any cache."""
    refs = {}
    for name, argv in (("all", ALL), ("adaptive", ADAPTIVE)):
        code, out, _ = _run(argv)
        assert code == 0
        refs[name] = _strip_volatile(out)
    return refs


class TestCrashThenRerun:
    @pytest.mark.parametrize(
        "name, argv, crash_after, cache_stream",
        [
            ("all", ALL, 40, "out"),
            ("adaptive", ADAPTIVE, 300, "err"),
        ],
    )
    def test_rerun_serves_every_record_the_crash_left(
        self, tmp_path, uncached, name, argv, crash_after, cache_stream
    ):
        cache_dir = tmp_path / "cache"
        flags = ["--cache-dir", str(cache_dir)]
        code, _, _ = _run([*argv, *flags, "--fault-plan", f"crash-after={crash_after}"])
        assert code == CRASH_EXIT_CODE == 86
        records = len(ResultCache(cache_dir).entries())
        assert records > 0

        code, out, err = _run([*argv, *flags])
        assert code == 0
        hits, misses = _cache_counts(out if cache_stream == "out" else err)
        assert hits == records
        assert misses > 0
        assert _strip_volatile(out) == uncached[name]


class TestCorruptEntryRerun:
    def test_damaged_record_is_recomputed_to_the_same_bytes(
        self, tmp_path, uncached
    ):
        cache_dir = tmp_path / "cache"
        flags = ["--cache-dir", str(cache_dir)]
        code, _, _ = _run([*ALL, *flags])
        assert code == 0
        records = len(ResultCache(cache_dir).entries())

        code, out, err = _run([*ALL, *flags, "--fault-plan", "corrupt-entry=0"])
        assert code == 0
        assert "[fault] corrupted cache entry" in err
        assert _cache_counts(out) == (records - 1, 1)
        assert _strip_volatile(out) == uncached["all"]
        # The recomputed record was stored again: the cache is whole.
        code, out, _ = _run(["cache", "verify", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert f"{records} entries ok, 0 corrupt" in out


class TestCliValidation:
    def test_bad_fault_plan_refuses(self):
        with pytest.raises(SystemExit, match="unknown fault-plan term"):
            main(["fig5", *FAST_ARGS, "--fault-plan", "explode=1"])

    def test_claim_ttl_requires_stealing(self):
        with pytest.raises(SystemExit, match="--claim-ttl"):
            main(["fig5", *FAST_ARGS, "--claim-ttl", "60"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["resume", "x"],
            ["fig5", "--run-id", "x"],
            ["fig5", "--runs-dir", "r"],
            ["fig5", "--resume"],
            ["trace", "summary", "x", "--runs-dir", "r"],
        ],
    )
    def test_durable_run_flags_are_usage_errors(self, argv, capsys):
        # The cache is the checkpoint: there is no run journal to name.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["all", "--fault-plan", "explode=1", "--trace"],
             "unknown fault-plan term"),
            (["all", "--max-inflight", "0", "--trace"],
             "--max-inflight must be >= 1"),
        ],
    )
    def test_flag_misuse_fails_before_any_work(
        self, tmp_path, monkeypatch, argv, message
    ):
        import repro.experiments.runner as runner_mod

        staged = []
        real_stage = runner_mod.stage_study
        monkeypatch.setattr(
            runner_mod, "stage_study",
            lambda *a, **k: staged.append(a) or real_stage(*a, **k),
        )
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=message):
            main(argv)
        assert staged == []
        # No trace journal, no cache: nothing at all.
        assert list(tmp_path.iterdir()) == []


class TestRetryOnTheCli:
    def test_transient_faults_retry_to_clean_output(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        assert main(["fig5", *FAST_ARGS, "--fault-plan", "fail-job=2:2"]) == 0
        assert _strip_volatile(capsys.readouterr().out) == golden
