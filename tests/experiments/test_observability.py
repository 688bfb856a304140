"""End-to-end run telemetry: tracing, metrics, and the `trace` CLI.

The acceptance contract of the observability layer: table bytes are
identical with ``--trace`` on or off; a traced run's journal schema-
validates and its per-event tallies match the metrics snapshot it
carries; the comparable event multiset is invariant across serial,
pooled and sharded executors; and the ``trace`` subcommand
summarizes, timelines and exports the journal.  Everything drives the
real CLI (``main``).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.experiments.runner import main
from repro.obs.stream import LineStream
from repro.obs.trace import ENVIRONMENT_EVENTS, comparable_events, load_trace
from repro.sim.faults import CRASH_EXIT_CODE

#: Small but parallel-friendly budget: several chunk jobs per study.
FAST_ARGS = ["--runs", "3", "--patterns", "4"]


def _strip_volatile(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("[done in", "[cache]"))
    )


def _multiset(events, drop=ENVIRONMENT_EVENTS):
    return sorted(
        json.dumps(e, sort_keys=True) for e in comparable_events(events, drop=drop)
    )


def _traced_run(tmp_path, capsys, extra=()):
    """One cached, traced fig5 run; returns (stdout, events, trace path)."""
    path = tmp_path / "trace.jsonl"
    args = [
        "fig5", *FAST_ARGS,
        "--cache-dir", str(tmp_path / "cache"),
        "--trace-file", str(path),
        *extra,
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    return out, load_trace(path), path


def _snapshot_points(events) -> Counter:
    """``points{status}`` totals of the trace's final metrics snapshot."""
    snapshots = [e for e in events if e["ev"] == "snapshot"]
    assert len(snapshots) == 1
    totals: Counter = Counter()
    for row in snapshots[0]["metrics"]["metrics"]:
        if row["name"] == "points":
            totals[row["labels"]["status"]] += row["value"]
    return totals


class TestByteIdentity:
    def test_traced_stdout_identical_to_untraced(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS]) == 0
        golden = _strip_volatile(capsys.readouterr().out)
        traced, _, _ = _traced_run(tmp_path, capsys)
        assert _strip_volatile(traced) == golden

    def test_trace_file_flag_implies_tracing(self, tmp_path, capsys):
        path = tmp_path / "custom.jsonl"
        assert main(["fig5", *FAST_ARGS, "--trace-file", str(path)]) == 0
        capsys.readouterr()
        events = load_trace(path)
        assert events[0]["ev"] == "trace_start"
        assert events[-1]["ev"] == "trace_end"

    def test_bare_trace_writes_the_default_path(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", *FAST_ARGS, "--trace"]) == 0
        capsys.readouterr()
        events = load_trace(tmp_path / ".repro-runs" / "trace.jsonl")
        assert events[-1]["ev"] == "trace_end"


class TestRunStatus:
    def test_crashed_run_trace_ends_failed(self, tmp_path, capsys):
        path = tmp_path / "crash.jsonl"
        code = main(["fig5", *FAST_ARGS, "--cache-dir", str(tmp_path / "cache"),
                     "--trace-file", str(path), "--fault-plan", "crash-after=5"])
        assert code == CRASH_EXIT_CODE == 86
        capsys.readouterr()
        events = load_trace(path)
        assert events[-1]["ev"] == "trace_end"
        assert events[-1]["status"] == "failed"
        assert events[-1]["error"] == "SimulatedCrash"

    def test_summary_flags_failed_run(self, tmp_path, capsys):
        path = tmp_path / "crash.jsonl"
        main(["fig5", *FAST_ARGS, "--cache-dir", str(tmp_path / "cache"),
              "--trace-file", str(path), "--fault-plan", "crash-after=5"])
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status failed, error SimulatedCrash" in out
        assert "WARNING: the run did not complete" in out
        assert main(["trace", "summary", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "failed"
        assert summary["error"] == "SimulatedCrash"

    def test_clean_run_summary_reports_complete(self, tmp_path, capsys):
        path = tmp_path / "ok.jsonl"
        assert main(["fig5", *FAST_ARGS, "--trace-file", str(path)]) == 0
        capsys.readouterr()
        assert "error" not in load_trace(path)[-1]
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status complete" in out
        assert "WARNING" not in out and "error" not in out
        assert main(["trace", "summary", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["error"] is None


class TestDeclareByStudy:
    def test_all_no_sim_has_one_row_per_registry_study(self, tmp_path, capsys):
        from repro.experiments.registry import REGISTRY

        path = tmp_path / "all.jsonl"
        assert main(["all", "--no-sim", "--trace-file", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        rows = summary["declare_by_study"]
        assert sorted(rows) == sorted(REGISTRY)
        assert all(entry["count"] == 1 for entry in rows.values())
        total = summary["phases"]["declare"]
        assert sum(entry["count"] for entry in rows.values()) == total["count"]
        assert sum(entry["seconds"] for entry in rows.values()) == pytest.approx(
            total["seconds"], abs=1e-5
        )
        assert main(["trace", "summary", str(path)]) == 0
        text = capsys.readouterr().out
        assert "[declare]" in text


class TestJournalContract:
    def test_schema_valid_counts_match_snapshot(self, tmp_path, capsys):
        _, events, _ = _traced_run(tmp_path, capsys)
        # load_trace already schema-validated every event.  The metrics
        # snapshot's points{status} totals match the per-event tallies.
        tallies = Counter(e["status"] for e in events if e["ev"] == "point")
        assert tallies and _snapshot_points(events) == tallies

    def test_snapshot_rides_trace_once(self, tmp_path, capsys):
        _, events, _ = _traced_run(tmp_path, capsys)
        # Exactly one metrics snapshot, written just before the trace is
        # sealed, and it carries the points counters.
        snapshots = [e for e in events if e["ev"] == "snapshot"]
        assert len(snapshots) == 1
        assert [e["ev"] for e in events[-2:]] == ["snapshot", "trace_end"]
        assert any(
            row["name"] == "points"
            for row in snapshots[0]["metrics"]["metrics"]
        )


class TestDeterminism:
    def _trace_of(self, tmp_path, capsys, tag, extra):
        path = tmp_path / f"{tag}.jsonl"
        assert main([
            "fig5", *FAST_ARGS, "--trace-file", str(path), *extra,
        ]) == 0
        capsys.readouterr()
        return load_trace(path)

    def test_serial_vs_pooled_event_multiset(self, tmp_path, capsys):
        serial = self._trace_of(
            tmp_path, capsys, "serial",
            ["--cache-dir", str(tmp_path / "c1")],
        )
        pooled = self._trace_of(
            tmp_path, capsys, "pooled",
            ["--cache-dir", str(tmp_path / "c2"), "--jobs", "2"],
        )
        assert _multiset(serial) == _multiset(pooled)

    def test_serial_vs_sharded_event_multiset(self, tmp_path, capsys):
        serial = self._trace_of(
            tmp_path, capsys, "serial",
            ["--cache-dir", str(tmp_path / "c1")],
        )
        sharded = self._trace_of(
            tmp_path, capsys, "sharded",
            ["--shard-count", "1", "--shard-dir", str(tmp_path / "s0")],
        )
        # Sharded runs have no emitter, so emit events are environment.
        drop = ENVIRONMENT_EVENTS | {"emit"}
        assert _multiset(serial, drop) == _multiset(sharded, drop)


class TestTraceCli:
    @pytest.fixture
    def run(self, tmp_path, capsys):
        _traced_run(tmp_path, capsys, extra=["--jobs", "2"])
        return tmp_path

    def test_summary_text(self, run, capsys):
        assert main(["trace", "summary", str(run / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        for section in ("[trace]", "[phases]", "[scheduler]", "[studies]",
                        "[fates]", "[cache]"):
            assert section in out
        assert "occupancy" in out

    def test_summary_json_matches_snapshot(self, run, capsys):
        trace_file = run / "trace.jsonl"
        assert main(["trace", "summary", str(trace_file), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        events = load_trace(trace_file)
        statuses = ("computed", "served", "skipped")
        per_study = Counter()
        for entry in summary["studies"].values():
            per_study.update({s: entry[s] for s in statuses})
        assert +per_study == _snapshot_points(events)
        fates = Counter({e["key"]: e["status"] for e in events
                         if e["ev"] == "point" and e["key"] is not None}.values())
        assert summary["fates"] == {s: fates[s] for s in statuses}

    def test_target_resolution_file_and_dir(self, run, capsys):
        trace_file = run / "trace.jsonl"
        for target in (trace_file, run):
            assert main(["trace", "summary", str(target)]) == 0
            capsys.readouterr()

    def test_unknown_target_fails_with_hint(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace found"):
            main(["trace", "summary", str(tmp_path / "nope")])

    def test_timeline_limit(self, run, capsys):
        assert main(["trace", "timeline", str(run / "trace.jsonl"),
                     "--limit", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[-1].startswith("... ")
        assert "trace_start" in lines[0]

    def test_export_round_trips(self, run, capsys):
        trace_file = run / "trace.jsonl"
        original = load_trace(trace_file)
        assert main(["trace", "export", str(trace_file)]) == 0
        jsonl = capsys.readouterr().out
        assert [json.loads(l) for l in jsonl.splitlines()] == original
        assert main(["trace", "export", str(trace_file),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == original


class TestCacheStatsJson:
    def test_json_format_uses_metrics_schema(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig5", *FAST_ARGS, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-metrics/1"
        assert payload["directory"] == str(cache_dir)
        by_name = {row["name"]: row["value"] for row in payload["metrics"]
                   if not row["labels"]}
        assert by_name["cache_entries"] > 0
        assert by_name["cache_bytes"] > 0

    def test_text_format_unchanged_by_default(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig5", *FAST_ARGS, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[cache] ")
        assert "[analytic]" in out


class TestProgressStream:
    def test_line_is_single_write(self):
        writes = []

        class Probe:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        LineStream(Probe()).line("[progress] fig5 1/54")
        assert writes == ["[progress] fig5 1/54\n"]

    def test_progress_reads_registry(self, tmp_path, capsys):
        assert main(["fig5", *FAST_ARGS, "--progress"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[progress]")]
        assert lines, err
        # The final line's tallies cover every delivered point.
        assert lines[-1].startswith("[progress] fig5 54/54 computed=")
