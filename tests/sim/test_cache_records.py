"""The result cache's one-line JSON record format.

A record must serve back exactly the ``float64`` it stored, and every
way a file can go wrong on disk — torn mid-write, foreign, hand-edited,
binary — must read as a miss (never an exception) and be named by
``verify_entry``.  A failed store (full disk, no permission) costs only
the caching: no temp file survives and the run carries on.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceWriter, load_trace
from repro.sim.plan import ResultCache
from repro.sim.results import OverheadEstimate

KEY = "a" * 64

#: Every float64: subnormals, signed zeros, infinities and NaN included.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(a: float, b: float) -> bool:
    """Bit-identical, except that JSON keeps one NaN (no sign/payload)."""
    if math.isnan(a):
        return math.isnan(b)
    return _bits(a) == _bits(b)


ESTIMATE = OverheadEstimate(
    mean=0.1, std=0.02, stderr=0.001, ci_low=0.098, ci_high=0.102, n_runs=50
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values=st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS),
           n_runs=st.integers(min_value=0, max_value=2**63 - 1))
    def test_estimate_is_bit_identical(self, tmp_path_factory, values, n_runs):
        cache = ResultCache(tmp_path_factory.mktemp("c"))
        stored = OverheadEstimate(*values, n_runs=n_runs)
        cache.put_estimate(KEY, stored)
        served = cache.get_estimate(KEY)
        assert served is not None and served.n_runs == n_runs
        for name in ("mean", "std", "stderr", "ci_low", "ci_high"):
            assert _same(getattr(stored, name), getattr(served, name)), name
        assert type(served.n_runs) is int

    @settings(max_examples=200, deadline=None)
    @given(value=FLOATS)
    def test_value_is_bit_identical(self, tmp_path_factory, value):
        cache = ResultCache(tmp_path_factory.mktemp("c"))
        cache.put_value(KEY, value)
        served = cache.get_value(KEY)
        assert type(served) is float and _same(value, served)

    @pytest.mark.parametrize(
        "value", [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, -math.inf, math.inf]
    )
    def test_edge_floats_exact(self, tmp_path, value):
        cache = ResultCache(tmp_path)
        cache.put_value(KEY, value)
        assert _bits(cache.get_value(KEY)) == _bits(value)

    def test_numpy_scalars_are_coerced(self, tmp_path):
        import numpy as np

        cache = ResultCache(tmp_path)
        cache.put_estimate(KEY, OverheadEstimate(
            *(np.float64(v) for v in (0.5, 0.1, 0.01, 0.48, 0.52)),
            n_runs=np.int64(7),
        ))
        record = json.loads(cache._path(KEY).read_text())
        assert record == {"kind": "estimate", "mean": 0.5, "std": 0.1,
                          "stderr": 0.01, "ci_low": 0.48, "ci_high": 0.52,
                          "n_runs": 7}

    def test_record_is_one_small_line(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_estimate(KEY, ESTIMATE)
        data = cache._path(KEY).read_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert len(data) <= 512
        assert cache._path(KEY).name == f"{KEY}.rec"


class TestCorruption:
    def test_truncation_at_every_offset_is_a_miss_and_flagged(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_estimate(KEY, ESTIMATE)
        path = cache._path(KEY)
        data = path.read_bytes()
        # Cutting only the trailing newline still leaves a whole record.
        for cut in range(len(data) - 1):
            path.write_bytes(data[:cut])
            assert cache.get_estimate(KEY) is None, cut
            ok, reason = cache.verify_entry(KEY)
            assert not ok, cut
            if cut == 0:
                assert reason == "empty file"
            else:
                assert reason.startswith("unreadable (JSONDecodeError"), cut
        assert cache.hits == 0 and cache.misses == len(data) - 1

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"mean": 0.5}\n', "no 'kind' field (foreign file)"),
            (b"[1, 2, 3]\n", "no 'kind' field (foreign file)"),
            (b'{"kind": "tensor", "value": 1.0}\n', "unknown entry kind 'tensor'"),
            (b'{"kind": ["value"], "value": 1.0}\n', "unknown entry kind ['value']"),
            (b'{"kind": "estimate", "mean": 0.5}\n',
             "field set mismatch (expected ['ci_high', 'ci_low', 'mean', 'n_runs', "
             "'std', 'stderr'], found ['mean'])"),
            (b'{"kind": "value", "value": 1.0, "x": 2}\n',
             "field set mismatch (expected ['value'], found ['value', 'x'])"),
            (b'{"kind": "value", "value": "1.0"}\n', "field 'value' is not a JSON float"),
            (b'{"kind": "value", "value": true}\n', "field 'value' is not a JSON float"),
        ],
    )
    def test_foreign_or_edited_json_is_corrupt(self, tmp_path, content, reason):
        cache = ResultCache(tmp_path)
        cache._path(KEY).write_bytes(content)
        assert cache.verify_entry(KEY) == (False, reason)
        # A miss for either kind, never a KeyError/TypeError.
        assert cache.get_estimate(KEY) is None
        assert cache.get_value(KEY) is None

    @pytest.mark.parametrize(
        "content", [bytes(range(256)) * 4, b"[" * 100_000], ids=["binary", "nested"]
    )
    def test_unparseable_file_is_corrupt(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        cache._path(KEY).write_bytes(content)
        ok, reason = cache.verify_entry(KEY)
        assert not ok and reason.startswith("unreadable (")
        assert cache.get_estimate(KEY) is None


def _fail_fsync(fd):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStoreFailure:
    def test_store_error_leaves_nothing_and_is_counted(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        metrics = MetricsRegistry()
        trace = TraceWriter(tmp_path / "trace.jsonl")
        cache.bind_obs(trace, metrics)
        monkeypatch.setattr(os, "fsync", _fail_fsync)
        cache.put_estimate(KEY, ESTIMATE)  # returns normally
        cache.put_value("b" * 64, 2.0)
        monkeypatch.undo()
        trace.close()
        assert list((tmp_path / "cache").iterdir()) == []  # no temp, no entry
        assert metrics.value("cache", event="store_error") == 2
        assert metrics.get("cache", event="store") is None
        errors = [e for e in load_trace(tmp_path / "trace.jsonl")
                  if e["ev"] == "cache_store_error"]
        assert [e["key"] for e in errors] == [KEY, "b" * 64]
        assert "No space left on device" in errors[0]["error"]
        assert cache.get_estimate(KEY) is None  # the next run recomputes

    def test_cli_run_degrades_to_uncached(self, tmp_path, capsys, monkeypatch):
        args = ["fig2", "--runs", "2", "--patterns", "3"]
        assert main(args) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(os, "fsync", _fail_fsync)
        cache = tmp_path / "cache"
        assert main(args + ["--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        strip = [line for line in out.splitlines()
                 if not line.startswith(("[done in", "[cache]"))]
        assert strip == [line for line in expected.splitlines()
                         if not line.startswith("[done in")]
        assert not any(p.name.endswith(".rec") or ".tmp" in p.name
                       for p in cache.iterdir())
