"""Several CLI runs sharing one cache directory.

A shared ``--cache-dir`` is a supported setup (work-stealing shards,
parallel CI jobs).  Four processes started at once — three identical
``fig2`` runs and one ``fig4`` — must all succeed with the same tables
a lone run prints, leave a cache that verifies clean (the analytic
memo, its lock and any temp file are never entries), and leave the
memo and the record set holding the union of what the runs would
write alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import main
from repro.sim.plan import ResultCache

FAST_ARGS = ["--runs", "2", "--patterns", "3"]


def _src_env() -> dict:
    """Environment whose PYTHONPATH imports this checkout's ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def _strip_volatile(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("[done in", "[cache]"))
    )


def _memo_keys(cache_dir: Path) -> set[str]:
    return set(json.loads((cache_dir / "analytic_memo.json").read_text())["entries"])


def _solo(study: str, cache_dir: Path, capsys) -> str:
    assert main([study, *FAST_ARGS, "--cache-dir", str(cache_dir)]) == 0
    return _strip_volatile(capsys.readouterr().out)


def test_concurrent_runs_share_one_cache(tmp_path, capsys):
    solo_fig2 = _solo("fig2", tmp_path / "solo2", capsys)
    _solo("fig4", tmp_path / "solo4", capsys)

    cache = tmp_path / "shared"
    studies = ["fig2", "fig2", "fig2", "fig4"]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", study, *FAST_ARGS,
             "--cache-dir", str(cache)],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for study in studies
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, [e for _, e in outputs]

    fig2_outs = {_strip_volatile(out) for out, _ in outputs[:3]}
    assert fig2_outs == {solo_fig2}

    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
    assert " 0 corrupt" in capsys.readouterr().out
    entries = ResultCache(cache).entries()
    assert all(e.path.name == f"{e.key}.rec" and len(e.key) == 64 for e in entries)
    assert not [p for p in cache.iterdir() if ".tmp" in p.name]

    solo_keys = {e.key for d in ("solo2", "solo4")
                 for e in ResultCache(tmp_path / d).entries()}
    assert {e.key for e in entries} == solo_keys
    assert _memo_keys(cache) == _memo_keys(tmp_path / "solo2") | _memo_keys(
        tmp_path / "solo4"
    )
