"""End-to-end benchmark of the repro CLI, with per-layer attribution.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper-cold --seed 20160913 --seconds 30 --trace 0

Each workload is a closed loop: one ``python -m repro`` process at a
time (launched through ``launch.py``), the next one started only after
the previous one has exited, for ``--seconds`` seconds.  Set-up before
the timed loop computes the workload's reference output with another
executor (and, for ``paper-warm``, fills the cache).  Every timed run's
stdout, minus the ``[done in``/``[cache]`` lines, must equal that
reference; a run that differs or exits non-zero counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced runs with traced ones, whose spans
(see ``layers.py``) give per-layer self times that add up to the traced
wall clock, plus exact counts that must repeat run to run.

Every reported time is scaled to a nominal machine speed: a fixed
pure-Python probe loop is timed between runs, and each run's times are
multiplied by the probe's nominal time over its median around that run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it
print every metric by name with its quartiles and sample count, and a
stamp naming the commit, Python and numpy versions and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
WORK = ROOT / ".e2ebench-work"
DEFAULT_SEED = 20160913

#: Every process must end by then (the benchmark has 180 s in all).
HARD_DEADLINE_S = 165.0

PAPER = ("all", "--paper")
JITTER = ("scenario", "report", "examples/scenario_jitter.toml", "--adaptive", "--paper")

#: The registry's studies, one ``spec.declare_s.<study>`` metric each.
STUDIES = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "ext-segments", "ext-weibull", "ext-weakscaling", "ext-nodes",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command, its reference command, and what it must exercise."""

    argv: tuple[str, ...]
    #: The same computation through another executor and no cache.
    reference: tuple[str, ...]
    #: ``"fresh"`` empties the cache dir before every run, ``"warm"``
    #: fills it once during set-up; ``None`` runs without a cache.
    cache: str | None = None
    #: Per-layer metrics a traced run must see above zero (the layer
    #: was reached through its wrapper) ...
    busy: tuple[str, ...] = ()
    #: ... and those the workload bypasses, which must read zero.
    idle: tuple[str, ...] = ()


_COMMON_BUSY = (
    "spec.declare_s", "analytic.served", "plan.unique_points",
    "scheduler.rounds", "io.emit_s",
)

WORKLOADS = {
    "paper-cold": Workload(
        argv=PAPER + ("--jobs", "2"),
        reference=PAPER + ("--jobs", "1"),
        cache="fresh",
        busy=_COMMON_BUSY + (
            "twolevel.optimize_segments_calls", "analytic.evaluated", "plan.jobs",
            "scheduler.jobs", "cache.misses", "cache.write_s",
        ),
        idle=("cache.hits", "sim.sample_jobs", "adaptive.waves"),
    ),
    "paper-warm": Workload(
        argv=PAPER + ("--jobs", "2"),
        reference=PAPER + ("--jobs", "1"),
        cache="warm",
        busy=_COMMON_BUSY + ("twolevel.optimize_segments_calls", "cache.hits"),
        idle=(
            "analytic.evaluated", "cache.misses", "plan.jobs", "scheduler.jobs",
            "sim.sample_jobs", "adaptive.waves",
        ),
    ),
    "fig5-adaptive": Workload(
        argv=JITTER + ("--jobs", "1"),
        reference=JITTER + ("--jobs", "2"),
        busy=_COMMON_BUSY + (
            "analytic.evaluated", "plan.jobs", "scheduler.jobs", "sim.sample_jobs",
            "adaptive.waves",
            "adaptive.member_rows_simulated",
        ),
        idle=(
            "twolevel.optimize_segments_calls", "cache.hits", "cache.misses",
            "cache.write_s",
        ),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

#: Traced-span buckets (see layers.py) -> per-layer self-time metric.
SELF_TIMES = {
    "spec.assemble": "spec.assemble_s",
    "twolevel.optimize_segments": "twolevel.optimize_segments_s",
    "analytic.evaluate": "analytic.evaluate_s",
    "plan.plan": "plan.plan_s",
    "cache.read": "cache.read_s",
    "cache.write": "cache.write_s",
    "scheduler.resolve": "scheduler.resolve_self_s",
    "sim.sample": "sim.sample_s",
    "io.emit": "io.emit_s",
    "pipeline.init": "pipeline.init_s",
    "pipeline.close": "pipeline.close_s",
    "adaptive": "adaptive.self_s",
}

#: Per-layer counts -> where a traced run's report holds them.
COUNTS = {
    "twolevel.optimize_segments_calls": ("calls", "twolevel.optimize_segments"),
    "analytic.evaluated": ("counts", "analytic.evaluated"),
    "analytic.served": ("counts", "analytic.served"),
    "plan.unique_points": ("counts", "plan.unique_points"),
    "plan.jobs": ("counts", "plan.jobs"),
    "cache.hits": ("counts", "cache.hit"),
    "cache.misses": ("counts", "cache.miss"),
    "scheduler.rounds": ("counts", "scheduler.rounds"),
    "scheduler.jobs": ("counts", "scheduler.jobs"),
    "scheduler.retries": ("counts", "scheduler.retries"),
    "scheduler.inline_fallbacks": ("counts", "scheduler.inline_fallbacks"),
    "sim.sample_jobs": ("calls", "sim.sample"),
    "adaptive.waves": ("counts", "adaptive.waves"),
    "adaptive.member_rows_simulated": ("counts", "adaptive.member_rows_simulated"),
}

#: Spans may not cover more than the wall clock (clock granularity aside).
RECONCILE_TOLERANCE_S = 0.002

#: Iterations of the speed probe, a fixed pure-Python loop timed
#: around every measured run.
PROBE_LOOP = 200_000
#: The probe's median time on the 2-CPU VM the benchmark was defined
#: on.  Every reported time is scaled to that speed: on a shared host
#: the CPU speed drifts by 20% over minutes, which would otherwise
#: swamp the program's own changes.
NOMINAL_PROBE_S = 0.018


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s") or name.startswith("spec.declare_s."):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a ``--trace 1`` run reports, in order."""
    names = ["setup.import_s", "spec.declare_s"]
    names += [f"spec.declare_s.{study}" for study in STUDIES]
    names += list(SELF_TIMES.values()) + list(COUNTS)
    names += [
        "analytic.memo_hit_ratio", "cache.hit_ratio", "unattributed_s",
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "failed_frac",
    ]
    return names


# -- running one CLI process --------------------------------------------------


@dataclass
class Run:
    ok: bool
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict
    why: str = ""
    #: Nominal over measured machine speed around this run (see probe()).
    scale: float = 1.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args: tuple[str, ...], trace: bool, deadline: float) -> tuple[Run, str]:
    """Run the CLI once; return its measurements and its raw stdout."""
    report_path, out_path = WORK / "report.json", WORK / "stdout.txt"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(LAUNCHER), str(report_path), "1" if trace else "0", "--"]
    with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd + list(args), cwd=ROOT, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        # Kill the whole session (pool workers too) if it overruns.
        timer = threading.Timer(max(0.0, deadline - started), _kill_group, (proc.pid,))
        timer.start()
        # wait4 reports the CPU time and peak RSS of the process together
        # with every descendant it reaped (the pool workers).
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the run may outlive it
    stdout = out_path.read_text()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    run = Run(
        ok=proc.returncode == 0 and "imported" in report,
        wall_s=wall,
        setup_s=report.get("imported", started) - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        report=report,
        why="" if proc.returncode == 0 else f"exit code {proc.returncode}",
    )
    return run, stdout


def probe() -> list[float]:
    """Five timings of the speed probe loop."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return samples


def comparable(stdout: str) -> str:
    """Stdout minus the run-specific ``[done in`` / ``[cache]`` lines."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not line.startswith(("[done in", "[cache]"))
    )


def cache_line(stdout: str) -> str:
    return next((l for l in stdout.splitlines() if l.startswith("[cache]")), "")


# -- the benchmark ------------------------------------------------------------


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.deadline = started + HARD_DEADLINE_S
        self.cache_dir = WORK / "cache"
        self.reference = ""
        self.runs: list[Run] = []
        self._probe: list[float] = []

    def cli_args(self, argv: tuple[str, ...], cached: bool) -> tuple[str, ...]:
        args = argv + ("--seed", str(self.seed))
        if cached:
            args += ("--cache-dir", str(self.cache_dir))
        return args

    def set_up(self) -> None:
        """Reference output, and the filled cache of ``paper-warm``."""
        run, stdout = launch(self.cli_args(self.workload.reference, False), False, self.deadline)
        if not run.ok:
            raise SystemExit(f"{self.name}: reference run failed ({run.why})")
        self.reference = comparable(stdout)
        if self.workload.cache == "warm":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            fill, stdout = launch(self.cli_args(self.workload.argv, True), False, self.deadline)
            if not fill.ok or comparable(stdout) != self.reference:
                raise SystemExit(f"{self.name}: the run filling the cache failed")

    def timed(self, trace: bool) -> Run:
        """One measured CLI run, checked against the reference."""
        if self.workload.cache == "fresh":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        args = self.cli_args(self.workload.argv, self.workload.cache is not None)
        before = self._probe or probe()
        run, stdout = launch(args, trace, self.deadline)
        # The probe after one run is the probe before the next.
        self._probe = probe()
        run.scale = NOMINAL_PROBE_S / statistics.median(before + self._probe)
        if run.ok and comparable(stdout) != self.reference:
            run.ok, run.why = False, "stdout differs from the reference"
        if run.ok and self.workload.cache == "warm" and " 0 misses" not in cache_line(stdout):
            run.ok, run.why = False, f"warm cache missed: {cache_line(stdout)!r}"
        self.runs.append(run)
        return run

    def measure(self, trace: bool) -> None:
        """Run until ``seconds`` have been measured (at least once each kind)."""
        kinds = (False, True) if trace else (False,)
        spent = 0.0
        while True:
            for kind in kinds:
                run = self.timed(kind)
                spent += run.wall_s
                if not run.ok:
                    print(f"# failed run: {run.why}", file=sys.stderr)
            if spent >= self.seconds or time.monotonic() >= self.deadline - 10:
                return


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_values(run: Run) -> dict[str, float]:
    """One untraced run's end-to-end metrics, times at nominal speed."""
    return {
        "wall_s": run.wall_s * run.scale,
        "setup_s": run.setup_s * run.scale,
        "cpu_s": run.cpu_s * run.scale,
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_values(run: Run) -> dict[str, float]:
    """One traced run's per-layer metrics (self times and counts)."""
    rep = run.report
    self_s = {k: v * run.scale for k, v in rep.get("self_s", {}).items()}
    values = {"setup.import_s": run.setup_s * run.scale}
    declares = {k.split(":", 1)[1]: v for k, v in self_s.items() if k.startswith("spec.declare:")}
    values["spec.declare_s"] = sum(declares.values())
    for study in STUDIES:
        values[f"spec.declare_s.{study}"] = declares.get(study, 0.0)
    for bucket, metric in SELF_TIMES.items():
        values[metric] = self_s.get(bucket, 0.0)
    for metric, (section, key) in COUNTS.items():
        values[metric] = rep.get(section, {}).get(key, 0)
    analytic = values["analytic.evaluated"] + values["analytic.served"]
    values["analytic.memo_hit_ratio"] = values["analytic.served"] / analytic if analytic else 0.0
    lookups = values["cache.hits"] + values["cache.misses"]
    values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
    values["trace.wall_s"] = run.wall_s * run.scale
    values["unattributed_s"] = (
        values["trace.wall_s"] - values["setup.import_s"] - sum(self_s.values())
    )
    return values


def check_traced(bench: Bench, traced: list[dict[str, float]]) -> list[str]:
    """Reconciliation, repeatability and coverage problems of the traced runs."""
    problems = []
    counts = [{k: v[k] for k in COUNTS} for v in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"per-layer counts differ between runs: {counts}")
    for values in traced:
        if values["unattributed_s"] < -RECONCILE_TOLERANCE_S:
            problems.append(f"spans exceed the wall clock by {-values['unattributed_s']:.4f} s")
    for name in bench.workload.busy:
        if not all(v[name] > 0 for v in traced):
            problems.append(f"{name} recorded nothing: its wrapper was bypassed")
    for name in bench.workload.idle:
        if any(v[name] != 0 for v in traced):
            problems.append(f"{name} is not zero on a workload that bypasses it")
    return problems


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(metrics: dict[str, float], samples: dict[str, list[float]]) -> None:
    """Print every metric by name with its unit, quartiles and sample count."""
    for name, value in metrics.items():
        values = samples.get(name)
        spread = ""
        if values:
            q1, _, q3 = quartiles(values)
            spread = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
        print(f"{name:34s} {value:.6g} {unit_of(name)}{spread}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, started)
    try:
        bench.set_up()
        bench.measure(trace=bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    runs = bench.runs
    failed = sum(not r.ok for r in runs)
    problems = [r.why for r in runs if not r.ok]
    untraced = [end_to_end_values(r) for r in runs if r.ok and "self_s" not in r.report]
    if args.trace:
        rows = [layer_values(r) for r in runs if r.ok and "self_s" in r.report]
        problems += check_traced(bench, rows) if rows else ["no traced run succeeded"]
        samples = {name: [row[name] for row in rows] for name in (rows[0] if rows else {})}
        samples["trace.untraced_wall_s"] = [row["wall_s"] for row in untraced]
    else:
        samples = {name: [row[name] for row in untraced] for name in END_TO_END}
    metrics = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
    if args.trace:
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["failed_frac"] = failed / len(runs)
        metrics = {name: metrics.get(name, 0.0) for name in per_layer_names()}

    report = bench.runs[0].report if bench.runs else {}
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "python": report.get("python"),
        "numpy": report.get("numpy"), "nproc": os.cpu_count(),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    emit(metrics, samples)
    if not args.trace:
        print(f"{'failed_frac':34s} {failed / len(runs):.6g} ratio  ({failed}/{len(runs)} runs)")
    raw = [r.wall_s for r in runs if r.ok]
    scale = [r.scale for r in runs if r.ok]
    if raw:
        print(
            f"times are scaled to the nominal machine speed: scale median "
            f"{statistics.median(scale):.4f}, unscaled wall median {statistics.median(raw):.4f} s"
        )
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
