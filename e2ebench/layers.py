"""Per-layer spans recorded around calls into the program's public functions.

The benchmark's traced runs install these wrappers in the CLI process
after ``repro.experiments.runner`` has been imported; the program's own
files stay untouched.  Each wrapper opens a span on a stack, so a
layer's *self time* is its span time minus the time covered by spans
opened inside it (``resolve`` -> ``on_round`` -> adaptive staging ->
``evaluate_analytic`` charges each layer once, never twice).

Two rules keep the numbers honest:

* a module-level function is replaced under **every** name a ``repro``
  module holds it by (``ext_segments`` calls ``optimize_segments``
  through its own import, not through ``repro.extensions.twolevel``);
* nothing that is pickled to pool workers is wrapped (``run_job`` is
  sent by import path, and a wrapper with another qualified name
  cannot be sent).  Sampling is timed only where it runs in this
  process: the serial executor's ``submit``.

Only calls made on the main thread are recorded; the pool's management
thread never enters a wrapped function, and if it did its time would
overlap the main thread's spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

#: Modules the CLI imports lazily; imported before patching so the
#: names they hold are replaced too.
PRELOAD = (
    "repro.experiments.ext_segments",
    "repro.experiments.scenarios",
    "repro.experiments.scenarios.adaptive",
    "repro.io.bands",
)


def _study_bucket(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return f"spec.declare:{spec.name}"


#: (module, function, bucket): module-level functions, replaced under
#: every name a loaded ``repro`` module holds them by.
FUNCTIONS = (
    ("repro.experiments.spec", "stage_study", _study_bucket),
    ("repro.extensions.twolevel", "optimize_segments", "twolevel.optimize_segments"),
    ("repro.experiments.analytic", "evaluate_analytic", "analytic.evaluate"),
    ("repro.sim.plan", "plan_simulations", "plan.plan"),
    ("repro.sim.plan", "claim_serve_expand", "plan.plan"),
)

#: (module, class, method, bucket): methods, replaced on the class.
METHODS = (
    ("repro.experiments.spec", "StagedStudy", "finish", "spec.assemble"),
    ("repro.sim.plan", "ResultCache", "get_estimate", "cache.read"),
    ("repro.sim.plan", "ResultCache", "get_value", "cache.read"),
    ("repro.sim.plan", "ResultCache", "put_estimate", "cache.write"),
    ("repro.sim.plan", "ResultCache", "put_value", "cache.write"),
    ("repro.experiments.pipeline", "SimulationPipeline", "__init__", "pipeline.init"),
    ("repro.experiments.pipeline", "SimulationPipeline", "resolve", "scheduler.resolve"),
    ("repro.experiments.pipeline", "SimulationPipeline", "close", "pipeline.close"),
    ("repro.sim.executors.serial", "SerialExecutor", "submit", "sim.sample"),
    ("repro.io.stream", "StreamingEmitter", "pump", "io.emit"),
    ("repro.io.stream", "StreamingEmitter", "drain", "io.emit"),
    ("repro.io.stream", "StreamingEmitter", "emit_results", "io.emit"),
    ("repro.experiments.scenarios.adaptive", "AdaptiveRun", "stage_initial", "adaptive"),
    ("repro.experiments.scenarios.adaptive", "AdaptiveRun", "on_event", "adaptive"),
    ("repro.experiments.scenarios.adaptive", "AdaptiveRun", "on_round", "adaptive"),
    ("repro.experiments.scenarios.adaptive", "AdaptiveRun", "finalize", "adaptive"),
    ("repro.experiments.scenarios.adaptive", "AdaptiveFamily", "finish", "adaptive"),
)

#: Registry counters read from the pipeline's metrics snapshot:
#: (metric name, label to split on or None) -> count prefix.
REGISTRY_COUNTS = {
    ("cache", "event"): "cache",
    ("analytic", "kind"): "analytic",
    ("scheduler_jobs", None): "scheduler.jobs",
    ("scheduler_retries", None): "scheduler.retries",
    ("scheduler_inline_fallbacks", None): "scheduler.inline_fallbacks",
}


class Recorder:
    """Span stack plus per-bucket self time, call counts and exact counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._main = threading.main_thread().ident

    def wrap(self, fn, bucket, on_result=None):
        """``fn`` recording a span in ``bucket`` (a name or ``f(args, kwargs)``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            name = bucket(args, kwargs) if callable(bucket) else bucket
            frame = [0.0]
            self._stack.append(frame)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.monotonic() - start
                self._stack.pop()
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def count_calls(self, fn, name):
        """``fn`` counting its calls under ``name`` without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- exact counts read at layer boundaries ------------------------------

    def _on_plan(self, args, plan) -> None:
        self.counts["plan.unique_points"] += plan.n_unique

    def _on_expand(self, args, result) -> None:
        self.counts["plan.jobs"] += len(result[1])

    def _on_close(self, args, result) -> None:
        # Every layer has finished once the pipeline is closed; the
        # registry outlives close().
        for row in args[0].metrics.snapshot()["metrics"]:
            for (name, label), prefix in REGISTRY_COUNTS.items():
                if row["name"] == name:
                    key = f"{prefix}.{row['labels'][label]}" if label else prefix
                    self.counts[key] += row["value"]

    def _on_finalize(self, args, result) -> None:
        # The registry does not carry wave counts; AdaptiveRun's public
        # families and summary() do.
        run = args[0]
        self.counts["adaptive.waves"] += sum(len(f.waves) for f in run.families)
        self.counts["adaptive.member_rows_simulated"] += run.summary()["rows_staged"]

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    replaced = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                replaced += 1
    return replaced


def install() -> Recorder:
    """Patch every layer boundary; return the recorder they report into."""
    for name in PRELOAD:
        importlib.import_module(name)
    rec = Recorder()
    hooks = {
        "plan_simulations": rec._on_plan,
        "claim_serve_expand": rec._on_expand,
        "SimulationPipeline.close": rec._on_close,
        "AdaptiveRun.finalize": rec._on_finalize,
    }
    for module, fn_name, bucket in FUNCTIONS:
        original = getattr(importlib.import_module(module), fn_name)
        wrapped = rec.wrap(original, bucket, hooks.get(fn_name))
        if not _replace_everywhere(original, wrapped):
            raise RuntimeError(f"{module}.{fn_name} is bound nowhere")
    for module, cls_name, method, bucket in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        wrapped = rec.wrap(getattr(cls, method), bucket, hooks.get(f"{cls_name}.{method}"))
        setattr(cls, method, wrapped)
    # One Scheduler.events() generator per scheduling round.
    scheduler = importlib.import_module("repro.sim.scheduler").Scheduler
    scheduler.events = rec.count_calls(scheduler.events, "scheduler.rounds")
    return rec
