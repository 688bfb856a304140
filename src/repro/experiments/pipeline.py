"""Deferred, event-driven batched simulation for the figure modules.

Figure modules used to call :func:`repro.experiments.common.simulate_mean`
once per (scenario, x-point) — hundreds of small, strictly sequential
``simulate_overhead`` calls per full evaluation.  This module batches
them, and is the only place samples run in parallel (``jobs=N``, the
CLI's ``--jobs``):

* a figure declares every Monte-Carlo point of its sweep up front by
  calling :meth:`SimulationPipeline.simulate_mean`, which returns a
  cheap :class:`Deferred` placeholder instead of a float;
* :meth:`SimulationPipeline.resolve` fuses all pending points into one
  :class:`repro.sim.plan.SimulationPlan`, serves memo/disk cache hits
  immediately, and hands the remaining chunk jobs to a
  :class:`repro.sim.scheduler.Scheduler` that keeps a bounded window
  of jobs in flight on the shared
  :class:`repro.sim.executors.Executor` (serial, pooled or sharded —
  reused across figures by the CLI runner).  Each :class:`Deferred`
  resolves the moment the last chunk of *its own point* completes —
  no wave barrier: a slow point never blocks an unrelated one, and the
  caller observes completions point by point via ``on_event``;
* :func:`materialize` swaps the placeholders inside already-built row
  structures for their values, so figure code keeps its natural
  row-building shape.

Extension studies whose samplers are event-driven (Weibull renewal,
per-node failures) join the same batch through
:meth:`SimulationPipeline.call`: any picklable module-level function
becomes a scheduled job, with the same content-addressed caching.

Every value is **bit-identical** to the sequential per-point path for
the same :class:`~repro.experiments.common.SimSettings`: the planner
replays the exact chunk plans and seed streams of
:func:`repro.sim.montecarlo.simulate_overhead`, per-point merging is
in chunk order (never completion order), and the pool width, cache
state, in-flight window and completion interleaving never enter the
sampled numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACE
from .analytic import AnalyticMemo, evaluate_analytic
from ..sim.executors import Executor, make_executor
from ..sim.plan import (
    ResultCache,
    SimRequest,
    call_key,
    claim_serve_expand,
    merge_request_results,
    plan_simulations,
    request_jobs,
    request_key,
)
from ..sim.scheduler import RetryPolicy, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (common imports sim)
    from ..core.pattern import PatternModel
    from .common import SimSettings

__all__ = [
    "Deferred",
    "PointEvent",
    "SimulationPipeline",
    "materialize",
]


class Deferred:
    """Placeholder for a simulation value the pipeline has not run yet."""

    __slots__ = ("_value", "_ready")

    def __init__(self) -> None:
        self._ready = False
        self._value = None

    @classmethod
    def resolved(cls, value) -> "Deferred":
        out = cls()
        out._set(value)
        return out

    def _set(self, value) -> None:
        self._value = value
        self._ready = True

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def value(self):
        if not self._ready:
            raise SimulationError(
                "deferred simulation value read before the pipeline resolved it; "
                "call SimulationPipeline.resolve() first"
            )
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deferred({self._value!r})" if self._ready else "Deferred(<pending>)"


@dataclass(frozen=True)
class PointEvent:
    """One declared point resolving (the ``on_event`` payload).

    ``status`` says how the value materialized: ``"computed"`` (its
    chunk jobs ran this round), ``"served"`` (memo or disk cache), or
    ``"skipped"`` (a sharded executor did not claim it; the value is
    ``None``).  ``group`` is the study label active when the point was
    declared (see :attr:`SimulationPipeline.current_group`).
    Duplicates of one plan key fire one event each.
    """

    group: str | None
    status: str


def materialize(obj):
    """Replace every :class:`Deferred` inside nested rows by its value."""
    if isinstance(obj, Deferred):
        return obj.value
    if isinstance(obj, tuple):
        return tuple(materialize(v) for v in obj)
    if isinstance(obj, list):
        return [materialize(v) for v in obj]
    if isinstance(obj, dict):
        return {k: materialize(v) for k, v in obj.items()}
    return obj


class SimulationPipeline:
    """Shared scheduler + caches for all figure sweeps of one invocation.

    Parameters
    ----------
    jobs:
        Worker-process count of the shared pool.  ``None`` auto-sizes
        to the machine; ``0``/``1`` runs serially in-process.  The pool
        is created lazily on the first parallel dispatch and reused by
        every subsequent :meth:`resolve` until :meth:`close`.
    cache_dir:
        Directory of the content-addressed on-disk result cache, or
        ``None`` to disable disk caching.  An in-memory memo always
        deduplicates repeated points within one pipeline lifetime
        (e.g. across the figures of ``repro-experiments all``).
    executor:
        An explicit :class:`repro.sim.executors.Executor` overriding
        the one implied by ``jobs`` — this is how a CLI shard run
        injects a :class:`~repro.sim.executors.ShardedExecutor`.
        Points whose plan key the executor does not claim are skipped
        (their deferred values resolve to ``None``); serial and pooled
        executors claim everything.
    max_inflight:
        Bound on concurrently in-flight chunk jobs across the whole
        invocation (the scheduler's global window).  ``None`` sizes it
        from the executor's worker count; ``1`` degenerates to strict
        serial submission order.
    retry:
        The scheduler's :class:`~repro.sim.scheduler.RetryPolicy` for
        transient job failures.  The sentinel ``"default"`` uses the
        scheduler's own default policy; ``None`` restores fail-fast.
    fault:
        A deterministic :class:`~repro.sim.faults.FaultPlan` threaded
        into every scheduling round (dev/test harness).
    trace:
        A :class:`~repro.obs.trace.TraceWriter` journaling this
        invocation's span/point events (``--trace``), or ``None`` for
        the zero-overhead null writer.
    metrics:
        The invocation's :class:`~repro.obs.metrics.MetricsRegistry`;
        a private registry is created when none is passed, so the
        per-study counters always exist.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir=None,
        executor: Executor | None = None,
        max_inflight: int | None = None,
        retry="default",
        fault=None,
        trace=None,
        metrics=None,
    ):
        self.trace = trace if trace is not None else NULL_TRACE
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.executor = executor if executor is not None else make_executor(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if self.cache is not None:
            self.cache.bind_obs(self.trace, self.metrics)
        self.max_inflight = max_inflight
        self.retry = retry
        self.fault = fault
        #: Cross-replicate memo of analytic optima.  Always deduplicates
        #: in memory; persists alongside the cache records only when disk
        #: caching is on, so ``--no-cache`` runs leave no state behind.
        self.analytic_memo = AnalyticMemo(
            Path(cache_dir) / "analytic_memo.json" if cache_dir is not None else None
        )
        #: Per-group analytic traffic (mirrors the sim counters of
        #: :meth:`pending_report`): points computed vs memo-served.
        self.analytic_counts: dict[str, dict[str, int]] = {}
        self._memo: dict[str, object] = {}
        self._pending: list[tuple] = []  # (kind, item, deferred, group)
        #: Label attached to subsequently declared points (the staging
        #: engine sets it to the study name around each declare phase).
        self.current_group: str | None = None
        self.points_submitted = 0
        self.points_computed = 0
        self.points_skipped = 0
        #: Scheduling rounds resolved so far (trace round numbering).
        self._rounds = 0

    @property
    def pending_points(self) -> int:
        """Declared-but-unresolved points."""
        return len(self._pending)

    # -- declaring work ----------------------------------------------------

    def simulate_mean(
        self, model: "PatternModel", T: float, P: float, settings: "SimSettings"
    ) -> Deferred:
        """Deferred counterpart of :func:`repro.experiments.common.simulate_mean`.

        Returns a placeholder whose ``.value`` (after :meth:`resolve`)
        is the simulated mean overhead — or ``None`` immediately when
        ``settings.simulate`` is off.
        """
        if not settings.simulate:
            return Deferred.resolved(None)
        n_runs, n_patterns = settings.budget()
        request = SimRequest(
            model=model,
            T=float(T),
            P=float(P),
            n_runs=n_runs,
            n_patterns=n_patterns,
            seed=settings.seed,
            method=settings.method,
        )
        deferred = Deferred()
        self._pending.append(("request", request, deferred, self.current_group))
        self.points_submitted += 1
        return deferred

    def call(self, fn: Callable, *args, **kwargs) -> Deferred:
        """Defer a generic simulation call onto the shared scheduler.

        ``fn`` must be a picklable module-level function whose result is
        a float (the extension studies use this for their event-driven
        sweeps); the result is cached under a key derived from the
        function's qualified name and canonicalised arguments.
        """
        deferred = Deferred()
        self._pending.append(("call", (fn, args, kwargs), deferred, self.current_group))
        self.points_submitted += 1
        return deferred

    def evaluate_analytic(self, models) -> list:
        """Analytic optima for a column of models, via the shared memo.

        Batched counterpart of the per-cell ``optimal_pattern`` /
        ``optimize_allocation`` calls the sweep evaluator used to make
        inline (see :mod:`repro.experiments.analytic`); unlike the sim
        columns the values come back immediately, not deferred.  The
        served/computed split is attributed to :attr:`current_group`,
        like sim declarations.
        """
        points, evaluated, served = evaluate_analytic(models, self.analytic_memo)
        label = self.current_group if self.current_group is not None else "(ungrouped)"
        entry = self.analytic_counts.setdefault(
            label, {"evaluated": 0, "served": 0}
        )
        entry["evaluated"] += evaluated
        entry["served"] += served
        self.metrics.counter("analytic", study=label, kind="evaluated").inc(evaluated)
        self.metrics.counter("analytic", study=label, kind="served").inc(served)
        if self.trace.enabled:
            self.trace.event(
                "analytic_batch", study=label, evaluated=evaluated, served=served
            )
            if served:
                self.trace.event("memo_serve", study=label, count=served)
        return points

    # -- previewing it (dry runs) ------------------------------------------

    def pending_report(self) -> dict[str, dict[str, int]]:
        """Planned-work summary per study group, without executing.

        For every group (in first-declaration order): declared points,
        unique new keys, points deduplicated against compute planned by
        earlier declarations, points served without compute (in-memory
        memo or disk cache), points left to compute, and the chunk jobs
        they expand into.  Every point lands in exactly **one** of
        ``deduped`` / ``cache_hits`` / ``to_compute`` — a duplicate of
        a cache-served key counts as a cache hit in *its own* study
        (that is what resolve will report), never as a second expected
        disk hit for the study that declared it first, so summing the
        per-study rows can neither double-report nor drop hits.  Pure
        preview — pending points stay pending, and the cache's
        hit/miss accounting is untouched.

        Each entry also carries ``analytic_evaluated`` /
        ``analytic_served``: the group's analytic-engine traffic so far
        (those points resolve at declare time, so unlike the sim
        counters they describe work already done).  Groups that only
        did analytic work (``--no-sim`` previews) get a row too.

        The preview flows through the invocation's metrics registry
        (``plan{study,field}`` counters, refreshed on every call) —
        the returned dict is assembled *from* the registry, so dry-run
        consumers may read either surface.
        """
        fields = (
            "points",
            "unique",
            "deduped",
            "cache_hits",
            "to_compute",
            "jobs",
            "analytic_evaluated",
            "analytic_served",
        )
        self.metrics.clear("plan")
        entries: dict[str, dict] = {}

        def _entry(group: str) -> dict:
            entry = entries.get(group)
            if entry is None:
                entry = {
                    f: self.metrics.counter("plan", study=group, field=f)
                    for f in fields
                }
                entries[group] = entry
            return entry

        #: First-seen fate per plan key: ``True`` when the point will be
        #: served without compute (memo/disk), ``False`` when its jobs
        #: must run this round.
        served: dict[str, bool] = {}
        for kind, item, _, group in self._pending:
            entry = _entry(group if group is not None else "(ungrouped)")
            entry["points"].inc()
            if kind == "request":
                key = request_key(item)
            else:
                fn, args, kwargs = item
                key = call_key(fn, args, kwargs)
            if key in served:
                # A later declaration of an already-classified key: it
                # shares its representative's fate, whichever study
                # staged that representative.
                entry["cache_hits" if served[key] else "deduped"].inc()
                continue
            if key in self._memo:
                served[key] = True
                entry["cache_hits"].inc()
                continue
            entry["unique"].inc()
            if self.cache is not None and self.cache.contains(key):
                served[key] = True
                entry["cache_hits"].inc()
                continue
            served[key] = False
            entry["to_compute"].inc()
            entry["jobs"].inc(len(request_jobs(item)) if kind == "request" else 1)
        for group, counts in self.analytic_counts.items():
            entry = _entry(group)
            entry["analytic_evaluated"].inc(counts["evaluated"])
            entry["analytic_served"].inc(counts["served"])
        report: dict[str, dict[str, int]] = {}
        for labels, metric in self.metrics.labeled("plan"):
            report.setdefault(labels["study"], {})[labels["field"]] = metric.value
        return report

    # -- running it --------------------------------------------------------

    def resolve(
        self,
        max_inflight: int | None = None,
        on_event: Callable[[PointEvent], None] | None = None,
        on_round: Callable[[], object] | None = None,
    ) -> None:
        """Schedule pending points; deferreds fill as futures complete.

        Incremental: only points declared since the last resolve run;
        the executor and caches persist across rounds.  Every pending
        point joins one round; ``on_event`` fires per resolved
        declaration, which is how the CLI runner streams each figure
        the moment its last point lands.

        ``on_round`` turns one resolve call into a *staging loop*:
        callbacks (``on_event`` handlers, or ``on_round`` itself) may
        declare **new** points mid-round — they join the next round,
        deduplicating against everything already computed this
        invocation through the in-memory memo and the disk cache.
        After each round drains, ``on_round()`` is invoked (a safety
        net for callers whose staging is driven by events that may not
        fire, e.g. analytic-only studies); resolve keeps looping while
        ``on_round()`` returns truthy ("I advanced something") or
        points are pending.  Without ``on_round`` the behaviour is the
        single-round one, unchanged.
        """
        self._resolve_round(max_inflight, on_event)
        if on_round is None:
            return
        while True:
            progressed = bool(on_round())
            if self._pending:
                self._resolve_round(max_inflight, on_event)
                continue
            if not progressed:
                return

    def _resolve_round(
        self,
        max_inflight: int | None = None,
        on_event: Callable[[PointEvent], None] | None = None,
    ) -> None:
        """One scheduling round over the currently-pending points."""
        if not self._pending:
            return
        self._rounds += 1
        round_no = self._rounds
        pending, self._pending = self._pending, []

        requests = [item for kind, item, _, _ in pending if kind == "request"]
        plan = plan_simulations(requests)

        # Cache-serve short-circuit + one batched claim + tagged
        # expansion (slowest backend first, as always).
        estimates, tagged_jobs, books = claim_serve_expand(
            plan, self.cache, self._memo, executor=self.executor
        )

        # Declaration bookkeeping: which deferreds each unique request /
        # call key fans out to (duplicates share one computation).
        point_decls: dict[int, list[tuple[Deferred, str | None]]] = {}
        call_decls: dict[str, list[tuple[Deferred, str | None]]] = {}
        call_items: list[tuple[str, tuple]] = []  # first-seen call keys
        slot_iter = iter(plan.slots)
        for kind, item, deferred, group in pending:
            if kind == "request":
                point_decls.setdefault(next(slot_iter), []).append((deferred, group))
            else:
                fn, args, kwargs = item
                key = call_key(fn, args, kwargs)
                if key not in call_decls:
                    call_items.append((key, item))
                call_decls.setdefault(key, []).append((deferred, group))

        def deliver(decls, value, status, key=None) -> None:
            for deferred, group in decls:
                if status == "skipped":
                    self.points_skipped += 1
                self.metrics.counter(
                    "points",
                    study=group if group is not None else "(ungrouped)",
                    status=status,
                ).inc()
                deferred._set(value)
                if self.trace.enabled:
                    self.trace.event("point", study=group, status=status, key=key)
                if on_event is not None:
                    on_event(PointEvent(group=group, status=status))

        # Serve/skip calls: memo, disk cache, then one claim batch for
        # the rest (mirrors the request path; a work-stealing shard
        # claims exclusively in its deterministic claim order).
        call_jobs: list[tuple[str, tuple]] = []
        unserved_calls: list[tuple[str, tuple]] = []
        for key, item in call_items:
            if key in self._memo:
                deliver(call_decls[key], self._memo[key], "served", key)
                continue
            if self.cache is not None:
                hit = self.cache.get_value(key)
                if hit is not None:
                    self._memo[key] = hit
                    deliver(call_decls[key], hit, "served", key)
                    continue
            unserved_calls.append((key, item))
        claimed_calls = set(self.executor.claim([key for key, _ in unserved_calls]))
        for key, item in unserved_calls:
            if key in claimed_calls:
                call_jobs.append((key, item))
            else:
                deliver(call_decls[key], None, "skipped", key)

        # Serve/skip requests whose value needs no job this round.
        for i, decls in point_decls.items():
            if i in books:
                continue  # computing: delivered on its last completion
            estimate = estimates[i]
            if estimate is None:
                deliver(decls, None, "skipped", plan.keys[i])
            else:
                deliver(decls, estimate.mean, "served", plan.keys[i])

        if self.trace.enabled:
            self.trace.event(
                "plan",
                round=round_no,
                points=len(pending),
                unique=len(plan.keys) + len(call_items),
                jobs=len(tagged_jobs) + len(call_jobs),
            )

        # Event-driven dispatch: one global in-flight window over the
        # executor; each point resolves the moment its last chunk lands.
        scheduler = Scheduler(
            self.executor,
            max_inflight if max_inflight is not None else self.max_inflight,
            retry=RetryPolicy() if self.retry == "default" else self.retry,
            fault=self.fault,
            trace=self.trace,
            metrics=self.metrics,
        )
        for job, tag in tagged_jobs:
            scheduler.add(job, tag)
        for key, item in call_jobs:
            scheduler.add(item, ("call", key))
        try:
            with self.trace.span("execute", round=round_no):
                for tag, result in scheduler.events():
                    self.points_computed += 1
                    if tag[0] == "call":
                        key = tag[1]
                        self._memo[key] = result
                        if self.cache is not None:
                            self.cache.put_value(key, float(result))
                        deliver(call_decls[key], result, "computed", key)
                        continue
                    i, part = tag
                    if not books[i].deliver(part, result):
                        continue
                    estimate = merge_request_results(
                        plan.requests[i], plan.methods[i], books[i].parts
                    )
                    estimates[i] = estimate
                    self._memo[plan.keys[i]] = estimate
                    if self.cache is not None:
                        self.cache.put_estimate(plan.keys[i], estimate)
                    deliver(
                        point_decls.get(i, ()), estimate.mean, "computed", plan.keys[i]
                    )
        except BaseException:
            # A failed job must not leak worker processes: shut the
            # executor down (cancelling queued pool work) on the way out.
            self.executor.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the on-disk cache, or (0, 0) when disabled."""
        if self.cache is None:
            return (0, 0)
        return (self.cache.hits, self.cache.misses)

    def close(self, status: str = "complete", error: str | None = None) -> None:
        """Flush the analytic memo, release the executor, seal the trace.

        ``status`` is the run's outcome as the trace's ``trace_end``
        event records it (``"failed"`` when the ``with`` block raised),
        and ``error`` the name of the exception that ended it.
        The executor and the trace are released even when the flush
        raises (a full disk, an unwritable cache directory); the flush
        error still propagates.
        """
        try:
            self.analytic_memo.flush()
        finally:
            self.executor.close()
            if self.trace.enabled and not self.trace.closed:
                # The final metrics snapshot rides the trace, then the
                # journal is sealed — `trace summary` cross-checks the
                # snapshot against the per-event tallies.
                self.trace.event("snapshot", metrics=self.metrics.snapshot())
                self.trace.close(status, error)

    def __enter__(self) -> "SimulationPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.close("failed", exc_type.__name__)
