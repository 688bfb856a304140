"""Deterministic fault injection for the evaluation pipeline.

The repo reproduces a paper about surviving failures with optimal
checkpointing; this module lets the evaluation harness *test* that it
survives its own failures.  A :class:`FaultPlan` is a small, fully
deterministic script of injected faults, parsed from the developer
flag ``--fault-plan`` and threaded into the
:class:`repro.sim.scheduler.Scheduler`:

* ``fail-job=N[:M]`` — the ``N``-th job submitted this run raises a
  :class:`TransientFault` ``M`` times (default once) before running
  normally, exercising the scheduler's bounded retry + backoff path;
* ``kill-worker=N`` — the ``N``-th job hard-kills its worker process
  (``os._exit``), so a pooled executor observes a genuine
  ``BrokenProcessPool``; under a serial executor the job raises a
  :class:`TransientFault` instead (the closest in-process analogue);
* ``crash-after=N`` — the run dies with a :class:`SimulatedCrash`
  after the ``N``-th job completion has been delivered (the result
  cache already holds the record of every point delivered so far),
  the harness for crash-then-re-run tests;
* ``corrupt-entry=N`` — before anything runs, the ``N``-th entry of
  the result cache (sorted by key) is truncated mid-file, exercising
  ``cache verify`` and the torn-record-reads-as-a-miss path.

Counters are plain integers — no wall clock, no RNG — so a fault plan
replays identically on every run, which is what makes the
crash-recovery determinism tests (kill after K completions, re-run the
same command, pin the output bytes) possible.  ``seed`` is carried for future
randomized plans but unused today.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..exceptions import ReproError

__all__ = [
    "FaultInjected",
    "TransientFault",
    "SimulatedCrash",
    "FaultPlan",
    "parse_fault_plan",
    "CRASH_EXIT_CODE",
]

#: Process exit code of a run killed by a :class:`SimulatedCrash`
#: (distinct from argparse's 2 and a generic traceback's 1, so tests
#: and CI can assert the crash was the injected one).
CRASH_EXIT_CODE = 86


class FaultInjected(ReproError):
    """Base class of all injected faults (never raised by real code)."""


class TransientFault(FaultInjected, OSError):
    """An injected infrastructure-style failure (retryable).

    Derives from :class:`OSError` so it is classified transient by the
    same rule as a real worker/pool infrastructure error.
    """


class SimulatedCrash(FaultInjected):
    """The injected analogue of ``kill -9`` on the whole run.

    Raised out of the scheduler loop after the configured number of
    completions; nothing downstream of the raise runs, so the records
    the result cache holds at that point are exactly what a re-run of
    the same command finds.
    """


def _fault_fail_job(sequence: int) -> None:
    """Module-level (picklable) job body that always fails transiently."""
    raise TransientFault(f"injected transient fault on job {sequence}")


def _fault_kill_worker(sequence: int) -> None:
    """Hard-kill the executing worker process (inline: raise instead).

    In a process-pool worker this is the real thing — the parent sees
    a ``BrokenProcessPool`` covering every in-flight job.  Executed
    inline (serial executor, or a pool replaying inline) there is no
    separate process to kill, so it degrades to a transient raise.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:  # pragma: no cover - dies
        os._exit(CRASH_EXIT_CODE)
    raise TransientFault(f"injected worker kill on job {sequence} (inline)")


@dataclass
class FaultPlan:
    """A deterministic script of injected faults (see module docstring).

    Job indices are 1-based over *first submissions* in scheduler
    dispatch order — retries of a job do not advance the sequence, so
    a plan means the same thing whatever the retry policy.
    """

    fail_job: int | None = None
    fail_times: int = 1
    kill_worker: int | None = None
    crash_after: int | None = None
    corrupt_entry: int | None = None
    seed: int = 0

    #: Submission sequence (first submissions only).
    _sequence: int = field(default=0, repr=False)
    #: Delivered-completion count (for ``crash-after``).
    _completions: int = field(default=0, repr=False)
    #: tag -> remaining injected failures for that job.
    _fails_left: dict = field(default_factory=dict, repr=False)

    def wrap_job(self, job: tuple, tag, attempt: int) -> tuple:
        """The job to actually submit: ``job`` itself, or a fault body.

        Called by the scheduler on every (re)submission; ``attempt`` is
        0 for the first submission.  While a matched job still has
        injected failures left, the returned job raises (or kills its
        worker) instead of running; once they are spent, the original
        job passes through and computes its normal, bit-identical
        result.
        """
        marker = ("tag", tag)
        if attempt == 0:
            self._sequence += 1
            if self.fail_job == self._sequence:
                self._fails_left[marker] = ("raise", max(1, self.fail_times))
            if self.kill_worker == self._sequence:
                # A killed worker never reports back, so one injection
                # is both the first and the last.
                self._fails_left[marker] = ("kill", 1)
        kind, left = self._fails_left.get(marker, (None, 0))
        if left > 0:
            self._fails_left[marker] = (kind, left - 1)
            body = _fault_kill_worker if kind == "kill" else _fault_fail_job
            return (body, (self._sequence,), {})
        return job

    def on_completion(self) -> None:
        """Count one delivered completion; crash when the plan says so."""
        self._completions += 1
        if self.crash_after is not None and self._completions == self.crash_after:
            raise SimulatedCrash(
                f"injected crash after {self.crash_after} completed jobs"
            )

    def corrupt_cache(self, cache) -> str | None:
        """Truncate the configured cache entry; returns the hurt key.

        Entries sort by key (the content address), so "the N-th entry"
        is stable across runs of the same plan.  A missing index is a
        no-op (``None``) — the plan may run before the cache is warm.
        """
        if self.corrupt_entry is None:
            return None
        entries = sorted(cache.entries(), key=lambda e: e.key)
        if not 0 <= self.corrupt_entry < len(entries):
            return None
        entry = entries[self.corrupt_entry]
        data = entry.path.read_bytes()
        entry.path.write_bytes(data[: max(1, len(data) // 2)])
        return entry.key


_FAULT_KINDS = ("fail-job", "kill-worker", "crash-after", "corrupt-entry", "seed")


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a ``--fault-plan`` spec string into a :class:`FaultPlan`.

    Comma-separated ``kind=N`` terms; ``fail-job`` takes an optional
    repeat count as ``fail-job=N:M``.  Examples::

        crash-after=20
        fail-job=3:2,crash-after=40
        kill-worker=5
        corrupt-entry=0
    """
    plan = FaultPlan()
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        kind, sep, value = term.partition("=")
        if not sep or kind not in _FAULT_KINDS:
            raise ReproError(
                f"unknown fault-plan term {term!r} "
                f"(expected one of {', '.join(_FAULT_KINDS)})"
            )
        try:
            if kind == "fail-job":
                count, sep2, times = value.partition(":")
                plan.fail_job = int(count)
                if sep2:
                    plan.fail_times = int(times)
            elif kind == "kill-worker":
                plan.kill_worker = int(value)
            elif kind == "crash-after":
                plan.crash_after = int(value)
            elif kind == "corrupt-entry":
                plan.corrupt_entry = int(value)
            else:
                plan.seed = int(value)
        except ValueError:
            raise ReproError(f"fault-plan term {term!r} needs an integer") from None
    for name, value in (
        ("fail-job", plan.fail_job),
        ("kill-worker", plan.kill_worker),
        ("crash-after", plan.crash_after),
    ):
        if value is not None and value < 1:
            raise ReproError(f"fault-plan {name} index is 1-based (got {value})")
    if plan.fail_times < 1:
        raise ReproError("fault-plan fail-job repeat count must be >= 1")
    if plan.corrupt_entry is not None and plan.corrupt_entry < 0:
        raise ReproError("fault-plan corrupt-entry index must be >= 0")
    return plan
