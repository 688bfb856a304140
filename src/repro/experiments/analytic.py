"""Batched analytic-optimum evaluation with a cross-replicate memo.

The declare phase of every default-evaluator study spends nearly all of
its time on the *analytic* columns: a first-order closed form plus a
numerical ``(T, P)`` optimisation per grid cell, ~20 ms each and run
one cell at a time.  This module turns that pass into two array sweeps
— :func:`repro.core.first_order.optimal_pattern_batch` for the closed
forms and :func:`repro.optimize.allocation.optimize_allocation_batch`
for the numerical optima — so a whole study column resolves per
broadcast round, bit-identical to the scalar evaluators.

On top sits :class:`AnalyticMemo`: scenario families re-run the same
study with jittered *simulation* settings, so their analytic cells are
literally identical across family members.  The memo keys each model by
a hash of its result-relevant parameters (:func:`model_key`) and serves
repeats without recompute, within one run (always) and across runs
(persisted to ``analytic_memo.json`` inside the pipeline's cache
directory, so ``--no-cache`` also disables persistence).

Default-evaluator studies always take this path.  The scalar
optimisers stay reachable as the test oracle: a study whose
``point_eval`` hook delegates to
:func:`repro.experiments.spec.pattern_point` evaluates every cell
inline, without batching or memo.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..core.costs import CheckpointCost, VerificationCost
from ..core.first_order import optimal_pattern_batch
from ..core.speedup import AmdahlSpeedup
from ..optimize.allocation import optimize_allocation_batch

__all__ = [
    "ANALYTIC_VERSION",
    "AnalyticPoint",
    "AnalyticMemo",
    "model_key",
    "evaluate_analytic",
]

#: Bump when the optimisers' numerics change: persisted memo entries
#: from another version are discarded wholesale on load.
ANALYTIC_VERSION = 1


@dataclass(frozen=True)
class AnalyticPoint:
    """The six analytic columns of one sweep cell.

    ``*_fo`` entries are ``None`` where the first-order closed form has
    no finite optimum (exactly where :func:`optimal_pattern` raises);
    the numerical optimum always exists.
    """

    P_fo: float | None
    T_fo: float | None
    H_pred_fo: float | None
    P_num: float
    T_num: float
    H_pred_num: float

    def as_list(self) -> list:
        return [self.P_fo, self.T_fo, self.H_pred_fo,
                self.P_num, self.T_num, self.H_pred_num]


_ARITY = len(fields(AnalyticPoint))

#: ``*_fo`` columns may be null (no finite first-order optimum); the
#: numerical optimum always exists.
_NULLABLE = tuple(f.name.endswith("_fo") for f in fields(AnalyticPoint))


def _point_from_json(values) -> AnalyticPoint | None:
    """An :class:`AnalyticPoint` from a memo entry, or None if malformed."""
    if not isinstance(values, list) or len(values) != _ARITY:
        return None
    for value, nullable in zip(values, _NULLABLE):
        if value is None:
            if not nullable:
                return None
        elif type(value) not in (int, float):
            return None
    return AnalyticPoint(*(None if v is None else float(v) for v in values))


def model_key(model) -> str | None:
    """Content hash of every model parameter the analytic optimum reads.

    ``None`` marks a model the memo must not cache: a non-Amdahl (or
    subclassed) speedup profile, non-standard cost classes, or stacked
    array-valued parameters.  The optimisers depend on nothing else —
    the key doubles every parameter through ``struct`` so distinct bit
    patterns never collide.
    """
    speedup = model.speedup
    costs = model.costs
    checkpoint, verification, recovery = (
        costs.checkpoint, costs.verification, costs.recovery,
    )
    if (
        type(speedup) is not AmdahlSpeedup
        or type(checkpoint) is not CheckpointCost
        or type(verification) is not VerificationCost
        or (recovery is not None and type(recovery) is not CheckpointCost)
    ):
        return None
    fields = (
        model.errors.lambda_ind,
        model.errors.fail_stop_fraction,
        speedup.alpha,
        checkpoint.a,
        checkpoint.b,
        checkpoint.c,
        verification.v,
        verification.u,
        costs.downtime,
        1.0 if recovery is not None else 0.0,
        recovery.a if recovery is not None else 0.0,
        recovery.b if recovery is not None else 0.0,
        recovery.c if recovery is not None else 0.0,
    )
    if any(np.ndim(value) != 0 for value in fields):
        return None
    packed = struct.pack(f"<{len(fields)}d", *(float(v) for v in fields))
    return hashlib.sha1(packed).hexdigest()


class AnalyticMemo:
    """Keyed store of evaluated :class:`AnalyticPoint` values.

    Always deduplicates in memory within its lifetime; with a ``path``
    it also persists entries (plus cumulative served/evaluated
    counters) as JSON, guarded by :data:`ANALYTIC_VERSION`.  JSON float
    serialisation round-trips ``float64`` exactly, so values served
    from disk are bit-identical to freshly computed ones.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._table: dict[str, AnalyticPoint] = {}
        #: Cumulative points served without compute / computed.
        self.served = 0
        self.evaluated = 0
        if self.path is not None:
            self.served, self.evaluated, self._table, _ = self._read()
        # Counters as last read from / written to disk: flush adds only
        # this process's traffic since then to what is on disk.
        self._synced = (self.served, self.evaluated)
        self._dirty = False

    def _read(self) -> tuple[int, int, dict[str, AnalyticPoint], list[str]]:
        """Read the file, keeping only well-formed parts.

        Returns ``(served, evaluated, entries, problems)``.  A malformed
        entry is left out (it reads as a miss and the next flush drops
        it), a malformed counter reads as 0, and ``problems`` names
        each.  A missing or unreadable file, or one from another
        :data:`ANALYTIC_VERSION`, is an empty memo with no problems.
        """
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            payload = None
        if not isinstance(payload, dict) or payload.get("version") != ANALYTIC_VERSION:
            return 0, 0, {}, []
        problems: list[str] = []
        counters = []
        for name in ("served", "evaluated"):
            value = payload.get(name, 0)
            if type(value) is not int:
                problems.append(f"counter {name!r} is not an int")
                value = 0
            counters.append(value)
        raw = payload.get("entries", {})
        if not isinstance(raw, dict):
            problems.append("'entries' is not an object")
            raw = {}
        entries = {}
        for key, values in raw.items():
            point = _point_from_json(values)
            if point is None:
                problems.append(f"entry {key[:16]}: not a list of {_ARITY} numbers")
            else:
                entries[key] = point
        return counters[0], counters[1], entries, problems

    def verify(self) -> list[str]:
        """Every malformed part of the persisted memo (empty when clean)."""
        if self.path is None:
            return []
        return self._read()[3]

    def rewrite(self) -> None:
        """Write the memo back with only its well-formed parts."""
        self._dirty = True
        self.flush()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def lookups(self) -> int:
        """Total points that went through the memo."""
        return self.served + self.evaluated

    @property
    def hit_rate(self) -> float:
        return self.served / self.lookups if self.lookups else 0.0

    def get(self, key: str) -> AnalyticPoint | None:
        return self._table.get(key)

    def put(self, key: str, point: AnalyticPoint) -> None:
        self._table[key] = point
        self._dirty = True

    def count(self, served: int, evaluated: int) -> None:
        """Record engine traffic (kept here so it persists across runs)."""
        self.served += served
        self.evaluated += evaluated
        if served or evaluated:
            self._dirty = True

    def flush(self) -> None:
        """Merge the table into ``path``; no-op when clean.

        Runs sharing a cache directory serialise their flushes on an
        exclusive ``flock`` of a sidecar lock file.  Under it each run
        reads the current file, takes the union with its own table, adds
        its counter traffic, and publishes the result through a private
        temp file and an atomic rename, so no run's entries are lost and
        a reader never sees a torn file.
        """
        if self.path is None or not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock = self.path.with_name(f".{self.path.name}.lock")
        with open(lock, "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)  # released when closed
            served, evaluated, entries, _ = self._read()
            entries.update(self._table)
            self._table = entries
            self.served = served + self.served - self._synced[0]
            self.evaluated = evaluated + self.evaluated - self._synced[1]
            payload = {
                "version": ANALYTIC_VERSION,
                "served": self.served,
                "evaluated": self.evaluated,
                "entries": {key: point.as_list() for key, point in entries.items()},
            }
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(payload))
            tmp.replace(self.path)
        self._synced = (self.served, self.evaluated)
        self._dirty = False


def _evaluate_models(models) -> list[AnalyticPoint]:
    fos = optimal_pattern_batch(models)
    nums = optimize_allocation_batch(models)
    return [
        AnalyticPoint(
            P_fo=fo.processors if fo is not None else None,
            T_fo=fo.period if fo is not None else None,
            H_pred_fo=fo.overhead if fo is not None else None,
            P_num=num.processors,
            T_num=num.period,
            H_pred_num=num.overhead,
        )
        for fo, num in zip(fos, nums)
    ]


def evaluate_analytic(
    models, memo: AnalyticMemo | None = None
) -> tuple[list[AnalyticPoint], int, int]:
    """Analytic columns for a column of models, memo-served where possible.

    Models are deduplicated by :func:`model_key` both against ``memo``
    and within the call, then the remaining unique models go through
    the batch engine in one sweep.

    Returns
    -------
    (points, evaluated, served):
        Points aligned with ``models``; how many were computed this
        call and how many came from the memo / intra-call dedup.
    """
    models = list(models)
    points: list[AnalyticPoint | None] = [None] * len(models)
    evaluated = 0
    served = 0
    todo: dict[object, list[int]] = {}
    for j, model in enumerate(models):
        key = model_key(model)
        if key is None:
            todo[("unkeyed", j)] = [j]
            continue
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                points[j] = hit
                served += 1
                continue
        todo.setdefault(key, []).append(j)
    groups = list(todo.items())
    fresh = _evaluate_models([models[idxs[0]] for _, idxs in groups])
    for (key, idxs), point in zip(groups, fresh):
        evaluated += 1
        served += len(idxs) - 1
        if memo is not None and isinstance(key, str):
            memo.put(key, point)
        for j in idxs:
            points[j] = point
    if memo is not None:
        memo.count(served, evaluated)
    return points, evaluated, served
