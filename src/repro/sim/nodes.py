"""Node-level failure modelling: P independent streams, superposed.

The paper works with *platform-level* rates, invoking Proposition 1.2
of [13]: a platform of ``P`` processors of individual rate
``lambda_ind`` fails at rate ``P * lambda_ind``.  This module models the
platform at the level it physically exists — one renewal failure stream
**per node** — and superposes them:

* with exponential nodes, the superposition is exactly a Poisson
  process of rate ``P * lambda``, so the node-level simulator must
  reproduce the aggregated model's distribution (this *is* Proposition
  1.2, validated empirically in the tests);
* with non-exponential nodes (e.g. per-node Weibull), the superposition
  is **not** Weibull — and for large ``P`` it approaches a Poisson
  process regardless of the node law (Palm–Khintchine theorem).  That
  is the deep justification for the paper's exponential platform
  assumption: even if individual nodes are bursty, a 512-node machine's
  aggregate failure process is already close to memoryless.  The test
  suite demonstrates this convergence quantitatively.

Renewal semantics: each node carries its own next-arrival timestamp in
global *exposed time* (downtime pauses every clock, per the paper's
error-free-downtime assumption).  When a node fails, only *its* stream
renews — other nodes keep their ages, which is exactly what makes the
non-exponential case physically meaningful.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .protocol import RunStats
from .streams import ArrivalProcess, ExponentialArrivals

__all__ = ["NodePool", "simulate_run_nodes"]


class NodePool:
    """``P`` independent renewal failure streams with a min-heap frontier."""

    def __init__(
        self,
        n_nodes: int,
        process: ArrivalProcess,
        rng: np.random.Generator,
    ) -> None:
        if n_nodes < 1:
            raise SimulationError(f"need at least one node, got {n_nodes!r}")
        self.n_nodes = int(n_nodes)
        self.process = process
        self.rng = rng
        # (next_failure_exposed_time, node_id); drawn lazily in bulk at
        # construction for reproducibility.
        self._heap: list[tuple[float, int]] = [
            (process.sample_interarrival(rng), node) for node in range(self.n_nodes)
        ]
        heapq.heapify(self._heap)

    def peek(self) -> float:
        """Exposed-time instant of the next platform failure."""
        return self._heap[0][0]

    def fail_and_renew(self) -> int:
        """Consume the imminent failure; renew that node's stream.

        Returns the failing node id.
        """
        time, node = heapq.heappop(self._heap)
        heapq.heappush(
            self._heap, (time + self.process.sample_interarrival(self.rng), node)
        )
        return node

    def empirical_rate(self, horizon: float) -> float:
        """Arrivals per unit exposed time over ``[0, horizon)`` (destructive).

        Consumes the pool; used by the Proposition-1.2 validation tests.
        """
        count = 0
        while self.peek() < horizon:
            self.fail_and_renew()
            count += 1
        return count / horizon

    def warm_up(self, mean_multiples: float = 3.0) -> int:
        """Advance the pool into the stationary regime and rebase time to 0.

        A freshly built pool has every node at age zero.  For
        non-exponential laws that is a *transient*: Weibull nodes with
        shape < 1 have diverging hazard at age 0, so a fresh machine
        fails measurably more often than a seasoned one (the
        infant-mortality effect, visible in the tests).  Running the
        pool for a few mean inter-arrivals and rebasing makes each
        node's age distribution approach stationarity, which is the
        regime the paper's steady-state analysis describes.

        Returns the number of warm-up failures consumed.
        """
        horizon = mean_multiples * self.process.mean
        consumed = 0
        while self.peek() < horizon:
            self.fail_and_renew()
            consumed += 1
        self._heap = [(t - horizon, node) for (t, node) in self._heap]
        heapq.heapify(self._heap)
        return consumed


class _NodeRun:
    """VC protocol driven by a failure pool (``None``: no fail-stop errors).

    Also the engine of :func:`repro.sim.renewal.simulate_run_renewal`:
    a one-node pool without warm-up is one persistent renewal stream.
    """

    def __init__(
        self,
        model: PatternModel,
        T: float,
        P: float,
        rng: np.random.Generator,
        pool: NodePool | None,
    ) -> None:
        self.rng = rng
        self.T = float(T)
        self.pool = pool
        self.lam_s = float(model.errors.silent_rate(P))
        self.C = float(model.costs.checkpoint_cost(P))
        self.R = float(model.costs.recovery_cost(P))
        self.V = float(model.costs.verification_cost(P))
        self.D = float(model.costs.downtime)
        self.wall = 0.0  # wall-clock (includes downtime)
        self.exposed = 0.0  # exposure clock (excludes downtime)
        self.stats = RunStats(
            total_time=0.0,
            n_patterns=0,
            n_attempts=0,
            n_fail_stop=0,
            n_silent_struck=0,
            n_silent_detected=0,
            n_recoveries=0,
            n_downtimes=0,
        )

    def run(self, n_patterns: int) -> RunStats:
        """Run ``n_patterns`` patterns; return the run's statistics."""
        for _ in range(n_patterns):
            self.run_pattern()
        self.stats.total_time = self.wall
        return self.stats

    def _run_segment(self, duration: float) -> float | None:
        """Consume exposed time; return elapsed-at-failure or None."""
        next_fail = np.inf if self.pool is None else self.pool.peek()
        if next_fail < self.exposed + duration:
            elapsed = next_fail - self.exposed
            self.exposed = next_fail
            self.wall += elapsed
            self.pool.fail_and_renew()
            self.stats.n_fail_stop += 1
            return elapsed
        self.exposed += duration
        self.wall += duration
        return None

    def _downtime(self) -> None:
        # Downtime advances the wall clock only: errors cannot strike,
        # and every failure stream (defined on exposed time) is paused.
        self.wall += self.D
        self.stats.n_downtimes += 1
        self.stats.breakdown.downtime += self.D

    def _recover(self) -> None:
        while True:
            failed_at = self._run_segment(self.R)
            if failed_at is None:
                self.stats.n_recoveries += 1
                self.stats.breakdown.recovery += self.R
                return
            self.stats.breakdown.lost += failed_at
            self._downtime()

    def _silent_within(self, computed: float) -> bool:
        if self.lam_s <= 0.0 or computed <= 0.0:
            return False
        return self.rng.exponential(1.0 / self.lam_s) < computed

    def run_pattern(self) -> None:
        while True:
            self.stats.n_attempts += 1
            failed_at = self._run_segment(self.T + self.V)
            if failed_at is not None:
                if self._silent_within(min(failed_at, self.T)):
                    self.stats.n_silent_struck += 1
                self.stats.breakdown.lost += failed_at
                self._downtime()
                self._recover()
                continue
            if self._silent_within(self.T):
                self.stats.n_silent_struck += 1
                self.stats.n_silent_detected += 1
                self.stats.breakdown.wasted_work += self.T
                self.stats.breakdown.verification += self.V
                self._recover()
                continue
            failed_at = self._run_segment(self.C)
            if failed_at is not None:
                self.stats.breakdown.wasted_work += self.T
                self.stats.breakdown.verification += self.V
                self.stats.breakdown.lost += failed_at
                self._downtime()
                self._recover()
                continue
            self.stats.n_patterns += 1
            self.stats.breakdown.useful_work += self.T
            self.stats.breakdown.verification += self.V
            self.stats.breakdown.checkpoint += self.C
            return


def simulate_run_nodes(
    model: PatternModel,
    T: float,
    P: int,
    n_patterns: int,
    rng: np.random.Generator,
    node_process: ArrivalProcess | None = None,
    stationary: bool = True,
) -> RunStats:
    """Simulate the VC protocol with one fail-stop stream per node.

    Parameters
    ----------
    P:
        Integer node count (this simulator models physical nodes).
    node_process:
        Per-node inter-arrival law.  ``None`` uses the model's
        exponential per-node fail-stop rate (``f * lambda_ind``), under
        which the superposition equals the aggregated platform process —
        Proposition 1.2.  Pass per-node Weibull laws to study how fast
        the superposition "poissonises" (Palm–Khintchine).
    stationary:
        Warm the pool up into the stationary regime before the run
        (default).  ``False`` starts every node at age zero — for
        infant-mortality laws (Weibull shape < 1) that fresh-machine
        transient measurably *raises* the failure rate.

    Notes
    -----
    Silent errors remain at the aggregated platform rate (they are
    detected by verifications regardless of which node hosts the flip,
    so node identity carries no information for the protocol).
    """
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    if T <= 0.0:
        raise SimulationError(f"pattern period must be positive, got {T!r}")
    if P < 1:
        raise SimulationError(f"node count must be >= 1, got {P!r}")
    if node_process is None:
        lam_node = model.errors.lambda_ind * model.errors.fail_stop_fraction
        if lam_node <= 0.0:
            raise SimulationError(
                "node-level simulation needs a positive per-node fail-stop "
                "rate or an explicit node_process"
            )
        node_process = ExponentialArrivals(lam_node)
    pool = NodePool(P, node_process, rng)
    if stationary:
        pool.warm_up()
    return _NodeRun(model, T, P, rng, pool).run(n_patterns)
