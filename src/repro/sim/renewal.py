"""VC-protocol simulation under general renewal failure processes.

The reference simulator (:mod:`repro.sim.protocol`) resamples the
fail-stop clock at each segment — valid *only* for the exponential law
(memorylessness).  This variant keeps a **persistent renewal stream**:
the next fail-stop arrival is a point in cumulative *exposed time*
(time excluding downtime), segments consume exposed time, and the
stream renews when an arrival fires.  With exponential arrivals it is
distribution-identical to the reference (asserted statistically in the
tests); with Weibull arrivals it answers the robustness question the
paper's exponential assumption leaves open.

Silent errors remain Poisson (they model independent radiation-induced
bit flips, for which the memoryless assumption is uncontroversial);
only the fail-stop law is swappable.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternModel
from ..exceptions import SimulationError
from .nodes import NodePool, _NodeRun
from .protocol import RunStats
from .streams import ArrivalProcess, ExponentialArrivals

__all__ = ["simulate_run_renewal"]


def simulate_run_renewal(
    model: PatternModel,
    T: float,
    P: float,
    n_patterns: int,
    rng: np.random.Generator,
    fail_stop: ArrivalProcess | None = None,
) -> RunStats:
    """Simulate the VC protocol with a persistent renewal fail-stop stream.

    Parameters
    ----------
    fail_stop:
        The inter-arrival law.  ``None`` uses the model's exponential
        fail-stop rate (distribution-identical to
        :func:`repro.sim.protocol.simulate_run`); pass a
        :class:`~repro.sim.streams.WeibullArrivals` (typically built
        with ``from_mean(shape, 1/lambda_f_P)``) for the robustness
        studies.
    """
    if n_patterns <= 0:
        raise SimulationError(f"n_patterns must be positive, got {n_patterns!r}")
    if T <= 0.0 or P <= 0.0:
        raise SimulationError("T and P must be positive")
    if fail_stop is None:
        lam_f = float(model.errors.fail_stop_rate(P))
        fail_stop = ExponentialArrivals(lam_f) if lam_f > 0.0 else None
    # One persistent stream is a one-node pool without warm-up; without
    # a fail-stop process there is no pool, so nothing fires or draws.
    pool = NodePool(1, fail_stop, rng) if fail_stop is not None else None
    return _NodeRun(model, T, P, rng, pool).run(n_patterns)
