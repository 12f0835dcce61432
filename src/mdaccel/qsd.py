"""Quasi-stationary distribution estimation.

Fleming-Viot particle process (exited replicas branch from a uniformly
random survivor), Gelman-Rubin convergence diagnostic over a configurable
observable list, and rejection-based dephasing.  The convergence time of
the Fleming-Viot process doubles as the decorrelation-time estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from .potentials import PotentialSurface
from .statemap import StateDefinition, exit_mask, make_labeler

__all__ = [
    "FvEnsemble",
    "GelmanRubinDiagnostic",
    "QsdEstimate",
    "EnsembleExtinctionError",
    "DiagnosticTimeoutError",
    "default_observables",
    "estimate_qsd",
    "dephase_by_rejection",
]


class EnsembleExtinctionError(Exception):
    """Every replica left the state in the same step."""


class DiagnosticTimeoutError(BudgetExhaustedError):
    """Time budget exhausted before convergence; carries the partial estimate."""

    def __init__(self, partial: "QsdEstimate", max_time: float):
        super().__init__("Gelman-Rubin diagnostic", "time %g" % max_time)
        self.partial = partial


def default_observables(surface: PotentialSurface) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Coordinates plus the potential energy (overridable in configuration;
    poor observable choices can fake convergence)."""
    obs = [(lambda j: (lambda x: x[:, j]))(j) for j in range(surface.dim)]
    obs.append(lambda x: surface.energy(x))
    return obs


@dataclass
class GelmanRubinDiagnostic:
    """Converged when (within + between) / within - 1 < threshold for every
    observable, computed over the trailing time window."""

    observables: Sequence[Callable[[np.ndarray], np.ndarray]]
    window: float
    threshold: float = 0.05

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")


@dataclass
class QsdEstimate:
    samples: np.ndarray
    tau_corr_estimate: float
    kill_count: int
    elapsed: float


class FvEnsemble:
    """N replicas conditioned to a state by branching on exit.

    Branching uses a dedicated stream so replica noise streams stay
    untouched; simultaneous exits are processed in replica-index order with
    donors drawn among the survivors of the current step, which makes the
    process independent of worker scheduling.
    """

    def __init__(self, surface: PotentialSurface, params: DynamicsParams,
                 definition: StateDefinition, state: int,
                 positions: np.ndarray, master_seed: int,
                 labeler: Optional[Callable] = None):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        n = positions.shape[0]
        gens = [substream(master_seed, i) for i in range(n)]
        self.batch = OverdampedBatch(surface, params, positions, gens)
        self.definition = definition
        self.state = state
        self.labeler = labeler if labeler is not None else make_labeler(surface, definition)
        self.branch_rng = substream(master_seed, n)  # one past the replica ids
        self.kill_count = 0
        self.elapsed = 0.0
        labels = self.labeler(self.batch.x)
        if np.any(exit_mask(labels, state, definition)):
            raise ValueError("all replicas must start inside the state")

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def positions(self) -> np.ndarray:
        return self.batch.x

    def step(self) -> int:
        """One sweep: advance every replica, branch the exited ones.
        Returns the number of branching events in this step."""
        self.batch.step()
        self.elapsed += self.batch.params.dt
        labels = self.labeler(self.batch.x)
        exited = exit_mask(labels, self.state, self.definition)
        n_exit = int(np.count_nonzero(exited))
        if n_exit == 0:
            return 0
        if n_exit == self.n:
            raise EnsembleExtinctionError("all %d replicas exited" % self.n)
        survivors = np.flatnonzero(~exited)
        for lane in np.flatnonzero(exited):
            donor = survivors[int(self.branch_rng.integers(survivors.size))]
            self.batch.x[lane] = self.batch.x[donor]
        self.kill_count += n_exit
        return n_exit

    def run(self, duration: float, collect_every: Optional[float] = None) -> list[np.ndarray]:
        """Advance for ``duration``; optionally collect position snapshots."""
        dt = self.batch.params.dt
        n_steps = int(round(duration / dt))
        stride = max(int(round(collect_every / dt)), 1) if collect_every else None
        snaps = []
        for k in range(1, n_steps + 1):
            self.step()
            if stride and k % stride == 0:
                snaps.append(self.batch.x.copy())
        return snaps


def estimate_qsd(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    n_replicas: int,
    diagnostic: GelmanRubinDiagnostic,
    start: np.ndarray,
    master_seed: int,
    max_time: float = math.inf,
    labeler: Optional[Callable] = None,
) -> QsdEstimate:
    """Run Fleming-Viot until the Gelman-Rubin statistic converges.

    ``start`` is a single point (replicated) or an (N, d) array of initial
    positions inside the state.  The elapsed time at convergence is the
    decorrelation-time estimate.
    """
    if n_replicas < 2:
        raise ValueError("need at least two replicas")
    start = np.atleast_2d(np.asarray(start, dtype=float))
    if start.shape[0] == 1:
        start = np.repeat(start, n_replicas, axis=0)
    if start.shape[0] != n_replicas:
        raise ValueError("start must be one point or (N, d)")
    ensemble = FvEnsemble(surface, params, definition, state, start, master_seed,
                          labeler=labeler)
    if math.isinf(diagnostic.threshold):
        return QsdEstimate(ensemble.positions.copy(), 0.0, 0, 0.0)

    dt = params.dt
    win_steps = max(int(round(diagnostic.window / dt)), 2)
    obs = list(diagnostic.observables)

    while ensemble.elapsed < max_time:
        sums = np.zeros((len(obs), ensemble.n))
        sqs = np.zeros((len(obs), ensemble.n))
        for _ in range(win_steps):
            ensemble.step()
            for k, f in enumerate(obs):
                v = f(ensemble.positions)
                sums[k] += v
                sqs[k] += v * v
        means = sums / win_steps
        within = np.mean(sqs / win_steps - means ** 2, axis=1)
        between = np.var(means, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(within > 0, (within + between) / within, 1.0)
        if np.all(ratio - 1.0 < diagnostic.threshold):
            return QsdEstimate(ensemble.positions.copy(), ensemble.elapsed,
                               ensemble.kill_count, ensemble.elapsed)
    raise DiagnosticTimeoutError(QsdEstimate(
        ensemble.positions.copy(), ensemble.elapsed, ensemble.kill_count, ensemble.elapsed),
        max_time)


def _dephase_lanes(surface: PotentialSurface, params: DynamicsParams,
                   definition: StateDefinition, state: int, labeler: Callable,
                   anchors: np.ndarray, n_tau: int, gens: Sequence[np.random.Generator],
                   max_restarts: int = 10_000) -> np.ndarray:
    """Lane i, on stream gens[i], restarts at anchors[i] on every exit until
    it has stayed n_tau >= 1 steps in the state; returns the end points."""
    batch = OverdampedBatch(surface, params, anchors, gens)
    L = anchors.shape[0]
    ok = np.zeros(L, dtype=np.int64)  # consecutive in-state steps per lane
    idx = np.arange(L)  # lanes still dephasing
    restarts = 0
    while idx.size:
        exited = exit_mask(labeler(batch.step(idx)), state, definition)
        ok[idx] += 1
        if exited.any():
            bad = idx[exited]
            restarts += bad.size
            if restarts > max_restarts * L:
                raise BudgetExhaustedError("dephasing restart",
                                           "%d restarts per lane" % max_restarts)
            batch.x[bad] = anchors[bad]
            ok[bad] = 0
        finished = ok[idx] >= n_tau
        if finished.any():
            idx = idx[~finished]
    return batch.x


def dephase_by_rejection(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    start: np.ndarray,
    tau: float,
    count: int,
    master_seed: int,
    max_restarts: int = 10_000,
    labeler: Optional[Callable] = None,
    seed_namespace: int = 0,
) -> np.ndarray:
    """End points of ``count`` trajectories of duration tau conditioned (by
    restart from ``start``) to remain in the state.  Returns (count, d)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    start = np.atleast_1d(np.asarray(start, dtype=float))
    if tau == 0:
        return np.repeat(start[None, :], count, axis=0)
    if labeler is None:
        labeler = make_labeler(surface, definition)
    if int(labeler(start[None, :])[0]) != state and definition.kind != "core-set":
        raise ValueError("start point is not in the state")

    n_tau = max(int(round(tau / params.dt)), 1)
    gens = [substream(master_seed, seed_namespace, i) for i in range(count)]
    return _dephase_lanes(surface, params, definition, state, labeler,
                          np.repeat(start[None, :], count, axis=0), n_tau, gens, max_restarts)
