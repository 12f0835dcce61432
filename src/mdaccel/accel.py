"""Trajectory acceleration: Parallel Replica, Hyperdynamics, Temperature
Accelerated Dynamics, plus the orchestrator that stitches exit events into
a state-to-state trajectory.

Every method draws its randomness from hierarchical substreams of a master
seed keyed by (event index, phase, replica index), so results are
reproducible and independent of how events are packed into batches.  The
``*_exit_many`` variants advance many independent events in lock-step,
which is how the statistically heavy experiments stay affordable; they are
exactly equivalent (bit for bit) to looping the single-event functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from .kmc import StateToStateTrajectory
from .kramers import tad_theta
from .oracle import ExitStatistics, direct_exit_statistics
from .potentials import BiasPotential, PotentialSurface, StateGeometry, biased_surface
from .qsd import GelmanRubinDiagnostic, _dephase_lanes, estimate_qsd
from .statemap import (ExitEvent, StateDefinition, attribute_exit_region,
                       exit_mask, make_labeler)

__all__ = [
    "ParRepConfig",
    "HyperConfig",
    "TadConfig",
    "InvalidBiasError",
    "MissingBoundError",
    "parrep_exit",
    "parrep_exit_many",
    "hyper_exit",
    "hyper_exit_many",
    "tad_exit",
    "tad_exit_many",
    "direct_exit",
    "run_accelerated",
]

_BIAS_TOL = 1e-12


class InvalidBiasError(Exception):
    """Bias potential is nonzero at a recorded exit point."""


class MissingBoundError(Exception):
    """TAD stopping criterion has neither a prefactor nor a barrier bound."""


@dataclass
class ParRepConfig:
    """Parallel Replica: N replicas, decorrelation/dephasing time, dephasing mode.

    ``tau_corr`` is a fixed time or "adaptive" (convergence time of the
    Fleming-Viot diagnostic).  Dephasing modes: "rejection" (restart on
    exit), "fleming-viot-reuse" (final Fleming-Viot ensemble positions) and
    "pool" (draw from a precomputed array of in-state samples).
    """

    n_replicas: int = 8
    tau_corr: Union[float, str] = 0.0
    dephasing: str = "rejection"
    diagnostic: Optional[GelmanRubinDiagnostic] = None
    pool: Optional[np.ndarray] = None
    max_steps: int = 200_000_000

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("need at least one replica")
        if self.dephasing not in ("rejection", "fleming-viot-reuse", "pool"):
            raise ValueError("unknown dephasing mode %r" % self.dephasing)
        if self.tau_corr == "adaptive" and self.diagnostic is None:
            raise ValueError("adaptive tau_corr needs a diagnostic")
        if self.dephasing == "pool" and self.pool is None:
            raise ValueError("pool dephasing needs a sample pool")


@dataclass
class HyperConfig:
    """Hyperdynamics: boundary-vanishing bias and equilibration time."""

    bias: BiasPotential
    tau_corr: float = 0.0
    equilibrate: bool = True
    max_steps: int = 200_000_000


@dataclass
class TadConfig:
    """Temperature Accelerated Dynamics configuration.

    ``min_prefactor`` and/or ``min_barrier`` feed the stopping criterion;
    at least one is required unless ``exhaustive`` is set (run until every
    region of the supplied geometry has been observed).
    """

    beta_hi: float
    beta_lo: float
    theta_variant: str = "plain"
    min_prefactor: Optional[float] = None
    min_barrier: Optional[float] = None
    bounce: str = "reflect"
    exhaustive: bool = False
    max_steps: int = 200_000_000

    def __post_init__(self):
        if not self.beta_hi <= self.beta_lo:
            # equal temperatures are allowed: Theta = 1 and the method
            # degenerates to plain dynamics with bookkeeping
            raise ValueError("beta_hi must not exceed beta_lo")
        if self.bounce not in ("reflect", "restart"):
            raise ValueError("bounce must be 'reflect' or 'restart'")
        if not self.exhaustive and self.min_prefactor is None and self.min_barrier is None:
            raise MissingBoundError("stopping criterion needs min_prefactor or min_barrier")


# ---------------------------------------------------------------------------
# shared batched helpers


def _cycled(init: np.ndarray, e: int) -> np.ndarray:
    return init[e % init.shape[0]]


# ---------------------------------------------------------------------------
# Parallel Replica


def parrep_exit_many(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    init: np.ndarray,
    config: ParRepConfig,
    n_events: int,
    master_seed: int,
    geometry: Optional[StateGeometry] = None,
    labeler: Optional[Callable] = None,
    seed_namespace: int = 0,
    block: int = 128,
) -> tuple[ExitStatistics, dict]:
    """``n_events`` independent Parallel Replica exit events.

    Event ``e`` starts at ``init[e % len(init)]`` and owns the substreams
    ``(master_seed, seed_namespace, e, phase, replica)`` with phase 0 =
    decorrelation reference, 1 = dephasing, 2 = parallel step.  Returned
    info arrays: ``parallel_sweeps`` (first-exit step m of the winner, -1
    when the reference exited during decorrelation), ``winner_index`` and
    ``wall_steps`` (total integrator steps spent on the event).
    """
    if config.tau_corr == "adaptive":
        raise ValueError("adaptive tau_corr is a single-event feature")
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if labeler is None:
        labeler = make_labeler(surface, definition)
    dt, dim, N = params.dt, surface.dim, config.n_replicas
    n_corr = int(round(float(config.tau_corr) / dt))

    times = np.empty(n_events)
    points = np.empty((n_events, dim))
    labels_out = np.empty(n_events, dtype=np.int64)
    sweeps = np.full(n_events, -1, dtype=np.int64)
    winners = np.full(n_events, -1, dtype=np.int64)
    wall = np.zeros(n_events, dtype=np.int64)

    for lo in range(0, n_events, block):
        hi = min(lo + block, n_events)
        events = np.arange(lo, hi)
        B = events.size

        # --- decorrelation: one reference walker per event -----------------
        survivors = []
        ref_end = np.empty((B, dim))
        if n_corr > 0:
            gens = [substream(master_seed, seed_namespace, int(e), 0) for e in events]
            batch = OverdampedBatch(surface, params,
                                    np.stack([_cycled(init, int(e)) for e in events]), gens)
            active = np.ones(B, dtype=bool)
            idx = np.arange(B)
            for k in range(1, n_corr + 1):
                if idx.size == 0:
                    break
                lab = labeler(batch.step(idx))
                exited = exit_mask(lab, state, definition)
                if not exited.any():
                    continue
                for j, new_label in zip(idx[exited], lab[exited]):
                    e = int(events[j])
                    times[e] = k * dt
                    points[e] = batch.x[j]
                    labels_out[e] = attribute_exit_region(batch.x[j], int(new_label), geometry)
                    wall[e] += k
                    active[j] = False
                idx = np.flatnonzero(active)
            surv = np.flatnonzero(active)
            survivors = [int(events[j]) for j in surv]
            ref_end[surv] = batch.x[surv]
            wall[events[surv]] += n_corr
        else:
            survivors = [int(e) for e in events]
            for j, e in enumerate(events):
                ref_end[j] = _cycled(init, int(e))
        if not survivors:
            continue
        pos_of = {e: ref_end[i] for i, e in enumerate(events) if e in set(survivors)}

        # --- dephasing: N replicas per surviving event ----------------------
        reps = np.empty((len(survivors), N, dim))
        if config.dephasing == "pool":
            pool = np.atleast_2d(np.asarray(config.pool, dtype=float))
            for i, e in enumerate(survivors):
                pick = substream(master_seed, seed_namespace, e, 1)
                reps[i] = pool[pick.integers(pool.shape[0], size=N)]
        elif config.dephasing == "fleming-viot-reuse":
            from .qsd import FvEnsemble
            for i, e in enumerate(survivors):
                child = int(substream(master_seed, seed_namespace, e, 1).integers(2 ** 62))
                ens = FvEnsemble(surface, params, definition, state,
                                 np.repeat(pos_of[e][None, :], N, axis=0), child,
                                 labeler=labeler)
                ens.run(float(config.tau_corr))
                reps[i] = ens.positions
                wall[e] += N * int(round(float(config.tau_corr) / dt))
        else:  # rejection
            if n_corr > 0:
                anchors = np.repeat(np.stack([pos_of[e] for e in survivors]), N, axis=0)
                gens = [substream(master_seed, seed_namespace, e, 1, i)
                        for e in survivors for i in range(N)]
                out = _dephase_lanes(surface, params, definition, state, labeler,
                                     anchors, n_corr, gens)
                reps = out.reshape(len(survivors), N, dim)
                for e in survivors:
                    wall[e] += N * n_corr  # lower bound; restarts not itemized
            else:
                for i, e in enumerate(survivors):
                    reps[i] = np.repeat(pos_of[e][None, :], N, axis=0)

        # --- parallel step ---------------------------------------------------
        gens = [substream(master_seed, seed_namespace, e, 2, i)
                for e in survivors for i in range(N)]
        batch = OverdampedBatch(surface, params, reps.reshape(-1, dim), gens)
        lane_event = np.repeat(np.array(survivors), N)
        lane_rep = np.tile(np.arange(N), len(survivors))
        active = np.ones(batch.n, dtype=bool)
        idx = np.arange(batch.n)
        pending = set(survivors)
        m = 0
        while pending:
            m += 1
            if m * N > config.max_steps:
                raise BudgetExhaustedError("ParRep parallel-step",
                                           "%d replica steps per event" % config.max_steps)
            lab = labeler(batch.step(idx))
            exited = exit_mask(lab, state, definition)
            if not exited.any():
                continue
            hit_events = {}
            for j, new_label in zip(idx[exited], lab[exited]):
                e = int(lane_event[j])
                if e not in pending:
                    continue
                r = int(lane_rep[j])
                if e not in hit_events or r < hit_events[e][0]:
                    hit_events[e] = (r, j, int(new_label))
            for e, (r, j, new_label) in hit_events.items():
                tau0 = n_corr * dt
                times[e] = tau0 + (N * (m - 1) + (r + 1)) * dt
                points[e] = batch.x[j]
                labels_out[e] = attribute_exit_region(batch.x[j], new_label, geometry)
                sweeps[e] = m
                winners[e] = r
                wall[e] += N * m
                pending.discard(e)
                active[lane_event == e] = False
            if hit_events:
                idx = np.flatnonzero(active)

    stats = ExitStatistics(times, points, labels_out)
    return stats, {"parallel_sweeps": sweeps, "winner_index": winners, "wall_steps": wall}


def parrep_exit(state: int, entry: np.ndarray, config: ParRepConfig,
                surface: PotentialSurface, params: DynamicsParams,
                definition: StateDefinition, master_seed: int,
                geometry: Optional[StateGeometry] = None,
                labeler: Optional[Callable] = None,
                seed_namespace: int = 0) -> ExitEvent:
    """One Parallel Replica exit event from ``entry``.

    If the reference walker exits during decorrelation, that exit is
    returned directly (it follows the unmodified dynamics, so no error is
    made).  Otherwise the accelerated clock is tau_corr + N(m-1)dt + r dt
    with m the winning first-exit step and r the 1-based winner index --
    the exact discrete-time correction.
    """
    cfg = config
    if config.tau_corr == "adaptive":
        est = estimate_qsd(surface, params, definition, state,
                           max(config.n_replicas, 2), config.diagnostic,
                           np.atleast_1d(entry), master_seed ^ 0x51D, labeler=labeler)
        cfg = ParRepConfig(config.n_replicas, est.tau_corr_estimate, config.dephasing,
                           None, config.pool, config.max_steps)
    stats, info = parrep_exit_many(surface, params, definition, state,
                                   np.atleast_2d(entry), cfg, 1, master_seed,
                                   geometry, labeler, seed_namespace)
    step = int(round(stats.exit_times[0] / params.dt))
    return ExitEvent(float(stats.exit_times[0]), stats.exit_points[0],
                     int(stats.region_labels[0]), step)


# ---------------------------------------------------------------------------
# Hyperdynamics


def hyper_exit_many(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    init: np.ndarray,
    config: HyperConfig,
    n_events: int,
    master_seed: int,
    geometry: Optional[StateGeometry] = None,
    labeler: Optional[Callable] = None,
    seed_namespace: int = 0,
    block: int = 512,
) -> tuple[ExitStatistics, dict]:
    """``n_events`` Hyperdynamics exit events on V + deltaV.

    The physical clock contribution is the Riemann sum dt * sum exp(beta
    deltaV(X_k)) over the biased trajectory, i.e. B * T_biased.  Info
    arrays: ``boosts`` (per-event B) and ``wall_steps`` (biased steps).
    """
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if labeler is None:
        labeler = make_labeler(surface, definition)
    hot = biased_surface(surface, config.bias)
    dt, dim, beta = params.dt, surface.dim, params.beta
    n_corr = int(round(config.tau_corr / dt))

    times = np.empty(n_events)
    points = np.empty((n_events, dim))
    labels_out = np.empty(n_events, dtype=np.int64)
    boosts = np.empty(n_events)
    wall = np.zeros(n_events, dtype=np.int64)

    for lo in range(0, n_events, block):
        events = np.arange(lo, min(lo + block, n_events))
        B = events.size
        starts = np.stack([_cycled(init, int(e)) for e in events])

        if config.equilibrate and n_corr > 0:
            gens = [substream(master_seed, seed_namespace, int(e), 0) for e in events]
            starts = _dephase_lanes(hot, params, definition, state, labeler,
                                    starts, n_corr, gens)
            wall[events] += n_corr

        gens = [substream(master_seed, seed_namespace, int(e), 1) for e in events]
        batch = OverdampedBatch(hot, params, starts, gens)
        sumexp = np.zeros(B)
        active = np.ones(B, dtype=bool)
        idx = np.arange(B)
        k = 0  # every active lane has taken k biased steps
        while idx.size:
            xi = batch.step(idx)
            k += 1
            if k > config.max_steps:
                raise BudgetExhaustedError("Hyperdynamics biased-run",
                                           "%d steps per event" % config.max_steps)
            sumexp[idx] += np.exp(beta * config.bias.energy(xi))
            lab = labeler(xi)
            exited = exit_mask(lab, state, definition)
            if not exited.any():
                continue
            for j, new_label in zip(idx[exited], lab[exited]):
                e = int(events[j])
                dv = float(config.bias.energy(batch.x[j]))
                if abs(dv) > _BIAS_TOL:
                    raise InvalidBiasError(
                        "bias is %g at the exit point %s" % (dv, batch.x[j]))
                times[e] = dt * sumexp[j]
                boosts[e] = sumexp[j] / k
                points[e] = batch.x[j]
                labels_out[e] = attribute_exit_region(batch.x[j], int(new_label), geometry)
                wall[e] += k
                active[j] = False
            idx = np.flatnonzero(active)

    stats = ExitStatistics(times, points, labels_out)
    return stats, {"boosts": boosts, "wall_steps": wall}


def hyper_exit(state: int, entry: np.ndarray, config: HyperConfig,
               surface: PotentialSurface, params: DynamicsParams,
               definition: StateDefinition, master_seed: int,
               geometry: Optional[StateGeometry] = None,
               labeler: Optional[Callable] = None,
               seed_namespace: int = 0) -> ExitEvent:
    """One Hyperdynamics exit event; clock contribution is B * T_biased."""
    stats, info = hyper_exit_many(surface, params, definition, state,
                                  np.atleast_2d(entry), config, 1, master_seed,
                                  geometry, labeler, seed_namespace)
    return ExitEvent(float(stats.exit_times[0]), stats.exit_points[0],
                     int(stats.region_labels[0]), int(info["wall_steps"][0]))


# ---------------------------------------------------------------------------
# Temperature Accelerated Dynamics


def _tad_stop_bound(t_hi: np.ndarray, config: TadConfig) -> np.ndarray:
    """Lower bound on the extrapolated low-T time of any not-yet-seen region."""
    bounds = []
    if config.min_prefactor is not None:
        nu = config.min_prefactor
        bounds.append((nu * t_hi) ** (config.beta_lo / config.beta_hi) / nu)
    if config.min_barrier is not None:
        bounds.append(math.exp((config.beta_lo - config.beta_hi) * config.min_barrier) * t_hi)
    out = bounds[0]
    for b in bounds[1:]:
        out = np.maximum(out, b)
    return out


def tad_exit_many(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    init: np.ndarray,
    config: TadConfig,
    n_events: int,
    master_seed: int,
    geometry: StateGeometry,
    labeler: Optional[Callable] = None,
    seed_namespace: int = 0,
    block: int = 512,
) -> tuple[ExitStatistics, dict]:
    """``n_events`` TAD events on the state described by ``geometry``.

    Runs at beta_hi, bounces the walker back after every observed exit,
    extrapolates each region's first high-T exit time with the factor
    built from the measured barrier V(z_i) - V(x1), and stops when the
    a-priori bound guarantees unseen regions cannot beat the current
    minimum (or, in exhaustive mode, when every region has been seen).
    Info arrays: ``t_hi`` (high-T clock at stop) and ``wall_steps``.
    """
    if params.beta != config.beta_lo:
        raise ValueError("params.beta must equal config.beta_lo")
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if labeler is None:
        labeler = make_labeler(surface, definition)
    hot = params.with_beta(config.beta_hi)
    dt, dim = params.dt, surface.dim
    n_regions = len(geometry.boundary_minima)
    if n_regions == 0:
        raise ValueError("geometry has no exit regions")
    v0 = float(surface.energy(geometry.interior_min))
    thetas = np.array([
        tad_theta(config.beta_hi, config.beta_lo,
                  float(surface.energy(z)) - v0, config.theta_variant)
        for z in geometry.boundary_minima
    ])

    times = np.empty(n_events)
    points = np.empty((n_events, dim))
    labels_out = np.empty(n_events, dtype=np.int64)
    t_hi_out = np.empty(n_events)
    wall = np.zeros(n_events, dtype=np.int64)

    for lo in range(0, n_events, block):
        events = np.arange(lo, min(lo + block, n_events))
        B = events.size
        gens = [substream(master_seed, seed_namespace, int(e), 0) for e in events]
        batch = OverdampedBatch(surface, hot,
                                np.stack([_cycled(init, int(e)) for e in events]), gens)
        best_t = np.full(B, np.inf)
        best_region = np.full(B, -1, dtype=np.int64)
        best_point = np.zeros((B, dim))
        seen = np.zeros((B, n_regions), dtype=bool)
        active = np.ones(B, dtype=bool)
        idx = np.arange(B)
        k = 0  # every active lane has taken k high-temperature steps

        while idx.size:
            prev = batch.x[idx]
            lab = labeler(batch.step(idx))
            k += 1
            if k > config.max_steps:
                raise BudgetExhaustedError("TAD high-temperature",
                                           "%d steps per event" % config.max_steps)
            exited = exit_mask(lab, state, definition)
            for p in np.flatnonzero(exited):
                j, new_label = idx[p], lab[p]
                region = attribute_exit_region(batch.x[j], int(new_label), geometry)
                t_hi = k * dt
                if not seen[j, region]:
                    seen[j, region] = True
                    t_lo = thetas[region] * t_hi
                    if t_lo < best_t[j]:
                        best_t[j] = t_lo
                        best_region[j] = region
                        best_point[j] = batch.x[j]
                if config.bounce == "reflect" and dim == 1:
                    z = geometry.boundary_minima[region][0]
                    cand = 2.0 * z - batch.x[j, 0]
                    reflected = np.array([[cand]])
                    if not exit_mask(labeler(reflected), state, definition)[0]:
                        batch.x[j] = reflected[0]
                    else:
                        batch.x[j] = prev[p]
                else:
                    batch.x[j] = prev[p]
            # stopping check (vectorized over the still-active lanes)
            have = idx[np.isfinite(best_t[idx])]
            if have.size:
                if config.exhaustive:
                    stop = have[seen[have].all(axis=1)]
                else:
                    bound = _tad_stop_bound(np.full(have.size, k * dt), config)
                    stop = have[bound > best_t[have]]
                if stop.size:
                    for j in stop:
                        e = int(events[j])
                        times[e] = best_t[j]
                        points[e] = best_point[j]
                        labels_out[e] = best_region[j]
                        t_hi_out[e] = k * dt
                        wall[e] = k
                        active[j] = False
                    idx = np.flatnonzero(active)

    stats = ExitStatistics(times, points, labels_out)
    return stats, {"t_hi": t_hi_out, "wall_steps": wall}


def tad_exit(state: int, entry: np.ndarray, config: TadConfig,
             surface: PotentialSurface, params: DynamicsParams,
             definition: StateDefinition, master_seed: int,
             geometry: StateGeometry,
             labeler: Optional[Callable] = None,
             seed_namespace: int = 0) -> ExitEvent:
    """One TAD event: (min extrapolated low-T time, winning region,
    representative high-T exit point for that region)."""
    stats, info = tad_exit_many(surface, params, definition, state,
                                np.atleast_2d(entry), config, 1, master_seed,
                                geometry, labeler, seed_namespace)
    return ExitEvent(float(stats.exit_times[0]), stats.exit_points[0],
                     int(stats.region_labels[0]), int(info["wall_steps"][0]))


# ---------------------------------------------------------------------------
# direct exit + orchestration


def direct_exit(state: int, entry: np.ndarray, surface: PotentialSurface,
                params: DynamicsParams, definition: StateDefinition,
                master_seed: int, geometry: Optional[StateGeometry] = None,
                labeler: Optional[Callable] = None, seed_namespace: int = 0,
                max_steps: int = 200_000_000) -> ExitEvent:
    """Plain single-walker first exit (the no-acceleration baseline): one
    event of ``direct_exit_statistics``, on the stream
    ``(master_seed, seed_namespace, 0)``."""
    stats = direct_exit_statistics(surface, params, definition, state, entry, 1,
                                   master_seed, geometry, labeler, max_steps,
                                   seed_namespace=seed_namespace)
    t = float(stats.exit_times[0])
    return ExitEvent(t, stats.exit_points[0], int(stats.region_labels[0]),
                     int(round(t / params.dt)))


def run_accelerated(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    method: str,
    horizon: float,
    master_seed: int,
    start: np.ndarray,
    config=None,
    labeler: Optional[Callable] = None,
    geometries: Optional[dict] = None,
) -> StateToStateTrajectory:
    """Stitch exit events into a state-to-state trajectory until the
    physical clock reaches ``horizon``.

    ``geometries`` maps state labels to StateGeometry (required for tad,
    optional exit-region attribution otherwise).  Each event uses the seed
    namespace equal to its index, so the trajectory is reproducible and
    method-independent in its seeding layout.
    """
    if method not in ("direct", "parrep", "hyper", "tad"):
        raise ValueError("unknown method %r" % method)
    if labeler is None:
        labeler = make_labeler(surface, definition)
    traj = StateToStateTrajectory()
    if horizon <= 0:
        return traj

    pos = np.atleast_1d(np.asarray(start, dtype=float))
    state = int(labeler(pos[None, :])[0])
    event_index = 0
    while traj.clock < horizon:
        geom = (geometries or {}).get(state)
        if method == "direct":
            ev = direct_exit(state, pos, surface, params, definition,
                             master_seed, geom, labeler, seed_namespace=event_index)
            factor = 1.0
            wall = ev.first_exit_step
        elif method == "parrep":
            ev = parrep_exit(state, pos, config, surface, params, definition,
                             master_seed, geom, labeler, seed_namespace=event_index)
            factor = float(config.n_replicas)
            wall = ev.first_exit_step
        elif method == "hyper":
            ev = hyper_exit(state, pos, config, surface, params, definition,
                            master_seed, geom, labeler, seed_namespace=event_index)
            factor = ev.exit_time / (ev.first_exit_step * params.dt)
            wall = ev.first_exit_step
        else:
            if geom is None:
                raise ValueError("tad needs a geometry for state %d" % state)
            ev = tad_exit(state, pos, config, surface, params, definition,
                          master_seed, geom, labeler, seed_namespace=event_index)
            factor = float(config.beta_lo / config.beta_hi)
            wall = ev.first_exit_step
        traj.append(state, ev.exit_time, ev.region_label)
        traj.records.append({
            "event_index": event_index,
            "state": state,
            "method": method,
            "residence_time": ev.exit_time,
            "exit_region": ev.region_label,
            "wall_steps_used": wall,
            "boost_or_N": factor,
        })
        pos = ev.exit_point
        state = int(labeler(pos[None, :])[0])
        event_index += 1
    return traj
