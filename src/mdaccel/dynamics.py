"""Euler-Maruyama integration of the overdamped Langevin dynamics
dX = -grad V(X) dt + sqrt(2 / beta) dW, the only dynamics in the package.

Randomness contract: every walker owns an independent seedable stream
derived from ``(master seed, walker id)``; identical (seed, params,
surface) reproduce trajectories bit for bit.

The module also provides a vectorized batch stepper used by the
Fleming-Viot, direct-simulation and acceleration machinery.  Each batch
lane reads its own stream in order, buffered in refills of growing size;
a lane's draws do not depend on the chunk or refill sizes, nor on which
other lanes share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .potentials import PotentialSurface

__all__ = [
    "DynamicsParams",
    "WalkerState",
    "IntegratorDivergenceError",
    "BudgetExhaustedError",
    "substream",
    "step_overdamped",
    "OverdampedBatch",
]

NOISE_CHUNK = 2048
NOISE_FIRST_REFILL = 64  # a lane's k-th refill draws min(NOISE_CHUNK, 64 * 2**k) steps


class IntegratorDivergenceError(Exception):
    """Position became non-finite; carries the last finite walker state."""

    def __init__(self, walker):
        super().__init__("integrator produced a non-finite position")
        self.last_state = walker


class BudgetExhaustedError(Exception):
    """A step, restart or time budget ran out; ``phase`` names whose."""

    def __init__(self, phase: str, budget: str):
        super().__init__("%s budget of %s exhausted" % (phase, budget))
        self.phase = phase


@dataclass
class DynamicsParams:
    """Inverse temperature and timestep."""

    beta: float
    dt: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def with_beta(self, beta: float) -> "DynamicsParams":
        return DynamicsParams(beta=beta, dt=self.dt)

    @property
    def noise_scale(self) -> float:
        """sqrt(2 dt / beta), the Euler-Maruyama noise amplitude."""
        return float(np.sqrt(2.0 * self.dt / self.beta))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a hierarchical key under ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key)))


@dataclass
class WalkerState:
    """Position, clock, and the walker's own stream."""

    position: np.ndarray
    rng: np.random.Generator
    clock: float = 0.0

    def __post_init__(self):
        self.position = np.atleast_1d(np.asarray(self.position, dtype=float))


def step_overdamped(walker: WalkerState, surface: PotentialSurface,
                    params: DynamicsParams) -> WalkerState:
    """One Euler-Maruyama step x <- x - grad V dt + sqrt(2 dt / beta) G."""
    g = walker.rng.standard_normal(surface.dim)
    walker.position = (walker.position
                       - surface.grad(walker.position) * params.dt
                       + params.noise_scale * g)
    walker.clock += params.dt
    if not np.all(np.isfinite(walker.position)):
        raise IntegratorDivergenceError(walker)
    return walker


class _LaneNoise:
    """Per-lane normal buffers; lane i's draws equal one
    ``gens[i].standard_normal((K, dim))`` whatever the chunk and refill sizes.

    Refills double from NOISE_FIRST_REFILL up to ``chunk``, so a short-lived
    lane draws little more than it uses, and each fills the tail of the
    lane's row, so the rest of the row is never touched.
    """

    __slots__ = ("gens", "dim", "chunk", "buf", "pos", "lanes", "refill")

    def __init__(self, gens: Sequence[np.random.Generator], dim: int, chunk: int = NOISE_CHUNK):
        self.gens = list(gens)
        self.dim = dim
        self.chunk = chunk
        n = len(self.gens)
        self.buf = np.empty((n, chunk, dim))
        self.pos = np.full(n, chunk, dtype=np.int64)  # empty -> refill on first draw
        self.lanes = np.arange(n)
        self.refill = [min(NOISE_FIRST_REFILL, chunk)] * n  # size of each lane's next refill

    def draw(self, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Next normal vector for each lane in ``idx`` (default all); refills
        a lane's buffer only when it is used up."""
        if idx is None:
            idx, pos = self.lanes, self.pos  # updates land in self.pos itself
        else:
            pos = self.pos[idx]
        if pos.max() >= self.chunk:
            for j in np.flatnonzero(pos >= self.chunk):
                i = idx[j]
                c = self.refill[i]
                self.gens[i].standard_normal(out=self.buf[i, self.chunk - c:])
                self.refill[i] = min(2 * c, self.chunk)
                pos[j] = self.chunk - c
        out = self.buf[idx, pos]
        if pos is self.pos:
            pos += 1
        else:
            self.pos[idx] = pos + 1
        return out

    def reset_lane(self, i: int, gen: np.random.Generator) -> None:
        self.gens[i] = gen
        self.pos[i] = self.chunk
        self.refill[i] = min(NOISE_FIRST_REFILL, self.chunk)


class OverdampedBatch:
    """Euler-Maruyama stepping of many independent walkers at once.

    Lanes advance together but each owns its stream, so results are
    identical to stepping each walker alone (the scheduling-independence
    contract for the concurrent algorithms).  A call that steps every lane
    (``idx`` omitted, or equal to ``arange(n)``) skips the gather and
    scatter of the indexed path and is bit-identical to it.
    """

    def __init__(self, surface: PotentialSurface, params: DynamicsParams,
                 positions: np.ndarray, gens: Sequence[np.random.Generator]):
        self.surface = surface
        self.params = params
        self.x = np.array(positions, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] != surface.dim:
            raise ValueError("positions must have shape (n, dim)")
        if len(gens) != self.x.shape[0]:
            raise ValueError("one generator per lane required")
        self.noise = _LaneNoise(gens, surface.dim)
        self.steps = np.zeros(self.x.shape[0], dtype=np.int64)
        self._all = self.noise.lanes
        self._dt = params.dt
        self._noise_scale = params.noise_scale

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def step(self, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance the lanes in ``idx`` (default all); returns their new positions."""
        if idx is not None:
            if idx.size == 0:
                return self.x[idx]
            if idx.shape[0] == self._all.shape[0] and (idx == self._all).all():
                idx = None
        if idx is None:
            xi = self.x
        else:
            xi = self.x[idx]
        xi = (xi - self.surface.grad(xi) * self._dt
              + self._noise_scale * self.noise.draw(idx))
        finite = np.isfinite(xi)
        if not finite.all():
            lanes = self._all if idx is None else idx
            bad = lanes[~finite.all(axis=1)][0]
            raise IntegratorDivergenceError(
                WalkerState(self.x[bad], self.noise.gens[bad], clock=self.steps[bad] * self._dt))
        if idx is None:
            self.x[...] = xi
            self.steps += 1
        else:
            self.x[idx] = xi
            self.steps[idx] += 1
        return xi

    def restart_lane(self, i: int, position: np.ndarray,
                     gen: Optional[np.random.Generator] = None) -> None:
        """Reset a lane's position (and optionally its stream); step count kept."""
        self.x[i] = position
        if gen is not None:
            self.noise.reset_lane(i, gen)
