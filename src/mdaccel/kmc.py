"""Continuous-time jump Markov process over a discrete state graph, and
the state-to-state trajectory type that every method writes.

Residence times are exponential with the total outgoing rate; the next
state is drawn independently with probability proportional to its rate.
Exponential sampling goes through the inverse CDF so that trajectories
are reproducible from the walker's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RateGraph",
    "StateToStateTrajectory",
    "AbsorbingStateError",
    "sample_exit",
    "run_kmc",
]


class AbsorbingStateError(Exception):
    """All outgoing rates are zero."""

    def __init__(self, state: int):
        super().__init__("state %d is absorbing" % state)
        self.state = state


@dataclass
class RateGraph:
    """Sparse rate map (i, j) -> k_ij >= 0; grown dynamically as states appear."""

    rates: dict[int, dict[int, float]] = field(default_factory=dict)

    def add_rate(self, i: int, j: int, k: float) -> None:
        if i == j:
            raise ValueError("self-rates are not allowed")
        if k < 0:
            raise ValueError("rates must be nonnegative")
        self.rates.setdefault(i, {})
        self.rates.setdefault(j, {})
        if k > 0:
            self.rates[i][j] = float(k)

    @property
    def states(self) -> set[int]:
        return set(self.rates)

    def neighbors(self, i: int) -> list[int]:
        return [j for j, k in self.rates.get(i, {}).items() if k > 0]

    def total_rate(self, i: int) -> float:
        return float(sum(self.rates.get(i, {}).values()))

    def to_edge_lines(self) -> str:
        """Plain-text edge list, one `i j k_ij` per line."""
        lines = []
        for i in sorted(self.rates):
            for j in sorted(self.rates[i]):
                lines.append("%d %d %r" % (i, j, self.rates[i][j]))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_edge_lines(cls, text: str) -> "RateGraph":
        g = cls()
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("line %d: expected `i j k_ij`" % ln)
            g.add_rate(int(parts[0]), int(parts[1]), float(parts[2]))
        return g


@dataclass
class StateToStateTrajectory:
    """Projection of a trajectory onto state labels: (state, residence time)
    per sojourn, the exit region of each, and per-event records.  The last
    residence is flagged infinite (``absorbed``) when a KMC run reached an
    absorbing state."""

    states: list[int] = field(default_factory=list)
    residences: list[float] = field(default_factory=list)
    exit_regions: list[int] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    absorbed: bool = False

    def append(self, state: int, residence: float, exit_region: int = -1) -> None:
        if residence <= 0:
            raise ValueError("residence times must be strictly positive")
        self.states.append(state)
        self.residences.append(residence)
        self.exit_regions.append(exit_region)

    @property
    def clock(self) -> float:
        return float(sum(self.residences))

    def state_at(self, t: float) -> int:
        """Right-continuous reconstruction Z_t."""
        acc = 0.0
        for s, r in zip(self.states, self.residences):
            acc += r
            if t < acc:
                return s
        return self.states[-1]

    def occupation_fractions(self) -> dict[int, float]:
        total = self.clock
        occ: dict[int, float] = {}
        for s, r in zip(self.states, self.residences):
            occ[s] = occ.get(s, 0.0) + r / total
        return occ


def sample_exit(graph: RateGraph, i: int, rng: np.random.Generator) -> tuple[float, int]:
    """One exit event from state ``i``: (residence time T, next state Y).

    T ~ Exp(sum_j k_ij) by inverse CDF, Y independent with P(Y=j)
    proportional to k_ij.
    """
    neighbors = graph.neighbors(i)
    ktot = graph.total_rate(i)
    if ktot <= 0 or not neighbors:
        raise AbsorbingStateError(i)
    t = -np.log1p(-rng.random()) / ktot
    ks = np.array([graph.rates[i][j] for j in neighbors])
    cum = np.cumsum(ks) / ktot
    idx = min(int(np.searchsorted(cum, rng.random(), side="right")), len(neighbors) - 1)
    y = neighbors[idx]
    return float(t), y


def run_kmc(graph: RateGraph, start: int, horizon: float,
            rng: np.random.Generator) -> StateToStateTrajectory:
    """Iterate exit events from ``start`` until total residence >= horizon.

    The final residence is truncated at the horizon.  Reaching an absorbing
    state ends the trajectory with ``absorbed=True`` (infinite residence).
    """
    if start not in graph.states:
        raise ValueError("start state %d not in graph" % start)
    traj = StateToStateTrajectory()
    state = start
    clock = 0.0
    while clock < horizon:
        try:
            t, nxt = sample_exit(graph, state, rng)
        except AbsorbingStateError:
            traj.append(state, max(horizon - clock, np.finfo(float).tiny))
            traj.absorbed = True
            return traj
        t = min(t, horizon - clock)
        traj.append(state, t)
        clock += t
        state = nxt
    return traj
