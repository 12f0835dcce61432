"""Parallel trajectory splicing: segment production, a per-state FIFO
segment database, and the splicer.

Segments run from one quasi-stationary start to the first time the walker
has spent at least tau_corr in some (possibly the same) state.  FIFO order
is by generation index assigned when production *starts*, not when it
finishes -- consuming segments in completion order would favor short
segments and bias residence times downward (the shortest-first mode exists
only as a negative control).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from .kmc import StateToStateTrajectory
from .potentials import PotentialSurface
from .statemap import OUTSIDE, StateDefinition, make_labeler

__all__ = [
    "Segment",
    "SegmentDatabase",
    "StarvationError",
    "produce_segments",
    "splice",
    "frequency_predictor",
    "schedule_production",
]


class StarvationError(Exception):
    """The splicer needs a segment for a state with an empty queue."""

    def __init__(self, state: int):
        super().__init__("no segment available for state %d" % state)
        self.state = state


@dataclass(frozen=True)
class Segment:
    start_state: int
    end_state: int
    duration: float
    path_summary: tuple  # ((state, residence), ...)
    generation_index: int

    def __post_init__(self):
        if abs(sum(r for _, r in self.path_summary) - self.duration) > 1e-9 * max(1.0, self.duration):
            raise ValueError("path residences must sum to the duration")


class SegmentDatabase:
    """Per-start-state priority queues of segments.

    ``reserve_generation`` hands out the monotone production-start counter;
    ``pop`` consumes in generation order ("fifo") or, as a negative
    control, by ascending duration ("shortest-first").
    """

    def __init__(self):
        self._queues: dict[int, list] = {}
        self._next_generation = 0

    def reserve_generation(self) -> int:
        g = self._next_generation
        self._next_generation += 1
        return g

    def add(self, segment: Segment) -> None:
        q = self._queues.setdefault(segment.start_state, [])
        heapq.heappush(q, (segment.generation_index, segment))
        if segment.generation_index >= self._next_generation:
            self._next_generation = segment.generation_index + 1

    def size(self, state: int) -> int:
        return len(self._queues.get(state, []))

    def pop(self, state: int, order: str = "fifo") -> Segment:
        q = self._queues.get(state)
        if not q:
            raise StarvationError(state)
        if order == "fifo":
            return heapq.heappop(q)[1]
        if order == "shortest-first":
            i = min(range(len(q)), key=lambda k: q[k][1].duration)
            entry = q.pop(i)
            heapq.heapify(q)
            return entry[1]
        raise ValueError("order must be 'fifo' or 'shortest-first'")

    def dump(self) -> str:
        """Line-delimited records: gen start end duration s1 r1 s2 r2 ..."""
        lines = []
        for state in sorted(self._queues):
            for _, seg in sorted(self._queues[state]):
                flat = " ".join("%d %r" % (s, r) for s, r in seg.path_summary)
                lines.append("%d %d %d %r %s" % (seg.generation_index, seg.start_state,
                                                 seg.end_state, seg.duration, flat))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def load(cls, text: str) -> "SegmentDatabase":
        db = cls()
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4 or len(parts) % 2 != 0:
                raise ValueError("line %d: malformed segment record" % ln)
            gen, start, end = int(parts[0]), int(parts[1]), int(parts[2])
            duration = float(parts[3])
            path = tuple((int(parts[i]), float(parts[i + 1]))
                         for i in range(4, len(parts), 2))
            db.add(Segment(start, end, duration, path, gen))
        return db


def produce_segments(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    start_state: int,
    starts: np.ndarray,
    tau_corr: float,
    generation_indices: Sequence[int],
    master_seed: int,
    labeler: Optional[Callable] = None,
    seed_namespace: int = 0,
    max_steps: int = 200_000_000,
) -> list[Segment]:
    """Produce one segment per row of ``starts`` (quasi-stationary samples).

    Segment g draws from the stream (master_seed, seed_namespace, g), so a
    segment's trajectory depends only on its generation index, not on which
    producer ran it or how many ran at once.
    """
    if tau_corr <= 0:
        raise ValueError("tau_corr must be positive")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if len(generation_indices) != starts.shape[0]:
        raise ValueError("one generation index per start sample")
    if labeler is None:
        labeler = make_labeler(surface, definition)
    ignore_outside = definition.kind == "core-set"
    n_tau = max(int(round(tau_corr / params.dt)), 1)
    L = starts.shape[0]

    gens = [substream(master_seed, seed_namespace, int(g)) for g in generation_indices]
    batch = OverdampedBatch(surface, params, starts, gens)
    cur = np.full(L, start_state, dtype=np.int64)
    res = np.zeros(L, dtype=np.int64)
    paths: list[list] = [[] for _ in range(L)]
    segments: list[Optional[Segment]] = [None] * L
    idx = np.arange(L)  # lanes still producing
    k = 0  # every producing lane has taken k steps

    while idx.size:
        lab = labeler(batch.step(idx))
        k += 1
        if k > max_steps:
            raise BudgetExhaustedError("segment production", "%d steps per segment" % max_steps)
        c = cur[idx]
        if ignore_outside:
            lab = np.where(lab == OUTSIDE, c, lab)
        res[idx] += 1
        changed = lab != c
        if changed.any():
            for j, new in zip(idx[changed], lab[changed]):
                paths[j].append((int(cur[j]), (res[j] - 1) * params.dt))
                cur[j] = new
                res[j] = 1
        finished = res[idx] >= n_tau
        if finished.any():
            for j in idx[finished]:
                paths[j].append((int(cur[j]), res[j] * params.dt))
                segments[j] = Segment(start_state, int(cur[j]), batch.steps[j] * params.dt,
                                      tuple(paths[j]), int(generation_indices[j]))
            idx = idx[~finished]
    return segments  # type: ignore[return-value]


def splice(db: SegmentDatabase, start_state: int, horizon: float,
           order: str = "fifo") -> StateToStateTrajectory:
    """Append matching segments until the clock reaches ``horizon``.

    Every junction joins a segment ending in state s to one starting in s;
    consecutive identical states across a junction are merged so residence
    times are whole sojourns.
    """
    traj = StateToStateTrajectory()
    state = start_state
    while traj.clock < horizon:
        seg = db.pop(state, order=order)
        if seg.start_state != state:
            raise ValueError("database returned a mismatched segment")
        for s, r in seg.path_summary:
            if traj.states and traj.states[-1] == s:
                traj.residences[-1] += r
            else:
                traj.states.append(s)
                traj.residences.append(r)
                traj.exit_regions.append(-1)
        state = seg.end_state
    return traj


def frequency_predictor(visited_states: Sequence[int]) -> dict[int, float]:
    """Add-one-smoothed empirical visit frequencies (the default heuristic)."""
    states, counts = np.unique(np.asarray(visited_states, dtype=np.int64),
                               return_counts=True)
    total = counts.sum() + counts.size
    return {int(s): float(c + 1) / total for s, c in zip(states, counts)}


def schedule_production(weights: dict[int, float], n_slots: int) -> dict[int, int]:
    """Allocate producer slots proportionally to predictor weights
    (largest-remainder rounding; every positive-weight state keeps >= 0)."""
    if n_slots < 0:
        raise ValueError("n_slots must be nonnegative")
    states = sorted(weights)
    w = np.array([max(weights[s], 0.0) for s in states], dtype=float)
    if w.sum() <= 0:
        raise ValueError("at least one positive weight required")
    quota = w / w.sum() * n_slots
    base = np.floor(quota).astype(int)
    rem = n_slots - base.sum()
    order = np.argsort(-(quota - base), kind="stable")
    for i in order[:rem]:
        base[i] += 1
    return {s: int(b) for s, b in zip(states, base)}
