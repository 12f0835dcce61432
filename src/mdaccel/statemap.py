"""Assign configurations to metastable states and detect exit events.

Supports basin-of-attraction states (label = minimum reached by gradient
descent), core-set states (state = complement of the other core sets) and
explicit regions (intervals / rectangles).  Classification runs every
step during exit detection, so first-exit records are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .potentials import (CriticalPoint, PotentialSurface, StateGeometry,
                         find_critical_points, newton_polish)

__all__ = [
    "OUTSIDE",
    "BASIN",
    "CORE_SET",
    "EXPLICIT_REGION",
    "StateDefinition",
    "ExitEvent",
    "MinimaRegistry",
    "ClassificationTimeoutError",
    "classify",
    "make_labeler",
    "exit_mask",
    "attribute_exit_region",
]

OUTSIDE = -1

BASIN = "basin-of-attraction"
CORE_SET = "core-set"
EXPLICIT_REGION = "explicit-region"
_KINDS = (BASIN, CORE_SET, EXPLICIT_REGION)


class ClassificationTimeoutError(Exception):
    """Gradient descent exceeded its iteration budget."""


@dataclass
class MinimaRegistry:
    """Append-only registry of discovered minima; labels are insertion order.

    Discovering minima in any order yields the same position set (labels may
    permute); points within ``merge_tol`` of a registered minimum reuse its
    label.
    """

    merge_tol: float = 1e-5
    positions: list[np.ndarray] = field(default_factory=list)

    def register(self, position: np.ndarray) -> int:
        position = np.atleast_1d(np.asarray(position, dtype=float))
        for i, p in enumerate(self.positions):
            if np.linalg.norm(p - position) < self.merge_tol:
                return i
        self.positions.append(position.copy())
        return len(self.positions) - 1


@dataclass
class StateDefinition:
    """How configurations map to state labels.

    ``regions`` is used by the core-set and explicit-region kinds: a list of
    open intervals ``(lo, hi)`` in 1d or boxes ``((xlo, xhi), (ylo, yhi))``
    in 2d, all of one dimension, nonempty (lo < hi on every axis) and
    disjoint (regions that only touch, such as (-1, 0) and (0, 1), are
    allowed; empty or overlapping ones raise ValueError).
    ``scan_box``/``scan_grid`` let the basin kind precompile its 1d basin
    boundaries from a critical-point scan.
    """

    kind: str = BASIN
    regions: Sequence = ()
    scan_box: Optional[Sequence[tuple[float, float]]] = None
    scan_grid: int = 200
    descent_tol: float = 1e-8
    descent_max_iter: int = 20000

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown state kind %r" % self.kind)
        if self.kind in (CORE_SET, EXPLICIT_REGION) and not len(self.regions):
            raise ValueError("%s definitions need regions" % self.kind)
        bounds = [np.asarray(r, dtype=float).reshape(-1, 2) for r in self.regions]
        if len({b.shape for b in bounds}) > 1:
            raise ValueError("regions must all have the same dimension")
        for i, b in enumerate(bounds):
            if np.any(b[:, 0] >= b[:, 1]):
                raise ValueError("region %d is empty: lo >= hi" % i)
            for k in range(i):
                if np.all(np.maximum(b[:, 0], bounds[k][:, 0])
                          < np.minimum(b[:, 1], bounds[k][:, 1])):
                    raise ValueError("regions %d and %d overlap" % (k, i))


def _region_contains(region, x: np.ndarray) -> np.ndarray:
    """Vectorized membership of points (n, d) in one region."""
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:  # 1d interval
        return (x[:, 0] > region[0]) & (x[:, 0] < region[1])
    inside = np.ones(x.shape[0], dtype=bool)
    for j in range(region.shape[0]):
        inside &= (x[:, j] > region[j, 0]) & (x[:, j] < region[j, 1])
    return inside


_DESCENT_MAX_MOVE = 0.05  # cap |dx| so the path tracks the gradient flow
                          # instead of line-search hopping across saddles


def _descend(surface: PotentialSurface, x0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Gradient descent with backtracking; robust near saddles."""
    x = np.array(x0, dtype=float)
    v = float(surface.energy(x))
    a = 0.05
    for _ in range(max_iter):
        g = surface.grad(x)
        gn2 = float(np.dot(g, g))
        gn = np.sqrt(gn2)
        if gn < tol:
            return x
        a = min(a, _DESCENT_MAX_MOVE / gn)
        while a > 1e-14:
            xt = x - a * g
            vt = float(surface.energy(xt))
            if vt <= v - 1e-4 * a * gn2:
                break
            a *= 0.5
        else:
            # no certifiable decrease left: the energy landscape is flat to
            # round-off around x, so x is the minimum to working precision
            return x
        if np.array_equal(xt, x):
            # step size underflowed the floating-point spacing at x
            return x
        x, v = xt, vt
        a = min(a * 1.5, 1.0)
    raise ClassificationTimeoutError("descent did not converge in %d iterations" % max_iter)


def classify(position, surface: PotentialSurface, definition: StateDefinition,
             registry: Optional[MinimaRegistry] = None) -> int:
    """State label of a single configuration.

    Basin kind: follow -grad V to a minimum and return its registry label
    (the registry grows on discovery).  Core-set / explicit kinds: label of
    the containing region, or OUTSIDE.
    """
    x = np.atleast_1d(np.asarray(position, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("position must be finite")
    if definition.kind in (CORE_SET, EXPLICIT_REGION):
        pt = x[None, :]
        for i, region in enumerate(definition.regions):
            if _region_contains(region, pt)[0]:
                return i
        return OUTSIDE
    if registry is None:
        raise ValueError("basin classification needs a MinimaRegistry")
    xm = _descend(surface, x, definition.descent_tol, definition.descent_max_iter)
    xm = newton_polish(surface, xm)
    return registry.register(xm)


def _cell_labeler(edges: Sequence[np.ndarray],
                  table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Labeler of cells: x gets table[c_0, c_1, ...] with x[:, j] in
    (edges[j][c_j - 1], edges[j][c_j]]."""

    def labeler(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            x = np.atleast_2d(x)
        return table[tuple(e.searchsorted(x[:, j]) for j, e in enumerate(edges))]

    return labeler


def _region_labeler(regions: Sequence) -> Callable[[np.ndarray], np.ndarray]:
    """Cell-table labeler for disjoint core-set / explicit regions, compiled once.

    Each axis is cut at every region's lo and at hi', the float just below
    hi, so lo < x < hi is x in (lo, hi'] and every region is a block of
    whole cells of one label table.
    """
    box = np.array([np.asarray(r, dtype=float).reshape(-1, 2) for r in regions])
    lo, hi = box[..., 0], np.nextafter(box[..., 1], -np.inf)
    edges = [np.unique(np.concatenate((lo[:, j], hi[:, j]))) for j in range(box.shape[1])]
    table = np.full([e.size + 1 for e in edges], OUTSIDE, dtype=np.int64)
    for r in range(len(box)):
        table[tuple(slice(e.searchsorted(lo[r, j]) + 1, e.searchsorted(hi[r, j]) + 1)
                    for j, e in enumerate(edges))] = r
    return _cell_labeler(edges, table)


def make_labeler(surface: PotentialSurface, definition: StateDefinition,
                 registry: Optional[MinimaRegistry] = None,
                 critical_points: Optional[Sequence[CriticalPoint]] = None,
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized labeler X (n, d) -> labels (n,).

    For 1d basin definitions with a ``scan_box`` the basin boundaries are
    compiled once from a saddle scan (a 1d basin is exactly the interval
    between adjacent saddles), which keeps per-step classification cheap.
    ``critical_points`` passes in that scan when the caller has already
    run it over the same box and grid.  Other basin cases fall back to
    per-point descent.
    """
    if definition.kind in (CORE_SET, EXPLICIT_REGION):
        return _region_labeler(definition.regions)

    if registry is None:
        raise ValueError("basin labeling needs a MinimaRegistry")

    if surface.dim == 1 and definition.scan_box is not None:
        pts = critical_points
        if pts is None:
            pts = find_critical_points(surface, list(definition.scan_box),
                                       grid=definition.scan_grid)
        saddles = np.array(sorted(p.position[0] for p in pts if p.kind == "saddle-1"))
        minima = sorted((p.position[0] for p in pts if p.kind == "min"))
        # one label per inter-saddle cell, in discovery (left-to-right) order
        cell_labels = []
        edges = np.concatenate(([-np.inf], saddles, [np.inf]))
        for lo, hi in zip(edges[:-1], edges[1:]):
            inside = [m for m in minima if lo < m < hi]
            if inside:
                cell_labels.append(registry.register(np.array([inside[0]])))
            else:
                cell_labels.append(OUTSIDE)
        return _cell_labeler([saddles], np.array(cell_labels, dtype=np.int64))

    def labeler(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([classify(row, surface, definition, registry) for row in x],
                        dtype=np.int64)

    return labeler


def exit_mask(labels: np.ndarray, state: int, definition: StateDefinition) -> np.ndarray:
    """Boolean mask of lanes that have left ``state``, honoring the core-set
    rule that the region outside every core set still belongs to the state."""
    out = labels != state
    if definition.kind == CORE_SET:
        out &= labels != OUTSIDE
    return out


@dataclass
class ExitEvent:
    """First exit record: (T_S, exit point, exit-region label, step count)."""

    exit_time: float
    exit_point: np.ndarray
    region_label: int
    first_exit_step: int

    def __post_init__(self):
        self.exit_point = np.atleast_1d(np.asarray(self.exit_point, dtype=float))


def attribute_exit_region(exit_point: np.ndarray, new_label: int,
                          geometry: Optional[StateGeometry]) -> int:
    """Exit-region index: nearest boundary minimum if a geometry is known,
    otherwise the label of the state entered."""
    if geometry is not None and geometry.boundary_minima:
        return geometry.nearest_region(exit_point)
    return new_label
