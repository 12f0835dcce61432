"""Independent ground-truth engines.

- Finite-difference solver for the two leading Dirichlet eigenpairs of
  the Fokker-Planck operator div(grad V . + beta^-1 grad .), on 1d
  intervals and 2d rectangles (tensor grids).
- Brute-force direct-simulation exit statistics, batched across events
  with one stream per event.
- Statistical test helpers (KS, chi-square, contingency independence).

scipy is imported inside the functions that use it, so that importing
the package (and ``mdaccel run``, which never needs scipy) stays cheap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from .potentials import PotentialSurface, StateGeometry
from .statemap import StateDefinition, attribute_exit_region, exit_mask, make_labeler

__all__ = [
    "SpectralSolution",
    "ExitStatistics",
    "SolverError",
    "TestInapplicableError",
    "DiscretizationWarning",
    "solve_ground_state",
    "exit_law_from_spectrum",
    "qsd_samples_from_solution",
    "direct_exit_statistics",
    "ks_test",
    "ks_two_sample",
    "chi_square",
    "contingency_independence",
    "fit_exponential_rate",
    "independence_table",
]


class SolverError(Exception):
    """Eigensolver failed; message carries the residual report."""


class TestInapplicableError(Exception):
    """A count-based test had an expected cell below the applicability floor."""


class DiscretizationWarning(UserWarning):
    """Discrete flux probabilities failed a consistency check."""


@dataclass
class SpectralSolution:
    """Leading Dirichlet eigenpairs of the Fokker-Planck operator on a box.

    ``u1`` lives on the full tensor grid (boundary nodes included, zero
    there) and is normalized to unit integral with the Riemann weight
    prod(h).
    """

    lambda1: float
    lambda2: float
    u1: np.ndarray
    axes: list[np.ndarray]
    h: float
    beta: float

    @property
    def cell_volume(self) -> float:
        return self.h ** len(self.axes)


def _grid_1d(lo: float, hi: float, h: float) -> np.ndarray:
    n = (hi - lo) / h
    if abs(n - round(n)) > 1e-9:
        raise ValueError("h must divide the region length")
    return np.linspace(lo, hi, int(round(n)) + 1)


def _solve_1d(surface: PotentialSurface, lo: float, hi: float,
              beta: float, h: float) -> SpectralSolution:
    x = _grid_1d(lo, hi, h)
    n = x.size - 1
    V = surface.energy(x[:, None])
    Vmid = surface.energy(0.5 * (x[:-1] + x[1:])[:, None])

    # symmetrized operator on w = e^{beta V / 2} u: S w = -lambda w
    # (exponents stay O(h^2 * beta * V''), so no overflow for steep V)
    off = np.exp(beta * (0.5 * (V[1:-2] + V[2:-1]) - Vmid[1:-1])) / (beta * h * h)
    diag = -(np.exp(beta * (V[1:-1] - Vmid[:-1])) +
             np.exp(beta * (V[1:-1] - Vmid[1:]))) / (beta * h * h)
    m = n - 1
    import scipy.linalg

    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(m - 2, m - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SolverError("tridiagonal eigensolve failed: %s" % exc) from exc
    lam1, lam2 = -vals[1], -vals[0]

    w1 = vecs[:, 1]
    u1 = np.zeros(n + 1)
    u1[1:-1] = np.exp(-0.5 * beta * (V[1:-1] - V[1:-1].min())) * w1
    if u1.sum() < 0:
        u1 = -u1
    u1 /= h * u1.sum()
    return SpectralSolution(float(lam1), float(lam2), u1, [x], h, beta)


def _solve_2d(surface: PotentialSurface, box, beta: float, h: float) -> SpectralSolution:
    (ax, bx), (ay, by) = box
    xs, ys = _grid_1d(ax, bx, h), _grid_1d(ay, by, h)
    nx, ny = xs.size - 1, ys.size - 1
    mx, my = nx - 1, ny - 1

    X, Y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    V = surface.energy(pts).reshape(mx, my)
    V0 = V.min()

    def edge_weight(p, q):
        mid = 0.5 * (p + q)
        Vm = surface.energy(mid)
        Vp, Vq = surface.energy(p), surface.energy(q)
        return np.exp(beta * (0.5 * (Vp + Vq) - Vm)) / (beta * h * h)

    idx = np.arange(mx * my).reshape(mx, my)
    rows, cols, vals = [], [], []
    diag = np.zeros(mx * my)

    # interior-interior edges (boundary edges only feed the diagonal)
    for axis in range(2):
        if axis == 0:
            p = pts.reshape(mx, my, 2)[:-1].reshape(-1, 2)
            q = pts.reshape(mx, my, 2)[1:].reshape(-1, 2)
            a, b = idx[:-1].ravel(), idx[1:].ravel()
        else:
            p = pts.reshape(mx, my, 2)[:, :-1].reshape(-1, 2)
            q = pts.reshape(mx, my, 2)[:, 1:].reshape(-1, 2)
            a, b = idx[:, :-1].ravel(), idx[:, 1:].ravel()
        w = edge_weight(p, q)
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([w, w])
        np.add.at(diag, a, -w)
        np.add.at(diag, b, -w)

    # edges from interior nodes to the Dirichlet boundary
    grid_pts = pts.reshape(mx, my, 2)
    for side_pts, inner in [
        (np.stack([np.full(my, xs[0]), ys[1:-1]], -1), idx[0]),
        (np.stack([np.full(my, xs[-1]), ys[1:-1]], -1), idx[-1]),
        (np.stack([xs[1:-1], np.full(mx, ys[0])], -1), idx[:, 0]),
        (np.stack([xs[1:-1], np.full(mx, ys[-1])], -1), idx[:, -1]),
    ]:
        inner_pts = grid_pts.reshape(-1, 2)[inner]
        w = edge_weight(inner_pts, side_pts)
        np.add.at(diag, inner, -w)

    import scipy.sparse
    import scipy.sparse.linalg

    S = scipy.sparse.coo_matrix(
        (np.concatenate(vals + [diag]),
         (np.concatenate(rows + [np.arange(mx * my)]),
          np.concatenate(cols + [np.arange(mx * my)]))),
        shape=(mx * my, mx * my)).tocsc()
    try:
        vals_, vecs = scipy.sparse.linalg.eigsh(S, k=2, sigma=0.0, which="LM")
    except Exception as exc:
        raise SolverError("sparse eigensolve failed: %s" % exc) from exc
    order = np.argsort(-vals_)  # closest to zero first
    lam1, lam2 = -vals_[order[0]], -vals_[order[1]]

    w1 = vecs[:, order[0]].reshape(mx, my)
    u1 = np.zeros((nx + 1, ny + 1))
    u1[1:-1, 1:-1] = np.exp(-0.5 * beta * (V - V0)) * w1
    if u1.sum() < 0:
        u1 = -u1
    u1 /= h * h * u1.sum()
    return SpectralSolution(float(lam1), float(lam2), u1, [xs, ys], h, beta)


def solve_ground_state(surface: PotentialSurface, region, beta: float,
                       h: float) -> SpectralSolution:
    """Two smallest Dirichlet eigenpairs of L* on a 1d interval or 2d rectangle.

    ``region`` is ``(lo, hi)`` in 1d or ``((ax, bx), (ay, by))`` in 2d;
    ``h`` must divide each side.
    """
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:
        if surface.dim != 1:
            raise ValueError("1d region on a %dd surface" % surface.dim)
        sol = _solve_1d(surface, region[0], region[1], beta, h)
    elif region.ndim == 2 and surface.dim == 2:
        sol = _solve_2d(surface, region, beta, h)
    else:
        raise ValueError("region must be a 1d interval or 2d rectangle")
    if not (0 < sol.lambda1 < sol.lambda2):
        raise SolverError("eigenvalue ordering violated: lambda1=%g lambda2=%g"
                          % (sol.lambda1, sol.lambda2))
    return sol


def _one_sided_normal_derivative_1d(u: np.ndarray, h: float, side: str) -> float:
    # second-order one-sided difference at a Dirichlet node (u = 0 there)
    if side == "left":
        du = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        return -du  # outward normal is -x
    du = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return du


def exit_law_from_spectrum(solution: SpectralSolution,
                           exit_regions: Optional[Sequence] = None,
                           sum_tol: float = 1e-6) -> tuple[float, np.ndarray]:
    """(lambda1, per-region exit probabilities) from boundary flux of u1.

    1d regions are the strings "left" / "right" (default both); 2d regions
    are among "x_min", "x_max", "y_min", "y_max".  Probabilities that fail
    to sum to 1 within ``sum_tol`` raise a DiscretizationWarning.
    """
    u, h, beta, lam = solution.u1, solution.h, solution.beta, solution.lambda1
    if len(solution.axes) == 1:
        regions = list(exit_regions) if exit_regions is not None else ["left", "right"]
        probs = np.array([
            -_one_sided_normal_derivative_1d(u, h, side) / (beta * lam)
            for side in regions
        ])
    else:
        regions = list(exit_regions) if exit_regions is not None else \
            ["x_min", "x_max", "y_min", "y_max"]
        flux = {}
        # one-sided normal derivative along each boundary edge, integrated
        # with the trapezoid weight h
        flux["x_min"] = -np.trapezoid((-3 * u[0] + 4 * u[1] - u[2]) / (2 * h) * -1.0, dx=h)
        flux["x_max"] = -np.trapezoid((3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h), dx=h)
        flux["y_min"] = -np.trapezoid((-3 * u[:, 0] + 4 * u[:, 1] - u[:, 2]) / (2 * h) * -1.0, dx=h)
        flux["y_max"] = -np.trapezoid((3 * u[:, -1] - 4 * u[:, -2] + u[:, -3]) / (2 * h), dx=h)
        probs = np.array([flux[r] / (beta * lam) for r in regions])
    total = probs.sum()
    if abs(total - 1.0) > sum_tol:
        warnings.warn("exit probabilities sum to %.3e (off by %.1e)"
                      % (total, abs(total - 1.0)), DiscretizationWarning)
    return lam, probs


def qsd_samples_from_solution(solution: SpectralSolution, n: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF samples (n, 1) from a 1d spectral QSD."""
    if len(solution.axes) != 1:
        raise ValueError("inverse-CDF sampling is 1d only")
    x, u = solution.axes[0], solution.u1
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * solution.h)))
    cdf /= cdf[-1]
    # strictly increasing in the interior; interp handles the flat ends
    return np.interp(rng.random(n), cdf, x)[:, None]


# ---------------------------------------------------------------------------
# direct simulation


@dataclass
class ExitStatistics:
    """Brute-force first-exit samples from a state."""

    exit_times: np.ndarray
    exit_points: np.ndarray
    region_labels: np.ndarray

    @property
    def n_events(self) -> int:
        return self.exit_times.size

    def region_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.region_labels, return_counts=True)
        return {int(l): int(c) for l, c in zip(labels, counts)}

    def region_probs(self) -> dict[int, float]:
        return {l: c / self.n_events for l, c in self.region_counts().items()}


def direct_exit_statistics(
    surface: PotentialSurface,
    params: DynamicsParams,
    definition: StateDefinition,
    state: int,
    init: np.ndarray,
    n_events: int,
    master_seed: int,
    geometry: Optional[StateGeometry] = None,
    labeler: Optional[Callable] = None,
    max_steps: int = 200_000_000,
    lanes: int = 256,
    seed_namespace: int = 0,
) -> ExitStatistics:
    """``n_events`` independent first-exit events by plain stepping.

    ``init`` is one point (d,) or an array (m, d) of start points cycled
    event by event (e.g. dephased QSD samples).  Event ``e`` draws from the
    stream ``(master_seed, seed_namespace, e)`` regardless of lane packing,
    so results are reproducible and scheduling independent.  A lane whose
    event exits starts the next queued event; ``max_steps`` caps the
    lane-steps of the whole call.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if labeler is None:
        labeler = make_labeler(surface, definition)
    dt = params.dt

    width = int(min(lanes, n_events))
    event_of_lane = np.arange(width)
    next_event = width
    gens = [substream(master_seed, seed_namespace, e) for e in range(width)]
    batch = OverdampedBatch(surface, params,
                            init[np.arange(width) % init.shape[0]], gens)
    began = np.zeros(width, dtype=np.int64)  # batch.steps when the lane's event began
    running = np.arange(width)
    idx = None  # every lane runs until the event queue is empty
    budget = max_steps
    count_nonzero = np.count_nonzero  # a fifth of ndarray.any()'s cost on few lanes

    times = np.empty(n_events)
    points = np.empty((n_events, surface.dim))
    labels = np.empty(n_events, dtype=np.int64)
    done = 0

    while done < n_events:
        xi = batch.step(idx)
        lab = labeler(xi)
        budget -= running.size
        if budget < 0:
            raise BudgetExhaustedError("direct simulation", "%d lane-steps" % max_steps)
        exited = exit_mask(lab, state, definition)
        if not count_nonzero(exited):
            continue
        for p in np.flatnonzero(exited):
            lane = running[p]
            e = event_of_lane[lane]
            times[e] = (batch.steps[lane] - began[lane]) * dt
            points[e] = xi[p]
            labels[e] = attribute_exit_region(xi[p], int(lab[p]), geometry)
            done += 1
            if next_event < n_events:
                event_of_lane[lane] = next_event
                began[lane] = batch.steps[lane]
                batch.restart_lane(lane, init[next_event % init.shape[0]],
                                   substream(master_seed, seed_namespace, next_event))
                next_event += 1
            else:
                event_of_lane[lane] = -1
        if next_event == n_events:
            running = np.flatnonzero(event_of_lane >= 0)
            idx = running
    return ExitStatistics(times, points, labels)


# ---------------------------------------------------------------------------
# statistics


_MIN_EXPECTED = 5.0


def ks_test(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov p-value against a fully specified CDF."""
    import scipy.stats

    return float(scipy.stats.kstest(np.asarray(samples, dtype=float), cdf).pvalue)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    import scipy.stats

    return float(scipy.stats.ks_2samp(a, b).pvalue)


def chi_square(counts: Sequence[float], expected: Sequence[float]) -> float:
    """Chi-square goodness-of-fit p-value; expected counts are rescaled to
    the observed total.  Cells expecting < 5 make the test inapplicable."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    expected = expected * counts.sum() / expected.sum()
    if np.any(expected < _MIN_EXPECTED):
        raise TestInapplicableError("expected count below %g" % _MIN_EXPECTED)
    if np.allclose(counts, expected):
        return 1.0
    import scipy.stats

    return float(scipy.stats.chisquare(counts, expected).pvalue)


def contingency_independence(table: np.ndarray) -> float:
    """Chi-square independence p-value for a contingency table."""
    import scipy.stats

    table = np.asarray(table, dtype=float)
    res = scipy.stats.chi2_contingency(table)
    if np.any(res.expected_freq < _MIN_EXPECTED):
        raise TestInapplicableError("expected cell count below %g" % _MIN_EXPECTED)
    return float(res.pvalue)


def fit_exponential_rate(samples: np.ndarray) -> float:
    """Maximum-likelihood exponential rate 1/mean."""
    m = float(np.mean(samples))
    if m <= 0:
        raise ValueError("samples must have positive mean")
    return 1.0 / m


def independence_table(times: np.ndarray, labels: np.ndarray,
                       n_time_bins: int = 4) -> np.ndarray:
    """Contingency table of exit-time quantile bins x categorical labels."""
    times = np.asarray(times, dtype=float)
    labels = np.asarray(labels)
    qs = np.quantile(times, np.linspace(0, 1, n_time_bins + 1)[1:-1])
    tbin = np.searchsorted(qs, times)
    cats = np.unique(labels)
    table = np.zeros((n_time_bins, cats.size), dtype=int)
    for i, c in enumerate(cats):
        table[:, i] = np.bincount(tbin[labels == c], minlength=n_time_bins)
    return table
