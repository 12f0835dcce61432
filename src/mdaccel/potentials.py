"""Analytic model potential-energy surfaces with exact gradients and Hessians.

All surfaces evaluate vectorized: positions are arrays of shape (d,) or
(n, d).  Hessians are analytic (finite differences are reserved for test
oracles), since harmonic prefactors need accurate determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "PotentialSurface",
    "StateGeometry",
    "BiasPotential",
    "CriticalPoint",
    "DegenerateHessianError",
    "make_double_well_1d",
    "make_triple_well_1d",
    "make_muller_brown_2d",
    "make_entropic_channel_2d",
    "make_quadratic_bowl",
    "make_flat",
    "make_tilted_1d",
    "make_bump_bias",
    "biased_surface",
    "find_critical_points",
    "newton_polish",
    "interval_state_geometry",
    "basin_geometry_1d",
    "SURFACE_FACTORIES",
]


class DegenerateHessianError(Exception):
    """Hessian signature cannot be trusted (eigenvalue below tolerance)."""


@dataclass(frozen=True)
class PotentialSurface:
    """An analytic potential with exact first and second derivatives.

    ``energy`` maps (..., d) -> (...), ``grad`` maps (..., d) -> (..., d),
    ``hess`` maps a single point (d,) -> (d, d).  Evaluation is pure and
    reentrant, so surfaces are safe to share between concurrent walkers.
    """

    name: str
    dim: int
    energy: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.energy(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class BiasPotential:
    """Conservative bias that vanishes identically near the state boundary.

    ``support_margin`` is the distance from the state boundary inside which
    the bias is exactly zero.
    """

    name: str
    dim: int
    energy: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    support_margin: float


@dataclass
class StateGeometry:
    """Named geometry of one metastable state.

    ``boundary_minima`` are ordered by increasing energy; ``n_deg`` counts
    how many of them tie with the lowest one (up to ``deg_tol``).
    """

    interior_min: np.ndarray
    boundary_minima: list[np.ndarray]
    normals: list[np.ndarray] = field(default_factory=list)
    deg_tol: float = 1e-9

    def __post_init__(self):
        self.interior_min = np.atleast_1d(np.asarray(self.interior_min, dtype=float))
        self.boundary_minima = [
            np.atleast_1d(np.asarray(z, dtype=float)) for z in self.boundary_minima
        ]
        self.normals = [np.atleast_1d(np.asarray(n, dtype=float)) for n in self.normals]

    def sort_by_energy(self, surface: PotentialSurface) -> None:
        vals = [float(surface.energy(z)) for z in self.boundary_minima]
        order = np.argsort(vals, kind="stable")
        self.boundary_minima = [self.boundary_minima[i] for i in order]
        if self.normals:
            self.normals = [self.normals[i] for i in order]

    def n_deg(self, surface: PotentialSurface) -> int:
        vals = np.array([float(surface.energy(z)) for z in self.boundary_minima])
        return int(np.sum(vals <= vals.min() + self.deg_tol))

    def nearest_region(self, point: np.ndarray) -> int:
        """Index of the boundary minimum closest to ``point`` (exit attribution)."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        d2 = [float(np.sum((point - z) ** 2)) for z in self.boundary_minima]
        return int(np.argmin(d2))


def _shaped(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise ValueError("scalar position on a %dd surface" % dim)
        x = x.reshape(1)
    if x.shape[-1] != dim:
        raise ValueError("position has last axis %d, surface dim is %d" % (x.shape[-1], dim))
    return x


# ---------------------------------------------------------------------------
# built-in surfaces


def make_double_well_1d(scale: float = 1.0) -> PotentialSurface:
    """V(x) = scale * (x^2 - 1)^2: minima at +-1, saddle at 0."""
    c = float(scale)

    def energy(x):
        x = _shaped(x, 1)
        return c * (x[..., 0] ** 2 - 1.0) ** 2

    def grad(x):
        x = _shaped(x, 1)
        g = np.empty_like(x)
        g[..., 0] = 4.0 * c * x[..., 0] * (x[..., 0] ** 2 - 1.0)
        return g

    def hess(x):
        x = _shaped(x, 1)
        return np.array([[4.0 * c * (3.0 * x[0] ** 2 - 1.0)]])

    return PotentialSurface("double_well_1d", 1, energy, grad, hess)


def make_triple_well_1d(scale: float = 6.75, tilt: float = 0.25) -> PotentialSurface:
    """V(x) = scale * x^2 (x^2 - 1)^2 + tilt * x.

    Three minima near -1, 0, +1 separated by two saddles near +-1/sqrt(3);
    a nonzero tilt makes the two saddle heights differ.
    """
    c = float(scale)
    a = float(tilt)

    def energy(x):
        x = _shaped(x, 1)
        u = x[..., 0]
        return c * u ** 2 * (u ** 2 - 1.0) ** 2 + a * u

    def grad(x):
        x = _shaped(x, 1)
        u = x[..., 0]
        g = np.empty_like(x)
        g[..., 0] = c * (6.0 * u ** 5 - 8.0 * u ** 3 + 2.0 * u) + a
        return g

    def hess(x):
        u = _shaped(x, 1)[0]
        return np.array([[c * (30.0 * u ** 4 - 24.0 * u ** 2 + 2.0)]])

    return PotentialSurface("triple_well_1d", 1, energy, grad, hess)


_MB_A = np.array([-200.0, -100.0, -170.0, 15.0])
_MB_a = np.array([-1.0, -1.0, -6.5, 0.7])
_MB_b = np.array([0.0, 0.0, 11.0, 0.6])
_MB_c = np.array([-10.0, -10.0, -6.5, 0.7])
_MB_x0 = np.array([1.0, 0.0, -0.5, -1.0])
_MB_y0 = np.array([0.0, 0.5, 1.5, 1.0])

#: Literature starting points for the three minima of the Muller-Brown surface.
MULLER_BROWN_MINIMA_GUESS = [
    (-0.558, 1.442),
    (0.623, 0.028),
    (-0.050, 0.467),
]


def make_muller_brown_2d(scale: float = 1.0) -> PotentialSurface:
    """The four-Gaussian Muller-Brown surface (optionally rescaled)."""
    s = float(scale)

    def _terms(x):
        dx = x[..., 0, None] - _MB_x0
        dy = x[..., 1, None] - _MB_y0
        e = _MB_A * np.exp(_MB_a * dx ** 2 + _MB_b * dx * dy + _MB_c * dy ** 2)
        return dx, dy, e

    def energy(x):
        x = _shaped(x, 2)
        _, _, e = _terms(x)
        return s * np.sum(e, axis=-1)

    def grad(x):
        x = _shaped(x, 2)
        dx, dy, e = _terms(x)
        g = np.empty_like(x)
        g[..., 0] = s * np.sum(e * (2.0 * _MB_a * dx + _MB_b * dy), axis=-1)
        g[..., 1] = s * np.sum(e * (_MB_b * dx + 2.0 * _MB_c * dy), axis=-1)
        return g

    def hess(x):
        x = _shaped(x, 2)
        dx, dy, e = _terms(x)
        px = 2.0 * _MB_a * dx + _MB_b * dy
        py = _MB_b * dx + 2.0 * _MB_c * dy
        hxx = np.sum(e * (px ** 2 + 2.0 * _MB_a), axis=-1)
        hxy = np.sum(e * (px * py + _MB_b), axis=-1)
        hyy = np.sum(e * (py ** 2 + 2.0 * _MB_c), axis=-1)
        return s * np.array([[hxx, hxy], [hxy, hyy]], dtype=float)

    return PotentialSurface("muller_brown_2d", 2, energy, grad, hess)


def make_entropic_channel_2d(
    neck_half_width: float = 0.1,
    chamber_half_width: float = 1.0,
    neck_length: float = 0.5,
    x_extent: float = 3.0,
    wall: float = 50.0,
) -> PotentialSurface:
    """Flat potential inside a dumbbell-shaped channel, quadratic walls outside.

    V is exactly zero inside the channel (purely entropic barrier); the
    half-width narrows smoothly from ``chamber_half_width`` to
    ``neck_half_width`` around x = 0.
    """
    w0 = float(neck_half_width)
    w1 = float(chamber_half_width)
    xl = float(neck_length)
    L = float(x_extent)
    k = float(wall)

    def _width(u):
        # smootherstep ramp from w0 at |u| <= xl to w1 at |u| >= 2*xl
        t = np.clip((np.abs(u) - xl) / xl, 0.0, 1.0)
        s = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        return w0 + (w1 - w0) * s

    def _dwidth(u):
        t = np.clip((np.abs(u) - xl) / xl, 0.0, 1.0)
        ds = 30.0 * t * t * (t - 1.0) ** 2 / xl
        return (w1 - w0) * ds * np.sign(u)

    def energy(x):
        x = _shaped(x, 2)
        u, v = x[..., 0], x[..., 1]
        py = np.maximum(np.abs(v) - _width(u), 0.0)
        px = np.maximum(np.abs(u) - L, 0.0)
        return k * (py ** 2 + px ** 2)

    def grad(x):
        x = _shaped(x, 2)
        u, v = x[..., 0], x[..., 1]
        py = np.maximum(np.abs(v) - _width(u), 0.0)
        px = np.maximum(np.abs(u) - L, 0.0)
        g = np.empty_like(x)
        g[..., 0] = 2.0 * k * (px * np.sign(u) - py * _dwidth(u))
        g[..., 1] = 2.0 * k * py * np.sign(v)
        return g

    def hess(x):
        # piecewise C^1 potential: second derivatives from one-sided analytic
        # branches; exact away from the wall seams (a measure-zero set)
        x = _shaped(x, 2)
        h = 1e-6
        g0 = grad(x)
        hm = np.empty((2, 2))
        for j in range(2):
            xp = x.copy()
            xp[j] += h
            hm[:, j] = (grad(xp) - g0) / h
        return 0.5 * (hm + hm.T)

    return PotentialSurface("entropic_channel_2d", 2, energy, grad, hess)


def make_quadratic_bowl(dim: int = 1, curvature: float = 1.0) -> PotentialSurface:
    """V(x) = curvature * |x|^2 / 2."""
    c = float(curvature)

    def energy(x):
        x = _shaped(x, dim)
        return 0.5 * c * np.sum(x ** 2, axis=-1)

    def grad(x):
        return c * _shaped(x, dim)

    def hess(x):
        return c * np.eye(dim)

    return PotentialSurface("quadratic_bowl", dim, energy, grad, hess)


def make_flat(dim: int = 1) -> PotentialSurface:
    """V identically zero (pure diffusion)."""

    def energy(x):
        x = _shaped(x, dim)
        return np.zeros(x.shape[:-1])

    def grad(x):
        return np.zeros_like(_shaped(x, dim))

    def hess(x):
        return np.zeros((dim, dim))

    return PotentialSurface("flat", dim, energy, grad, hess)


def make_tilted_1d(slope: float = 1.0) -> PotentialSurface:
    """V(x) = slope * x."""
    c = float(slope)

    def energy(x):
        x = _shaped(x, 1)
        return c * x[..., 0]

    def grad(x):
        x = _shaped(x, 1)
        g = np.empty_like(x)
        g[..., 0] = c
        return g

    def hess(x):
        return np.zeros((1, 1))

    return PotentialSurface("tilted_1d", 1, energy, grad, hess)


def make_bump_bias(center, width: float, height: float, support_margin: float = 0.0) -> BiasPotential:
    """Smooth compact bump h * exp(1 - 1/(1 - r^2)), r = |x - center| / width.

    Identically zero for r >= 1, so it satisfies the boundary-vanishing
    requirement whenever the support stays ``support_margin`` away from the
    state boundary.
    """
    x0 = np.atleast_1d(np.asarray(center, dtype=float))
    w = float(width)
    h = float(height)
    dim = x0.size

    def _r2(x):
        return np.sum((x - x0) ** 2, axis=-1) / w ** 2

    def energy(x):
        x = _shaped(x, dim)
        r2 = _r2(x)
        out = np.zeros(r2.shape)
        inside = r2 < 1.0
        out[inside] = h * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    def grad(x):
        x = _shaped(x, dim)
        r2 = _r2(x)
        g = np.zeros_like(x)
        inside = r2 < 1.0
        if np.any(inside):
            f = h * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
            coef = -2.0 * f / ((1.0 - r2[inside]) ** 2 * w ** 2)
            g[inside] = coef[..., None] * (x[inside] - x0)
        return g

    def hess(x):
        x = _shaped(x, dim)
        r2 = float(_r2(x))
        if r2 >= 1.0:
            return np.zeros((dim, dim))
        f = h * np.exp(1.0 - 1.0 / (1.0 - r2))
        s = 1.0 - r2
        d = x - x0
        a = -2.0 / (s ** 2 * w ** 2)
        # grad = f * a * d ; d(f)/dx = f*a*d ; d(a)/dx = -8 d /(s^3 w^4)
        outer = np.outer(d, d)
        return f * (a * np.eye(dim) + (a * a) * outer - 8.0 * outer / (s ** 3 * w ** 4))

    return BiasPotential("bump_bias", dim, energy, grad, hess, float(support_margin))


def biased_surface(surface: PotentialSurface, bias: BiasPotential) -> PotentialSurface:
    """Surface for V + deltaV."""
    if bias.dim != surface.dim:
        raise ValueError("bias dimension does not match surface")

    def energy(x):
        return surface.energy(x) + bias.energy(x)

    def grad(x):
        return surface.grad(x) + bias.grad(x)

    def hess(x):
        return surface.hess(x) + bias.hess(x)

    return PotentialSurface(surface.name + "+bias", surface.dim, energy, grad, hess)


# ---------------------------------------------------------------------------
# critical points


@dataclass(frozen=True)
class CriticalPoint:
    position: np.ndarray
    kind: str  # "min" | "saddle-1" | "other" | "degenerate"
    energy: float


def newton_polish(
    surface: PotentialSurface,
    x0,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Newton iteration on grad V = 0 from ``x0``; returns the polished point."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    for _ in range(max_iter):
        g = surface.grad(x)
        if np.linalg.norm(g) < tol:
            break
        H = surface.hess(x)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        # damp long extrapolations so the seed stays in its own basin
        nrm = np.linalg.norm(step)
        if nrm > 0.5:
            step *= 0.5 / nrm
        x = x - step
    return x


def _classify_hessian(H: np.ndarray, det_tol: float) -> str:
    evals = np.linalg.eigvalsh(0.5 * (H + H.T))
    if np.min(np.abs(evals)) < det_tol:
        return "degenerate"
    n_neg = int(np.sum(evals < 0))
    if n_neg == 0:
        return "min"
    if n_neg == 1:
        return "saddle-1"
    return "other"


def find_critical_points(
    surface: PotentialSurface,
    box: Sequence[tuple[float, float]],
    grid: int = 40,
    grad_tol: float = 1e-10,
    merge_tol: float = 1e-6,
    det_tol: float = 1e-10,
) -> list[CriticalPoint]:
    """Scan ``box`` on a uniform seed grid, Newton-polish each seed, dedupe.

    Degenerate Hessians are reported as kind ``"degenerate"`` rather than
    silently typed.  Assumes V is Morse inside the box.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != surface.dim:
        raise ValueError("box dimension does not match surface")
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=-1)

    found: list[np.ndarray] = []
    for seed in seeds:
        x = newton_polish(surface, seed)
        if np.linalg.norm(surface.grad(x)) >= grad_tol:
            continue
        inside = all(box[j][0] - 1e-9 <= x[j] <= box[j][1] + 1e-9 for j in range(surface.dim))
        if not inside:
            continue
        if any(np.linalg.norm(x - y) < merge_tol for y in found):
            continue
        found.append(x)

    points = []
    for x in found:
        kind = _classify_hessian(surface.hess(x), det_tol)
        points.append(CriticalPoint(x, kind, float(surface.energy(x))))
    points.sort(key=lambda p: tuple(p.position))
    return points


# ---------------------------------------------------------------------------
# state geometry helpers


def interval_state_geometry(surface: PotentialSurface, a: float, b: float) -> StateGeometry:
    """Geometry of the 1d state (a, b): interior minimum plus the two endpoints.

    Outward normals are -1 at ``a`` and +1 at ``b``.
    """
    if surface.dim != 1:
        raise ValueError("interval states are one-dimensional")
    pts = find_critical_points(surface, [(a, b)], grid=200)
    minima = [p for p in pts if p.kind == "min" and a < p.position[0] < b]
    if minima:
        x1 = min(minima, key=lambda p: p.energy).position
    else:
        grid = np.linspace(a, b, 2001)[1:-1]
        x1 = np.array([grid[np.argmin(surface.energy(grid[:, None]))]])
    geom = StateGeometry(
        interior_min=x1,
        boundary_minima=[np.array([a]), np.array([b])],
        normals=[np.array([-1.0]), np.array([1.0])],
    )
    geom.sort_by_energy(surface)
    return geom


def basin_geometry_1d(
    surface: PotentialSurface,
    minimum,
    box: tuple[float, float],
    grid: int = 200,
    critical_points: Optional[Sequence[CriticalPoint]] = None,
) -> StateGeometry:
    """Geometry of the basin of attraction of ``minimum``: adjacent saddles.

    The basin of a 1d gradient flow is the open interval between the
    neighboring index-1 saddles (or +-infinity when there is none inside
    the scan box).  ``critical_points`` passes in the scan of ``box`` at
    ``grid`` when the caller already has it.
    """
    if surface.dim != 1:
        raise ValueError("basin_geometry_1d is one-dimensional")
    x1 = float(np.atleast_1d(minimum)[0])
    pts = critical_points
    if pts is None:
        pts = find_critical_points(surface, [box], grid=grid)
    saddles = sorted(p.position[0] for p in pts if p.kind == "saddle-1")
    left = [s for s in saddles if s < x1]
    right = [s for s in saddles if s > x1]
    boundary = []
    if left:
        boundary.append((np.array([left[-1]]), np.array([-1.0])))
    if right:
        boundary.append((np.array([right[0]]), np.array([1.0])))
    if not boundary:
        raise ValueError("no saddle bounds the basin inside the scan box")
    geom = StateGeometry(
        interior_min=np.array([x1]),
        boundary_minima=[z for z, _ in boundary],
        normals=[n for _, n in boundary],
    )
    geom.sort_by_energy(surface)
    return geom


SURFACE_FACTORIES: dict[str, Callable[..., PotentialSurface]] = {
    "double_well_1d": make_double_well_1d,
    "triple_well_1d": make_triple_well_1d,
    "muller_brown_2d": make_muller_brown_2d,
    "entropic_channel_2d": make_entropic_channel_2d,
    "quadratic_bowl": make_quadratic_bowl,
    "flat": make_flat,
    "tilted_1d": make_tilted_1d,
}
