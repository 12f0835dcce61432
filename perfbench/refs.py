"""Independent references for the benchmark's correctness checks.

Nothing here imports mdaccel.  The 1D quantities come from quadrature and
from a small finite-difference eigen-solve; the Muller-Brown residence laws
come from a direct Euler-Maruyama simulation with its own potential formula.

Exit detection in the simulations is discrete: a crossing is seen only at
step times.  To first order this moves an absorbing boundary outward by
0.5826 * sqrt(2 dt / beta) (Broadie, Glasserman and Kou, Math. Finance 7,
1997), so the 1D references are computed on boundaries shifted by that
amount.

Regenerate the stored Muller-Brown reference with

    python3 perfbench/refs.py mb2d
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal

HERE = os.path.dirname(os.path.abspath(__file__))
MB2D_REF = os.path.join(HERE, "data", "mb2d_direct.json")

BGK = 0.5826  # -zeta(1/2) / sqrt(2 pi)


def boundary_shift(beta: float, dt: float) -> float:
    """Effective outward move of an absorbing boundary seen every dt."""
    return BGK * math.sqrt(2.0 * dt / beta)


# ---------------------------------------------------------------------------
# 1D model surfaces, written out independently of mdaccel.potentials


def double_well(x):
    return (x * x - 1.0) ** 2


def triple_well(x, scale=6.75, tilt=0.25):
    return scale * x * x * (x * x - 1.0) ** 2 + tilt * x


def _critical_points(V, lo, hi, n=400001):
    """Minima and maxima of a 1D potential from sign changes of V'."""
    x = np.linspace(lo, hi, n)
    dv = np.diff(V(x))
    mins, maxs = [], []
    for i in np.flatnonzero(np.sign(dv[:-1]) != np.sign(dv[1:])):
        (mins if dv[i] < 0 else maxs).append(float(x[i + 1]))
    return mins, maxs


def triple_well_saddles():
    _, maxs = _critical_points(triple_well, -2.0, 2.0)
    return maxs


def triple_well_minima():
    mins, _ = _critical_points(triple_well, -2.0, 2.0)
    return mins


def mfpt(V, beta, x0, target, far, n=200001):
    """Mean first-passage time from x0 to ``target`` with a reflecting wall
    at ``far`` (on the other side of x0), by double quadrature of
    T'(y) = beta e^{beta V(y)} int_far^y e^{-beta V(z)} dz."""
    sign = 1.0 if target > x0 else -1.0
    z = np.linspace(far, target, n)
    h = abs(z[1] - z[0])
    w = np.exp(-beta * (V(z) - V(z).min()))
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * h)))
    f = beta * np.exp(beta * (V(z) - V(z).min())) * inner
    keep = (z - x0) * sign >= 0
    return float(np.trapezoid(f[keep], dx=h))


def ground_state(V, beta, a, b, n=4000):
    """Leading Dirichlet eigenpair of the overdamped generator on (a, b).

    Returns (lambda1, p_left, p_right): the principal eigenvalue (the exit
    rate from the quasi-stationary distribution) and the share of the
    exit flux through each end.  The operator is symmetrised with
    w = e^{beta V / 2} u, a three-point scheme with midpoint weights.
    """
    x = np.linspace(a, b, n + 1)
    h = x[1] - x[0]
    v = V(x)
    v = v - v.min()
    vm = V(0.5 * (x[:-1] + x[1:])) - V(x).min()
    c = 1.0 / (beta * h * h)
    diag = -c * (np.exp(beta * (v[1:-1] - vm[:-1])) + np.exp(beta * (v[1:-1] - vm[1:])))
    off = c * np.exp(beta * (0.5 * (v[1:-2] + v[2:-1]) - vm[1:-1]))
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n - 2, n - 2))
    lam = -float(vals[0])
    u = np.zeros(n + 1)
    u[1:-1] = np.abs(vecs[:, 0]) * np.exp(-0.5 * beta * v[1:-1])
    left = (4.0 * u[1] - u[2]) / (2.0 * h)  # one-sided slopes at u = 0
    right = (4.0 * u[-2] - u[-3]) / (2.0 * h)
    return lam, left / (left + right), right / (left + right)


def tad_prediction(V, beta_lo, beta_hi, a, b, minimum, saddles, dt):
    """What exact Temperature Accelerated Dynamics would report on (a, b).

    The high-temperature exit rate through each end, k_i = lambda1 p_i at
    beta_hi, is extrapolated by Theta_i = exp((beta_lo - beta_hi) dV_i)
    with dV_i the barrier over that end.  Returns the extrapolated mean
    exit time and exit shares, next to the exact low-temperature ones; the
    gap between the two is the harmonic extrapolation error that the
    method itself makes.
    """
    s = boundary_shift(beta_hi, dt)
    lam_hi, pl_hi, pr_hi = ground_state(V, beta_hi, a - s, b + s)
    v0 = V(np.array(minimum))
    rates = []
    for p, z in ((pl_hi, saddles[0]), (pr_hi, saddles[1])):
        if z is None:
            rates.append(0.0)
            continue
        theta = math.exp((beta_lo - beta_hi) * (float(V(np.array(z))) - float(v0)))
        rates.append(lam_hi * p / theta)
    total = sum(rates)
    s = boundary_shift(beta_lo, dt)
    lam_lo, pl_lo, pr_lo = ground_state(V, beta_lo, a - s, b + s)
    return {
        "tad_mean": 1.0 / total,
        "tad_p": [rates[0] / total, rates[1] / total],
        "exact_mean": 1.0 / lam_lo,
        "exact_p": [pl_lo, pr_lo],
    }


# ---------------------------------------------------------------------------
# Muller-Brown direct simulation

_A = np.array([-200.0, -100.0, -170.0, 15.0])
_a = np.array([-1.0, -1.0, -6.5, 0.7])
_b = np.array([0.0, 0.0, 11.0, 0.6])
_c = np.array([-10.0, -10.0, -6.5, 0.7])
_X = np.array([1.0, 0.0, -0.5, -1.0])
_Y = np.array([0.0, 0.5, 1.5, 1.0])


def mb_grad(x, y):
    dx = x[:, None] - _X
    dy = y[:, None] - _Y
    e = _A * np.exp(_a * dx * dx + _b * dx * dy + _c * dy * dy)
    return ((e * (2.0 * _a * dx + _b * dy)).sum(axis=1),
            (e * (_b * dx + 2.0 * _c * dy)).sum(axis=1))


def mb_core_label(x, y, cores):
    """Index of the core rectangle holding each point, or -1."""
    out = np.full(x.shape, -1, dtype=np.int64)
    for i, ((x0, x1), (y0, y1)) in enumerate(cores):
        out[(x > x0) & (x < x1) & (y > y0) & (y < y1)] = i
    return out


def mb_direct_residences(cores, starts, beta, dt, n_walkers, n_steps, seed):
    """Core-to-core residence times along long direct trajectories.

    Walker w starts in core ``starts[w % len(starts)]``; a residence runs
    from the step that enters a core to the step that enters a different
    one (milestoning).  The first, partial residence of each walker is
    discarded.  Returns one list of residences per core, in steps.
    """
    rng = np.random.default_rng(seed)
    centres = np.array([[0.5 * sum(cx), 0.5 * sum(cy)] for cx, cy in cores])
    lab = np.arange(n_walkers) % len(cores)
    lab = np.asarray(starts)[lab]
    x = centres[lab, 0].copy()
    y = centres[lab, 1].copy()
    entered = np.full(n_walkers, -1, dtype=np.int64)  # entry step, -1 = partial
    noise = math.sqrt(2.0 * dt / beta)
    out = [[] for _ in cores]
    for k in range(1, n_steps + 1):
        gx, gy = mb_grad(x, y)
        g = rng.standard_normal((2, n_walkers))
        x = x - gx * dt + noise * g[0]
        y = y - gy * dt + noise * g[1]
        new = mb_core_label(x, y, cores)
        moved = np.flatnonzero((new >= 0) & (new != lab))
        for w in moved:
            if entered[w] >= 0:
                out[lab[w]].append(int(k - entered[w]))
            entered[w] = k
            lab[w] = new[w]
    return out


def write_mb2d_reference(config: dict, path: str = MB2D_REF) -> dict:
    res = mb_direct_residences(config["cores"], range(len(config["cores"])),
                               config["beta"], config["dt"], config["ref_walkers"],
                               config["ref_steps"], config["ref_seed"])
    doc = {
        "command": "python3 perfbench/refs.py mb2d",
        "config": {k: config[k] for k in ("cores", "beta", "dt", "ref_walkers",
                                          "ref_steps", "ref_seed")},
        "residence_steps": res,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")
    return doc


def load_mb2d_reference(config: dict, path: str = MB2D_REF) -> list:
    with open(path) as f:
        doc = json.load(f)
    want = {k: config[k] for k in doc["config"]}
    if json.loads(json.dumps(want)) != doc["config"]:
        raise ValueError("%s was made for another configuration; regenerate it with: %s"
                         % (path, doc["command"]))
    return [np.array(r) * config["dt"] for r in doc["residence_steps"]]


if __name__ == "__main__":
    if sys.argv[1:] != ["mb2d"]:
        sys.exit("usage: python3 perfbench/refs.py mb2d")
    sys.path.insert(0, HERE)
    from params import MB2D

    doc = write_mb2d_reference(MB2D)
    print("wrote %s: %s residences per core"
          % (MB2D_REF, [len(r) for r in doc["residence_steps"]]))
