"""Eyring-Kramers rate formulas for the overdamped Langevin dynamics:
harmonic prefactors for the overdamped and generalized-saddle flavors,
exit-law asymptotics, and the temperature-extrapolation factors used by
TAD.

All quantities depend on V only through local data at the interior
minimum and the boundary points, so rates are unchanged by any bias that
vanishes there.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .potentials import PotentialSurface, StateGeometry

__all__ = [
    "FLAVOR_OVERDAMPED",
    "FLAVOR_GENERALIZED",
    "FLAVOR_REAL_SADDLE",
    "RateEntry",
    "RateTable",
    "HessianSignatureError",
    "NotAGeneralizedSaddleError",
    "prefactor_overdamped",
    "prefactor_generalized",
    "prefactor_real_saddle",
    "rate_table",
    "exit_law_asymptotic",
    "tad_theta",
]

FLAVOR_OVERDAMPED = "overdamped"
FLAVOR_GENERALIZED = "generalized-saddle"
# announced from formal expansions only; exposed but flagged experimental
FLAVOR_REAL_SADDLE = "real-saddle-experimental"

_EIG_TOL = 1e-10


class HessianSignatureError(Exception):
    """Hessian signature is not the one the formula assumes."""


class NotAGeneralizedSaddleError(Exception):
    """Outward normal derivative at the boundary point is not positive."""


def _checked_eigvals(surface: PotentialSurface, x, expect_negative: int,
                     what: str) -> np.ndarray:
    H = surface.hess(np.atleast_1d(np.asarray(x, dtype=float)))
    evals = np.linalg.eigvalsh(0.5 * (H + H.T))
    if np.min(np.abs(evals)) < _EIG_TOL:
        raise HessianSignatureError("%s: near-degenerate Hessian" % what)
    n_neg = int(np.sum(evals < 0))
    if n_neg != expect_negative:
        raise HessianSignatureError(
            "%s: expected %d negative eigenvalues, found %d" % (what, expect_negative, n_neg))
    return evals


def prefactor_overdamped(surface: PotentialSurface, x1, z) -> float:
    """nu = |lambda^-(z)| sqrt(det H(x1)) / (2 pi sqrt(|det H(z)|))."""
    e1 = _checked_eigvals(surface, x1, 0, "minimum")
    ez = _checked_eigvals(surface, z, 1, "saddle")
    lam_minus = abs(ez[ez < 0][0])
    return float(lam_minus * math.sqrt(np.prod(e1))
                 / (2.0 * math.pi * math.sqrt(abs(np.prod(ez)))))


def prefactor_real_saddle(surface: PotentialSurface, x1, z) -> float:
    """Experimental real-saddle flavor: twice the overdamped prefactor.

    The factor-two convention difference cancels in the law of the next
    visited state, which only involves rate ratios.
    """
    return 2.0 * prefactor_overdamped(surface, x1, z)


def _boundary_det(surface: PotentialSurface, z, normal: np.ndarray,
                  boundary_curvature: Optional[float]) -> float:
    """det of the Hessian of V restricted to the boundary at z.

    Trivially 1 for 1d states.  For 2d states the restriction is along the
    boundary tangent; a flat boundary (explicit rectangles) uses the
    tangential second derivative, a curved one needs the supplied
    curvature correction d2V/ds2 = t.H.t + kappa * dV/dn.
    """
    dim = surface.dim
    if dim == 1:
        return 1.0
    if dim == 2:
        t = np.array([-normal[1], normal[0]])
        H = surface.hess(np.atleast_1d(np.asarray(z, dtype=float)))
        second = float(t @ H @ t)
        if boundary_curvature:
            g = surface.grad(np.atleast_1d(np.asarray(z, dtype=float)))
            second += boundary_curvature * float(g @ normal)
        if second <= 0:
            raise HessianSignatureError("boundary restriction is not a minimum at z")
        return second
    raise NotImplementedError("generalized prefactor beyond 2d needs a boundary parametrization")


def prefactor_generalized(surface: PotentialSurface, x1, z, normal,
                          beta: float, boundary_curvature: Optional[float] = None) -> float:
    """nu = sqrt(beta / 2 pi) dV/dn(z) sqrt(det H(x1)) / sqrt(det H(V|boundary)(z)).

    Requires a strictly positive outward normal derivative at z (generalized
    saddle point).  Scales exactly as sqrt(beta).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    normal = normal / np.linalg.norm(normal)
    dn = float(surface.grad(z) @ normal)
    if dn <= 0:
        raise NotAGeneralizedSaddleError("dV/dn(z) = %g <= 0" % dn)
    e1 = _checked_eigvals(surface, x1, 0, "minimum")
    det_b = _boundary_det(surface, z, normal, boundary_curvature)
    return float(math.sqrt(beta / (2.0 * math.pi)) * dn
                 * math.sqrt(np.prod(e1)) / math.sqrt(det_b))


@dataclass(frozen=True)
class RateEntry:
    region: int
    barrier: float
    prefactor: float
    rate: float
    flavor: str


@dataclass
class RateTable:
    """Per-exit-region Eyring-Kramers rates k_i = nu_i exp(-beta dV_i)."""

    entries: list[RateEntry]
    beta: float

    @property
    def total_rate(self) -> float:
        return float(sum(e.rate for e in self.entries))

    def exit_probabilities(self) -> np.ndarray:
        ks = np.array([e.rate for e in self.entries])
        return ks / ks.sum()

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["region", "barrier", "prefactor", "rate", "flavor"])
        for e in self.entries:
            w.writerow([e.region, repr(e.barrier), repr(e.prefactor), repr(e.rate), e.flavor])
        return buf.getvalue()


def rate_table(surface: PotentialSurface, geometry: StateGeometry, beta: float,
               flavor: str = FLAVOR_GENERALIZED,
               boundary_curvatures: Optional[Sequence[Optional[float]]] = None) -> RateTable:
    """Rates for every exit region of ``geometry`` under the given flavor."""
    x1 = geometry.interior_min
    v0 = float(surface.energy(x1))
    entries = []
    for i, z in enumerate(geometry.boundary_minima):
        barrier = float(surface.energy(z)) - v0
        if flavor == FLAVOR_OVERDAMPED:
            nu = prefactor_overdamped(surface, x1, z)
        elif flavor == FLAVOR_GENERALIZED:
            if not geometry.normals:
                raise ValueError("generalized flavor needs outward normals")
            curv = boundary_curvatures[i] if boundary_curvatures else None
            nu = prefactor_generalized(surface, x1, z, geometry.normals[i], beta, curv)
        elif flavor == FLAVOR_REAL_SADDLE:
            nu = prefactor_real_saddle(surface, x1, z)
        else:
            raise ValueError("unknown flavor %r" % flavor)
        entries.append(RateEntry(i, barrier, nu, nu * math.exp(-beta * barrier), flavor))
    return RateTable(entries, beta)


def exit_law_asymptotic(geometry: StateGeometry, surface: PotentialSurface,
                        beta: float, flavor: str = FLAVOR_GENERALIZED
                        ) -> tuple[float, np.ndarray]:
    """(lambda1 estimate, exit probabilities per region): lambda1 = sum k_j,
    P(region i) = k_i / sum k_j."""
    if not geometry.boundary_minima:
        raise ValueError("geometry has no boundary minima")
    table = rate_table(surface, geometry, beta, flavor)
    return table.total_rate, table.exit_probabilities()


def tad_theta(beta_hi: float, beta_lo: float, barrier: float,
              variant: str = "plain") -> float:
    """Extrapolation factor Theta = k_hi / k_lo for one exit region.

    plain: exp(-(beta_hi - beta_lo) * barrier); sqrt-corrected multiplies
    by sqrt(beta_hi / beta_lo) (generalized-saddle prefactors carry an
    explicit sqrt(beta)).
    """
    theta = math.exp(-(beta_hi - beta_lo) * barrier)
    if variant == "sqrt-corrected":
        theta *= math.sqrt(beta_hi / beta_lo)
    elif variant != "plain":
        raise ValueError("variant must be 'plain' or 'sqrt-corrected'")
    return theta
