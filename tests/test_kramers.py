import math

import numpy as np
import pytest

from mdaccel.dynamics import DynamicsParams
from mdaccel.kramers import (
    FLAVOR_GENERALIZED,
    FLAVOR_OVERDAMPED,
    FLAVOR_REAL_SADDLE,
    HessianSignatureError,
    NotAGeneralizedSaddleError,
    exit_law_asymptotic,
    prefactor_generalized,
    prefactor_overdamped,
    prefactor_real_saddle,
    rate_table,
    tad_theta,
)
from mdaccel.oracle import direct_exit_statistics, solve_ground_state
from mdaccel.potentials import (
    basin_geometry_1d,
    biased_surface,
    interval_state_geometry,
    make_bump_bias,
    make_double_well_1d,
    make_muller_brown_2d,
    make_quadratic_bowl,
    make_triple_well_1d,
    newton_polish,
    MULLER_BROWN_MINIMA_GUESS,
)
from mdaccel.statemap import BASIN, MinimaRegistry, StateDefinition, make_labeler

from conftest import three_sigma_fraction

SQRT8_OVER_PI = math.sqrt(8.0) / math.pi


def test_double_well_overdamped_prefactor(double_well):
    nu = prefactor_overdamped(double_well, np.array([1.0]), np.array([0.0]))
    assert nu == pytest.approx(SQRT8_OVER_PI, rel=1e-12)


def test_prefactor_scales_linearly_with_potential():
    # V -> cV multiplies curvatures by c, so the overdamped prefactor by c
    for c in (0.5, 2.0, 6.75):
        nu = prefactor_overdamped(make_double_well_1d(scale=c),
                                  np.array([1.0]), np.array([0.0]))
        assert nu == pytest.approx(c * SQRT8_OVER_PI, rel=1e-12)


def test_muller_brown_prefactor_against_fd_hessian():
    mb = make_muller_brown_2d()
    x1 = newton_polish(mb, np.asarray(MULLER_BROWN_MINIMA_GUESS[0], dtype=float))
    # the saddle between the deep minimum and the middle one
    z = newton_polish(mb, np.array([-0.822, 0.624]))
    assert np.linalg.norm(mb.grad(z)) < 1e-8
    nu = prefactor_overdamped(mb, x1, z)

    def fd_hess(x, h=1e-5):
        H = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            H[:, j] = (mb.grad(x + e) - mb.grad(x - e)) / (2 * h)
        return 0.5 * (H + H.T)

    e1 = np.linalg.eigvalsh(fd_hess(x1))
    ez = np.linalg.eigvalsh(fd_hess(z))
    nu_fd = abs(ez[0]) * math.sqrt(np.prod(e1)) / (2 * math.pi * math.sqrt(abs(np.prod(ez))))
    assert nu == pytest.approx(nu_fd, rel=1e-4)


@pytest.mark.slow
def test_harmonic_rate_matches_spectral_eigenvalue(double_well):
    # left-to-right transition rate nu exp(-beta) versus the Dirichlet
    # eigenvalue with absorption at the destination minimum (absorbing at
    # the saddle instead would double the rate: half the crossings recross).
    # The harmonic formula is asymptotic, error shrinks as beta grows
    errors = []
    for beta in (6.0, 10.0):
        sol = solve_ground_state(double_well, (-2.5, 1.0), beta, 3.5 / 1400)
        k = SQRT8_OVER_PI * math.exp(-beta * 1.0)
        errors.append(abs(sol.lambda1 - k) / k)
    assert errors[0] < 0.1
    assert errors[1] < errors[0]


def test_symmetric_triple_well_equal_split():
    tw = make_triple_well_1d(tilt=0.0)
    geom = basin_geometry_1d(tw, np.array([0.0]), (-2.0, 2.0))
    assert geom.n_deg(tw) == 2
    lam, probs = exit_law_asymptotic(geom, tw, beta=5.0, flavor=FLAVOR_OVERDAMPED)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-10)
    assert lam > 0


def test_generalized_prefactor_sqrt_beta_scaling(double_well):
    geom = interval_state_geometry(double_well, -1.6, -0.4)
    z, n = geom.boundary_minima[0], geom.normals[0]
    nu1 = prefactor_generalized(double_well, geom.interior_min, z, n, beta=2.0)
    nu4 = prefactor_generalized(double_well, geom.interior_min, z, n, beta=8.0)
    assert nu4 == pytest.approx(2.0 * nu1, rel=1e-12)


def test_bump_at_boundary_tilts_exit_law_two_to_one():
    # raise the right boundary of a symmetric interval state by ln(2)/beta:
    # the right rate halves, so the split becomes (2/3, 1/3)
    bowl = make_quadratic_bowl(dim=1, curvature=1.0)
    beta = 4.0
    a = 1.0
    bump = make_bump_bias(center=[a], width=0.3, height=math.log(2.0) / beta)
    tilted = biased_surface(bowl, bump)
    geom = interval_state_geometry(tilted, -a, a)
    lam0, probs0 = exit_law_asymptotic(
        interval_state_geometry(bowl, -a, a), bowl, beta, FLAVOR_GENERALIZED)
    lam, probs = exit_law_asymptotic(geom, tilted, beta, FLAVOR_GENERALIZED)
    assert np.allclose(probs0, [0.5, 0.5], atol=1e-12)
    by_pos = {float(z[0]): p for z, p in zip(geom.boundary_minima, probs)}
    assert by_pos[-a] == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert by_pos[a] == pytest.approx(1.0 / 3.0, rel=1e-6)


@pytest.mark.slow
def test_triple_well_middle_split_matches_direct(triple_well, tw_basins):
    definition, reg, labeler = tw_basins
    geom = basin_geometry_1d(triple_well, np.array([0.0]), (-2.0, 2.0))
    beta = 7.0
    _, probs = exit_law_asymptotic(geom, triple_well, beta, FLAVOR_OVERDAMPED)
    params = DynamicsParams(beta=beta, dt=2e-3)
    stats = direct_exit_statistics(triple_well, params, definition, 1,
                                   np.array([0.0]), 300, master_seed=71,
                                   geometry=geom, labeler=labeler)
    for i in range(2):
        p_hat = stats.region_counts().get(i, 0) / stats.n_events
        # harmonic asymptotics carry O(1/beta) bias on top of sampling noise
        assert abs(p_hat - probs[i]) < 3 * math.sqrt(probs[i] * (1 - probs[i]) / 300) + 0.05


def test_real_saddle_flavor_doubles_rates_same_law(double_well):
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    t_od = rate_table(double_well, geom, beta=4.0, flavor=FLAVOR_OVERDAMPED)
    t_rs = rate_table(double_well, geom, beta=4.0, flavor=FLAVOR_REAL_SADDLE)
    assert t_rs.total_rate == pytest.approx(2.0 * t_od.total_rate, rel=1e-12)
    assert np.allclose(t_rs.exit_probabilities(), t_od.exit_probabilities())
    assert prefactor_real_saddle(double_well, np.array([1.0]), np.array([0.0])) == \
        pytest.approx(2 * SQRT8_OVER_PI, rel=1e-12)


def test_rates_invariant_under_interior_bias(double_well):
    # a bias supported away from the minimum and the saddle leaves every
    # rate-table entry bit-identical
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    bump = make_bump_bias(center=[-0.55], width=0.18, height=0.4)
    assert bump.energy(np.array([[-1.0]]))[0] == 0.0
    assert bump.energy(np.array([[0.0]]))[0] == 0.0
    plain = rate_table(double_well, geom, beta=6.0, flavor=FLAVOR_OVERDAMPED)
    boosted = rate_table(biased_surface(double_well, bump), geom, beta=6.0,
                         flavor=FLAVOR_OVERDAMPED)
    assert [e.rate for e in plain.entries] == [e.rate for e in boosted.entries]
    assert [e.barrier for e in plain.entries] == [e.barrier for e in boosted.entries]


def test_tad_theta():
    assert tad_theta(2.0, 2.0, 1.5) == 1.0
    assert tad_theta(2.0, 5.0, 1.0) == pytest.approx(math.exp(3.0))
    assert tad_theta(2.0, 8.0, 0.5, "sqrt-corrected") == \
        pytest.approx(math.exp(3.0) * 0.5)
    with pytest.raises(ValueError):
        tad_theta(2.0, 5.0, 1.0, "bogus")


def test_rate_table_csv(double_well):
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    csv_text = rate_table(double_well, geom, beta=4.0, flavor=FLAVOR_OVERDAMPED).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "region,barrier,prefactor,rate,flavor"
    assert len(lines) == 2
    # repr round trip: values survive parsing exactly
    fields = lines[1].split(",")
    assert float(fields[3]) == SQRT8_OVER_PI * math.exp(-4.0)


def test_signature_errors(double_well):
    with pytest.raises(HessianSignatureError):
        prefactor_overdamped(double_well, np.array([0.0]), np.array([1.0]))
    with pytest.raises(NotAGeneralizedSaddleError):
        # inward-pointing gradient: dV/dn < 0 at x = -1.6 with normal +1
        prefactor_generalized(double_well, np.array([-1.0]), np.array([-0.4]),
                              np.array([-1.0]), beta=2.0)
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    with pytest.raises(ValueError):
        rate_table(double_well, geom, beta=1.0, flavor="nonsense")
    with pytest.raises(ValueError):
        rate_table(double_well, geom, beta=1.0, flavor="langevin")  # overdamped only
