import math

import numpy as np
import pytest

from mdaccel.dynamics import DynamicsParams, substream
from mdaccel.oracle import (
    TestInapplicableError,
    chi_square,
    contingency_independence,
    direct_exit_statistics,
    exit_law_from_spectrum,
    fit_exponential_rate,
    independence_table,
    ks_test,
    ks_two_sample,
    qsd_samples_from_solution,
    solve_ground_state,
)
from mdaccel.potentials import interval_state_geometry, make_flat, make_tilted_1d
from mdaccel.qsd import FvEnsemble
from mdaccel.statemap import EXPLICIT_REGION, StateDefinition

from conftest import three_sigma_fraction


def test_flat_interval_eigenvalue_second_order(flat_1d):
    # lambda1 -> pi^2 with O(h^2) error: halving h quarters the error
    errs = []
    for h in (1.0 / 100, 1.0 / 200):
        sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, h)
        errs.append(abs(sol.lambda1 - math.pi ** 2))
    assert errs[1] > 0
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_flat_interval_spectral_gap(flat_1d):
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 2.0, 1.0 / 400)
    # eigenvalues (n pi)^2 / beta: the gap ratio is 4
    assert sol.lambda1 == pytest.approx(math.pi ** 2 / 2.0, rel=1e-3)
    assert sol.lambda2 / sol.lambda1 == pytest.approx(4.0, rel=1e-3)


def test_flat_qsd_profile_and_normalization(flat_1d):
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    u = sol.u1
    x = sol.axes[0]
    assert abs(u.sum() * sol.h - 1.0) < 1e-12
    ref = np.sin(math.pi * x) * math.pi / 2.0
    assert np.max(np.abs(u - ref)) < 2e-4


def test_double_well_qsd_mode_at_minimum(double_well):
    sol = solve_ground_state(double_well, (-2.5, 0.0), 5.0, 2.5 / 1000)
    x = sol.axes[0]
    assert abs(x[np.argmax(sol.u1)] + 1.0) <= sol.h + 1e-12


def test_flat_exit_law_symmetric(flat_1d):
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 4000)
    lam, probs = exit_law_from_spectrum(sol)
    assert lam == pytest.approx(math.pi ** 2, rel=1e-5)
    assert abs(probs.sum() - 1.0) < 1e-6
    assert np.allclose(probs, [0.5, 0.5], atol=1e-6)


def test_flat_2d_box_eigenvalue_and_exit_law():
    flat2 = make_flat(2)
    beta = 1.0
    sol = solve_ground_state(flat2, [(0.0, 1.0), (0.0, 1.0)], beta, 1.0 / 80)
    assert sol.lambda1 == pytest.approx(2 * math.pi ** 2, rel=5e-3)
    lam, probs = exit_law_from_spectrum(sol)
    assert abs(probs.sum() - 1.0) < 1e-3
    assert np.allclose(probs, 0.25, atol=2e-3)


def test_qsd_samples_match_density(flat_1d):
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    samples = qsd_samples_from_solution(sol, 2000, substream(3, 0))
    assert samples.shape == (2000, 1)
    p = ks_test(samples[:, 0], lambda x: 0.5 * (1 - np.cos(math.pi * np.clip(x, 0, 1))))
    assert p > 1e-3


def test_direct_exit_tilted_interval_matches_spectrum():
    tilted = make_tilted_1d(slope=1.0)
    beta = 2.0
    sol = solve_ground_state(tilted, (0.0, 1.0), beta, 1.0 / 400)
    _, probs = exit_law_from_spectrum(sol)
    geom = interval_state_geometry(tilted, 0.0, 1.0)
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    params = DynamicsParams(beta=beta, dt=5e-5)
    stats = direct_exit_statistics(tilted, params, definition, 0,
                                   np.array([0.5]), 2000, master_seed=37,
                                   geometry=geom)
    by_pos = {float(z[0]): i for i, z in enumerate(geom.boundary_minima)}
    spec_by_pos = {float(z[0]): probs[i] for i, z in enumerate(geom.boundary_minima)}
    p_left_hat = stats.region_counts().get(by_pos[0.0], 0) / stats.n_events
    se = math.sqrt(spec_by_pos[0.0] * (1 - spec_by_pos[0.0]) / stats.n_events)
    # 3 sigma plus a discrete-monitoring allowance of order sqrt(dt)
    assert abs(p_left_hat - spec_by_pos[0.0]) < 3 * se + 0.02


def test_direct_single_event(flat_1d):
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    stats = direct_exit_statistics(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                                   definition, 0, np.array([0.5]), 1, master_seed=4)
    assert stats.n_events == 1
    assert stats.exit_times[0] > 0


@pytest.mark.slow
def test_fitted_rate_matches_eigenvalue(flat_1d):
    # QSD-started exit times are exponential with rate lambda1
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    starts = qsd_samples_from_solution(sol, 1000, substream(5, 0))
    params = DynamicsParams(beta=1.0, dt=2e-5)
    stats = direct_exit_statistics(flat_1d, params, definition, 0, starts,
                                   1000, master_seed=41)
    rate = fit_exponential_rate(stats.exit_times)
    se = sol.lambda1 / math.sqrt(stats.n_events)
    assert abs(rate - sol.lambda1) < 3 * se + 0.02 * sol.lambda1


@pytest.mark.slow
def test_point_start_near_boundary_is_not_exponential(flat_1d):
    # negative control: from a point next to the boundary the exit law is
    # far from Exp(lambda1) and the KS test must reject it
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    params = DynamicsParams(beta=1.0, dt=2e-5)
    stats = direct_exit_statistics(flat_1d, params, definition, 0,
                                   np.array([0.05]), 1000, master_seed=43)
    lam = sol.lambda1
    p = ks_test(stats.exit_times, lambda t: 1 - np.exp(-lam * np.maximum(t, 0)))
    assert p < 1e-6


def test_ks_pvalue_calibration():
    rng = substream(9, 0)
    ps = np.array([ks_test(rng.random(100), lambda x: np.clip(x, 0, 1))
                   for _ in range(200)])
    assert abs(ps.mean() - 0.5) < 0.1
    frac = np.mean(ps < 0.05)
    assert three_sigma_fraction(frac, 0.05, 200)


def test_ks_two_sample_same_distribution():
    rng = substream(10, 0)
    assert ks_two_sample(rng.standard_normal(500), rng.standard_normal(500)) > 1e-3
    assert ks_two_sample(rng.standard_normal(500), rng.standard_normal(500) + 1.0) < 1e-6


def test_chi_square_exact_and_floor():
    assert chi_square([10, 20, 30], [10, 20, 30]) == 1.0
    with pytest.raises(TestInapplicableError):
        chi_square([1, 99], [2, 198])
    p = chi_square([45, 55], [50, 50])
    assert 0.0 < p < 1.0


def test_contingency_false_positive_rate():
    rng = substream(11, 0)
    rejections = 0
    trials = 500
    for _ in range(trials):
        a = rng.integers(0, 2, 400)
        b = rng.integers(0, 3, 400)
        table = np.zeros((2, 3))
        np.add.at(table, (a, b), 1)
        if contingency_independence(table) < 0.05:
            rejections += 1
    assert three_sigma_fraction(rejections / trials, 0.05, trials)


def test_independence_table_shape():
    rng = substream(12, 0)
    times = rng.exponential(size=400)
    labels = rng.integers(0, 2, 400)
    table = independence_table(times, labels, n_time_bins=4)
    assert table.shape == (4, 2)
    assert table.sum() == 400
    assert np.allclose(table.sum(axis=1), 100)  # quantile bins are balanced
    assert contingency_independence(table) > 1e-3


@pytest.mark.slow
def test_fleming_viot_matches_spectral_qsd(flat_1d):
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    params = DynamicsParams(beta=1.0, dt=1e-4)
    n = 1000
    ens = FvEnsemble(flat_1d, params, definition, 0, np.full((n, 1), 0.5),
                     master_seed=47)
    ens.run(0.6)  # several relaxation times of the conditioned process
    edges = np.linspace(0, 1, 21)
    hist, _ = np.histogram(ens.positions[:, 0], bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ref = np.sin(math.pi * centers)
    ref /= ref.sum()
    emp = hist / hist.sum()
    # branching correlates replicas, so allow generous sampling noise but
    # require the empirical law to be much closer to the QSD than to uniform
    l1 = np.abs(emp - ref).sum()
    assert l1 < 0.25
    assert l1 < 0.5 * np.abs(emp - 1.0 / emp.size).sum()


def test_solver_validation(flat_1d):
    with pytest.raises(ValueError):
        solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 0.3)  # h does not divide
    with pytest.raises(ValueError):
        solve_ground_state(make_flat(2), (0.0, 1.0), 1.0, 0.1)
    with pytest.raises(ValueError):
        fit_exponential_rate(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        direct_exit_statistics(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                               StateDefinition(kind=EXPLICIT_REGION, regions=[(0, 1)]),
                               0, np.array([0.5]), 0, master_seed=0)


def test_import_does_not_load_scipy():
    import os
    import subprocess
    import sys

    import mdaccel

    src = os.path.dirname(os.path.dirname(mdaccel.__file__))
    code = ("import sys; sys.path.insert(0, %r); import mdaccel; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"
