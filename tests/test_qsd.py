import numpy as np
import pytest

from mdaccel.dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from mdaccel.oracle import ks_test, solve_ground_state
from mdaccel.potentials import make_flat, make_quadratic_bowl
from mdaccel.qsd import (
    DiagnosticTimeoutError,
    EnsembleExtinctionError,
    FvEnsemble,
    GelmanRubinDiagnostic,
    dephase_by_rejection,
    default_observables,
    estimate_qsd,
)
from mdaccel.statemap import EXPLICIT_REGION, StateDefinition


UNIT_INTERVAL = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])


def test_no_exit_matches_plain_stepping_bitwise(flat_1d):
    # while no replica exits, the conditioned ensemble is plain dynamics
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(-100.0, 100.0)])
    params = DynamicsParams(beta=1.0, dt=1e-3)
    n = 8
    starts = np.linspace(-0.5, 0.5, n)[:, None]
    ens = FvEnsemble(flat_1d, params, definition, 0, starts.copy(), master_seed=7)
    ref = OverdampedBatch(flat_1d, params, starts.copy(),
                          [substream(7, i) for i in range(n)])
    for _ in range(200):
        ens.step()
        assert ens.kill_count == 0
        ref.step()
    assert np.array_equal(ens.positions, ref.x)


def test_branching_keeps_ensemble_inside(flat_1d):
    params = DynamicsParams(beta=1.0, dt=1e-3)
    starts = np.full((16, 1), 0.5)
    ens = FvEnsemble(flat_1d, params, UNIT_INTERVAL, 0, starts, master_seed=3)
    for _ in range(5000):
        ens.step()
    assert ens.kill_count > 0
    assert np.all((ens.positions[:, 0] > 0.0) & (ens.positions[:, 0] < 1.0))
    assert ens.elapsed == pytest.approx(5000 * params.dt)


def test_extinction_error(flat_1d):
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1e-4)])
    params = DynamicsParams(beta=1.0, dt=1e-2)  # noise far wider than the state
    starts = np.full((2, 1), 5e-5)
    ens = FvEnsemble(flat_1d, params, definition, 0, starts, master_seed=1)
    with pytest.raises(EnsembleExtinctionError):
        for _ in range(100):
            ens.step()


def test_estimate_qsd_converges_and_reports_time(flat_1d):
    diag = GelmanRubinDiagnostic(default_observables(flat_1d), window=0.5,
                                 threshold=0.2)
    est = estimate_qsd(flat_1d, DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL,
                       0, 64, diag, np.array([0.5]), master_seed=5, max_time=20.0)
    assert est.samples.shape == (64, 1)
    assert est.tau_corr_estimate > 0
    assert np.all((est.samples[:, 0] > 0) & (est.samples[:, 0] < 1))


def test_estimate_qsd_infinite_threshold_returns_immediately(flat_1d):
    diag = GelmanRubinDiagnostic(default_observables(flat_1d), window=0.05,
                                 threshold=np.inf)
    est = estimate_qsd(flat_1d, DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL,
                       0, 8, diag, np.array([0.5]), master_seed=5)
    assert est.elapsed == 0.0
    assert est.kill_count == 0
    assert np.all(est.samples == 0.5)


def test_estimate_qsd_timeout_carries_partial(flat_1d):
    diag = GelmanRubinDiagnostic(default_observables(flat_1d), window=0.02,
                                 threshold=1e-12)
    with pytest.raises(DiagnosticTimeoutError) as exc:
        estimate_qsd(flat_1d, DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL,
                     0, 16, diag, np.array([0.5]), master_seed=5, max_time=0.1)
    assert isinstance(exc.value, BudgetExhaustedError)
    assert "Gelman-Rubin" in str(exc.value)
    partial = exc.value.partial
    assert partial.samples.shape == (16, 1)
    assert partial.elapsed >= 0.1


def test_dephase_tau_zero_returns_start(flat_1d):
    out = dephase_by_rejection(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                               UNIT_INTERVAL, 0, np.array([0.3]), tau=0.0,
                               count=5, master_seed=9)
    assert out.shape == (5, 1)
    assert np.all(out == 0.3)


def test_dephase_gaussian_moments():
    # wide region around a quadratic well: conditioning almost never binds,
    # so dephased end points follow the Gibbs marginal N(0, 1/beta)
    bowl = make_quadratic_bowl(dim=1, curvature=1.0)
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(-50.0, 50.0)])
    beta = 2.0
    out = dephase_by_rejection(bowl, DynamicsParams(beta=beta, dt=5e-3),
                               definition, 0, np.array([0.0]), tau=10.0,
                               count=800, master_seed=13)
    x = out[:, 0]
    var = 1.0 / beta
    assert abs(x.mean()) < 3 * np.sqrt(var / x.size)
    assert abs(x.var() - var) < 3 * var * np.sqrt(2.0 / x.size)


def test_dephase_matches_spectral_qsd(flat_1d):
    # diffusion conditioned to (0,1): QSD density sin(pi x), exact CDF known
    params = DynamicsParams(beta=1.0, dt=1e-4)
    out = dephase_by_rejection(flat_1d, params, UNIT_INTERVAL, 0,
                               np.array([0.5]), tau=0.2, count=400,
                               master_seed=17)
    p = ks_test(out[:, 0], lambda x: 0.5 * (1.0 - np.cos(np.pi * np.clip(x, 0, 1))))
    assert p > 1e-3


def test_dephase_budget_error(flat_1d):
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1e-3)])
    with pytest.raises(BudgetExhaustedError, match="dephasing"):
        dephase_by_rejection(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                             definition, 0, np.array([5e-4]), tau=1.0,
                             count=4, master_seed=21, max_restarts=50)


@pytest.mark.slow
def test_kill_rate_matches_spectral_eigenvalue(flat_1d):
    # stationary Fleming-Viot kill rate per replica equals the leading
    # Dirichlet eigenvalue; flat interval (0,1) at beta=1 has lambda1 = pi^2
    params = DynamicsParams(beta=1.0, dt=2e-5)
    n = 256
    starts = np.full((n, 1), 0.5)
    ens = FvEnsemble(flat_1d, params, UNIT_INTERVAL, 0, starts, master_seed=29)
    ens.run(0.2)  # burn-in to the QSD
    k0, t0 = ens.kill_count, ens.elapsed
    ens.run(0.8)
    lam_hat = (ens.kill_count - k0) / (n * (ens.elapsed - t0))
    lam = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400).lambda1
    kills = ens.kill_count - k0
    se = lam / np.sqrt(kills)
    # 3 sigma plus a small allowance for discrete boundary monitoring bias
    assert abs(lam_hat - lam) < 3 * se + 0.02 * lam


@pytest.mark.slow
def test_conditioned_law_approaches_qsd_monotonically(flat_1d):
    # total-variation distance to the QSD decays with conditioning time,
    # even from a start point right next to the boundary
    params = DynamicsParams(beta=1.0, dt=1e-4)
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    edges = np.linspace(0.0, 1.0, 21)
    centers = 0.5 * (edges[:-1] + edges[1:])
    qsd_bin = np.sin(np.pi * centers)
    qsd_bin /= qsd_bin.sum()
    dists = []
    for k, tau in enumerate((0.01, 0.05, 0.2)):
        out = dephase_by_rejection(flat_1d, params, UNIT_INTERVAL, 0,
                                   np.array([0.1]), tau=tau, count=1500,
                                   master_seed=31, seed_namespace=k)
        hist, _ = np.histogram(out[:, 0], bins=edges)
        dists.append(0.5 * np.abs(hist / hist.sum() - qsd_bin).sum())
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.07
    assert sol.lambda1 == pytest.approx(np.pi ** 2, rel=1e-3)


def test_diagnostic_validation(flat_1d):
    with pytest.raises(ValueError):
        GelmanRubinDiagnostic(default_observables(flat_1d), window=0.0)
    with pytest.raises(ValueError):
        GelmanRubinDiagnostic(default_observables(flat_1d), window=1.0, threshold=0.0)
    with pytest.raises(ValueError):
        estimate_qsd(flat_1d, DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL,
                     0, 1, GelmanRubinDiagnostic(default_observables(flat_1d), 1.0),
                     np.array([0.5]), master_seed=0)
