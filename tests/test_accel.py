import math

import numpy as np
import pytest

from mdaccel.accel import (
    HyperConfig,
    InvalidBiasError,
    MissingBoundError,
    ParRepConfig,
    TadConfig,
    direct_exit,
    hyper_exit_many,
    parrep_exit_many,
    run_accelerated,
    tad_exit_many,
)
from mdaccel.dynamics import BudgetExhaustedError, DynamicsParams, OverdampedBatch, substream
from mdaccel.kmc import RateGraph, sample_exit
from mdaccel.oracle import (chi_square, direct_exit_statistics, ks_test, ks_two_sample,
                            qsd_samples_from_solution, solve_ground_state)
from mdaccel.potentials import (
    basin_geometry_1d,
    interval_state_geometry,
    make_bump_bias,
)
from mdaccel.qsd import dephase_by_rejection
from mdaccel.splice import produce_segments
from mdaccel.statemap import EXPLICIT_REGION, StateDefinition, exit_mask, make_labeler

UNIT_INTERVAL = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])


def test_single_replica_matches_manual_walker(flat_1d):
    # N = 1, tau_corr = 0: the parallel stage is one walker on the stream
    # (seed, namespace, event, phase=2, replica=0); replaying that stream by
    # hand must reproduce the exit bit for bit
    params = DynamicsParams(beta=1.0, dt=1e-3)
    cfg = ParRepConfig(n_replicas=1, tau_corr=0.0)
    stats, info = parrep_exit_many(flat_1d, params, UNIT_INTERVAL, 0,
                                   np.array([0.5]), cfg, 1, master_seed=61)
    labeler = make_labeler(flat_1d, UNIT_INTERVAL)
    batch = OverdampedBatch(flat_1d, params, np.array([[0.5]]),
                            [substream(61, 0, 0, 2, 0)])
    k = 0
    while True:
        batch.step()
        k += 1
        if exit_mask(labeler(batch.x), 0, UNIT_INTERVAL)[0]:
            break
    assert stats.exit_times[0] == pytest.approx(k * params.dt)
    assert np.array_equal(stats.exit_points[0], batch.x[0])
    assert info["winner_index"][0] == 0


def test_parrep_scheduling_independence(flat_1d):
    # identical results no matter how events are packed into blocks
    params = DynamicsParams(beta=1.0, dt=5e-4)
    cfg = ParRepConfig(n_replicas=4, tau_corr=0.01)
    outs = []
    for block in (3, 50):
        stats, info = parrep_exit_many(flat_1d, params, UNIT_INTERVAL, 0,
                                       np.array([0.5]), cfg, 20, master_seed=67,
                                       block=block)
        outs.append((stats.exit_times.copy(), stats.exit_points.copy(),
                     info["winner_index"].copy(), info["parallel_sweeps"].copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])
    assert np.array_equal(outs[0][3], outs[1][3])


def test_parrep_fleming_viot_reuse_is_block_independent(flat_1d):
    # replicas dephased by a Fleming-Viot ensemble grown from the reference
    # walker's end point (Binder, Lelievre and Simpson, J. Comput. Phys.
    # 284, 2015): each event owns its ensemble's streams, so block packing
    # cannot change the result
    params = DynamicsParams(beta=1.0, dt=5e-4)
    cfg = ParRepConfig(n_replicas=4, tau_corr=0.01, dephasing="fleming-viot-reuse")
    outs = []
    for block in (3, 50):
        stats, info = parrep_exit_many(flat_1d, params, UNIT_INTERVAL, 0,
                                       np.array([0.5]), cfg, 20, master_seed=71,
                                       block=block)
        outs.append((stats.exit_times, stats.exit_points, stats.region_labels,
                     info["winner_index"], info["parallel_sweeps"], info["wall_steps"]))
    for a, b in zip(*outs):
        assert np.array_equal(a, b)
    x = outs[0][1][:, 0]
    assert np.all((x <= 0.0) | (x >= 1.0))


@pytest.mark.slow
def test_parrep_exit_times_match_direct_distribution(flat_1d):
    # from QSD starts the accelerated exit-time law equals the direct one
    params = DynamicsParams(beta=1.0, dt=1e-4)
    sol = solve_ground_state(flat_1d, (0.0, 1.0), 1.0, 1.0 / 400)
    starts = qsd_samples_from_solution(sol, 400, substream(71, 0))
    # replicas must be iid QSD draws for the accelerated clock to be exact:
    # drawing from a QSD pool plays the role of perfect dephasing
    pool = qsd_samples_from_solution(sol, 4000, substream(71, 1))
    cfg = ParRepConfig(n_replicas=8, tau_corr=0.0, dephasing="pool", pool=pool)
    acc, _ = parrep_exit_many(flat_1d, params, UNIT_INTERVAL, 0, starts, cfg,
                              400, master_seed=73)
    ref = direct_exit_statistics(flat_1d, params, UNIT_INTERVAL, 0, starts,
                                 400, master_seed=79)
    assert ks_two_sample(acc.exit_times, ref.exit_times) > 1e-3
    # destinations agree too
    p_acc = np.mean(acc.exit_points[:, 0] <= 0.0)
    p_ref = np.mean(ref.exit_points[:, 0] <= 0.0)
    assert abs(p_acc - p_ref) < 3 * math.sqrt(2 * 0.25 / 400)


def test_minimum_of_exponentials_identity():
    # the law behind the parallel-replica speedup: the minimum of N iid
    # exponential exit times is exponential with N times the rate
    g = RateGraph()
    g.add_rate(0, 1, 1.5)
    rng = substream(83, 0)
    N, n = 4, 20000
    ts = np.array([min(sample_exit(g, 0, rng)[0] for _ in range(N))
                   for _ in range(n)])
    p = ks_test(ts, lambda t: 1.0 - np.exp(-N * 1.5 * np.maximum(t, 0)))
    assert p > 1e-3


def test_discrete_clock_identity_geometric():
    # discrete-time version: with per-step exit probability p, the corrected
    # clock N(m-1) + r of the first exit over N replicas is Geometric(p)
    rng = substream(89, 0)
    N, n, p = 4, 100000, 0.3
    lanes = rng.geometric(p, size=(n, N))  # per-replica first-exit sweep
    m = lanes.min(axis=1)
    r = np.argmax(lanes == m[:, None], axis=1) + 1  # lowest winning index, 1-based
    clock = N * (m - 1) + r
    kmax = 20
    counts = np.bincount(np.minimum(clock, kmax + 1), minlength=kmax + 2)[1:]
    expected = p * (1 - p) ** np.arange(kmax)
    expected = np.append(expected, (1 - p) ** kmax)  # tail bucket
    assert chi_square(counts, expected * n) > 1e-3


def test_hyper_zero_bias_reduces_to_direct(flat_1d):
    zero = make_bump_bias(center=[0.5], width=0.2, height=0.0)
    params = DynamicsParams(beta=1.0, dt=1e-3)
    cfg = HyperConfig(bias=zero, tau_corr=0.0)
    stats, info = hyper_exit_many(flat_1d, params, UNIT_INTERVAL, 0,
                                  np.array([0.5]), cfg, 5, master_seed=97)
    assert np.all(info["boosts"] == 1.0)
    assert np.allclose(stats.exit_times, info["wall_steps"] * params.dt)
    # bit-identical to a plain walker on the biased-run stream
    labeler = make_labeler(flat_1d, UNIT_INTERVAL)
    batch = OverdampedBatch(flat_1d, params, np.array([[0.5]]),
                            [substream(97, 0, 0, 1)])
    k = 0
    while True:
        batch.step()
        k += 1
        if exit_mask(labeler(batch.x), 0, UNIT_INTERVAL)[0]:
            break
    assert np.array_equal(stats.exit_points[0], batch.x[0])
    assert info["wall_steps"][0] == k


def test_hyper_interior_bias_boosts(double_well, dw_basins):
    definition, reg, labeler = dw_basins
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    bump = make_bump_bias(center=[-1.0], width=0.55, height=0.5)
    assert abs(bump.energy(np.array([[0.0]]))[0]) == 0.0  # vanishes at the saddle
    params = DynamicsParams(beta=4.0, dt=2e-3)
    cfg = HyperConfig(bias=bump, tau_corr=0.05)
    stats, info = hyper_exit_many(double_well, params, definition, 0,
                                  np.array([-1.0]), cfg, 20, master_seed=101,
                                  geometry=geom, labeler=labeler)
    assert np.all(info["boosts"] > 1.0)
    assert np.all(stats.exit_times > info["wall_steps"] * params.dt)


def test_hyper_bias_at_boundary_rejected(flat_1d):
    # support sticks out of the state: the walker exits where the bias is
    # nonzero, which must be reported as an invalid bias
    bad = make_bump_bias(center=[0.95], width=0.3, height=0.4)
    params = DynamicsParams(beta=1.0, dt=1e-3)
    cfg = HyperConfig(bias=bad, tau_corr=0.0)
    with pytest.raises(InvalidBiasError):
        hyper_exit_many(flat_1d, params, UNIT_INTERVAL, 0, np.array([0.9]),
                        cfg, 20, master_seed=103)


def test_equilibration_restart_budget_raises_dephasing_budget_error(flat_1d):
    # equilibration restarts a lane at its start on every exit; from a start
    # outside the state every step exits, until the restart budget runs out
    cfg = HyperConfig(bias=make_bump_bias(center=[0.5], width=0.1, height=0.1),
                      tau_corr=0.01)
    with pytest.raises(BudgetExhaustedError, match="dephasing"):
        hyper_exit_many(flat_1d, DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL, 0,
                        np.array([2.0]), cfg, 1, master_seed=109)


def test_tad_equal_temperatures_is_trivial(triple_well, tw_basins):
    # beta_hi = beta_lo: Theta = 1 and the reported time is the plain
    # first observed high-temperature exit time
    definition, reg, labeler = tw_basins
    geom = basin_geometry_1d(triple_well, np.array([0.0]), (-2.0, 2.0))
    beta = 4.0
    params = DynamicsParams(beta=beta, dt=1e-3)
    cfg = TadConfig(beta_hi=beta, beta_lo=beta, min_barrier=0.0)
    stats, info = tad_exit_many(triple_well, params, definition, 1,
                                np.array([0.0]), cfg, 5, master_seed=107,
                                geometry=geom, labeler=labeler)
    # with Theta = 1 the winning time is the first exit observed at all
    assert np.all(stats.exit_times <= info["t_hi"] + 1e-12)
    assert np.all(stats.exit_times > 0)


def test_tad_scheduling_independence_and_exhaustive(triple_well, tw_basins):
    definition, reg, labeler = tw_basins
    geom = basin_geometry_1d(triple_well, np.array([0.0]), (-2.0, 2.0))
    params = DynamicsParams(beta=6.0, dt=1e-3)
    cfg = TadConfig(beta_hi=3.0, beta_lo=6.0, exhaustive=True, min_barrier=None)
    outs = []
    for block in (2, 16):
        stats, info = tad_exit_many(triple_well, params, definition, 1,
                                    np.array([0.0]), cfg, 8, master_seed=109,
                                    geometry=geom, labeler=labeler, block=block)
        outs.append((stats.exit_times.copy(), stats.region_labels.copy(),
                     info["t_hi"].copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])
    assert np.all(outs[0][0] > 0)


def test_tad_bounce_variants_stay_inside(triple_well, tw_basins):
    definition, reg, labeler = tw_basins
    geom = basin_geometry_1d(triple_well, np.array([0.0]), (-2.0, 2.0))
    params = DynamicsParams(beta=6.0, dt=1e-3)
    for bounce in ("reflect", "restart"):
        cfg = TadConfig(beta_hi=3.0, beta_lo=6.0, min_barrier=0.3, bounce=bounce)
        stats, info = tad_exit_many(triple_well, params, definition, 1,
                                    np.array([0.0]), cfg, 4, master_seed=113,
                                    geometry=geom, labeler=labeler)
        assert np.all(stats.exit_times > 0)
        assert set(np.unique(stats.region_labels)) <= {0, 1}


def test_run_accelerated_zero_horizon(flat_1d):
    traj = run_accelerated(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                           UNIT_INTERVAL, "direct", 0.0, 1, np.array([0.5]))
    assert traj.states == []
    assert traj.clock == 0.0


@pytest.mark.slow
def test_run_accelerated_direct_occupation(double_well, dw_basins):
    # symmetric double well: long-run occupation of the two basins is 50/50
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=3.0, dt=5e-3)
    traj = run_accelerated(double_well, params, definition, "direct", 1000.0,
                           127, np.array([-1.0]), labeler=labeler)
    occ = traj.occupation_fractions()
    assert len(traj.states) >= 10
    assert abs(occ[0] - 0.5) < 0.25
    assert traj.clock >= 1000.0
    for rec in traj.records:
        assert rec["method"] == "direct"
        assert rec["residence_time"] > 0


def test_run_accelerated_parrep_trajectory(double_well, dw_basins):
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=2.5, dt=5e-3)
    cfg = ParRepConfig(n_replicas=4, tau_corr=0.1)
    traj = run_accelerated(double_well, params, definition, "parrep", 50.0,
                           131, np.array([-1.0]), config=cfg, labeler=labeler)
    assert traj.clock >= 50.0
    assert all(r["boost_or_N"] == 4.0 for r in traj.records)
    # states alternate between the two wells
    for a, b in zip(traj.states, traj.states[1:]):
        assert a != b


def test_config_validation(flat_1d):
    with pytest.raises(ValueError):
        ParRepConfig(n_replicas=0)
    with pytest.raises(ValueError):
        ParRepConfig(dephasing="bogus")
    with pytest.raises(ValueError):
        ParRepConfig(tau_corr="adaptive")  # no diagnostic
    with pytest.raises(ValueError):
        ParRepConfig(dephasing="pool")  # no pool
    with pytest.raises(ValueError):
        TadConfig(beta_hi=5.0, beta_lo=3.0, min_barrier=0.1)
    with pytest.raises(MissingBoundError):
        TadConfig(beta_hi=2.0, beta_lo=4.0)
    with pytest.raises(ValueError):
        TadConfig(beta_hi=2.0, beta_lo=4.0, min_barrier=0.1, bounce="bogus")
    with pytest.raises(ValueError):
        run_accelerated(flat_1d, DynamicsParams(beta=1.0, dt=1e-3),
                        UNIT_INTERVAL, "warp", 1.0, 0, np.array([0.5]))


def test_direct_exit_returns_event(flat_1d):
    ev = direct_exit(0, np.array([0.5]), flat_1d,
                     DynamicsParams(beta=1.0, dt=1e-3), UNIT_INTERVAL, 137)
    assert ev.exit_time == pytest.approx(ev.first_exit_step * 1e-3)
    assert ev.exit_point[0] <= 0.0 or ev.exit_point[0] >= 1.0


_FLAT = DynamicsParams(beta=1.0, dt=1e-3)
_NO_BIAS = make_bump_bias(center=[0.5], width=0.1, height=0.0)


@pytest.mark.parametrize("phase, run", [
    ("ParRep parallel-step", lambda flat: parrep_exit_many(
        flat, _FLAT, UNIT_INTERVAL, 0, np.array([0.5]),
        ParRepConfig(n_replicas=2, max_steps=1), 1, master_seed=1)),
    ("Hyperdynamics biased-run", lambda flat: hyper_exit_many(
        flat, _FLAT, UNIT_INTERVAL, 0, np.array([0.5]),
        HyperConfig(bias=_NO_BIAS, max_steps=1), 1, master_seed=1)),
    ("TAD high-temperature", lambda flat: tad_exit_many(
        flat, _FLAT, UNIT_INTERVAL, 0, np.array([0.5]),
        TadConfig(beta_hi=1.0, beta_lo=1.0, min_barrier=0.0, max_steps=1), 1,
        master_seed=1, geometry=interval_state_geometry(flat, 0.0, 1.0))),
    ("direct simulation", lambda flat: direct_exit_statistics(
        flat, _FLAT, UNIT_INTERVAL, 0, np.array([0.5]), 4, master_seed=1,
        max_steps=10, lanes=4)),
    ("dephasing restart", lambda flat: dephase_by_rejection(
        flat, _FLAT, StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1e-3)]), 0,
        np.array([5e-4]), tau=1.0, count=2, master_seed=1, max_restarts=3)),
    ("segment production", lambda flat: produce_segments(
        flat, _FLAT, UNIT_INTERVAL, 0, np.array([[0.5]]), 1.0, [0], master_seed=1,
        max_steps=1)),
], ids=["parrep", "hyper", "tad", "direct", "dephasing", "segments"])
def test_exhausted_budget_raises_one_error_naming_its_phase(flat_1d, phase, run):
    with pytest.raises(BudgetExhaustedError, match=phase) as exc:
        run(flat_1d)
    assert exc.value.phase == phase
