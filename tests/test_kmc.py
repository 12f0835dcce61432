import numpy as np
import pytest
from scipy import stats as sps

from mdaccel.dynamics import substream
from mdaccel.kmc import AbsorbingStateError, RateGraph, StateToStateTrajectory, run_kmc, sample_exit
from mdaccel.oracle import ks_test

from conftest import three_sigma_fraction


def two_state_graph(k01=2.0, k10=2.0):
    g = RateGraph()
    g.add_rate(0, 1, k01)
    g.add_rate(1, 0, k10)
    return g


def test_exit_statistics_symmetric_rates():
    # rates {0->1: 2, 0->2: 2}: mean residence 1/4, split 50/50
    g = RateGraph()
    g.add_rate(0, 1, 2.0)
    g.add_rate(0, 2, 2.0)
    rng = substream(11, 0)
    n = 20000
    times = np.empty(n)
    dests = np.empty(n, dtype=int)
    for k in range(n):
        times[k], dests[k] = sample_exit(g, 0, rng)
    assert abs(times.mean() - 0.25) < 3 * 0.25 / np.sqrt(n)
    p1 = np.mean(dests == 1)
    assert three_sigma_fraction(p1, 0.5, n)


def test_exit_statistics_asymmetric_rates():
    # rates {0->1: 1, 0->2: 3}: mean residence 1/4, split 1/4 vs 3/4
    g = RateGraph()
    g.add_rate(0, 1, 1.0)
    g.add_rate(0, 2, 3.0)
    rng = substream(13, 0)
    n = 20000
    times = np.empty(n)
    dests = np.empty(n, dtype=int)
    for k in range(n):
        times[k], dests[k] = sample_exit(g, 0, rng)
    assert abs(times.mean() - 0.25) < 3 * 0.25 / np.sqrt(n)
    assert three_sigma_fraction(np.mean(dests == 1), 0.25, n)


def test_residence_time_and_destination_independent():
    g = RateGraph()
    g.add_rate(0, 1, 1.0)
    g.add_rate(0, 2, 3.0)
    rng = substream(17, 0)
    n = 20000
    times = np.empty(n)
    dests = np.empty(n, dtype=int)
    for k in range(n):
        times[k], dests[k] = sample_exit(g, 0, rng)
    # conditional residence distributions agree across destinations
    stat = sps.ks_2samp(times[dests == 1], times[dests == 2])
    assert stat.pvalue > 1e-3


def test_residence_times_exponential():
    g = two_state_graph(k01=3.0)
    rng = substream(19, 0)
    n = 10000
    times = np.array([sample_exit(g, 0, rng)[0] for _ in range(n)])
    p = ks_test(times, lambda t: 1.0 - np.exp(-3.0 * np.asarray(t)))
    assert p > 1e-3


def test_occupation_fractions_symmetric():
    g = two_state_graph(2.0, 2.0)
    traj = run_kmc(g, 0, horizon=5000.0, rng=substream(23, 0))
    occ = traj.occupation_fractions()
    assert abs(occ[0] - 0.5) < 0.02
    assert abs(occ[1] - 0.5) < 0.02
    assert traj.clock == pytest.approx(5000.0)
    assert not traj.absorbed


def test_absorbing_state_flag():
    g = RateGraph()
    g.add_rate(0, 1, 5.0)  # state 1 has no outgoing rates
    traj = run_kmc(g, 0, horizon=100.0, rng=substream(29, 0))
    assert traj.absorbed
    assert traj.states[-1] == 1
    assert traj.clock == pytest.approx(100.0)
    with pytest.raises(AbsorbingStateError):
        sample_exit(g, 1, substream(29, 1))


def test_three_state_mfpt_matches_linear_solve():
    # mean first-passage time 0 -> 2 on a 3-state chain, versus the exact
    # linear system (I - P) m = tau restricted to transient states
    g = RateGraph()
    g.add_rate(0, 1, 1.0)
    g.add_rate(1, 0, 2.0)
    g.add_rate(1, 2, 1.0)
    # exact MFPT via first-step analysis
    # m0 = 1/k0 + m1 ; m1 = 1/(k10+k12) + (k10/(k10+k12)) m0
    A = np.array([[1.0, -1.0], [-2.0 / 3.0, 1.0]])
    b = np.array([1.0, 1.0 / 3.0])
    m_exact = np.linalg.solve(A, b)[0]

    rng = substream(31, 0)
    n = 5000
    fpt = np.empty(n)
    for k in range(n):
        t = 0.0
        s = 0
        while s != 2:
            dt, s = sample_exit(g, s, rng)
            t += dt
        fpt[k] = t
    se = fpt.std(ddof=1) / np.sqrt(n)
    assert abs(fpt.mean() - m_exact) < 3 * se


def test_edge_lines_round_trip():
    g = RateGraph()
    g.add_rate(0, 1, 0.125)
    g.add_rate(1, 0, 2.5)
    g.add_rate(1, 2, 1e-3)
    g2 = RateGraph.from_edge_lines(g.to_edge_lines())
    assert g2.rates == g.rates
    assert g2.to_edge_lines() == g.to_edge_lines()


def test_edge_lines_comments_and_errors():
    g = RateGraph.from_edge_lines("# header\n0 1 2.0\n\n1 0 1.0\n")
    assert g.total_rate(0) == 2.0
    with pytest.raises(ValueError):
        RateGraph.from_edge_lines("0 1\n")


def test_rate_validation():
    g = RateGraph()
    with pytest.raises(ValueError):
        g.add_rate(0, 0, 1.0)
    with pytest.raises(ValueError):
        g.add_rate(0, 1, -1.0)
    with pytest.raises(ValueError):
        run_kmc(g, 7, 1.0, substream(0, 0))


def test_trajectory_reconstruction():
    traj = StateToStateTrajectory()
    traj.append(0, 1.0)
    traj.append(1, 2.0)
    assert traj.state_at(0.5) == 0
    assert traj.state_at(1.5) == 1
    assert traj.state_at(10.0) == 1
    with pytest.raises(ValueError):
        traj.append(0, 0.0)


def test_fixed_seed_reproducible():
    g = two_state_graph(1.0, 3.0)
    a = run_kmc(g, 0, 50.0, substream(41, 0))
    b = run_kmc(g, 0, 50.0, substream(41, 0))
    assert a.states == b.states
    assert a.residences == b.residences
