import numpy as np
import pytest

from mdaccel.dynamics import (
    NOISE_CHUNK,
    NOISE_FIRST_REFILL,
    DynamicsParams,
    IntegratorDivergenceError,
    OverdampedBatch,
    WalkerState,
    step_overdamped,
    substream,
    _LaneNoise,
)
from mdaccel.potentials import make_flat, make_quadratic_bowl, make_tilted_1d


def test_zero_temperature_limit_flat_potential():
    flat = make_flat(1)
    params = DynamicsParams(beta=1e12, dt=1e-3)
    w = WalkerState(np.array([0.3]), substream(5, 0))
    for _ in range(50):
        x0 = w.position.copy()
        step_overdamped(w, flat, params)
        assert abs(w.position[0] - x0[0]) <= 1e-5


def test_ou_stationary_variance():
    # V = x^2/2: stationary variance of the overdamped process is 1/beta
    bowl = make_quadratic_bowl(dim=1, curvature=1.0)
    beta = 2.0
    params = DynamicsParams(beta=beta, dt=5e-3)
    n = 4000
    gens = [substream(11, i) for i in range(n)]
    batch = OverdampedBatch(bowl, params, np.zeros((n, 1)), gens)
    for _ in range(2000):  # ~10 relaxation times
        batch.step()
    x = batch.x[:, 0]
    var = x.var()
    # discrete-time chain has variance (1/beta)/(1 - dt/2) at this step size
    expected = (1.0 / beta) / (1.0 - params.dt / 2.0)
    se = expected * np.sqrt(2.0 / n)
    assert abs(var - expected) < 3 * se


def test_fixed_seed_reproducible():
    bowl = make_quadratic_bowl(dim=2)
    params = DynamicsParams(beta=1.0, dt=1e-3)
    out = []
    for _ in range(2):
        w = WalkerState(np.array([0.5, -0.5]), substream(123, 7))
        for _ in range(100):
            step_overdamped(w, bowl, params)
        out.append(w.position.copy())
    assert np.array_equal(out[0], out[1])


def test_clock_accumulates():
    flat = make_flat(1)
    params = DynamicsParams(beta=1.0, dt=1e-3)
    w = WalkerState(np.array([0.0]), substream(0, 0))
    for _ in range(10):
        step_overdamped(w, flat, params)
    assert w.clock == pytest.approx(10 * params.dt)


def test_divergence_error():
    tilted = make_tilted_1d(slope=1.0)

    class Bad:
        name = "bad"
        dim = 1

        def energy(self, x):
            return tilted.energy(x)

        def grad(self, x):
            return np.full_like(np.atleast_1d(x), np.inf)

        def hess(self, x):
            return tilted.hess(x)

    w = WalkerState(np.array([0.0]), substream(1, 0))
    with pytest.raises(IntegratorDivergenceError):
        step_overdamped(w, Bad(), DynamicsParams(beta=1.0, dt=1e-3))


def test_ergodic_average_quadratic():
    bowl = make_quadratic_bowl(dim=1, curvature=1.0)
    beta = 4.0
    params = DynamicsParams(beta=beta, dt=5e-3)
    w = WalkerState(np.array([0.0]), substream(21, 0))
    acc = 0.0
    n = 200000
    for _ in range(n):
        step_overdamped(w, bowl, params)
        acc += w.position[0] ** 2
    assert abs(acc / n - 1.0 / beta) < 0.15 / beta


def test_batch_matches_single_walkers_bitwise():
    # the scheduling-independence contract: a lane's trajectory does not
    # depend on which other lanes share the batch
    bowl = make_quadratic_bowl(dim=2)
    params = DynamicsParams(beta=1.5, dt=1e-3)
    starts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, 0.0]])
    batch = OverdampedBatch(bowl, params, starts.copy(),
                            [substream(77, i) for i in range(3)])
    for _ in range(500):
        batch.step()
    for i in range(3):
        w = WalkerState(starts[i].copy(), substream(77, i))
        for _ in range(500):
            step_overdamped(w, bowl, params)
        assert np.array_equal(batch.x[i], w.position)


def test_batch_partial_stepping_keeps_lane_streams():
    bowl = make_quadratic_bowl(dim=1)
    params = DynamicsParams(beta=1.0, dt=1e-3)
    batch = OverdampedBatch(bowl, params, np.zeros((2, 1)),
                            [substream(5, i) for i in range(2)])
    # advance lane 0 alone, then lane 1 alone: same as advancing each solo
    for _ in range(100):
        batch.step(np.array([0]))
    for _ in range(100):
        batch.step(np.array([1]))
    for i in range(2):
        w = WalkerState(np.zeros(1), substream(5, i))
        for _ in range(100):
            step_overdamped(w, bowl, params)
        assert np.array_equal(batch.x[i], w.position)


def test_substream_independence_and_determinism():
    a = substream(42, 0).standard_normal(4)
    b = substream(42, 1).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, substream(42, 0).standard_normal(4))


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicsParams(beta=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        DynamicsParams(beta=1.0, dt=0.0)
    p = DynamicsParams(beta=2.0, dt=1e-3)
    assert p.with_beta(4.0).beta == 4.0
    assert p.noise_scale == pytest.approx(np.sqrt(2 * 1e-3 / 2.0))


def _reference_lane(surface, params, start, gen, n_steps):
    w = WalkerState(np.array(start, dtype=float), gen)
    for _ in range(n_steps):
        step_overdamped(w, surface, params)
    return w


@pytest.mark.parametrize("n_lanes, full_idx", [(1, False), (1, True), (3, True)])
def test_every_lane_stepping_matches_reference_across_refill_and_restart(n_lanes, full_idx):
    # every call steps all lanes (idx omitted or equal to arange(n)); the run
    # crosses a chunk refill and restarts lane 0 twice in mid-chunk, once
    # keeping its stream and once with a new one
    bowl = make_quadratic_bowl(dim=1)
    params = DynamicsParams(beta=2.0, dt=1e-3)
    starts = np.linspace(-0.5, 0.5, n_lanes)[:, None]
    batch = OverdampedBatch(bowl, params, starts.copy(),
                            [substream(31, i) for i in range(n_lanes)])
    idx = np.arange(n_lanes) if full_idx else None
    a, b, total = 700, 1500, 1500 + NOISE_CHUNK + 300

    def run(n):
        for _ in range(n):
            batch.step(idx)

    run(a)
    ref0 = _reference_lane(bowl, params, starts[0], substream(31, 0), a)
    assert np.array_equal(batch.x[0], ref0.position)
    batch.restart_lane(0, np.array([0.25]))
    ref0.position = np.array([0.25])
    run(b - a)
    for _ in range(b - a):
        step_overdamped(ref0, bowl, params)
    assert np.array_equal(batch.x[0], ref0.position)
    batch.restart_lane(0, np.array([-0.25]), substream(31, 99))
    run(total - b)
    ref0 = _reference_lane(bowl, params, [-0.25], substream(31, 99), total - b)
    assert np.array_equal(batch.x[0], ref0.position)
    for i in range(1, n_lanes):
        ref = _reference_lane(bowl, params, starts[i], substream(31, i), total)
        assert np.array_equal(batch.x[i], ref.position)
    assert np.array_equal(batch.steps, np.full(n_lanes, total))


@pytest.mark.parametrize("full_idx", [False, True])
def test_single_lane_divergence_keeps_last_finite_position(full_idx):
    flat = make_flat(1)

    class Cliff:
        """Flat for x < 0.05, an infinite force beyond."""
        name = "cliff"
        dim = 1

        def energy(self, x):
            return flat.energy(x)

        def grad(self, x):
            return np.where(np.asarray(x) < 0.05, 0.0, np.inf)

        def hess(self, x):
            return flat.hess(x)

    params = DynamicsParams(beta=1.0, dt=1e-3)
    batch = OverdampedBatch(Cliff(), params, np.zeros((1, 1)), [substream(8, 0)])
    idx = np.arange(1) if full_idx else None
    ref = WalkerState(np.zeros(1), substream(8, 0))
    with pytest.raises(IntegratorDivergenceError) as info:
        for _ in range(100_000):
            before = ref.position.copy()
            batch.step(idx)
            step_overdamped(ref, flat, params)
            assert np.array_equal(batch.x[0], ref.position)
    last = info.value.last_state
    assert np.all(np.isfinite(last.position)) and last.position[0] >= 0.05
    assert np.array_equal(last.position, before)
    assert np.array_equal(batch.x[0], before)
    assert last.clock == batch.steps[0] * params.dt


@pytest.mark.parametrize("dim", [1, 2])
def test_lane_draws_equal_one_draw_of_its_stream(dim):
    # refills of 64, 128, ... steps, then whole chunks: a lane's draws are
    # its stream's standard normals in order, whatever the refill sizes;
    # lane 1 skips every third call, so it crosses refills at other calls
    n_calls = 2 * NOISE_CHUNK + 300
    noise = _LaneNoise([substream(3, i) for i in range(3)], dim)
    drawn = [[], [], []]
    for k in range(n_calls):
        idx = np.array([0, 2]) if k % 3 == 0 else None
        out = noise.draw(idx)
        for j, i in enumerate(range(3) if idx is None else idx):
            drawn[i].append(out[j])
    for i in range(3):
        ref = substream(3, i).standard_normal((len(drawn[i]), dim))
        assert np.array_equal(np.array(drawn[i]), ref)


def test_lanes_restarting_at_different_steps_match_their_references():
    # lane i > 0 takes a new stream at its own step, in different phases of
    # the refill schedule; the schedule starts over at the first refill
    bowl = make_quadratic_bowl(dim=2)
    params = DynamicsParams(beta=1.5, dt=1e-3)
    starts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, 0.0], [0.2, -0.1], [-0.2, -0.2]])
    batch = OverdampedBatch(bowl, params, starts.copy(), [substream(41, i) for i in range(5)])
    restart_at = {1: 1, 2: 63, 3: 700, 4: NOISE_CHUNK + 100}
    total = NOISE_CHUNK + 300
    for k in range(total):
        for i, at in restart_at.items():
            if k == at:
                batch.restart_lane(i, starts[i], substream(41, 100 + i))
        batch.step()
        for i, at in restart_at.items():
            if k == at:
                assert batch.noise.pos[i] == NOISE_CHUNK - NOISE_FIRST_REFILL + 1
    for i in range(5):
        at = restart_at.get(i, 0)
        gen = substream(41, 100 + i) if i in restart_at else substream(41, i)
        ref = _reference_lane(bowl, params, starts[i], gen, total - at)
        assert np.array_equal(batch.x[i], ref.position)
