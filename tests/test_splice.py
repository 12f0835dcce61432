import numpy as np
import pytest

from mdaccel.dynamics import DynamicsParams, OverdampedBatch, substream
from mdaccel.splice import (
    Segment,
    SegmentDatabase,
    StarvationError,
    frequency_predictor,
    produce_segments,
    schedule_production,
    splice,
)
from mdaccel.statemap import exit_mask

from conftest import three_sigma_fraction


def seg(gen, start=0, end=0, duration=1.0, path=None):
    path = path if path is not None else ((start, duration),)
    return Segment(start, end, duration, path, gen)


def test_segment_duration_consistency():
    with pytest.raises(ValueError):
        Segment(0, 1, 2.0, ((0, 0.5), (1, 1.0)), 0)
    s = Segment(0, 1, 1.5, ((0, 0.5), (1, 1.0)), 3)
    assert s.generation_index == 3


def test_database_fifo_and_shortest_first():
    db = SegmentDatabase()
    db.add(seg(2, duration=0.5))
    db.add(seg(0, duration=3.0))
    db.add(seg(1, duration=1.0))
    assert db.size(0) == 3
    assert db.pop(0).generation_index == 0  # fifo ignores durations
    assert db.pop(0).generation_index == 1
    db2 = SegmentDatabase()
    db2.add(seg(0, duration=3.0))
    db2.add(seg(1, duration=0.5))
    assert db2.pop(0, order="shortest-first").duration == 0.5
    with pytest.raises(ValueError):
        db2.pop(0, order="bogus")


def test_database_starvation():
    db = SegmentDatabase()
    with pytest.raises(StarvationError):
        db.pop(5)
    db.add(seg(0, start=1))
    with pytest.raises(StarvationError):
        db.pop(0)


def test_dump_load_round_trip():
    db = SegmentDatabase()
    db.add(Segment(0, 1, 0.375, ((0, 0.25), (1, 0.125)), 4))
    db.add(Segment(1, 0, 1.0, ((1, 1.0),), 5))
    db.add(Segment(0, 0, 2e-3, ((0, 2e-3),), 6))
    text = db.dump()
    db2 = SegmentDatabase.load(text)
    assert db2.dump() == text
    a, b = db2.pop(0), db2.pop(0)
    assert (a.generation_index, b.generation_index) == (4, 6)
    assert a.path_summary == ((0, 0.25), (1, 0.125))
    with pytest.raises(ValueError):
        SegmentDatabase.load("1 2 3\n")


def test_deep_well_segments_stay_home(double_well, dw_basins):
    # at low temperature virtually every segment starts and ends in the
    # same well, and its path never leaves it
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=8.0, dt=2e-3)
    segs = produce_segments(double_well, params, definition, 0,
                            np.full((16, 1), -1.0), tau_corr=0.1,
                            generation_indices=list(range(16)), master_seed=7,
                            labeler=labeler)
    for s in segs:
        assert s.start_state == 0
        assert s.end_state == 0
        assert s.path_summary == ((0, pytest.approx(s.duration)),)


def test_segments_reproducible_and_producer_independent(double_well, dw_basins):
    # a segment depends only on its generation index: producing it alone or
    # in a batch of 8 gives bit-identical results
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=3.0, dt=2e-3)
    batch8 = produce_segments(double_well, params, definition, 0,
                              np.full((8, 1), -1.0), tau_corr=0.05,
                              generation_indices=list(range(8)), master_seed=11,
                              labeler=labeler)
    for g in (0, 3, 7):
        solo, = produce_segments(double_well, params, definition, 0,
                                 np.array([-1.0]), 0.05, [g], master_seed=11,
                                 labeler=labeler)
        assert solo.duration == batch8[g].duration
        assert solo.end_state == batch8[g].end_state
        assert solo.path_summary == batch8[g].path_summary


def test_segment_residences_merge_whole_sojourns(double_well, dw_basins):
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=2.0, dt=2e-3)
    segs = produce_segments(double_well, params, definition, 0,
                            np.full((32, 1), -1.0), tau_corr=0.05,
                            generation_indices=list(range(32)), master_seed=13,
                            labeler=labeler)
    for s in segs:
        # no two consecutive path entries share a state
        states = [q for q, _ in s.path_summary]
        assert all(a != b for a, b in zip(states, states[1:]))
        assert s.path_summary[-1][0] == s.end_state
        # the final sojourn is at least tau_corr
        assert s.path_summary[-1][1] >= 0.05 - 1e-12


@pytest.mark.slow
def test_spliced_statistics_match_independent_reimplementation(double_well, dw_basins):
    # end-state fractions from the production code versus a bare-bones
    # test-local reimplementation of the segment rule with its own stepping
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=3.0, dt=2e-3)
    n = 300
    segs = produce_segments(double_well, params, definition, 0,
                            np.full((n, 1), -1.0), tau_corr=0.04,
                            generation_indices=list(range(n)), master_seed=17,
                            labeler=labeler)
    p_cross = np.mean([s.end_state != 0 for s in segs])

    n_tau = int(round(0.04 / params.dt))
    crossings = 0
    for g in range(n):
        batch = OverdampedBatch(double_well, params, np.array([[-1.0]]),
                                [substream(19, 0, g)])
        cur, res = 0, 0
        while True:
            batch.step()
            lab = int(labeler(batch.x)[0])
            if lab != cur:
                cur, res = lab, 1
            else:
                res += 1
            if res >= n_tau:
                break
        crossings += cur != 0
    p_ref = crossings / n
    se = np.sqrt(2 * p_ref * (1 - p_ref) / n) if 0 < p_ref < 1 else np.sqrt(2 / n)
    assert abs(p_cross - p_ref) <= 3 * se + 1e-9


def test_splice_merges_junction_states():
    db = SegmentDatabase()
    db.add(Segment(0, 1, 1.0, ((0, 0.6), (1, 0.4)), 0))
    db.add(Segment(1, 0, 2.0, ((1, 1.5), (0, 0.5)), 1))
    db.add(Segment(0, 0, 1.0, ((0, 1.0),), 2))
    traj = splice(db, 0, horizon=3.5)
    assert traj.states == [0, 1, 0]
    assert traj.residences == [pytest.approx(0.6), pytest.approx(1.9),
                               pytest.approx(1.5)]
    assert traj.clock == pytest.approx(4.0)


def test_splice_starves_without_matching_segment():
    db = SegmentDatabase()
    db.add(Segment(0, 1, 1.0, ((0, 1.0),), 0))
    with pytest.raises(StarvationError) as exc:
        splice(db, 0, horizon=5.0)
    assert exc.value.state == 1


def test_shortest_first_biases_residences_down(double_well, dw_basins):
    # the negative control: consuming shortest segments first shortens the
    # early trajectory relative to fifo on the same database
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=3.0, dt=2e-3)
    n = 200
    segs = produce_segments(double_well, params, definition, 0,
                            np.full((n, 1), -1.0), tau_corr=0.04,
                            generation_indices=list(range(n)), master_seed=23,
                            labeler=labeler)
    durations = np.array([s.duration for s in segs])
    horizon = float(np.sort(durations)[:40].sum())  # forces many pops

    def consumed(order):
        db = SegmentDatabase()
        for s in segs:
            if s.end_state == 0:  # keep the self-loop pool only
                db.add(s)
        traj = splice(db, 0, horizon=horizon, order=order)
        return len(traj.residences), traj.clock

    n_fifo, t_fifo = consumed("fifo")
    n_short, t_short = consumed("shortest-first")
    # shortest-first needs at least as many segments to cover the horizon
    assert t_short <= t_fifo + 1e-9 or n_short >= n_fifo


def test_frequency_predictor_add_one():
    w = frequency_predictor([0, 0, 1, 2, 2, 2])
    assert w[0] == pytest.approx(3 / 9)
    assert w[1] == pytest.approx(2 / 9)
    assert w[2] == pytest.approx(4 / 9)
    assert sum(w.values()) == pytest.approx(1.0)


def test_schedule_production_largest_remainder():
    assert schedule_production({0: 0.5, 1: 0.5}, 4) == {0: 2, 1: 2}
    alloc = schedule_production({0: 0.5, 1: 0.3, 2: 0.2}, 10)
    assert alloc == {0: 5, 1: 3, 2: 2}
    alloc = schedule_production({0: 2 / 3, 1: 1 / 3}, 4)
    assert sum(alloc.values()) == 4
    assert alloc[0] == 3
    with pytest.raises(ValueError):
        schedule_production({0: 0.0}, 4)
    with pytest.raises(ValueError):
        schedule_production({0: 1.0}, -1)


def test_produce_segments_validation(double_well, dw_basins):
    definition, reg, labeler = dw_basins
    params = DynamicsParams(beta=3.0, dt=2e-3)
    with pytest.raises(ValueError):
        produce_segments(double_well, params, definition, 0,
                         np.array([[-1.0]]), tau_corr=0.0,
                         generation_indices=[0], master_seed=0, labeler=labeler)
    with pytest.raises(ValueError):
        produce_segments(double_well, params, definition, 0,
                         np.array([[-1.0]]), tau_corr=0.1,
                         generation_indices=[0, 1], master_seed=0, labeler=labeler)
