import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdaccel.accel import direct_exit
from mdaccel.dynamics import DynamicsParams
from mdaccel.oracle import direct_exit_statistics, exit_law_from_spectrum, solve_ground_state
from mdaccel.potentials import basin_geometry_1d, interval_state_geometry, make_flat
from mdaccel.statemap import (
    BASIN,
    CORE_SET,
    EXPLICIT_REGION,
    OUTSIDE,
    MinimaRegistry,
    StateDefinition,
    classify,
    exit_mask,
    make_labeler,
)

from conftest import three_sigma_fraction


def test_classify_double_well_by_sign(double_well):
    reg = MinimaRegistry()
    definition = StateDefinition(kind=BASIN)
    right = classify(np.array([0.3]), double_well, definition, reg)
    assert np.isclose(reg.positions[right][0], 1.0, atol=1e-6)
    left = classify(np.array([-0.3]), double_well, definition, reg)
    assert np.isclose(reg.positions[left][0], -1.0, atol=1e-6)
    assert left != right


def test_classify_at_registered_minimum(double_well):
    reg = MinimaRegistry()
    definition = StateDefinition(kind=BASIN)
    a = classify(np.array([-1.0]), double_well, definition, reg)
    b = classify(np.array([-1.0]), double_well, definition, reg)
    assert a == b
    # idempotent and deterministic
    assert classify(np.array([0.7]), double_well, definition, reg) == \
        classify(np.array([0.7]), double_well, definition, reg)


def test_core_set_outside_label(double_well):
    definition = StateDefinition(kind=CORE_SET, regions=[(-1.2, -0.8), (0.8, 1.2)])
    assert classify(np.array([0.0]), double_well, definition) == OUTSIDE
    assert classify(np.array([-1.0]), double_well, definition) == 0
    assert classify(np.array([1.0]), double_well, definition) == 1


def test_core_set_exit_mask_keeps_outside(double_well):
    definition = StateDefinition(kind=CORE_SET, regions=[(-1.2, -0.8), (0.8, 1.2)])
    labels = np.array([0, OUTSIDE, 1])
    assert list(exit_mask(labels, 0, definition)) == [False, False, True]


def test_registry_order_independent(double_well):
    definition = StateDefinition(kind=BASIN)
    reg_a, reg_b = MinimaRegistry(), MinimaRegistry()
    for x in (0.5, -0.5):
        classify(np.array([x]), double_well, definition, reg_a)
    for x in (-0.5, 0.5):
        classify(np.array([x]), double_well, definition, reg_b)
    pos_a = sorted(float(p[0]) for p in reg_a.positions)
    pos_b = sorted(float(p[0]) for p in reg_b.positions)
    assert np.allclose(pos_a, pos_b, atol=1e-8)


def test_compiled_labeler_matches_pointwise_classify(triple_well):
    definition = StateDefinition(kind=BASIN, scan_box=[(-2.0, 2.0)])
    reg = MinimaRegistry()
    labeler = make_labeler(triple_well, definition, reg)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.4, 1.4, size=(200, 1))
    fast = labeler(xs)
    slow = np.array([classify(x, triple_well, StateDefinition(kind=BASIN), reg)
                     for x in xs])
    assert np.array_equal(fast, slow)


@pytest.mark.slow
def test_flat_interval_exit_symmetry(flat_1d):
    # pure diffusion on (0,1) from the center: left/right split is 50/50
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0)])
    geom = interval_state_geometry(flat_1d, 0.0, 1.0)
    params = DynamicsParams(beta=1.0, dt=1e-4)
    stats = direct_exit_statistics(flat_1d, params, definition, 0,
                                   np.array([0.5]), 10_000, master_seed=17,
                                   geometry=geom)
    left_label = geom.nearest_region(np.array([-0.01]))
    p_left = stats.region_counts().get(left_label, 0) / stats.n_events
    assert three_sigma_fraction(p_left, 0.5, stats.n_events)
    # exit points actually left the interval
    assert np.all((stats.exit_points[:, 0] <= 0.0) | (stats.exit_points[:, 0] >= 1.0))


def test_double_well_left_basin_single_exit_region(double_well, dw_basins):
    definition, reg, labeler = dw_basins
    geom = basin_geometry_1d(double_well, np.array([-1.0]), (-3.0, 3.0))
    params = DynamicsParams(beta=3.0, dt=2e-3)
    for seed in range(5):
        ev = direct_exit(0, np.array([-1.0]), double_well, params, definition,
                         100 + seed, geometry=geom, labeler=labeler)
        assert ev.region_label == 0  # the single saddle region
        assert ev.exit_time == pytest.approx(ev.first_exit_step * params.dt)
        # re-classifying the exit point never returns the departed state
        assert int(labeler(ev.exit_point[None, :])[0]) != 0


@pytest.mark.slow
def test_triple_well_middle_split_matches_spectral(triple_well, tw_basins):
    definition, reg, labeler = tw_basins
    geom = basin_geometry_1d(triple_well, np.array([0.0]), (-2.0, 2.0))
    lo = min(z[0] for z in geom.boundary_minima)
    hi = max(z[0] for z in geom.boundary_minima)
    beta = 7.0
    h = (hi - lo) / 800
    sol = solve_ground_state(triple_well, (lo, hi), beta, h)
    _, probs = exit_law_from_spectrum(sol)
    p_left_pred = probs[0]

    params = DynamicsParams(beta=beta, dt=2e-3)
    stats = direct_exit_statistics(triple_well, params, definition, 1,
                                   np.array([0.0]), 400, master_seed=23,
                                   geometry=geom, labeler=labeler)
    left_label = geom.nearest_region(np.array([lo]))
    p_left = stats.region_counts().get(left_label, 0) / stats.n_events
    assert three_sigma_fraction(p_left, p_left_pred, stats.n_events)


def test_exit_mask_explicit_region():
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0), (2.0, 3.0)])
    labels = np.array([0, 1, OUTSIDE])
    assert list(exit_mask(labels, 0, definition)) == [False, True, True]


def test_state_definition_validation():
    with pytest.raises(ValueError):
        StateDefinition(kind="nonsense")
    with pytest.raises(ValueError):
        StateDefinition(kind=CORE_SET, regions=[])
    # overlapping regions would get different labels from classify (first
    # containing region) and from a labeler table; regions that only touch
    # are disjoint as open sets
    with pytest.raises(ValueError, match="overlap"):
        StateDefinition(kind=CORE_SET, regions=[(-1.0, 0.5), (0.0, 1.0)])
    with pytest.raises(ValueError, match="overlap"):
        StateDefinition(kind=EXPLICIT_REGION,
                        regions=[((0.0, 2.0), (0.0, 2.0)), ((1.0, 3.0), (1.9, 3.0))])
    with pytest.raises(ValueError, match="dimension"):
        StateDefinition(kind=EXPLICIT_REGION, regions=[(0.0, 1.0), ((2.0, 3.0), (0.0, 1.0))])
    # a region with lo >= hi on any axis contains no point
    with pytest.raises(ValueError, match="empty"):
        StateDefinition(kind=CORE_SET, regions=[(-0.7, -1.3), (0.7, 1.3)])
    with pytest.raises(ValueError, match="empty"):
        StateDefinition(kind=EXPLICIT_REGION, regions=[(0.5, 0.5)])
    with pytest.raises(ValueError, match="empty"):
        StateDefinition(kind=EXPLICIT_REGION, regions=[((0.0, 1.0), (2.0, 1.0))])
    StateDefinition(kind=CORE_SET, regions=[(-1.0, 0.0), (0.0, 1.0)])
    StateDefinition(kind=EXPLICIT_REGION,
                    regions=[((0.0, 2.0), (0.0, 2.0)), ((1.0, 3.0), (2.0, 3.0))])


@pytest.mark.parametrize("regions", [
    [(-1.3, -0.7), (0.7, 1.3)],
    [(0.7, 1.3), (-1.3, -0.7)],
    [(-1.0, 0.0), (0.0, 1.0)],
])
@pytest.mark.parametrize("kind", [CORE_SET, EXPLICIT_REGION])
def test_region_labeler_matches_classify_on_edges(double_well, regions, kind):
    definition = StateDefinition(kind=kind, regions=regions)
    edges = [v for r in regions for v in r]
    pts = np.array([u for v in edges
                    for u in (v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf))]
                   + [-2.0, 0.5, 2.0])[:, None]
    fast = make_labeler(double_well, definition)(pts)
    assert np.array_equal(fast, [classify(p, double_well, definition) for p in pts])


def test_rectangle_labeler_matches_classify_on_edges():
    from mdaccel.potentials import make_muller_brown_2d

    mb = make_muller_brown_2d()
    regions = [((-0.62, -0.50), (1.38, 1.50)), ((0.55, 0.70), (0.0, 0.06))]
    definition = StateDefinition(kind=CORE_SET, regions=regions)
    vals = sorted({v for r in regions for iv in r for v in iv})
    vals = [u for v in vals for u in (v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf))]
    pts = np.array([(x, y) for x in vals for y in vals])
    fast = make_labeler(mb, definition)(pts)
    assert np.array_equal(fast, [classify(p, mb, definition) for p in pts])
    assert set(fast) == {OUTSIDE, 0, 1}


@st.composite
def _disjoint_boxes(draw):
    """1 to 4 disjoint nonempty open boxes in 1d or 2d, on a coarse grid so
    that shared and touching edges are common."""
    dim = draw(st.sampled_from([1, 2]))
    coord = st.integers(-8, 8).map(lambda v: v / 4.0)
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        box = tuple(tuple(sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True))))
                    for _ in range(dim))
        if all(np.any(np.maximum([a[0] for a in box], [b[0] for b in other])
                      >= np.minimum([a[1] for a in box], [b[1] for b in other]))
               for other in boxes):
            boxes.append(box)
    points = draw(st.lists(st.tuples(*[st.floats(-2.5, 2.5)] * dim), max_size=20))
    return dim, boxes, points


@settings(max_examples=150, deadline=None)
@given(_disjoint_boxes())
def test_region_labeler_matches_classify_on_random_disjoint_boxes(case):
    dim, boxes, points = case
    regions = [b[0] for b in boxes] if dim == 1 else boxes
    surface = make_flat(dim)
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=regions)
    axis = [sorted({u for b in boxes for v in b[j]
                    for u in (v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf))})
            for j in range(dim)]
    edges = np.array(np.meshgrid(*axis, indexing="ij")).reshape(dim, -1).T
    pts = np.concatenate([edges, np.array(points, dtype=float).reshape(-1, dim)])
    fast = make_labeler(surface, definition)(pts)
    assert np.array_equal(fast, [classify(p, surface, definition) for p in pts])
