"""Golden digests: fixed-seed outputs of the lane loops, pinned by SHA-256.

A refactor or optimization of the integrator, the labelers or the lane
loops must leave these outputs bit-identical.  The digests were recorded
with numpy 2.4.6 (Python 3.11, x86-64); numpy's vectorized ``exp`` may
round differently under another version or CPU, in which case they have
to be recorded again from a known-good commit.
"""

import hashlib

import numpy as np
import pytest

from mdaccel import accel
from mdaccel.dynamics import DynamicsParams
from mdaccel.oracle import direct_exit_statistics
from mdaccel.potentials import (basin_geometry_1d, interval_state_geometry, make_bump_bias,
                                make_double_well_1d, make_muller_brown_2d)
from mdaccel.qsd import dephase_by_rejection
from mdaccel.splice import produce_segments
from mdaccel.statemap import (BASIN, CORE_SET, EXPLICIT_REGION, MinimaRegistry,
                              StateDefinition, make_labeler)

MB_CORES = [((-0.62, -0.50), (1.38, 1.50)),
            ((0.55, 0.70), (0.00, 0.06)),
            ((-0.12, 0.02), (0.42, 0.51))]

GOLDEN = {
    "mb2d_dephase_produce": "6697f0b26a33671e59b3fede237bd2e3ab334f5f70cb87a43870fa286726ca69",
    "dw_parrep_hyper": "249769ecff9beae2637be276d0ff7da7af57568b299db4c01ac4126ca3e0d4c4",
    "dw_direct_statistics": "ae627ec587aec36441aa9a834491a1aafb787b1c2919bd8e5f196a60d281a5c6",
    "dw_core_set_direct_run": "296f9d80e47cb8ef0171ba803b0f16e8d86c879d520e505aeeb0308bee4055b8",
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def _mb2d_dephase_produce() -> str:
    mb = make_muller_brown_2d()
    definition = StateDefinition(kind=CORE_SET, regions=MB_CORES)
    labeler = make_labeler(mb, definition)
    params = DynamicsParams(beta=0.04, dt=1e-4)
    parts, gen = [], 0
    for s, (cx, cy) in enumerate(MB_CORES):
        anchor = np.array([0.5 * sum(cx), 0.5 * sum(cy)])
        starts = dephase_by_rejection(mb, params, definition, s, anchor, 0.02, 64,
                                      master_seed=11, labeler=labeler, seed_namespace=s)
        segs = produce_segments(mb, params, definition, s, starts, 0.02,
                                list(range(gen, gen + 64)), master_seed=12,
                                labeler=labeler, seed_namespace=s)
        gen += 64
        parts += [starts, [(g.generation_index, g.start_state, g.end_state, g.duration,
                            g.path_summary) for g in segs]]
    return _digest(*parts)


def _dw_parrep_hyper() -> str:
    # a narrow explicit region, so that dephasing and equilibration restart
    # lanes often and from different anchors
    dw = make_double_well_1d()
    definition = StateDefinition(kind=EXPLICIT_REGION, regions=[(-1.4, -0.6), (0.6, 1.4)])
    labeler = make_labeler(dw, definition)
    state = 0
    params = DynamicsParams(beta=3.0, dt=5e-3)
    init = np.array([[-1.0], [-0.9], [-1.1]])
    prc = accel.ParRepConfig(n_replicas=8, tau_corr=0.2)
    parrep, pinfo = accel.parrep_exit_many(dw, params, definition, state, init, prc, 16,
                                           master_seed=21, labeler=labeler)
    hc = accel.HyperConfig(bias=make_bump_bias([-1.0], 0.35, 0.3), tau_corr=0.2)
    hyper, hinfo = accel.hyper_exit_many(dw, params, definition, state, init, hc, 16,
                                         master_seed=22, labeler=labeler)
    return _digest(*(a for s in (parrep, hyper)
                     for a in (s.exit_times, s.exit_points, s.region_labels)),
                   *(pinfo[k] for k in sorted(pinfo)), *(hinfo[k] for k in sorted(hinfo)))


def _dw_direct_statistics() -> str:
    # more events than lanes, so that lanes refill from the event queue and
    # then drain once it is empty
    dw = make_double_well_1d()
    definition = StateDefinition(kind=BASIN, scan_box=[(-3.0, 3.0)])
    labeler = make_labeler(dw, definition, MinimaRegistry())
    geom = basin_geometry_1d(dw, np.array([-1.0]), (-3.0, 3.0))
    init = np.array([[-1.0], [-0.8], [-1.2]])
    stats = direct_exit_statistics(dw, DynamicsParams(beta=3.0, dt=5e-3), definition, 0,
                                   init, 64, master_seed=31, geometry=geom,
                                   labeler=labeler, lanes=16)
    return _digest(stats.exit_times, stats.exit_points, stats.region_labels)


def _dw_core_set_direct_run() -> str:
    dw = make_double_well_1d()
    regions = [(-1.3, -0.7), (0.7, 1.3)]
    definition = StateDefinition(kind=CORE_SET, regions=regions)
    geometries = {i: interval_state_geometry(dw, a, b) for i, (a, b) in enumerate(regions)}
    traj = accel.run_accelerated(dw, DynamicsParams(beta=2.0, dt=5e-3), definition, "direct",
                                 100.0, 41, np.array([-1.0]), geometries=geometries)
    return _digest(traj.states, traj.residences, traj.exit_regions, traj.records)


@pytest.mark.parametrize("name, run", [("mb2d_dephase_produce", _mb2d_dephase_produce),
                                       ("dw_parrep_hyper", _dw_parrep_hyper),
                                       ("dw_direct_statistics", _dw_direct_statistics),
                                       ("dw_core_set_direct_run", _dw_core_set_direct_run)])
def test_fixed_seed_outputs_match_golden_digest(name, run):
    assert run() == GOLDEN[name]
