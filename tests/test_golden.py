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
from mdaccel.potentials import make_bump_bias, make_double_well_1d, make_muller_brown_2d
from mdaccel.qsd import dephase_by_rejection
from mdaccel.splice import produce_segments
from mdaccel.statemap import CORE_SET, EXPLICIT_REGION, StateDefinition, make_labeler

MB_CORES = [((-0.62, -0.50), (1.38, 1.50)),
            ((0.55, 0.70), (0.00, 0.06)),
            ((-0.12, 0.02), (0.42, 0.51))]

GOLDEN = {
    "mb2d_dephase_produce": "6697f0b26a33671e59b3fede237bd2e3ab334f5f70cb87a43870fa286726ca69",
    "dw_parrep_hyper": "249769ecff9beae2637be276d0ff7da7af57568b299db4c01ac4126ca3e0d4c4",
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


@pytest.mark.parametrize("name, run", [("mb2d_dephase_produce", _mb2d_dephase_produce),
                                       ("dw_parrep_hyper", _dw_parrep_hyper)])
def test_fixed_seed_outputs_match_golden_digest(name, run):
    assert run() == GOLDEN[name]
