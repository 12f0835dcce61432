"""Accelerated molecular dynamics on model potentials.

Parallel Replica, Hyperdynamics, Temperature Accelerated Dynamics and
trajectory splicing over low-dimensional energy surfaces, validated
against a spectral Fokker-Planck solver and brute-force simulation.
"""

__version__ = "0.1.0"

from .potentials import (
    PotentialSurface,
    BiasPotential,
    StateGeometry,
    SURFACE_FACTORIES,
    make_double_well_1d,
    make_triple_well_1d,
    make_muller_brown_2d,
    make_entropic_channel_2d,
    make_quadratic_bowl,
    make_flat,
    make_tilted_1d,
    make_bump_bias,
    biased_surface,
    find_critical_points,
    interval_state_geometry,
    basin_geometry_1d,
)
from .dynamics import (
    DynamicsParams,
    WalkerState,
    BudgetExhaustedError,
    substream,
    step_overdamped,
    OverdampedBatch,
)
from .statemap import (
    OUTSIDE,
    BASIN,
    CORE_SET,
    EXPLICIT_REGION,
    StateDefinition,
    MinimaRegistry,
    ExitEvent,
    classify,
    make_labeler,
)
from .kmc import RateGraph, StateToStateTrajectory, sample_exit, run_kmc
from .qsd import (
    FvEnsemble,
    GelmanRubinDiagnostic,
    QsdEstimate,
    estimate_qsd,
    dephase_by_rejection,
    default_observables,
)
from .kramers import (
    RateTable,
    rate_table,
    prefactor_overdamped,
    prefactor_generalized,
    exit_law_asymptotic,
    tad_theta,
)
from .accel import (
    ParRepConfig,
    HyperConfig,
    TadConfig,
    parrep_exit,
    hyper_exit,
    tad_exit,
    direct_exit,
    run_accelerated,
)
from .splice import (
    Segment,
    SegmentDatabase,
    produce_segments,
    splice,
    schedule_production,
)
from .oracle import (
    SpectralSolution,
    ExitStatistics,
    solve_ground_state,
    exit_law_from_spectrum,
    qsd_samples_from_solution,
    direct_exit_statistics,
)
