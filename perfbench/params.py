"""Sizes and physical parameters of the three workloads.

Kept apart from the code so that the references (refs.py) can read them
without importing mdaccel.
"""

# cli-trajectory: core-set double well (direct and ParRep) and the triple
# well's basins (TAD).  Core sets keep saddle recrossings out of the
# residences that `mdaccel compare` tests.
CLI_DW = {"beta": 2.0, "dt": 5e-3, "regions": [(-1.3, -0.7), (0.7, 1.3)],
          "start": -1.0, "horizon": 120.0, "n_replicas": 8, "tau_corr": 0.2}
CLI_TW = {"beta": 4.5, "beta_hi": 3.0, "dt": 2e-3, "scan_box": (-2.0, 2.0),
          "start": 0.0, "min_prefactor": 1.0, "horizon": 50.0}

# exit-stats: the left basin of the double well, and the middle basin of
# the triple well for TAD.
EXIT = {"beta": 3.0, "dt": 5e-3, "scan_box": (-3.0, 3.0), "fv_replicas": 256,
        "fv_burn": 2.0, "fv_time": 6.0, "n_events": 200, "n_replicas": 8,
        "tau_corr": 0.2, "bias_center": -1.0, "bias_width": 0.55,
        "bias_height": 0.3, "tw_beta": 6.0, "tw_beta_hi": 4.0, "tw_dt": 2e-3,
        "tw_min_prefactor": 1.0, "tw_box": (-2.0, 2.0), "n_tad": 100}

# mb2d-splice: Muller-Brown with three core rectangles (A, B, C minima).
MB2D = {"cores": [[[-0.62, -0.50], [1.38, 1.50]],
                  [[0.55, 0.70], [0.00, 0.06]],
                  [[-0.12, 0.02], [0.42, 0.51]]],
        "beta": 0.04, "dt": 1e-4, "tau": 0.02, "counts": [1536, 384, 384],
        "horizon": 15.0, "ref_walkers": 32, "ref_steps": 600000, "ref_seed": 20161}
