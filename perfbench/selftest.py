"""Self-tests of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

They check the references against closed forms, run a few rounds of each
workload (at a reduced size where the checks keep their power) whose
checks must pass, check that a traced round reproduces the untraced
outputs bit for bit, and show that every correctness check fails on a
deliberately wrong input.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import params  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_out", "selftest")
ROUNDS = 3

SMALL = {
    "exit-stats": (params.EXIT, {"n_events": 120, "n_tad": 60}),
    "mb2d-splice": (params.MB2D, {"counts": [768, 192, 192], "horizon": 6.0}),
}


@contextlib.contextmanager
def small(workload):
    """Shrink a workload's sizes in place (the params dicts are shared)."""
    table, sizes = SMALL.get(workload, ({}, {}))
    saved = dict(table)
    table.update(sizes)
    try:
        yield
    finally:
        table.clear()
        table.update(saved)


def run_rounds(workload, rounds=ROUNDS):
    inputs = workloads.build(workload, os.path.join(WORKDIR, workload))
    body = workloads.WORKLOADS[workload][1]
    outs = [body(inputs, 11000 + k, tracing.NULL) for k in range(rounds)]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = body(inputs, 11000, tracer)
    return outs, traced, tracer


def check_all(workload, outs):
    with small(workload):
        checker = checks.Checker(workload)
        for out in outs:
            checker.round(out)
        checker.finish()
    return checker.report


def failed(rep, name):
    return any(n == name for n, _ in rep.failures())


class References(unittest.TestCase):
    def test_ground_state_flat_interval(self):
        lam, pl, pr = refs.ground_state(lambda x: 0.0 * x, 1.0, 0.0, 1.0, n=2000)
        self.assertAlmostEqual(lam / math.pi ** 2, 1.0, places=5)
        self.assertAlmostEqual(pl, 0.5, places=6)

    def test_mfpt_flat_closed_form(self):
        # T(x0) = beta ((b - far)^2 - (x0 - far)^2) / 2 for V = 0
        t = refs.mfpt(lambda x: 0.0 * x, 2.0, 0.25, 1.0, 0.0)
        self.assertAlmostEqual(t, 2.0 * (1.0 - 0.0625) / 2.0, places=6)

    def test_mfpt_matches_inverse_eigenvalue_deep_well(self):
        # from the bottom of a deep well, the mean exit time is 1/lambda1
        lam = refs.ground_state(refs.double_well, 6.0, -2.5, 0.0)[0]
        t = refs.mfpt(refs.double_well, 6.0, -1.0, 0.0, -2.5)
        self.assertLess(abs(t * lam - 1.0), 0.01)

    def test_mb2d_reference_matches_config(self):
        res = refs.load_mb2d_reference(params.MB2D)
        self.assertEqual(len(res), len(params.MB2D["cores"]))
        self.assertTrue(all(r.size > 1000 for r in res))


class WorkloadTest:
    """Tests every workload shares; mixed into one TestCase per workload."""

    workload = None

    @classmethod
    def setUpClass(cls):
        with small(cls.workload):
            cls.outs, cls.traced, cls.tracer = run_rounds(cls.workload)

    def corrupt(self, **changes):
        """Checks of the rounds with ``changes`` applied to every output."""
        outs = []
        for out in self.outs:
            out = dict(out)
            for key, fn in changes.items():
                out[key] = fn(out[key])
            outs.append(out)
        return check_all(self.workload, outs)

    def test_checks_pass(self):
        rep = check_all(self.workload, self.outs)
        self.assertTrue(rep.ok, rep.failures())

    def test_traced_round_is_bit_identical(self):
        self.assertEqual(self.traced["digest"], self.outs[0]["digest"])
        self.assertGreater(self.tracer.metrics(1)["dynamics.lane_steps"], 0)


class ExitStats(WorkloadTest, unittest.TestCase):
    workload = "exit-stats"

    def test_traced_metrics(self):
        m = self.tracer.metrics(1)
        self.assertGreater(m["qsd.fv_kills"], 0)
        self.assertGreater(m["potentials.bias_energy_s"], 0)
        self.assertAlmostEqual(m["accel.direct.speedup"], 1.0, places=9)
        self.assertGreater(m["accel.hyper.speedup"], 1.0)

    def scaled(self, factor):
        return lambda s: dataclasses.replace(s, exit_times=s.exit_times * factor)

    def test_broken_parrep_clock_fails(self):
        rep = self.corrupt(parrep=self.scaled(1.0 / params.EXIT["n_replicas"]))
        self.assertTrue(failed(rep, "exit.parrep.law"))
        self.assertTrue(failed(rep, "exit.parrep.mean_exit_time"))

    def test_unboosted_hyper_clock_fails(self):
        outs = [dict(o, hyper=dataclasses.replace(o["hyper"],
                                                  exit_times=o["hyper"].exit_times / o["boosts"]))
                for o in self.outs]
        self.assertTrue(failed(check_all(self.workload, outs), "exit.hyper.mean_exit_time"))

    def test_boost_below_one_fails(self):
        rep = self.corrupt(boosts=lambda b: np.full_like(b, 0.9))
        self.assertTrue(failed(rep, "exit.hyper.boost"))

    def test_wrong_direct_clock_fails(self):
        rep = self.corrupt(direct=self.scaled(1.5))
        self.assertTrue(failed(rep, "exit.direct.mean_exit_time"))

    def test_wrong_kill_count_fails(self):
        rep = self.corrupt(fv=lambda fv: dict(fv, kills=fv["kills"] // 2))
        self.assertTrue(failed(rep, "exit.fv.kill_rate"))

    def test_unextrapolated_tad_clock_fails(self):
        # TAD without its Theta factor reports high-temperature times
        e = params.EXIT
        rep = self.corrupt(tad=self.scaled(math.exp(-(e["tw_beta"] - e["tw_beta_hi"]) * 0.85)))
        self.assertTrue(failed(rep, "exit.tad.mean_exit_time"))

    def test_swapped_tad_regions_fail(self):
        rep = self.corrupt(tad=lambda t: dataclasses.replace(t, exit_points=-t.exit_points))
        self.assertTrue(failed(rep, "exit.tad.left_share"))


class Mb2dSplice(WorkloadTest, unittest.TestCase):
    workload = "mb2d-splice"

    def test_traced_metrics(self):
        m = self.tracer.metrics(1)
        self.assertEqual(m["splice.segments_produced"], len(self.outs[0]["produced"]))
        self.assertTrue(0.0 < m["splice.use_ratio"] <= 1.0)
        self.assertGreater(m["qsd.dephase_lane_steps"], 0)

    def test_shortest_first_splice_fails(self):
        # the negative control of the splicing criterion: consuming segments
        # in completion order breaks FIFO, and the replay sees it
        outs = []
        for out in self.outs:
            db = workloads.splice.SegmentDatabase()
            for seg in out["produced"]:
                db.add(seg)
            with small(self.workload):
                traj = workloads.splice.splice(db, 0, params.MB2D["horizon"],
                                               order="shortest-first")
            outs.append(dict(out, states=list(traj.states), residences=list(traj.residences),
                             left={s: db.size(s) for s in out["left"]}))
        self.assertTrue(failed(check_all(self.workload, outs), "mb2d.splice.junctions"))

    def test_shortened_residences_fail(self):
        # residences cut to 40 % of their length, as a clock that skips
        # part of each segment would make them
        rep = self.corrupt(residences=lambda rs: [0.4 * r for r in rs])
        self.assertTrue(failed(rep, "mb2d.splice.mean_residence.state2"), rep.items)
        self.assertTrue(failed(rep, "mb2d.splice.law.state2"), rep.items)

    def test_more_spliced_than_produced_fails(self):
        rep = self.corrupt(produced=lambda p: p[: len(p) // 4])
        self.assertTrue(failed(rep, "mb2d.splice.used_le_produced")
                        or failed(rep, "mb2d.splice.junctions"))


class CliTrajectory(WorkloadTest, unittest.TestCase):
    """Runs at full size: residence counts come from a horizon, and fewer
    events would leave the mean checks no power."""

    workload = "cli-trajectory"

    def with_runs(self, method, fn):
        return self.corrupt(runs=lambda runs: dict(runs, **{method: fn(runs[method])}))

    def test_broken_parrep_clock_fails(self):
        n = params.CLI_DW["n_replicas"]
        rep = self.with_runs("parrep", lambda r: dict(r, residences=[x / n for x in
                                                                     r["residences"]]))
        self.assertTrue(failed(rep, "cli.parrep.mean_residence.state0"))
        self.assertTrue(failed(rep, "cli.parrep.law"))

    def test_inflated_tad_clock_fails(self):
        rep = self.with_runs("tad", lambda r: dict(r, residences=[x * 5 for x in
                                                                  r["residences"]]))
        self.assertTrue(failed(rep, "cli.tad.mean_residence"))

    def test_summary_clock_mismatch_fails(self):
        rep = self.with_runs("direct", lambda r: dict(
            r, summary=dict(r["summary"], clock=r["summary"]["clock"] + 1.0)))
        self.assertTrue(failed(rep, "cli.direct.clock"))

    def test_failed_run_and_compare_fail(self):
        rep = self.corrupt(codes=lambda c: dict(c, parrep=1, compare=2))
        self.assertTrue(failed(rep, "cli.parrep.exit_code"))
        self.assertTrue(failed(rep, "cli.compare.exit_code"))

    def test_disagreeing_laws_fail(self):
        rep = self.corrupt(verdict=lambda v: dict(v, ks_residence_pvalue=1e-9,
                                                  **{"pass": False}))
        self.assertTrue(failed(rep, "cli.compare.laws"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
