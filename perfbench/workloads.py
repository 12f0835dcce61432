"""The benchmark's three workloads: their inputs and their timed bodies.

Each workload has a ``build_*`` step (set-up: surfaces, state definitions,
labelers, geometries, configs) and a ``round_*`` step (the timed body).
Round k of a run with workload seed s draws everything from the program
seed ``s * 1000 + k``, so the same seed gives the same inputs, and rounds
of one run are independent samples.  Every call into mdaccel goes through
a module attribute (``accel.parrep_exit_many``, not a local alias), so the
tracer's wrappers see it.

Only numpy and mdaccel are imported here: the set-up probe imports this
module, and scipy must arrive through ``import mdaccel`` alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os

import numpy as np

from mdaccel import accel, cli, dynamics, oracle, potentials, qsd, statemap
from params import CLI_DW, CLI_TW, EXIT, MB2D

# the package's __init__ rebinds the name mdaccel.splice to the function
splice = importlib.import_module("mdaccel.splice")

OPS_PER_ROUND = {"cli-trajectory": 4, "exit-stats": 5, "mb2d-splice": 8}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cli-trajectory


def _cli_configs() -> dict:
    dw, tw = CLI_DW, CLI_TW
    common = ("[surface]\nname = double_well_1d\n\n[dynamics]\nbeta = %r\ndt = %r\n\n"
              "[state]\nkind = core-set\nregions = %s\nstart = %r\n\n"
              % (dw["beta"], dw["dt"], "; ".join("%r %r" % r for r in dw["regions"]),
                 dw["start"]))
    run = "[run]\nhorizon = %r\n" % dw["horizon"]
    return {
        "direct": common + "[method]\nname = direct\n\n" + run,
        "parrep": common + ("[method]\nname = parrep\nn_replicas = %d\ntau_corr = %r\n\n"
                            % (dw["n_replicas"], dw["tau_corr"])) + run,
        "tad": ("[surface]\nname = triple_well_1d\n\n[dynamics]\nbeta = %r\ndt = %r\n\n"
                "[state]\nkind = basin-of-attraction\nscan_box = %r %r\nstart = %r\n\n"
                "[method]\nname = tad\nbeta_hi = %r\nmin_prefactor = %r\n\n"
                "[run]\nhorizon = %r\n"
                % (tw["beta"], tw["dt"], tw["scan_box"][0], tw["scan_box"][1], tw["start"],
                   tw["beta_hi"], tw["min_prefactor"], tw["horizon"])),
    }


def build_cli(workdir: str) -> dict:
    """Write the three run configs and parse them with the CLI's loader."""
    cfgdir = os.path.join(workdir, "configs")
    os.makedirs(cfgdir, exist_ok=True)
    paths = {}
    for name, text in _cli_configs().items():
        path = os.path.join(cfgdir, name + ".ini")
        with open(path, "w") as f:
            f.write(text)
        cli.load_config(path)
        paths[name] = path
    return {"configs": paths, "runs": os.path.join(workdir, "runs")}


def _read_run(rundir: str) -> dict:
    with open(os.path.join(rundir, "trajectory.csv"), newline="") as f:
        rows = list(csv.reader(f))[1:]
    with open(os.path.join(rundir, "summary.json")) as f:
        summary = json.load(f)
    raw = b""
    for name in ("events.csv", "trajectory.csv", "summary.json", "manifest.json"):
        with open(os.path.join(rundir, name), "rb") as f:
            raw += f.read()
    return {"states": np.array([int(r[0]) for r in rows], dtype=np.int64),
            "residences": [float(r[1]) for r in rows],
            "summary": summary, "raw": raw}


def round_cli(inp: dict, seed: int, tr) -> dict:
    codes, runs = {}, {}
    for method in ("direct", "parrep", "tad"):
        out = os.path.join(inp["runs"], method)
        codes[method] = cli.main(["run", inp["configs"][method], "--seed", str(seed),
                                  "--out", out])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes["compare"] = cli.main(["compare", os.path.join(inp["runs"], "direct"),
                                     os.path.join(inp["runs"], "parrep")])
    try:
        verdict = json.loads(buf.getvalue())
    except ValueError:
        verdict = None
    for method in ("direct", "parrep", "tad"):
        if codes[method] == 0:
            runs[method] = _read_run(os.path.join(inp["runs"], method))
    sim = sum(sum(r["residences"]) for r in runs.values())
    return {"codes": codes, "verdict": verdict, "runs": runs, "sim_time": sim,
            "digest": _digest(*(runs[m]["raw"] for m in sorted(runs)), buf.getvalue())}


# ---------------------------------------------------------------------------
# exit-stats


def build_exit() -> dict:
    e = EXIT
    dw = potentials.make_double_well_1d()
    dw_def = statemap.StateDefinition(kind=statemap.BASIN, scan_box=[e["scan_box"]])
    dw_lab = statemap.make_labeler(dw, dw_def, statemap.MinimaRegistry())
    dw_geom = potentials.basin_geometry_1d(dw, np.array([-1.0]), e["scan_box"])
    tw = potentials.make_triple_well_1d()
    tw_def = statemap.StateDefinition(kind=statemap.BASIN, scan_box=[e["tw_box"]])
    tw_lab = statemap.make_labeler(tw, tw_def, statemap.MinimaRegistry())
    tw_min = [p.position for p in potentials.find_critical_points(tw, [e["tw_box"]])
              if p.kind == "min"]
    middle = min(tw_min, key=lambda p: abs(p[0]))
    tw_geom = potentials.basin_geometry_1d(tw, middle, e["tw_box"])
    return {
        "dw": dw, "dw_def": dw_def, "dw_lab": dw_lab, "dw_geom": dw_geom,
        "dw_state": int(dw_lab(np.array([[-1.0]]))[0]),
        "params": dynamics.DynamicsParams(beta=e["beta"], dt=e["dt"]),
        "bias": potentials.make_bump_bias([e["bias_center"]], e["bias_width"],
                                          e["bias_height"]),
        "tw": tw, "tw_def": tw_def, "tw_lab": tw_lab, "tw_geom": tw_geom,
        "tw_middle": middle, "tw_state": int(tw_lab(middle[None, :])[0]),
        "tw_params": dynamics.DynamicsParams(beta=e["tw_beta"], dt=e["tw_dt"]),
    }


def round_exit(inp: dict, seed: int, tr) -> dict:
    e = EXIT
    ms = seed * 8
    dw, lab = tr.surface(inp["dw"]), tr.labeler(inp["dw_lab"])
    params, state, geom = inp["params"], inp["dw_state"], inp["dw_geom"]

    ens = qsd.FvEnsemble(dw, params, inp["dw_def"], state,
                         np.full((e["fv_replicas"], 1), -1.0), ms, labeler=lab)
    ens.run(e["fv_burn"])
    k0, t0 = ens.kill_count, ens.elapsed
    ens.run(e["fv_time"])
    fv = {"kills": ens.kill_count - k0, "replica_time": e["fv_replicas"] * (ens.elapsed - t0)}
    starts = ens.positions.copy()

    n = e["n_events"]
    direct = oracle.direct_exit_statistics(dw, params, inp["dw_def"], state, starts, n,
                                           master_seed=ms + 1, geometry=geom, labeler=lab)
    prc = accel.ParRepConfig(n_replicas=e["n_replicas"], tau_corr=e["tau_corr"])
    parrep, _ = accel.parrep_exit_many(dw, params, inp["dw_def"], state, starts, prc, n,
                                       master_seed=ms + 2, geometry=geom, labeler=lab)
    hc = accel.HyperConfig(bias=tr.bias(inp["bias"]), tau_corr=e["tau_corr"])
    hyper, hinfo = accel.hyper_exit_many(dw, params, inp["dw_def"], state, starts, hc, n,
                                         master_seed=ms + 3, geometry=geom, labeler=lab)
    tc = accel.TadConfig(beta_hi=e["tw_beta_hi"], beta_lo=e["tw_beta"],
                         min_prefactor=e["tw_min_prefactor"])
    tad, _ = accel.tad_exit_many(tr.surface(inp["tw"]), inp["tw_params"], inp["tw_def"],
                                 inp["tw_state"], inp["tw_middle"], tc, e["n_tad"],
                                 master_seed=ms + 4, geometry=inp["tw_geom"],
                                 labeler=tr.labeler(inp["tw_lab"]))
    sim = float(sum(s.exit_times.sum() for s in (direct, parrep, hyper, tad)))
    return {"fv": fv, "direct": direct, "parrep": parrep, "hyper": hyper,
            "boosts": hinfo["boosts"], "tad": tad, "sim_time": sim,
            "digest": _digest(starts, fv["kills"],
                              *(a for s in (direct, parrep, hyper, tad)
                                for a in (s.exit_times, s.exit_points, s.region_labels)),
                              hinfo["boosts"])}


# ---------------------------------------------------------------------------
# mb2d-splice


def build_mb2d() -> dict:
    m = MB2D
    mb = potentials.make_muller_brown_2d()
    regions = [tuple(tuple(side) for side in core) for core in m["cores"]]
    definition = statemap.StateDefinition(kind=statemap.CORE_SET, regions=regions)
    labeler = statemap.make_labeler(mb, definition)
    anchors = [np.array([0.5 * sum(cx), 0.5 * sum(cy)]) for cx, cy in m["cores"]]
    if [int(s) for s in labeler(np.array(anchors))] != list(range(len(anchors))):
        raise ValueError("core anchors do not label as their own cores")
    return {"mb": mb, "def": definition, "lab": labeler, "anchors": anchors,
            "params": dynamics.DynamicsParams(beta=m["beta"], dt=m["dt"])}


def round_mb2d(inp: dict, seed: int, tr) -> dict:
    m = MB2D
    mb, lab, params, definition = tr.surface(inp["mb"]), tr.labeler(inp["lab"]), \
        inp["params"], inp["def"]
    ms = seed * 8
    produced = []
    gen = 0
    for s, (anchor, count) in enumerate(zip(inp["anchors"], m["counts"])):
        starts = qsd.dephase_by_rejection(mb, params, definition, s, anchor, m["tau"],
                                          count, master_seed=ms, labeler=lab,
                                          seed_namespace=s)
        produced.extend(splice.produce_segments(mb, params, definition, s, starts, m["tau"],
                                                list(range(gen, gen + count)),
                                                master_seed=ms + 1, labeler=lab,
                                                seed_namespace=s))
        gen += count
    db = splice.SegmentDatabase()
    for seg in produced:
        db.add(seg)
    traj = splice.splice(db, 0, m["horizon"])
    left = {s: db.size(s) for s in range(len(inp["anchors"]))}
    return {"produced": produced, "left": left, "states": list(traj.states),
            "residences": list(traj.residences), "sim_time": traj.clock,
            "digest": _digest([(g.generation_index, g.path_summary, g.end_state)
                               for g in produced], traj.states, traj.residences)}


WORKLOADS = {
    "cli-trajectory": (build_cli, round_cli),
    "exit-stats": (build_exit, round_exit),
    "mb2d-splice": (build_mb2d, round_mb2d),
}


def build(name: str, workdir: str) -> dict:
    builder = WORKLOADS[name][0]
    return builder(workdir) if name == "cli-trajectory" else builder()
