"""Configuration-driven experiment runner.

``mdaccel run config.ini`` executes one accelerated-dynamics run and
writes events.csv, trajectory.csv, summary.json and manifest.json into
the output directory; ``mdaccel compare A B`` statistically compares two
run directories.  Given the same config and seed, outputs are
byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .accel import HyperConfig, ParRepConfig, TadConfig, run_accelerated
from .dynamics import DynamicsParams
from .oracle import chi_square, ks_two_sample, TestInapplicableError
from .potentials import (SURFACE_FACTORIES, basin_geometry_1d, find_critical_points,
                         interval_state_geometry, make_bump_bias)
from .statemap import BASIN, CORE_SET, EXPLICIT_REGION, MinimaRegistry, StateDefinition, make_labeler

__all__ = ["main", "ConfigError", "load_config", "run", "compare"]

_ALPHA = 0.01

_ALLOWED = {
    "surface": {"name", "scale", "tilt", "slope", "dim", "curvature",
                "neck_half_width", "chamber_half_width", "neck_length",
                "x_extent", "wall"},
    "dynamics": {"beta", "dt"},
    "state": {"kind", "scan_box", "regions", "start"},
    "method": {"name", "n_replicas", "tau_corr", "dephasing",
               "bias_center", "bias_width", "bias_height", "equilibrate",
               "beta_hi", "theta_variant", "min_prefactor", "min_barrier", "bounce"},
    "run": {"horizon", "seed", "out"},
}


class ConfigError(Exception):
    """Invalid configuration; message names the offending section/key."""


def _fail(section: str, key: str, msg: str) -> "ConfigError":
    return ConfigError("[%s] %s: %s" % (section, key, msg))


def load_config(path: str) -> dict:
    """Parse and validate an INI run configuration into plain dicts."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError("parse error in %s: %s" % (path, exc)) from exc
    if not read:
        raise ConfigError("config file %s not found or unreadable" % path)

    for section in cp.sections():
        if section not in _ALLOWED:
            raise ConfigError("unknown section [%s]" % section)
        for key in cp[section]:
            if key not in _ALLOWED[section]:
                raise _fail(section, key, "unknown key")
    for section in ("surface", "dynamics", "state", "method", "run"):
        if section not in cp:
            raise ConfigError("missing section [%s]" % section)
    return {s: dict(cp[s]) for s in cp.sections()}


_REQUIRED = object()


def _number(cfg: dict, section: str, key: str, kind=float, default=_REQUIRED):
    """``cfg[section][key]`` as a float (or ``kind``), ``default`` when the
    key is absent; missing required and malformed values are config errors
    that name the key."""
    text = cfg[section].get(key)
    if text is None:
        if default is _REQUIRED:
            raise _fail(section, key, "required")
        return default
    try:
        return kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise _fail(section, key, "expected %s, got %r" % (what, text)) from exc


def _floats(text: str, section: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise _fail(section, key, "expected numbers, got %r" % text) from exc


def _build(cfg: dict, seed_override: Optional[int]):
    s = cfg["surface"]
    name = s.get("name")
    if name not in SURFACE_FACTORIES:
        raise _fail("surface", "name", "unknown surface %r (choices: %s)"
                    % (name, ", ".join(sorted(SURFACE_FACTORIES))))
    kwargs = {}
    for key in s:
        if key == "name":
            continue
        kwargs[key] = _number(cfg, "surface", key, int if key == "dim" else float)
    try:
        surface = SURFACE_FACTORIES[name](**kwargs)
    except TypeError as exc:
        raise _fail("surface", "name", "bad arguments for %s: %s" % (name, exc)) from exc

    beta, dt = _number(cfg, "dynamics", "beta"), _number(cfg, "dynamics", "dt")
    try:
        params = DynamicsParams(beta=beta, dt=dt)
    except ValueError as exc:
        raise _fail("dynamics", "beta/dt", str(exc)) from exc

    st = cfg["state"]
    kind = st.get("kind", BASIN)
    if kind not in (BASIN, CORE_SET, EXPLICIT_REGION):
        raise _fail("state", "kind", "unknown kind %r" % kind)
    registry = MinimaRegistry()
    scan = None
    if kind == BASIN:
        if "scan_box" not in st:
            raise _fail("state", "scan_box", "required for basin states")
        box = _floats(st["scan_box"], "state", "scan_box")
        if len(box) != 2 * surface.dim:
            raise _fail("state", "scan_box", "need %d numbers" % (2 * surface.dim))
        scan_box = [tuple(box[2 * i:2 * i + 2]) for i in range(surface.dim)]
        definition = StateDefinition(kind=BASIN, scan_box=scan_box)
        if surface.dim == 1:
            # one scan serves the labeler, the minima and their geometries
            scan = find_critical_points(surface, scan_box, grid=definition.scan_grid)
    else:
        if "regions" not in st:
            raise _fail("state", "regions", "required for %s states" % kind)
        regions = []
        for part in st["regions"].split(";"):
            vals = _floats(part, "state", "regions")
            if len(vals) == 2 and surface.dim == 1:
                regions.append((vals[0], vals[1]))
            elif len(vals) == 4 and surface.dim == 2:
                regions.append(((vals[0], vals[1]), (vals[2], vals[3])))
            else:
                raise _fail("state", "regions", "each region needs %d numbers"
                            % (2 * surface.dim))
        try:
            definition = StateDefinition(kind=kind, regions=regions)
        except ValueError as exc:
            raise _fail("state", "regions", str(exc)) from exc
    labeler = make_labeler(surface, definition, registry, critical_points=scan)

    if "start" not in st:
        raise _fail("state", "start", "required")
    start = np.array(_floats(st["start"], "state", "start"))
    if start.size != surface.dim:
        raise _fail("state", "start", "need %d coordinates" % surface.dim)

    m = cfg["method"]
    method = m.get("name")
    if method not in ("direct", "parrep", "hyper", "tad"):
        raise _fail("method", "name", "unknown method %r" % method)
    mcfg = None
    if method == "parrep":
        if m.get("tau_corr") == "adaptive":
            raise _fail("method", "tau_corr", "adaptive decorrelation cannot be run from "
                        "the command line yet; give a time")
        try:
            mcfg = ParRepConfig(
                n_replicas=_number(cfg, "method", "n_replicas", int, 8),
                tau_corr=_number(cfg, "method", "tau_corr", default=0.0),
                dephasing=m.get("dephasing", "rejection"),
            )
        except ValueError as exc:
            raise _fail("method", "n_replicas/dephasing", str(exc)) from exc
    elif method == "hyper":
        for key in ("bias_center", "bias_width", "bias_height"):
            if key not in m:
                raise _fail("method", key, "required for hyper")
        bias = make_bump_bias(_floats(m["bias_center"], "method", "bias_center"),
                              _number(cfg, "method", "bias_width"),
                              _number(cfg, "method", "bias_height"))
        mcfg = HyperConfig(bias=bias, tau_corr=_number(cfg, "method", "tau_corr", default=0.0),
                           equilibrate=m.get("equilibrate", "yes").lower()
                           in ("1", "yes", "true", "on"))
    elif method == "tad":
        if "beta_hi" not in m:
            raise _fail("method", "beta_hi", "required for tad")
        beta_hi = _number(cfg, "method", "beta_hi")
        min_prefactor = _number(cfg, "method", "min_prefactor", default=None)
        min_barrier = _number(cfg, "method", "min_barrier", default=None)
        try:
            mcfg = TadConfig(
                beta_hi=beta_hi,
                beta_lo=params.beta,
                theta_variant=m.get("theta_variant", "plain"),
                min_prefactor=min_prefactor,
                min_barrier=min_barrier,
                bounce=m.get("bounce", "reflect"),
            )
        except Exception as exc:
            raise _fail("method", "beta_hi/bounds", str(exc)) from exc

    r = cfg["run"]
    horizon = _number(cfg, "run", "horizon")
    seed = seed_override if seed_override is not None else _number(cfg, "run", "seed", int, 0)

    geometries = {}
    if surface.dim == 1:
        if kind == BASIN:
            box = definition.scan_box[0]
            for p in scan:
                if p.kind == "min":
                    label = registry.register(p.position)
                    geometries[label] = basin_geometry_1d(surface, p.position, box,
                                                          critical_points=scan)
        else:
            for i, (a, b) in enumerate(definition.regions):
                geometries[i] = interval_state_geometry(surface, a, b)

    return dict(surface=surface, params=params, definition=definition,
                labeler=labeler, start=start, method=method, mcfg=mcfg,
                horizon=horizon, seed=seed, geometries=geometries,
                out=r.get("out"))


_EVENT_FIELDS = ["event_index", "state", "method", "residence_time",
                 "exit_region", "wall_steps_used", "boost_or_N"]


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def run(config_path: str, seed: Optional[int] = None, out: Optional[str] = None) -> int:
    cfg = load_config(config_path)
    built = _build(cfg, seed)
    outdir = out or built["out"]
    if not outdir:
        raise ConfigError("[run] out: required (or pass --out)")

    traj = run_accelerated(built["surface"], built["params"], built["definition"],
                           built["method"], built["horizon"], built["seed"],
                           built["start"], config=built["mcfg"],
                           labeler=built["labeler"], geometries=built["geometries"])

    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "events.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_EVENT_FIELDS)
        for rec in traj.records:
            w.writerow([_fmt(rec[k]) for k in _EVENT_FIELDS])
    with open(os.path.join(outdir, "trajectory.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["state", "residence_time", "exit_region"])
        for s, r, x in zip(traj.states, traj.residences, traj.exit_regions):
            w.writerow([s, repr(r), x])

    res = np.array(traj.residences) if traj.residences else np.zeros(0)
    summary = {
        "method": built["method"],
        "n_events": len(traj.states),
        "clock": traj.clock,
        "mean_residence_time": float(res.mean()) if res.size else None,
        "total_wall_steps": int(sum(r["wall_steps_used"] for r in traj.records)),
        "occupation_fractions": {str(k): v for k, v in
                                 sorted(traj.occupation_fractions().items())}
        if traj.states else {},
        "seed": built["seed"],
    }
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    with open(config_path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "seed": built["seed"],
        "version": __version__,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def _load_events(rundir: str) -> dict[str, np.ndarray]:
    path = os.path.join(rundir, "events.csv")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != _EVENT_FIELDS:
        raise ConfigError("%s: unexpected event schema" % path)
    if len(rows) == 1:
        raise ConfigError("%s: no events" % path)
    cols = np.array(rows[1:], dtype=object)
    return {
        "residence_time": cols[:, _EVENT_FIELDS.index("residence_time")].astype(float),
        "exit_region": cols[:, _EVENT_FIELDS.index("exit_region")].astype(int),
    }


def compare(dir_a: str, dir_b: str) -> int:
    """KS on residence times + chi-square on exit-region counts at 0.01."""
    a, b = _load_events(dir_a), _load_events(dir_b)
    ks_p = ks_two_sample(a["residence_time"], b["residence_time"])
    regions = sorted(set(a["exit_region"]) | set(b["exit_region"]))
    counts_a = [int(np.sum(a["exit_region"] == r)) for r in regions]
    counts_b = [int(np.sum(b["exit_region"] == r)) for r in regions]
    try:
        if len(regions) < 2:
            chi_p = None  # single category: nothing to test
        else:
            chi_p = chi_square(counts_a, counts_b)
        chi_note = None
    except TestInapplicableError as exc:
        chi_p, chi_note = None, str(exc)
    ok = ks_p >= _ALPHA and (chi_p is None or chi_p >= _ALPHA)
    verdict = {
        "alpha": _ALPHA,
        "ks_residence_pvalue": ks_p,
        "chi2_exit_region_pvalue": chi_p,
        "chi2_note": chi_note,
        "n_events": [int(a["residence_time"].size), int(b["residence_time"].size)],
        "pass": bool(ok),
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="mdaccel",
                                     description="accelerated-dynamics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_cmp = sub.add_parser("compare", help="statistically compare two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run(args.config, seed=args.seed, out=args.out)
        return compare(args.dir_a, args.dir_b)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # simulation failures: report, nonzero status
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
