"""Benchmark of mdaccel: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload cli-trajectory --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; mdaccel is imported from its ``src/``.
The run builds the workload's inputs, then repeats whole rounds of the
workload's timed body until the next round would pass ``--seconds``.
Round k draws its randomness from program seed ``seed * 1000 + k`` and
its outputs are checked against independent references after it ends.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters that import mdaccel and build the inputs), wall_s (median
round time), sim_time_per_wall_s (simulated time of all rounds over
their wall time) and peak_rss_mb.

--trace 1 runs every round twice, untraced then traced, checks that the
two produce bit-identical outputs, and prints the per-layer metrics from
the traced rounds, the tracing overhead, and where the spans were written.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli-trajectory", "exit-stats", "mb2d-splice")
SETUP_PROBES = 3
PROBE_TIMEOUT = 60

UNITS = {"setup_s": "s", "wall_s": "s", "sim_time_per_wall_s": "1", "peak_rss_mb": "MB"}


def _probe_code(workload: str, workdir: str) -> str:
    return ("import sys, time; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.build(%r, %r); print(time.monotonic())"
            % (SRC, HERE, workload, workdir))


def measure_setup(workload: str) -> list:
    """Seconds from spawning a fresh interpreter until it has built the
    workload's inputs (mdaccel imported, configs parsed, surfaces, state
    definitions, labelers and geometries made), for several interpreters."""
    out = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(OUT, workload, "setup-probe")
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _probe_code(workload, workdir)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def scipy_import_seconds() -> float:
    """Cumulative import time of the scipy packages that ``import mdaccel``
    pulls in, from ``python -X importtime`` (median of the probes)."""
    vals = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import sys; sys.path.insert(0, %r); import mdaccel" % SRC],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("import probe failed:\n" + proc.stderr)
        vals.append(_scipy_total(proc.stderr))
    return statistics.median(vals)


def _scipy_total(stderr: str) -> float:
    entries = []  # (depth, name, cumulative us), in print order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total, enclosing = 0, []  # walk backwards: parents come after children
    for depth, name, cum in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy"
                                                    for _, n in enclosing):
            total += cum
        enclosing.append((depth, name))
    return total * 1e-6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "mdaccel", "__init__.py")):
        print("error: %s does not hold the mdaccel sources; run from a checkout" % SRC,
              file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    import mdaccel
    if not os.path.abspath(mdaccel.__file__).startswith(SRC + os.sep):
        print("error: imported mdaccel from %s, not from %s" % (mdaccel.__file__, SRC),
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    import checks
    import tracing
    import workloads

    name = args.workload
    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    print("# mdaccel %s, python %s, numpy %s, scipy %s, %d CPUs"
          % (mdaccel.__version__, sys.version.split()[0], numpy.__version__,
             scipy.__version__, os.cpu_count()))

    if args.trace:
        scipy_s = scipy_import_seconds()
    else:
        setup = measure_setup(name)
        print("# setup probes: %s s" % ", ".join("%.4f" % s for s in setup))

    inputs = workloads.build(name, workdir)
    body = workloads.WORKLOADS[name][1]
    checker = checks.Checker(name)
    tracer = tracing.Tracer() if args.trace else None

    walls, sims, traced_walls = [], [], []
    correct, failed, rounds = True, 0, 0
    start = time.perf_counter()
    while True:
        seed = args.seed * 1000 + rounds
        t0 = time.perf_counter()
        out = body(inputs, seed, tracing.NULL)
        wall = time.perf_counter() - t0
        walls.append(wall)
        sims.append(out["sim_time"])
        if tracer is not None:
            with tracer.installed():
                t0 = time.perf_counter()
                traced = body(inputs, seed, tracer)
                traced_walls.append(time.perf_counter() - t0)
            if traced["digest"] != out["digest"]:
                correct = False
                print("round %d: traced outputs differ from untraced ones" % rounds)
        rep = checker.round(out)
        failed += sum(1 for m, rc in out.get("codes", {}).items()
                      if rc != 0 and m != "compare")
        rounds += 1
        print("round %d seed %d: wall %.4f s, sim %.6g, checks %s"
              % (rounds - 1, seed, wall, out["sim_time"],
                 "ok" if rep.ok else "FAILED: %s" % rep.failures()), flush=True)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    pooled = checker.finish()
    print("checks on the samples of all %d rounds:" % rounds)
    for item, ok, detail in pooled.items:
        print("#   %-36s %s  %s" % (item, "ok  " if ok else "FAIL", detail))
    correct &= checker.report.ok

    if args.trace:
        metrics = tracer.metrics(rounds)
        metrics["setup.scipy_import_s"] = scipy_s
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        path = os.path.join(workdir, "spans-seed%d.npz" % args.seed)
        n = tracer.write(path)
        print("# %d spans of %d traced rounds written to %s" % (n, rounds, path))
        units = tracing.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "sim_time_per_wall_s": sum(sims) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    result = {"correct": bool(correct), "attempted": rounds * workloads.OPS_PER_ROUND[name],
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    for k, v in result["metrics"].items():
        print("%-34s %14.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
