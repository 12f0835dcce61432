"""Spans around the calls into each mdaccel layer, for the traced run.

``Tracer.installed()`` swaps wrappers in at the names the layers call
(module functions, class methods, surface and labeler closures) and puts
the originals back on exit.  A wrapper records one span: name, start, end,
parent and a count (lanes per ``step``, rows per ``grad``, kills per
Fleming-Viot sweep, segments per production call).  Spans stay in memory
and are written once, at the end.  Self time is a span's duration minus
the time its child spans cover.

``NULL`` has the same surface/labeler/bias hooks and changes nothing; the
untraced rounds use it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

from mdaccel import accel, cli, dynamics, oracle, potentials, qsd

splice = importlib.import_module("mdaccel.splice")  # not the function of that name

_clock = time.perf_counter

UNITS = {
    "dynamics.lane_steps": "count", "dynamics.lanes_per_call": "count",
    "dynamics.step_ns_per_lane_step": "ns", "dynamics.substream_calls": "count",
    "dynamics.substream_s": "s", "potentials.grad_rows": "count",
    "potentials.grad_ns_per_row": "ns", "potentials.bias_energy_s": "s",
    "statemap.labeler_calls": "count", "statemap.labeler_ns_per_call": "ns",
    "qsd.fv_s": "s", "qsd.fv_kills": "count", "qsd.dephase_s": "s",
    "qsd.dephase_lane_steps": "count", "oracle.direct_s": "s", "accel.parrep_s": "s",
    "accel.hyper_s": "s", "accel.tad_s": "s", "accel.bookkeeping_s": "s",
    "accel.direct.speedup": "1", "accel.parrep.speedup": "1", "accel.hyper.speedup": "1",
    "accel.tad.speedup": "1", "splice.produce_s": "s", "splice.db_s": "s",
    "splice.segments_produced": "count", "splice.segments_spliced": "count",
    "splice.use_ratio": "1", "cli.overhead_s": "s", "cli.compare_s": "s",
    "setup.scipy_import_s": "s", "trace.overhead_s": "s",
}

# kernel spans: their self time is bookkeeping, their outputs simulated time
KERNELS = {"oracle.direct": "direct", "accel.direct": "direct", "accel.parrep": "parrep",
           "accel.hyper": "hyper", "accel.tad": "tad"}


def _rows(args, kwargs, out):
    x = args[0]
    return x.shape[0] if getattr(x, "ndim", 0) == 2 else 1


def _sim_time(out) -> float:
    """Simulated time an exit kernel returned (an event or exit statistics)."""
    if isinstance(out, tuple):
        out = out[0]
    if hasattr(out, "exit_times"):
        return float(np.sum(out.exit_times))
    return float(out.exit_time)


class _Null:
    def surface(self, s):
        return s

    def labeler(self, f):
        return f

    def bias(self, b):
        return b


NULL = _Null()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, start, child time, lanes, span id, outermost]
        self._active: dict[int, int] = defaultdict(int)
        self._next = 0
        self.span_id, self.parent, self.name_id = array("q"), array("q"), array("i")
        self.start, self.end, self.count = array("d"), array("d"), array("q")
        self.calls = defaultdict(int)
        self.total = defaultdict(int)  # summed counts per name
        self.incl = defaultdict(float)  # outermost inclusive time per name
        self.self_time = defaultdict(float)
        self.lanes_under = defaultdict(int)  # lane-steps beneath outermost spans
        self.sim = defaultdict(float)  # per method: simulated time returned
        self.work = defaultdict(float)  # per method: lane-steps * dt

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, params_of=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, kwargs, out)`` gives the span's count; ``params_of``
        marks an exit kernel and finds its DynamicsParams in the arguments.
        """
        nid = self._nid(name)
        step = name == "dynamics.step"
        kernel = KERNELS.get(name)
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            outer = active[nid] == 0
            active[nid] += 1
            frame = [nid, 0.0, 0.0, 0, sid, outer]
            stack.append(frame)
            frame[1] = _clock()
            n, out, done = 0, None, False
            try:
                out = fn(*args, **kwargs)
                done = True
                if count is not None:
                    n = count(args, kwargs, out)
                return out
            finally:
                t1 = _clock()
                stack.pop()
                active[nid] -= 1
                dur = t1 - frame[1]
                if stack:
                    stack[-1][2] += dur
                    if step:
                        for f in stack:
                            f[3] += n
                self.span_id.append(sid)
                self.parent.append(stack[-1][4] if stack else -1)
                self.name_id.append(nid)
                self.start.append(frame[1])
                self.end.append(t1)
                self.count.append(n)
                self.calls[name] += 1
                self.total[name] += n
                self.self_time[name] += dur - frame[2]
                if outer:
                    self.incl[name] += dur
                    self.lanes_under[name] += frame[3]
                    if done and params_of is not None:
                        self.sim[kernel] += _sim_time(out)
                        self.work[kernel] += frame[3] * params_of(args, kwargs).dt
        return wrapper

    # hooks for the inputs the benchmark builds itself ---------------------

    def surface(self, s):
        return dataclasses.replace(s, grad=self.wrap("potentials.grad", s.grad, _rows))

    def labeler(self, f):
        return self.wrap("statemap.labeler", f)

    def bias(self, b):
        return dataclasses.replace(
            b, energy=self.wrap("potentials.bias_energy", b.energy, _rows),
            grad=self.wrap("potentials.bias_grad", b.grad, _rows))

    # wrappers at the names the layers call ---------------------------------

    def _targets(self):
        def kernel(name, owner, attr):
            fn = getattr(owner, attr)
            sig = inspect.signature(fn)
            return owner, attr, self.wrap(
                name, fn, params_of=lambda a, k: sig.bind(*a, **k).arguments["params"])

        t = [(dynamics.OverdampedBatch, "step",
              self.wrap("dynamics.step", dynamics.OverdampedBatch.step,
                        lambda a, k, out: out.shape[0]))]
        for mod in (dynamics, qsd, accel, oracle, splice):
            t.append((mod, "substream", self.wrap("dynamics.substream", mod.substream)))
        t += [
            (qsd.FvEnsemble, "step", self.wrap("qsd.fv", qsd.FvEnsemble.step,
                                               lambda a, k, out: out)),
            (qsd, "dephase_by_rejection", self.wrap("qsd.dephase", qsd.dephase_by_rejection)),
            kernel("oracle.direct", oracle, "direct_exit_statistics"),
            kernel("accel.direct", accel, "direct_exit"),
            kernel("accel.parrep", accel, "parrep_exit"),
            kernel("accel.parrep", accel, "parrep_exit_many"),
            kernel("accel.hyper", accel, "hyper_exit"),
            kernel("accel.hyper", accel, "hyper_exit_many"),
            kernel("accel.tad", accel, "tad_exit"),
            kernel("accel.tad", accel, "tad_exit_many"),
            (splice, "produce_segments", self.wrap("splice.produce", splice.produce_segments,
                                                   lambda a, k, out: len(out))),
            (splice.SegmentDatabase, "add", self.wrap("splice.db_add",
                                                      splice.SegmentDatabase.add)),
            (splice.SegmentDatabase, "pop", self.wrap("splice.db_pop",
                                                      splice.SegmentDatabase.pop)),
            (splice, "splice", self.wrap("splice.splice", splice.splice)),
            (cli, "run", self.wrap("cli.run", cli.run)),
            (cli, "compare", self.wrap("cli.compare", cli.compare)),
            (cli, "run_accelerated", self.wrap("accel.run_accelerated", cli.run_accelerated)),
        ]
        make_labeler = cli.make_labeler
        t.append((cli, "make_labeler",
                  functools.wraps(make_labeler)(
                      lambda *a, **k: self.labeler(make_labeler(*a, **k)))))
        return t

    @contextlib.contextmanager
    def installed(self):
        targets = self._targets()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        factories = dict(potentials.SURFACE_FACTORIES)
        try:
            for owner, attr, new in targets:
                setattr(owner, attr, new)
            for key, make in factories.items():
                potentials.SURFACE_FACTORIES[key] = functools.wraps(make)(
                    lambda *a, _make=make, **k: self.surface(_make(*a, **k)))
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)
            potentials.SURFACE_FACTORIES.update(factories)

    # results ---------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, as totals per round and ratios of totals."""
        R = float(rounds)
        c, tot, inc, st = self.calls, self.total, self.incl, self.self_time

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        spliced, produced = c["splice.db_pop"], tot["splice.produce"]
        m = {
            "dynamics.lane_steps": tot["dynamics.step"] / R,
            "dynamics.lanes_per_call": ratio(tot["dynamics.step"], c["dynamics.step"]),
            "dynamics.step_ns_per_lane_step": ratio(st["dynamics.step"], tot["dynamics.step"],
                                                    1e9),
            "dynamics.substream_calls": c["dynamics.substream"] / R,
            "dynamics.substream_s": inc["dynamics.substream"] / R,
            "potentials.grad_rows": tot["potentials.grad"] / R,
            "potentials.grad_ns_per_row": ratio(st["potentials.grad"], tot["potentials.grad"],
                                                1e9),
            "potentials.bias_energy_s": inc["potentials.bias_energy"] / R,
            "statemap.labeler_calls": c["statemap.labeler"] / R,
            "statemap.labeler_ns_per_call": ratio(st["statemap.labeler"], c["statemap.labeler"],
                                                  1e9),
            "qsd.fv_s": inc["qsd.fv"] / R,
            "qsd.fv_kills": tot["qsd.fv"] / R,
            "qsd.dephase_s": inc["qsd.dephase"] / R,
            "qsd.dephase_lane_steps": self.lanes_under["qsd.dephase"] / R,
            "oracle.direct_s": (inc["oracle.direct"] + inc["accel.direct"]) / R,
            "accel.parrep_s": inc["accel.parrep"] / R,
            "accel.hyper_s": inc["accel.hyper"] / R,
            "accel.tad_s": inc["accel.tad"] / R,
            "accel.bookkeeping_s": sum(st[k] for k in KERNELS) / R,
        }
        for method in ("direct", "parrep", "hyper", "tad"):
            m["accel.%s.speedup" % method] = ratio(self.sim[method], self.work[method])
        m.update({
            "splice.produce_s": inc["splice.produce"] / R,
            "splice.db_s": (inc["splice.db_add"] + inc["splice.splice"]) / R,
            "splice.segments_produced": produced / R,
            "splice.segments_spliced": spliced / R,
            "splice.use_ratio": ratio(spliced, produced),
            "cli.overhead_s": (inc["cli.run"] - inc["accel.run_accelerated"]) / R,
            "cli.compare_s": inc["cli.compare"] / R,
        })
        return m

    def write(self, path: str) -> int:
        """Write every span to an .npz file; returns the number of spans."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        cols = {"span_id": self.span_id, "parent": self.parent, "name_id": self.name_id,
                "start": self.start, "end": self.end, "count": self.count}
        arrays = {k: np.frombuffer(v, dtype=np.dtype(v.typecode))[order]
                  for k, v in cols.items()}
        with open(path, "wb") as f:
            np.savez(f, names=np.array(self.names), **arrays)
        return len(order)
