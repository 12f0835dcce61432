"""Correctness checks of each workload's outputs.

Every check compares the program's outputs with an independent reference
(refs.py) or with a property the method must have; none compares with a
stored copy of earlier output.  Each statistical check is a two-sided test
whose false-alarm probability is at most ``TAIL`` on correct code.  A run
makes about ten of them and accepting the benchmark takes some seventy
runs, so a gate at the usual alpha = 0.01 would fail at random in most
sets of runs; the p-values are printed, so the alpha = 0.01 verdicts stay
visible.  A systematic
allowance, stated next to each reference, covers the known modelling
error of the reference itself (time discretisation, TAD's harmonic
extrapolation).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from scipy import stats

import refs
from params import CLI_DW, CLI_TW, EXIT, MB2D

TAIL = 1e-6  # false-alarm probability of one statistical check
ALPHA_REPORT = 0.01  # the conventional level, reported but not gated on


class Report:
    """Verdicts of a list of checks."""

    def __init__(self):
        self.items = []  # (name, ok, detail)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def failures(self) -> list:
        return [(n, d) for n, ok, d in self.items if not ok]


def mean_check(rep, name, samples, ref_mean, allowance, cv=1.0):
    """Mean of n exit-like times against ``ref_mean``.

    Exit times from a metastable state are close to exponential, so
    n * mean / ref_mean is Gamma(n, 1); the band holds it with probability
    1 - TAIL, widened by the relative ``allowance``.  For a law with another
    coefficient of variation ``cv`` the Gamma shape is matched to it.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        rep.add(name, False, "no samples")
        return
    k = n / cv ** 2  # Gamma(k, 1/k) has mean 1 and the variance of the mean
    lo = stats.gamma.ppf(TAIL / 2, k) / k / (1.0 + allowance)
    hi = stats.gamma.isf(TAIL / 2, k) / k * (1.0 + allowance)
    r = float(x.mean()) / ref_mean
    rep.add(name, lo <= r <= hi, "n=%d mean/ref=%.4f band=[%.3f, %.3f] ref=%.4g"
            % (n, r, lo, hi, ref_mean))


def ks_check(rep, name, a, b):
    if min(len(a), len(b)) < 2:
        rep.add(name, False, "too few samples: n=%d/%d" % (len(a), len(b)))
        return
    p = float(stats.ks_2samp(np.asarray(a, float), np.asarray(b, float)).pvalue)
    rep.add(name, p >= TAIL, "p=%.3g (%s at alpha=%g) n=%d/%d"
            % (p, "agree" if p >= ALPHA_REPORT else "differ", ALPHA_REPORT,
               len(a), len(b)))


def binomial_check(rep, name, k, n, p_ref, allowance):
    """k of n against a probability in [p_ref - allowance, p_ref + allowance]."""
    lo, hi = max(p_ref - allowance, 0.0), min(p_ref + allowance, 1.0)
    ok = stats.binom.cdf(k, n, hi) >= TAIL / 2 and stats.binom.sf(k - 1, n, lo) >= TAIL / 2
    rep.add(name, ok, "k/n=%d/%d=%.4f ref=%.4f +- %.3f" % (k, n, k / max(n, 1), p_ref, allowance))


def poisson_check(rep, name, k, mu_ref, allowance):
    lo, hi = mu_ref / (1.0 + allowance), mu_ref * (1.0 + allowance)
    ok = stats.poisson.cdf(k, hi) >= TAIL / 2 and stats.poisson.sf(k - 1, lo) >= TAIL / 2
    rep.add(name, ok, "k=%d expected=%.1f (+-%.0f%%)" % (k, mu_ref, 100 * allowance))


# ---------------------------------------------------------------------------
# references per workload


def _tw_basins():
    """(lo, hi, minimum, (left saddle, right saddle)) of the triple well's
    three basins, left to right; the outer walls sit where V is huge."""
    s, m = refs.triple_well_saddles(), refs.triple_well_minima()
    return [(-2.0, s[0], m[0], (None, s[0])), (s[0], s[1], m[1], (s[0], s[1])),
            (s[1], 2.0, m[2], (s[1], None))]


def make_refs(workload: str) -> dict:
    if workload == "cli-trajectory":
        dw = CLI_DW
        shift = refs.boundary_shift(dw["beta"], dw["dt"])
        (a0, b0), (a1, b1) = dw["regions"]
        # residence in core-set state 0 runs from entering (a0, b0) at its
        # right edge to entering (a1, b1); by symmetry state 1 is the mirror
        mfpt = refs.mfpt(refs.double_well, dw["beta"], b0, a1 + shift, -3.0)
        tw = CLI_TW
        tad = [refs.tad_prediction(refs.triple_well, tw["beta"], tw["beta_hi"], lo, hi, m,
                                   sd, tw["dt"]) for lo, hi, m, sd in _tw_basins()]
        return {"mfpt": [mfpt, mfpt], "tad": tad}
    if workload == "exit-stats":
        e = EXIT
        shift = refs.boundary_shift(e["beta"], e["dt"])
        lam = refs.ground_state(refs.double_well, e["beta"], -2.5, 0.0 + shift)[0]
        lo, hi, m, sd = _tw_basins()[1]
        tad = refs.tad_prediction(refs.triple_well, e["tw_beta"], e["tw_beta_hi"], lo, hi,
                                  m, sd, e["tw_dt"])
        return {"lambda1": lam, "tad": tad}
    if workload == "mb2d-splice":
        return {"residences": refs.load_mb2d_reference(MB2D)}
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# checks per workload

# Systematic allowances (relative unless stated).  The first-order boundary
# shift leaves an O(dt) error in the 1D references; TAD's extrapolation is
# harmonic, and its error is the gap between refs.tad_prediction's
# "tad_*" and "exact_*" values plus what the bounce and the stopping bound
# add, measured at a few per cent on these surfaces.  Splicing is exact
# only for full decorrelation within tau_corr.
ALLOW_MFPT = 0.05
ALLOW_LAMBDA = 0.05
ALLOW_TAD_MEAN = 0.10
ALLOW_TAD_P = 0.03
ALLOW_MB2D = 0.05
TAD_CUT = 0.2  # TAD residences shorter than this share of the mean are recrossings


def round_cli(out: dict, ref: dict, rep: Report, pool) -> None:
    for m, rc in sorted(out["codes"].items()):
        ok = rc == 0 if m != "compare" else rc in (0, 1)
        rep.add("cli.%s.exit_code" % m, ok, "rc=%s" % rc)
    v = out["verdict"]
    if v is None:
        rep.add("cli.compare.laws", False, "no JSON verdict")
    else:
        p, chi = v["ks_residence_pvalue"], v["chi2_exit_region_pvalue"]
        rep.add("cli.compare.laws", p >= TAIL and (chi is None or chi >= TAIL),
                "ks p=%.3g, chi2 p=%s; compare says %s at alpha=%g"
                % (p, chi, "pass" if v["pass"] else "fail", v["alpha"]))
    runs = out["runs"]
    horizons = {"direct": CLI_DW["horizon"], "parrep": CLI_DW["horizon"],
                "tad": CLI_TW["horizon"]}
    for m, run in sorted(runs.items()):
        res, summ = run["residences"], run["summary"]
        clock = sum(res)
        rep.add("cli.%s.clock" % m,
                summ["clock"] == clock and summ["n_events"] == len(res)
                and clock >= horizons[m] and clock - res[-1] < horizons[m],
                "summary clock %r, trajectory sum %r, horizon %r, %d events"
                % (summ["clock"], clock, horizons[m], len(res)))
        for s, r in zip(run["states"], res):
            pool[(m, int(s))].append(r)


def pooled_cli(pool, ref: dict, rep: Report) -> None:
    for m in ("direct", "parrep"):
        for s in (0, 1):
            mean_check(rep, "cli.%s.mean_residence.state%d" % (m, s), pool[(m, s)],
                       ref["mfpt"][s], ALLOW_MFPT)
    ks_check(rep, "cli.parrep.law", pool[("parrep", 0)] + pool[("parrep", 1)],
             pool[("direct", 0)] + pool[("direct", 1)])
    # a TAD event restarts on the saddle it just crossed, so most events
    # are recrossings that TAD maps to near-zero times; past a cut well
    # above them the law is exponential, so the excess over the cut has
    # the TAD mean whatever the recrossing share
    excess = []
    for s, t in enumerate(ref["tad"]):
        res = np.array(pool[("tad", s)])
        cut = TAD_CUT * t["tad_mean"]
        excess.extend((res[res > cut] - cut) / t["tad_mean"])
    harmonic = max(abs(t["tad_mean"] / t["exact_mean"] - 1.0) for t in ref["tad"])
    mean_check(rep, "cli.tad.mean_residence", excess, 1.0, ALLOW_TAD_MEAN + harmonic)


def round_exit(out: dict, ref: dict, rep: Report, pool) -> None:
    boost = float(np.mean(out["boosts"]))
    rep.add("exit.hyper.boost", boost > 1.0, "mean boost %.4f" % boost)
    pool["kills"].append(out["fv"]["kills"])
    pool["replica_time"].append(out["fv"]["replica_time"])
    for m in ("direct", "parrep", "hyper", "tad"):
        pool[m].extend(out[m].exit_times)
    # geometry regions are ordered by saddle energy; map them to left/right
    pool["tad_left"].extend(out["tad"].exit_points[:, 0] < 0)


def pooled_exit(pool, ref: dict, rep: Report) -> None:
    lam = ref["lambda1"]
    poisson_check(rep, "exit.fv.kill_rate", sum(pool["kills"]),
                  lam * sum(pool["replica_time"]), ALLOW_LAMBDA)
    for m in ("direct", "parrep", "hyper"):
        mean_check(rep, "exit.%s.mean_exit_time" % m, pool[m], 1.0 / lam, ALLOW_LAMBDA)
    for m in ("parrep", "hyper"):
        ks_check(rep, "exit.%s.law" % m, pool[m], pool["direct"])
    t = ref["tad"]
    mean_check(rep, "exit.tad.mean_exit_time", pool["tad"], t["tad_mean"],
               ALLOW_TAD_MEAN + abs(t["tad_mean"] / t["exact_mean"] - 1.0))
    binomial_check(rep, "exit.tad.left_share", int(np.sum(pool["tad_left"])),
                   len(pool["tad_left"]), t["exact_p"][0],
                   ALLOW_TAD_P + abs(t["tad_p"][0] - t["exact_p"][0]))


def replay_splice(produced, left, start_state, horizon):
    """Rebuild the spliced trajectory from the segments FIFO must have used.

    FIFO consumes each state's segments in generation order, and the
    splicer stops at the horizon, so the consumed segments are, per state,
    the lowest generation indices no longer in the database.  Returns
    (states, residences, junction errors, segments used).
    """
    queues = {}
    for seg in sorted(produced, key=lambda g: g.generation_index):
        queues.setdefault(seg.start_state, []).append(seg)
    used = {s: len(q) - left.get(s, 0) for s, q in queues.items()}
    pos = {s: 0 for s in queues}
    states, residences, errors = [], [], 0
    state, clock = start_state, 0.0
    while clock < horizon:
        if pos.get(state, 0) >= used.get(state, 0):
            errors += 1
            break
        seg = queues[state][pos[state]]
        pos[state] += 1
        if seg.start_state != state or seg.path_summary[0][0] != state \
                or seg.path_summary[-1][0] != seg.end_state:
            errors += 1
        for s, r in seg.path_summary:
            if states and states[-1] == s:
                residences[-1] += r
            else:
                states.append(s)
                residences.append(r)
        clock = float(sum(residences))
        state = seg.end_state
    if pos != used:
        errors += 1
    return states, residences, errors, sum(pos.values())


def round_mb2d(out: dict, ref: dict, rep: Report, pool) -> None:
    produced = out["produced"]
    states, residences, errors, used = replay_splice(produced, out["left"], 0, MB2D["horizon"])
    rep.add("mb2d.splice.junctions", errors == 0 and states == out["states"]
            and residences == out["residences"],
            "%d junction errors; replay %s the splicer's trajectory"
            % (errors, "matches" if states == out["states"] else "differs from"))
    rep.add("mb2d.splice.used_le_produced", used <= len(produced),
            "%d spliced of %d produced" % (used, len(produced)))
    # the first residence starts from a dephased sample, not an entry, and
    # the horizon cuts the last one
    for s, r in zip(out["states"][1:-1], out["residences"][1:-1]):
        pool[s].append(r)


def pooled_mb2d(pool, ref: dict, rep: Report) -> None:
    for s, ref_res in enumerate(ref["residences"]):
        ks_check(rep, "mb2d.splice.law.state%d" % s, pool[s], ref_res)
        mean_check(rep, "mb2d.splice.mean_residence.state%d" % s, pool[s],
                   float(np.mean(ref_res)), ALLOW_MB2D, cv=float(np.std(ref_res) / np.mean(ref_res)))


WORKLOAD_CHECKS = {"cli-trajectory": (round_cli, pooled_cli),
                   "exit-stats": (round_exit, pooled_exit),
                   "mb2d-splice": (round_mb2d, pooled_mb2d)}


class Checker:
    """The checks of one run: properties of each round's outputs as the
    round ends, then statistical checks on the samples of all rounds."""

    def __init__(self, workload: str):
        self.ref = make_refs(workload)
        self._round, self._pooled = WORKLOAD_CHECKS[workload]
        self.pool = defaultdict(list)
        self.report = Report()

    def round(self, out: dict) -> Report:
        rep = Report()
        self._round(out, self.ref, rep, self.pool)
        self.report.items.extend(rep.items)
        return rep

    def finish(self) -> Report:
        rep = Report()
        self._pooled(self.pool, self.ref, rep)
        self.report.items.extend(rep.items)
        return rep
