"""The three benchmark workloads: inputs, the timed job, and output checks.

Each workload is a closed loop with one caller.  ``prepare`` builds the
inputs (from the seed where the workload uses one), ``run`` is the timed
job and returns its outputs with one latency per operation; it times each op
with the ``probe.Meter`` it is given, which runs host-speed probes among the
ops and takes them out of the op times.  ``check`` compares the outputs with
an inverse or an independent oracle after the timed span and returns one
message per failed check.  ``digest`` condenses the outputs so that two runs
(traced and untraced, or two passes) can be compared for equality.

Every call into the library goes through a module attribute looked up at
call time, so the tracer sees it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import time

from sampler import PathSampler

pa = importlib.import_module("ratdyck.paths")
mt = importlib.import_module("ratdyck.matchings")
# ``ratdyck.promotion`` and ``ratdyck.rowmotion`` are shadowed by functions
# of the same name in the package namespace; resolve the modules directly.
pr = importlib.import_module("ratdyck.promotion")
rw = importlib.import_module("ratdyck.rowmotion")
mm = importlib.import_module("ratdyck.matching_map")
nc = importlib.import_module("ratdyck.noncrossing")
ti = importlib.import_module("ratdyck.tilings")
rg = importlib.import_module("ratdyck.registry")
gd = importlib.import_module("ratdyck.golden")

clock = time.perf_counter


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# suite: the default identity suite plus the golden tables


class Suite:
    """The paper's headline job: every registered identity over the default
    domains, then the golden tables.  Fixed inputs; the seed is unused."""

    def prepare(self, seed: int):
        return None

    def run(self, inputs, meter):
        verify = rg.verify
        meter.start()
        # ``default_suite`` looks ``verify`` up at call time, so each report
        # is timed as one op, with the probes that ran inside it taken out
        rg.verify = lambda name, slope: meter.call(verify, name, slope)
        try:
            reports = list(rg.default_suite())
        finally:
            rg.verify = verify
        # the golden reports time themselves; no probe may run inside them
        meter.pause()
        start = clock()
        golden = list(gd.golden_suite())
        end = clock()
        meter.resume()
        for r in golden:
            meter.record(start, end, r.seconds * 1e3)
        meter.finish()
        return (reports, golden), meter.ops_ms()

    def check(self, inputs, outputs) -> list[str]:
        reports, golden = outputs
        bad = []
        for r in reports:
            # the one negative control: pm-rot fails exactly off slope (1,k)
            want = "fail" if r.identity == "pm-rot" and r.a != 1 else "pass"
            if r.status != want:
                bad.append(f"{r.identity} ({r.a},{r.b}) n={r.n}: {r.status}, want {want}")
        bad += [f"{r.identity}: {r.status}" for r in golden if r.status != "pass"]
        return bad

    def digest(self, outputs) -> str:
        reports, golden = outputs
        return _digest([
            [r.identity, r.a, r.b, r.n, r.domain_size, r.status, r.counterexamples]
            for r in reports + golden
        ])


# ---------------------------------------------------------------------------
# large-maps: single-path map applications beyond desk scale


LARGE_SLOPES = [(1, 1, 20), (1, 2, 13), (2, 3, 8), (3, 5, 5)]
PATHS_PER_SLOPE = 40
LARGE_MAPS = [
    "promotion", "dual-promotion", "evacuation", "dual-evacuation", "rowmotion",
    "rowvacuation", "dual-rowvacuation", "mat", "mat-inverse", "rsk-inverse",
]

# Each op result against an inverse or an independent oracle: (p, image) -> ok.
# An involution is also checked against a second relation, which the
# identity map would fail.
LARGE_CHECKS = {
    "promotion": lambda p, q: pr.dual_promotion(q) == p,
    "dual-promotion": lambda p, q: pr.promotion(q) == p,
    "evacuation": lambda p, q: pr.evacuation_fast(q) == p and mt.pm(q) == mt.bar(mt.pm(p)),
    "dual-evacuation": lambda p, q: (pr.dual_evacuation_fast(q) == p
                                     and pr.dual_evacuation_by_star(p) == q),
    "rowmotion": lambda p, q: rw.rowmotion_structural(p) == q,
    "rowvacuation": lambda p, q: (rw.rowvacuation(q) == p
                                  and rw.rowvacuation(rw.rowmotion(p)) == rw.rowmotion_inverse(q)),
    "dual-rowvacuation": lambda p, q: (
        rw.dual_rowvacuation(q) == p
        and rw.dual_rowvacuation(rw.rowmotion(p)) == rw.rowmotion_inverse(q)),
    "mat": lambda p, q: mm.mat_inverse(q) == p,
    "mat-inverse": lambda p, q: mm.mat(q) == p,
    "rsk-inverse": lambda p, q: ti.rsk_hat_path(q) == p,
    "pm": lambda p, m: m.ground_size == p.slope.total_steps and mt.pm_inverse(m, p.slope) == p,
}


class LargeMaps:
    """Uniform random paths of about 40 steps at four slopes; every op is one
    ``registry.apply_map`` call (or one ``matchings.pm``).  No enumeration,
    counting, chains or identity engine."""

    def prepare(self, seed: int):
        rng = random.Random(seed)
        per_slope = []
        for a, b, n in LARGE_SLOPES:
            slope = pa.Slope(a, b, n)
            sampler = PathSampler(slope)
            per_slope.append([(slope, pa.RationalDyckPath(slope, sampler.sample(rng)))
                              for _ in range(PATHS_PER_SLOPE)])
        ops = []
        for i in range(PATHS_PER_SLOPE):
            for paths in per_slope:
                slope, p = paths[i]
                for name in LARGE_MAPS + ["pm"]:
                    if name == "rsk-inverse" and slope.a != 1:
                        continue
                    ops.append((name, slope, p))
        return ops

    def run(self, ops, meter):
        outputs = []
        meter.start()
        for name, slope, p in ops:
            if name == "pm":
                outputs.append(meter.call(mt.pm, p))
            else:
                outputs.append(meter.call(rg.apply_map, name, slope, p))
        meter.finish()
        return outputs, meter.ops_ms()

    def check(self, ops, outputs) -> list[str]:
        return [f"{name} on ({s.a},{s.b},{s.n}) {p}: got {q}"
                for (name, s, p), q in zip(ops, outputs) if not LARGE_CHECKS[name](p, q)]

    def digest(self, outputs) -> str:
        return _digest([str(q) for q in outputs])


# ---------------------------------------------------------------------------
# whole-slope: whole-slope jobs as the CLI runs them


COUNT_SLOPES = [(2, 3, 36), (1, 1, 36)]
ORBIT_JOBS = [
    ("promotion", (1, 1, 9)), ("rowmotion", (1, 1, 9)), ("evacuation", (1, 1, 9)),
    ("mat", (1, 1, 8)), ("mat", (2, 3, 3)),
]
CHAIN_SLOPES = [(1, 1, 7), (1, 2, 5)]


class WholeSlope:
    """Exact counting, orbit tables and the chain bijection over whole slopes:
    enumeration, counting and the chain table (built once, then looked up
    many times).  Each op is one whole-slope job.  Fixed inputs; the seed is
    unused."""

    def prepare(self, seed: int):
        return None

    def run(self, inputs, meter):
        timed = meter.call
        meter.start()
        counts = [(s, timed(pa.count_paths, pa.Slope(*s)), timed(pa.count_paths_dp, pa.Slope(*s)))
                  for s in COUNT_SLOPES]
        orbits = [(m, s, timed(rg.orbit_table, m, pa.Slope(*s))) for m, s in ORBIT_JOBS]
        chains = [(s, timed(_chain_round_trips, pa.Slope(*s))) for s in CHAIN_SLOPES]
        meter.finish()
        return (counts, orbits, chains), meter.ops_ms()

    def check(self, inputs, outputs) -> list[str]:
        counts, orbits, chains = outputs
        bad = []
        for s, formula, dp in counts:
            if formula != dp:
                bad.append(f"count {s}: formula {formula} != dp {dp}")
            elif s[:2] == (1, 1) and dp != math.comb(2 * s[2], s[2]) // (s[2] + 1):
                bad.append(f"count {s}: {dp} is not the Catalan number")

        def enumeration_disagrees(s) -> bool:
            slope = pa.Slope(*s)
            return not pa.count_paths(slope) == pa.count_paths_dp(slope) == len(pa.enumerate_paths(slope))

        for m, s, cycles in orbits:
            paths = {str(p): p for p in pa.enumerate_paths(pa.Slope(*s))}
            if enumeration_disagrees(s) or sorted(x for cyc in cycles for x in cyc) != sorted(paths):
                bad.append(f"orbit table of {m} on {s} is not a permutation of the counted paths")
            elif not all(LARGE_CHECKS[m](paths[x], paths[y])
                         for cyc in cycles for x, y in zip(cyc, cyc[1:] + cyc[:1])):
                bad.append(f"orbit table of {m} on {s} disagrees with the oracle")
        for s, trips in chains:
            wrong = [p for p, c, back in trips if back != p or c.k != s[1] or c.n != s[2]]
            if enumeration_disagrees(s) or wrong or len({str(c) for _, c, _ in trips}) != len(trips):
                bad.append(f"chains on {s}: {len(wrong)} of {len(trips)} round trips failed, "
                           "or the counts disagree, or two paths share a chain")
        return bad

    def digest(self, outputs) -> str:
        counts, orbits, chains = outputs
        return _digest([
            [[list(s), f, d] for s, f, d in counts],
            [[m, list(s), cycles] for m, s, cycles in orbits],
            [[list(s), [[str(p), str(c)] for p, c, _ in trips]] for s, trips in chains],
        ])


def _chain_round_trips(slope):
    """Every path of the slope to its chain and back."""
    trips = []
    for p in pa.enumerate_paths(slope):
        c = nc.dyck_to_ncp(p)
        trips.append((p, c, nc.ncp_to_dyck(c)))
    return trips


WORKLOADS = {"suite": Suite(), "large-maps": LargeMaps(), "whole-slope": WholeSlope()}
