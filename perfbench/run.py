"""Benchmark driver for ratdyck.

    python3 perfbench/run.py --workload suite|large-maps|whole-slope \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The driver itself never imports it: it starts one child
interpreter at a time (``child.py``), each running one pass of the
workload, and aggregates what they print.  See README.md in this directory
for the workloads, the metrics and what each layer metric should move.

``--trace 0`` measures the end-to-end metrics: set-up several times, then
passes until ``--seconds`` would be exceeded, reporting medians.  Times are
reported on the reference host of ``probe.py``, and also as measured
(``raw_*``, printed but not among the metrics).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object, and the full result, with the
environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "large-maps", "whole-slope")
SEEDED = ("large-maps",)  # the other workloads have fixed inputs
SETUP_CHILDREN = 25
DEADLINE_S = 170  # every child is killed before the run reaches this

# Per layer, the workloads the mapping in README.md says must call it, and
# the ones that must bypass it.  The traced run checks both.
MUST_CALL = {
    "paths.RationalDyckPath": ("suite", "large-maps", "whole-slope"),
    "paths.enumerate_paths": ("suite", "whole-slope"),
    "paths.count_paths": ("suite", "whole-slope"),
    "matchings.pm": ("suite", "large-maps"),
    "promotion.toggle": ("suite", "large-maps"),
    "matching_map.mat": ("suite", "large-maps", "whole-slope"),
    "matching_map.admissible": ("suite", "large-maps", "whole-slope"),
    "rowmotion.rowvacuation": ("suite", "large-maps"),
    "rowmotion.dual_rowvacuation": ("suite", "large-maps"),
    "noncrossing.enumerate_chains": ("suite", "whole-slope"),
    "noncrossing.ncp_to_dyck": ("suite", "whole-slope"),
    "noncrossing.dyck_to_ncp": ("suite", "whole-slope"),
    "registry.verify": ("suite",),
    "perms.dyck1": ("suite",),
    "perms.dyck2": ("suite",),
    "perms.dyck3": ("suite",),
    "perms.e_p": ("suite",),
    "perms.e_p_inverse": ("suite",),
    "tilings.max_tiling": ("suite",),
    "tilings.kappa": ("suite", "large-maps"),
    "tilings.rsk_hat_inverse": ("suite", "large-maps"),
    "tilings.rsk_hat_path": ("suite",),
}
MUST_BYPASS = {
    "large-maps": ("paths.enumerate_paths", "paths.count_paths", "noncrossing.enumerate_chains",
                   "noncrossing.ncp_to_dyck", "noncrossing.dyck_to_ncp"),
}
# The maps of the per-path table in ROADMAP item 1, reported in µs per call.
TABLE_MAPS = ("matchings.pm", "promotion.promotion", "promotion.evacuation_fast",
              "rowmotion.rowmotion", "rowmotion.rowvacuation", "matching_map.mat",
              "matching_map.mat_inverse")


class BenchError(Exception):
    pass


class Children:
    """Starts child passes one at a time, all within one deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, trace: int = 0, check: int = 1, probe: int = 1,
            setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace), "--check", str(check),
               "--probe", str(probe)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        # set-up is timed with compiled bytecode, as an installed package has it
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {cmd[2:]} did not finish in time") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"child {cmd[2:]} exited {proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_ref_speed(p: dict) -> list[float]:
    """A pass's op times on the reference host (see probe.py)."""
    return [ms * f for ms, f in zip(p["ops_ms"], p["factors"], strict=True)]


def measure(children: Children, seconds: int) -> tuple[dict, dict]:
    children.run(setup_only=True)  # compiles the bytecode; not counted
    setups = [children.run(setup_only=True) for _ in range(SETUP_CHILDREN)]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        # every pass runs the same inputs, and equal digests make the first
        # pass's output checks hold for the others
        passes.append(children.run(check=int(not passes)))
        next_pass = time.monotonic() - t0 - passes[-1]["check_s"]
        if time.monotonic() - start + next_pass > seconds:
            break
    problems = passes[0]["failures"]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes on the same inputs gave different outputs")
    # Each op at its median over the passes, on the reference host: the
    # host's drift is taken out by the probes run between ops.
    ops = [statistics.median(samples)
           for samples in zip(*(at_ref_speed(p) for p in passes), strict=True)]
    raw_ops = [statistics.median(samples)
               for samples in zip(*(p["ops_ms"] for p in passes), strict=True)]
    setups += passes
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * r["setup_factor"] for r in setups), "s"),
        "wall_s": (sum(ops) / 1e3, "s"),
        "op_p50_ms": (percentile(ops, 50), "ms"),
        "op_p99_ms": (percentile(ops, 99), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    # the same times as this host gave them, unscaled; printed, not gated
    raw = {
        "raw_setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "raw_wall_s": (sum(raw_ops) / 1e3, "s"),
        "raw_op_p50_ms": (percentile(raw_ops, 50), "ms"),
        "raw_op_p99_ms": (percentile(raw_ops, 99), "ms"),
    }
    detail = {
        "passes": len(passes),
        "raw": raw,
        "setup_s_samples": [r["setup_s"] for r in setups],
        "setup_factors": [r["setup_factor"] for r in setups],
        "op_samples": len(ops),
        "probes_per_pass": [p["probes"] for p in passes],
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "ops_ms_per_pass": [p["ops_ms"] for p in passes],
        "factors_per_pass": [p["factors"] for p in passes],
        "attempted": len(ops),
        "problems": problems,
    }
    return metrics, detail


def trace(children: Children) -> tuple[dict, dict]:
    children.run(setup_only=True)  # compiles the bytecode; not counted
    plain = children.run(probe=0)
    traced = children.run(trace=1, check=0, probe=0)  # its outputs must equal the checked ones
    report = traced["trace"]
    funcs, caches = report["functions"], report["caches"]
    problems = plain["failures"]
    if plain["digest"] != traced["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    for name, workloads in MUST_CALL.items():
        if children.workload in workloads and funcs[name]["calls"] == 0:
            problems.append(f"{name} recorded no calls")
    for name in MUST_BYPASS.get(children.workload, ()):
        if funcs[name]["calls"] != 0:
            problems.append(f"{name} recorded {funcs[name]['calls']} calls, expected none")

    def ratio(part: int, base: int) -> float:
        return part / base if base else 0.0

    metrics = {}
    for name, f in funcs.items():
        metrics[f"{name}.calls"] = (f["calls"], "count")
        metrics[f"{name}.self_s"] = (f["self_s"], "s")
    for name in TABLE_MAPS:
        per_call = ratio(funcs[name]["self_s"] * 1e6, funcs[name]["calls"])
        metrics[f"{name}.us_per_call"] = (per_call, "us")
    metrics["promotion.toggle.effective_ratio"] = (
        ratio(funcs["promotion.toggle"]["hits"], funcs["promotion.toggle"]["calls"]), "ratio")
    metrics["matching_map.admissible.accept_ratio"] = (
        ratio(funcs["matching_map.admissible"]["hits"], funcs["matching_map.admissible"]["calls"]),
        "ratio")
    for name, f in funcs.items():
        if "distinct" in f:
            metrics[f"{name}.distinct_ratio"] = (ratio(f["distinct"], f["calls"]), "ratio")
    for name, c in caches.items():
        metrics[f"{name}.hit_ratio"] = (ratio(c["hits"], c["lookups"]), "ratio")
        metrics[f"{name}.lookups"] = (c["lookups"], "count")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    detail = {
        "wall_s_untraced": plain["wall_s"],
        "wall_s_traced": traced["wall_s"],
        "functions": funcs,
        "caches": caches,
        "per_identity": report["per_identity"],
        "us_per_call_inclusive": {
            name: ratio(funcs[name]["incl_s"] * 1e6, funcs[name]["calls"]) for name in TABLE_MAPS},
        "attempted": len(plain["ops_ms"]),
        "problems": problems,
    }
    return metrics, detail


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ratdyck" / "__init__.py").is_file():
        print(f"run.py: no ratdyck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed)
    try:
        metrics, detail = trace(children) if args.trace else measure(children, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    problems = detail.pop("problems")
    attempted = detail["attempted"]
    failed = min(len(problems), attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for name, (value, unit) in detail.get("raw", {}).items():
        print(f"{name}: {value:.6g} {unit} (this host's speed, not gated)")
    print(f"failed_ops_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    for msg in problems[:20]:
        print(f"FAILED: {msg}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    environment = {
        "python": sys.version, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "platform": platform.platform(), "seed": args.seed,
        "seed_used": args.workload in SEEDED, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"environment": environment, "result": result, "detail": detail,
         "problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
