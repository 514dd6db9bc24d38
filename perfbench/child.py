"""One pass of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, so the library's process-wide
caches start cold every time, as they do for each CLI invocation.  The
import of ``ratdyck`` is timed before any other work of the pass: it is the
program's set-up (importing the package builds the map and identity
registries).  The host-speed probes of ``probe.py`` run outside every timed
span, four of them on each side of the import.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from probe import NEAREST, Meter, factor, setup_probe, time_probe

    # the host's speed around the set-up, for the set-up time
    probes = [time_probe(setup_probe) for _ in range(NEAREST)]
    start = time.perf_counter()
    import ratdyck  # noqa: F401

    out = {"setup_s": time.perf_counter() - start}
    probes += [time_probe(setup_probe) for _ in range(NEAREST)]
    out["setup_factor"] = factor(probes)
    if not args.setup_only:
        from tracer import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        inputs = workload.prepare(args.seed)
        tracer = Tracer() if args.trace else None
        # the traced run's two passes (traced and untraced) run no probes
        meter = Meter(enabled=bool(args.probe))
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs, ops_ms = workload.run(inputs, meter)
        finally:
            out["wall_s"] = time.perf_counter() - start - meter.probe_s()
            if tracer:
                tracer.uninstall()
        out["ops_ms"] = ops_ms
        out["factors"] = meter.factors()
        out["probes"] = len(meter.probes)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = time.perf_counter()
        out["failures"] = workload.check(inputs, outputs) if args.check else []
        out["check_s"] = time.perf_counter() - start
        out["digest"] = workload.digest(outputs)
        if tracer:
            out["trace"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
