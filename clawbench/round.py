"""One round of a workload in a fresh interpreter.

    python3 clawbench/round.py --workload NAME --launched T [--trace]

T is time.monotonic() in the launching process just before the start, so
set-up time counts interpreter start-up.  Prints one JSON object: set-up
time, wall and CPU time of each sweep, the time of a fixed reference loop
run before and after the sweeps, peak memory, the sweep reports without
their elapsed field, and with --trace the per-layer figures.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_loop() -> tuple:
    """(wall, CPU) seconds of a fixed pure-Python job that uses no clawham
    code: brute-force canonical labelling of one 7-vertex graph, the kind
    of tuple, sort and compare work the sweeps do.  The collector is off,
    so the job does not depend on how much the library keeps alive."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5))
    was_enabled = gc.isenabled()
    gc.disable()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        for _ in range(3):
            best = None
            for p in itertools.permutations(range(7)):
                key = tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
                if best is None or key < best:
                    best = key
    finally:
        if was_enabled:
            gc.enable()
    return time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from clawham import verify

    plan = WORKLOADS[args.workload]
    for name, kwargs in plan:
        if name not in verify.CHECKS or set(kwargs) - set(verify.CHECKS[name][1]):
            raise SystemExit(f"bad sweep in workload: {name} {kwargs}")
    setup_s = time.monotonic() - args.launched
    loop_before = reference_loop()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    reports, raised, times = [], [], {}
    for name, kwargs in plan:
        if tracer:
            tracer.enter(f"verify.{name}")
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            reports.append(verify.run_check(name, **kwargs).to_json(with_elapsed=False))
        except Exception:  # a sweep that raises is a failed operation, not a crash
            traceback.print_exc()
            raised.append(name)
        finally:
            times[name] = {"sweep_s": time.perf_counter() - t0, "cpu_s": _cpu() - cpu0}
            if tracer:
                tracer.exit()

    loop_after = reference_loop()
    out = {
        "setup_s": setup_s,
        "ref_loop_s": (loop_before[0] + loop_after[0]) / 2,
        "ref_loop_cpu_s": (loop_before[1] + loop_after[1]) / 2,
        "sweep_s": sum(t["sweep_s"] for t in times.values()),
        "cpu_s": sum(t["cpu_s"] for t in times.values()),
        "sweeps": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": reports,
        "raised": raised,
    }
    if tracer:
        every_sweep = [name for sweeps in WORKLOADS.values() for name, _ in sweeps]
        out["layers"] = tracing.layer_metrics(tracer, every_sweep)
        out["yields"] = {s.removeprefix("verify."): c for (s, _g), c in tracer.yields.items()}
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
