#!/usr/bin/env python3
"""Benchmark of clawham's verification sweeps.

    python3 clawbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload, each in a fresh interpreter (clawbench/round.py),
until S seconds have passed, then checks every round's reports against the
independent reference counts and against each other, audits a sample drawn
with the seed, and prints one JSON line as the last line of its output: the
end-to-end metrics over the rounds with --trace 0; with --trace 1, rounds
alternate untraced and traced and the line holds the per-layer figures.
Details go to clawbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    EXAMINES_EVERY_MEMBER, MOVING_LAYERS, WORKLOADS, operation_field)

ROUND_TIMEOUT_S = 120


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_per_class", "_per_instance")) else "count"


# Wall time of round.reference_loop on a quiet Intel Xeon at 2.1 GHz under
# Python 3.11.7 (fastest of about 400 rounds); times are scaled to that speed.
REF_LOOP_S = 0.058


def end_to_end(rounds) -> dict:
    """Other tenants of the host slow whole rounds down, to nearly half
    speed and for spells of minutes, and the slowdown shows in CPU time
    too.  Each round therefore times a fixed reference loop next to its
    work, and each time is scaled by REF_LOOP_S over that round's loop time
    (wall for wall, CPU for CPU): the round's time at the speed of a quiet
    machine.  A run reports the median round."""
    def scaled(key, loop_key):
        return statistics.median(r[key] * REF_LOOP_S / r[loop_key] for r in rounds)

    return {
        "setup_s": {"value": scaled("setup_s", "ref_loop_s"), "unit": "s"},
        "sweep_s": {"value": scaled("sweep_s", "ref_loop_s"), "unit": "s"},
        "cpu_s": {"value": scaled("cpu_s", "ref_loop_cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def expected_counts(plan, ref) -> dict:
    """name -> {report field: count} from the reference's per-order counts."""
    out = {}
    for name, kwargs in plan:
        if kwargs.get("max_multiplicity", ref["max_multiplicity"]) != ref["max_multiplicity"]:
            raise SystemExit(f"reference has no counts for {name} {kwargs}")
        fields = {"instances": name}
        if operation_field(name) != "instances":
            fields[operation_field(name)] = f"{name}.{operation_field(name)}"
        want = {}
        for field, key in fields.items():
            per_order = ref["sweeps"][key]
            cap = kwargs.get("max_n", max(map(int, per_order)))
            if cap > max(map(int, per_order)):
                raise SystemExit(f"reference stops below n={cap} for {name}")
            want[field] = sum(c for n, c in per_order.items() if int(n) <= cap)
        out[name] = want
    return out


def run_round(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--launched", repr(time.monotonic())]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"round failed with exit code {proc.returncode}")
    out = json.loads(proc.stdout)
    out["traced"] = traced
    return out


def count(report: dict, field: str) -> int:
    return report["instances"] if field == "instances" else report["params"][field]


def check_rounds(plan, rounds, expected) -> tuple:
    """(attempted, failed, problems) over all rounds."""
    attempted = failed = 0
    problems = []
    first = rounds[0]["reports"]
    for i, rnd in enumerate(rounds):
        by_name = {r["name"]: r for r in rnd["reports"]}
        for name, _ in plan:
            if name in rnd["raised"]:
                attempted += expected[name][operation_field(name)]
                failed += expected[name][operation_field(name)]
                problems.append(f"round {i}: {name} raised")
                continue
            rep = by_name[name]
            ops = count(rep, operation_field(name))
            attempted += ops
            failed += min(ops, len(rep["counterexamples"]) + len(rep["params"].get("cap_notes", ())))
            if rep["verdict"] != "pass" or rep["counterexamples"]:
                problems.append(f"round {i}: {name} verdict {rep['verdict']}")
            for field, want in expected[name].items():
                if count(rep, field) != want:
                    problems.append(f"round {i}: {name} {field} {count(rep, field)}, "
                                    f"reference {want}")
            if rnd["traced"] and name in EXAMINES_EVERY_MEMBER:
                got = count(rep, operation_field(name))
                if rnd["yields"].get(name) != got:
                    problems.append(f"round {i}: {name} generator yielded "
                                    f"{rnd['yields'].get(name)}, report {got}")
        if rnd["reports"] != first:
            problems.append(f"round {i}: reports differ from round 0")
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "clawham" / "verify.py").is_file():
        print(f"no clawham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = WORKLOADS[args.workload]
    expected = expected_counts(plan, json.loads((HERE / "reference.json").read_text()))

    rounds = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < args.seconds:
        if args.trace:
            rounds.append(run_round(args.workload, traced=False))
        rounds.append(run_round(args.workload, traced=bool(args.trace)))
    measured_s = time.monotonic() - t0

    attempted, failed, problems = check_rounds(plan, rounds, expected)

    sys.path.insert(0, str(ROOT / "src"))
    import audit

    audit_checks, audit_problems = audit.run(args.workload, args.seed)
    problems += [f"audit: {p}" for p in audit_problems]

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        metrics = {}
        for name in sorted(traced[0]["layers"]):
            values = [r["layers"][name] for r in traced]
            if layer_unit(name) != "s" and len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = {"value": statistics.median(values) if layer_unit(name) == "s"
                             else values[0], "unit": layer_unit(name)}
        problems += [f"{name} reads 0 on {args.workload}, which should move it"
                     for name in MOVING_LAYERS[args.workload] if not metrics[name]["value"]]
        metrics["trace.overhead"] = {
            "value": min(r["sweep_s"] for r in traced) / min(r["sweep_s"] for r in plain),
            "unit": "ratio",
        }
    else:
        metrics = end_to_end(plain)

    digest = hashlib.sha256(json.dumps(rounds[0]["reports"], sort_keys=True).encode()).hexdigest()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s, "reports_sha256": digest,
        "reports": rounds[0]["reports"], "audit_checks": audit_checks, "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "reports"} for r in rounds],
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{len(rounds)} rounds in {measured_s:.1f}s, {audit_checks} audit checks, "
          f"reports sha256 {digest}, details in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
