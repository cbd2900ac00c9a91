#!/usr/bin/env python3
"""Run every verification sweep at its full default cap and dump a report.

This is the long-form experiment: at the defaults it takes about four minutes
on one core (252 s on a 2.1 GHz Xeon).  For a smoke run, pass a small
--max-n to override every family size cap at once.

    python3 scripts/run_all_checks.py --json reports/full.json
"""
import argparse
import json
import sys
import time

from clawham.verify import CHECKS, run_all_checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=None,
                    help="override every family size cap (smoke runs)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the full report list as JSON")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    results = run_all_checks(max_n=args.max_n)
    total = time.perf_counter() - t0

    worst = "pass"
    for res in results:
        line = (f"{res.name:<24} {res.verdict:<13} instances={res.instances:<7} "
                f"counterexamples={len(res.counterexamples)}  {res.elapsed:7.1f}s")
        print(line)
        if res.verdict == "fail":
            worst = "fail"
            for cex in res.counterexamples[:3]:
                print(f"    counterexample: {json.dumps(cex, sort_keys=True)}")
        elif res.verdict == "cap-exceeded" and worst == "pass":
            worst = "cap-exceeded"
    print(f"{len(results)} checks ({len(CHECKS)} registered) in {total:.1f}s")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_json() for r in results], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}")

    return {"pass": 0, "fail": 1, "cap-exceeded": 2}[worst]


if __name__ == "__main__":
    sys.exit(main())
