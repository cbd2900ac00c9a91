"""Command-line front end.

Subcommands fall into three groups: `verify` runs one (or all) of the
named sweeps and writes a report, the single-instance commands (closure,
root, hamilton, dct, sct, collapsible) decide one graph handed over as
graph6 or multigraph JSON, and `enumerate` streams a family to stdout.

Exit codes: 0 the check passed / the structure exists, 1 a counterexample
was found / the structure does not exist, 2 a cap was exceeded or the
input was invalid.
"""
from __future__ import annotations

import argparse
import json
import sys

from .clawfree import closure
from .enumeration import FamilySpec, count_graphs, enumerate_graphs
from .graphio import Graph6Error, load_multigraph_json, parse_graph6, write_graph6
from .graphs import GraphError, LimitExceeded, mask_of
from .linegraph import NotALineGraphError, NotClosedError, root_graph
from .trails import closed_trail_exists, is_collapsible, is_hamiltonian
from .verify import CHECKS, run_all_checks, run_check

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CAP_OR_INVALID = 2


def _read_graph(args):
    """A simple graph from --g6, stdin, or --adj-json (JSON gives a
    multigraph; the trail and collapsibility commands accept those)."""
    if getattr(args, "adj_json", None):
        with open(args.adj_json) as fh:
            return load_multigraph_json(fh.read())
    if args.g6 is not None:
        return parse_graph6(args.g6)
    for line in sys.stdin:
        line = line.strip()
        if line:
            return parse_graph6(line)
    raise GraphError("no graph on stdin")


def _add_graph_input(p, multigraph=False):
    p.add_argument("--g6", help="graph6 line (default: first line on stdin)")
    if multigraph:
        p.add_argument(
            "--adj-json",
            metavar="FILE",
            help="multigraph as JSON {n, adj} with an adjacency matrix of multiplicities",
        )


def _parse_vertices(text: str) -> int:
    try:
        return mask_of(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError as exc:
        raise GraphError(f"bad vertex list {text!r}") from exc


def _cmd_verify(args) -> int:
    kwargs = {
        "max_n": args.max_n,
        "heavy_slack": args.heavy_slack,
        "max_multiplicity": args.max_multiplicity,
    }
    if args.check == "all":
        results = run_all_checks(**kwargs)
    else:
        results = [run_check(args.check, **kwargs)]
    for res in results:
        print(
            f"{res.name}: {res.verdict} "
            f"(instances={res.instances}, counterexamples={len(res.counterexamples)}, "
            f"{res.elapsed:.1f}s)"
        )
        for cex in res.counterexamples[:5]:
            print(f"  counterexample: {json.dumps(cex, sort_keys=True)}")
    if args.json:
        payload = [res.to_json() for res in results]
        with open(args.json, "w") as fh:
            json.dump(payload if args.check == "all" else payload[0], fh, indent=2)
            fh.write("\n")
    if any(res.verdict == "fail" for res in results):
        return EXIT_COUNTEREXAMPLE
    if any(res.verdict == "cap-exceeded" for res in results):
        return EXIT_CAP_OR_INVALID
    return EXIT_PASS


def _cmd_closure(args) -> int:
    g = _read_graph(args)
    print(write_graph6(closure(g)))
    return EXIT_PASS


def _cmd_root(args) -> int:
    g = _read_graph(args)
    try:
        res = root_graph(g, count_roots=args.count_roots)
    except (NotALineGraphError, NotClosedError) as exc:
        print(f"no root: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    print(write_graph6(res.root))
    if args.count_roots:
        print(f"triangle-free roots: {res.root_count}")
    return EXIT_PASS


def _cmd_hamilton(args) -> int:
    g = _read_graph(args)
    if g.n < 3:
        print("non-hamiltonian")
        return EXIT_COUNTEREXAMPLE
    cycle = is_hamiltonian(g)
    if cycle is None:
        print("non-hamiltonian")
        return EXIT_COUNTEREXAMPLE
    print("hamiltonian: " + " ".join(map(str, cycle)))
    return EXIT_PASS


def _trail_cmd(args, mode: str) -> int:
    g = _read_graph(args)
    required = _parse_vertices(args.require_vertices) if args.require_vertices else 0
    trail = closed_trail_exists(g, mode=mode, required_vertices=required)
    if trail is None:
        print("none")
        return EXIT_COUNTEREXAMPLE
    print(json.dumps(trail.to_json(), sort_keys=True))
    return EXIT_PASS


def _cmd_collapsible(args) -> int:
    g = _read_graph(args)
    if is_collapsible(g):
        print("collapsible")
        return EXIT_PASS
    print("not collapsible")
    return EXIT_COUNTEREXAMPLE


def _cmd_enumerate(args) -> int:
    with open(args.spec) as fh:
        spec = FamilySpec.from_json(json.load(fh))
    if args.count_only:
        print(count_graphs(spec))
        return EXIT_PASS
    for g in enumerate_graphs(spec):
        print(write_graph6(g))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawham",
        description="closure, root reconstruction, closed trails, and "
        "exhaustive small-graph verification for claw-free Hamiltonicity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument("check", choices=sorted(CHECKS) + ["all"])
    p.add_argument("--max-n", type=int, default=None, help="enumeration cap")
    p.add_argument(
        "--heavy-slack", type=int, default=None, help="shift of the heaviness threshold"
    )
    p.add_argument(
        "--max-multiplicity", type=int, default=None, help="multigraph edge multiplicity cap"
    )
    p.add_argument("--json", metavar="FILE", help="write the report as JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("closure", help="print the neighborhood closure")
    _add_graph_input(p)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("root", help="print the triangle-free root of a closed graph")
    _add_graph_input(p)
    p.add_argument(
        "--count-roots", action="store_true", help="also count triangle-free roots"
    )
    p.set_defaults(fn=_cmd_root)

    p = sub.add_parser("hamilton", help="decide Hamiltonicity")
    _add_graph_input(p, multigraph=True)
    p.set_defaults(fn=_cmd_hamilton)

    for name, mode, blurb in (
        ("dct", "dominating", "decide existence of a dominating closed trail"),
        ("sct", "spanning", "decide existence of a spanning closed trail"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_graph_input(p, multigraph=True)
        p.add_argument(
            "--require-vertices",
            metavar="LIST",
            help="comma-separated vertices the trail must visit",
        )
        p.set_defaults(fn=_trail_cmd, mode=mode)

    p = sub.add_parser("collapsible", help="decide Catlin collapsibility")
    _add_graph_input(p, multigraph=True)
    p.set_defaults(fn=_cmd_collapsible)

    p = sub.add_parser("enumerate", help="stream a graph family as graph6")
    p.add_argument("--spec", required=True, metavar="FILE", help="family spec JSON")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fn is _trail_cmd:
            return _trail_cmd(args, args.mode)
        return args.fn(args)
    except LimitExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_OR_INVALID
    except (GraphError, Graph6Error, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_OR_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
