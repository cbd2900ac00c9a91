"""Verification sweeps: small-cap runs, determinism, replay, CLI wiring.

Full-cap sweeps live in the acceptance module; here every check runs at
reduced caps so the orchestration logic (instance counting, verdicts,
counterexample serialization, report shape) is exercised quickly.
"""
import json
import subprocess
import sys

import pytest

from clawham.clawfree import net_condition_holds
from clawham.cli import main
from clawham.graphio import parse_graph6, write_graph6
from clawham.graphs import GraphError, LimitExceeded, is_triangle_free, mask_of
from clawham.trails import closed_trail_exists, has_dct, has_sct
from clawham.verify import (
    CHECKS,
    GADGET_DCT_EXPECTED,
    GADGET_SCT_EXPECTED,
    CheckResult,
    check_gadget_fixture,
    gadget_graph,
    run_all_checks,
    run_check,
)

SMALL = {
    "gadget": {},
    "c5-attachment": {},
    "marked-edge-dct": {"max_n": 5},
    "line-hamilton-dct": {"max_n": 6},
    "closure": {"max_n": 7},
    "min-degree-hamilton": {"max_n": 7},
    "net-condition-hamilton": {"max_n": 7},
    "dct-or-heavy-matching": {"max_n": 7},
    "matching-degree-sum": {"max_n": 7},
    "collapsible-remainder": {"max_n": 6},
    "spider-net": {"max_n": 7},
    "short-cycle-collapsible": {"max_n": 6},
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_all_checks_pass_at_small_caps(name):
    res = run_check(name, **SMALL[name])
    assert isinstance(res, CheckResult)
    assert res.verdict == "pass", res.counterexamples[:3]
    assert res.counterexamples == []
    assert res.instances >= 0
    assert res.elapsed >= 0


def test_gadget_structure_is_frozen():
    g = gadget_graph()
    assert g.n == 8 and g.edge_count == 11
    assert is_triangle_free(g)
    # five-cycle 0..4, attachers 5 and 7 with two cycle neighbors each,
    # 6 hanging off 5 with one cycle neighbor
    assert sorted(v for v in range(5) if g.has_edge(5, v)) == [0, 2]
    assert sorted(v for v in range(5) if g.has_edge(7, v)) == [2, 4]
    assert sorted(v for v in range(5) if g.has_edge(6, v)) == [1]
    assert g.has_edge(5, 6)


def test_gadget_trail_status_replays():
    g = gadget_graph()
    assert (has_sct(g) is not None) == GADGET_SCT_EXPECTED
    assert (has_dct(g) is not None) == GADGET_DCT_EXPECTED
    first = check_gadget_fixture().to_json(with_elapsed=False)
    second = check_gadget_fixture().to_json(with_elapsed=False)
    assert first == second


def test_reports_are_deterministic_modulo_elapsed():
    for name in ("c5-attachment", "closure", "matching-degree-sum"):
        a = run_check(name, **SMALL[name]).to_json(with_elapsed=False)
        b = run_check(name, **SMALL[name]).to_json(with_elapsed=False)
        assert a == b


def test_instance_counts_monotone_in_cap():
    for name in ("line-hamilton-dct", "closure", "marked-edge-dct"):
        lo = run_check(name, max_n=4).instances
        hi = run_check(name, max_n=5).instances
        assert lo <= hi


def test_report_json_schema():
    res = run_check("closure", max_n=6)
    blob = res.to_json()
    assert set(blob) == {
        "name", "family", "instances", "counterexamples",
        "verdict", "params", "elapsed",
    }
    json.dumps(blob)  # serializable


def test_run_check_rejects_unknown_names_and_params():
    with pytest.raises(GraphError):
        run_check("nonsense")
    with pytest.raises(GraphError):
        run_check("gadget", max_n=5)


def test_run_all_checks_covers_registry():
    results = run_all_checks(max_n=4)
    assert [r.name for r in results] == list(CHECKS)


def test_registry_shape_is_frozen():
    """Callers read CHECKS[name][1] to route keyword options; the names,
    their order and each accepted tuple are part of the interface."""
    assert [(name, accepted) for name, (_, accepted) in CHECKS.items()] == [
        ("gadget", ()),
        ("c5-attachment", ()),
        ("marked-edge-dct", ("max_n", "max_multiplicity")),
        ("line-hamilton-dct", ("max_n",)),
        ("closure", ("max_n",)),
        ("min-degree-hamilton", ("max_n",)),
        ("net-condition-hamilton", ("max_n",)),
        ("dct-or-heavy-matching", ("max_n", "heavy_slack")),
        ("matching-degree-sum", ("max_n",)),
        ("collapsible-remainder", ("max_n",)),
        ("spider-net", ("max_n",)),
        ("short-cycle-collapsible", ("max_n",)),
    ]


@pytest.mark.parametrize(
    "error, verdict", [(GraphError, "fail"), (LimitExceeded, "cap-exceeded")]
)
@pytest.mark.parametrize(
    "name", ["closure", "net-condition-hamilton", "dct-or-heavy-matching", "spider-net"]
)
def test_root_failure_is_reported_not_raised(monkeypatch, name, error, verdict):
    """A member whose root reconstruction raises lands in the report as a
    counted counterexample or cap note, and the sweep runs to the end."""
    calls = []

    def broken_root(g):
        calls.append(g)
        raise error("injected root failure")

    monkeypatch.setattr("clawham.verify.root_graph", broken_root)
    res = run_check(name, max_n=5)
    assert res.verdict == verdict
    assert calls and res.instances == len(calls)
    if verdict == "fail":
        assert len(res.counterexamples) == len(calls)
        assert all("injected root failure" in c["reason"] for c in res.counterexamples)
    else:
        assert res.counterexamples == []
        assert len(res.params["cap_notes"]) == len(calls)


# the essentially 2-edge-connected graphs of order 8 without a DCT; none
# exist below order 8, so no smaller sweep reaches the per-subset search
NO_DCT_ORDER_8 = ("G??yso", "GGDPSK", "G@GSYW", "G@Q?~?")


def test_collapsible_remainder_caps_each_subset(monkeypatch):
    """A capped subset becomes a cap note naming its mask, and the search
    goes on with the member's other subsets and the other members."""
    from clawham import trails, verify
    from clawham.graphs import induced_subgraph

    members = [parse_graph6(s) for s in NO_DCT_ORDER_8]
    monkeypatch.setattr(verify, "enumerate_graphs", lambda spec: iter(members))
    monkeypatch.setattr(trails, "COLLAPSIBLE_MAX_EDGES", 5)
    res = run_check("collapsible-remainder", max_n=8)
    assert res.verdict == "cap-exceeded"
    assert res.instances == 4 and res.counterexamples == []
    notes = res.params["cap_notes"]
    capped = {}
    for note in notes:
        head, message = note.split(": ", 1)
        g6, word, smask = head.split(" ")
        assert word == "subset" and message.endswith("exceed the collapsibility cap 5")
        capped.setdefault(g6, []).append(int(smask))
    assert sorted(capped) == sorted(NO_DCT_ORDER_8)
    for g6, masks in capped.items():
        h = parse_graph6(g6)
        for smask in masks:
            sub, _ = induced_subgraph(h, smask)
            assert sub.edge_count > 5
            assert sum(1 for u, v in h.edges if not (smask >> u | smask >> v) & 1) <= 3


def test_counterexamples_would_replay():
    """Serialize instances exactly as the marked-edge sweep would and
    confirm the CLI replay path reproduces the sweep's predicate."""
    from clawham.enumeration import marked_edge_instances
    from clawham.graphio import dump_multigraph_json

    checked = 0
    for inst in marked_edge_instances(4):
        if checked >= 5:
            break
        checked += 1
        blob = json.loads(dump_multigraph_json(inst.graph))
        # what the check asserts
        req = mask_of((inst.x, inst.y))
        expect = closed_trail_exists(
            inst.graph, mode="dominating", required_vertices=req
        ) is not None
        # replay through the CLI machinery
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            json.dump(blob, fh)
            path = fh.name
        try:
            code = main(
                ["dct", "--adj-json", path,
                 "--require-vertices", f"{inst.x},{inst.y}"]
            )
        finally:
            os.unlink(path)
        assert (code == 0) == expect


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "gadget", "--json", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["name"] == "gadget" and blob["verdict"] == "pass"
    text = capsys.readouterr().out
    assert "gadget: pass" in text


def test_cli_single_instance_commands(capsys):
    assert main(["hamilton", "--g6", write_graph6(gadget_graph())]) == 1
    assert main(["sct", "--g6", write_graph6(gadget_graph())]) == 1
    assert main(["dct", "--g6", write_graph6(gadget_graph())]) == 0
    trail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(trail) == {"vertices", "edge_ids"}
    assert main(["closure", "--g6", "DUW"]) == 0
    assert main(["root", "--g6", "D?{"]) == 1  # the claw is not a line graph
    assert main(["collapsible", "--g6", "C~"]) == 0
    assert main(["collapsible", "--g6", "Dhc"]) == 1


def test_cli_root_prints_the_root_alone(capsys):
    """K4 is L(K1,4); the root is unique, so there is no count to ask for."""
    assert main(["root", "--g6", "C~"]) == 0
    assert capsys.readouterr().out == "Ds_\n"
    with pytest.raises(SystemExit) as exc:
        main(["root", "--g6", "C~", "--count-roots"])
    assert exc.value.code == 2


def test_cli_invalid_inputs_exit_2(tmp_path, capsys):
    assert main(["hamilton", "--g6", "not graph6"]) == 2
    assert main(["dct", "--g6", "Dhc", "--require-vertices", "zap"]) == 2
    assert main(["enumerate", "--spec", "/nonexistent.json"]) == 2
    path = tmp_path / "input.json"
    for graph in (
        '{"n": 2, "adj": [[0, 1.5], [1.5, 0]]}',
        '{"n": 2, "adj": 5}',
        '{"n": 2, "adj": [[0, "1"], ["1", 0]]}',
        '{"n": 2, "adj": [[0, true], [true, 0]]}',
        '{"n": true, "adj": [[0]]}',
    ):
        path.write_text(graph)
        assert main(["collapsible", "--adj-json", str(path)]) == 2, graph
    for spec in (
        '{"n_min": 3, "n_max": "x"}',
        '{"n": true}',
        '{"n": 4, "connected": 1}',
        '["n"]',
    ):
        path.write_text(spec)
        assert main(["enumerate", "--spec", str(path), "--count-only"]) == 2, spec


def test_cli_enumerate(tmp_path, capsys):
    spec = tmp_path / "fam.json"
    spec.write_text('{"n": 4, "connected": true}')
    assert main(["enumerate", "--spec", str(spec), "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["enumerate", "--spec", str(spec)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(parse_graph6(line).n == 4 for line in lines)


def test_cli_entrypoint_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "clawham.cli", "verify", "c5-attachment"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "c5-attachment: pass" in proc.stdout
