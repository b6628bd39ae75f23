import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from crossbound import embedding, generators
from crossbound.cli import main
from crossbound.graph import parse_graph


@pytest.fixture
def runner():
    return CliRunner()


def test_generate_complete(runner):
    res = runner.invoke(main, ["generate", "complete:5"])
    assert res.exit_code == 0
    g = parse_graph(res.output.encode(), "graph6")
    assert g.n == 5 and g.m == 10


def test_generate_edgelist_and_file_roundtrip(runner, tmp_path):
    out = tmp_path / "g.txt"
    res = runner.invoke(main, ["generate", "bipartite:3:3", "--format", "edgelist",
                               "--out", str(out)])
    assert res.exit_code == 0
    res2 = runner.invoke(main, ["oracle", str(out), "--format", "edgelist"])
    assert res2.exit_code == 0
    assert res2.output.strip() == "1"


@pytest.mark.parametrize("spec", ["moebius:5", "complete:x", "planar-plus:6:-1"])
def test_generate_rejects_unknown_family(runner, spec):
    res = runner.invoke(main, ["generate", spec])
    assert res.exit_code == 1
    assert "error" in json.loads(res.stderr)


@pytest.mark.parametrize("spec", ["complete:1000000", "complete:64", "bipartite:1000:1000",
                                  "maximal-planar:1000000", "planar-plus:1000000:1"])
def test_oversized_family_spec_rejected_before_generation(runner, monkeypatch, spec):
    # the size check allocates nothing: every generator raises if reached
    def never(*args):
        raise AssertionError(f"generator called for {spec}")

    for name in ("complete", "complete_bipartite", "random_maximal_planar", "planar_plus"):
        monkeypatch.setattr(generators, name, never)
    res = runner.invoke(main, ["generate", spec])
    assert res.exit_code == 1
    assert "limit" in json.loads(res.stderr)["error"]


def test_oversized_file_rejected(runner, tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"0 2000\n")
    res = runner.invoke(main, ["analyze", str(path), "--format", "edgelist"])
    assert res.exit_code == 1
    assert "limit" in json.loads(res.stderr)["error"]
    path.write_bytes(b"0 1999\n")
    res = runner.invoke(main, ["oracle", str(path), "--format", "edgelist"])
    assert res.exit_code == 0 and res.output.strip() == "0"


def test_largest_family_specs_in_use_pass_the_size_check(runner):
    # K63 has 1953 edges, under the limit; K64 (2016 edges) is rejected above
    res = runner.invoke(main, ["generate", "complete:63"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["generate", "maximal-planar:400", "--seed", "1"])
    assert res.exit_code == 0
    assert parse_graph(res.output.encode(), "graph6").m == 3 * 400 - 6


def test_oracle_plain_and_json(runner):
    res = runner.invoke(main, ["oracle", "petersen"])
    assert res.exit_code == 0 and res.output.strip() == "2"
    res = runner.invoke(main, ["oracle", "petersen", "--pretty"])
    doc = json.loads(res.output)
    assert doc["cr"] == 2
    assert doc["meta"]["tool"] == "crossbound"
    assert doc["meta"]["budgets"] == {"max_edges": 20, "max_k": 4}
    assert len(doc["meta"]["input_sha256"]) == 64


def test_oracle_budget_exit_code(runner):
    res = runner.invoke(main, ["oracle", "complete:8"])
    assert res.exit_code == 3
    assert "error" in json.loads(res.stderr)
    # the edge budget establishes nothing, so no fact is appended
    assert "None" not in json.loads(res.stderr)["error"]
    res = runner.invoke(main, ["oracle", "complete:6", "--max-k", "2"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"].endswith("(cr > 2)")
    # every command reports the established fact, not only oracle
    res = runner.invoke(main, ["critical", "complete:5", "--k", "1", "--max-k", "0"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "cr exceeds budget on a component (cr > 0)"


def test_critical_bracket_keeps_the_k_budget(runner):
    # K6 is 3-critical and cr(K6) = 3 is above max_k = 2: crossing_number's
    # k budget applies, and its budget error stands
    res = runner.invoke(main, ["critical", "complete:6", "--k", "3", "--max-k", "2"])
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "cr exceeds budget on a component (cr > 2)"}


@pytest.mark.parametrize("spec, k", [("complete:5", 6), ("bipartite:3:3", 9)])
def test_critical_above_the_k_budget_is_a_verdict(runner, spec, k):
    # k - 1 is above max_k = 4, but the search within max_k already finds
    # cr <= 1 < k: a verdict, not a budget error
    res = runner.invoke(main, ["critical", spec, "--k", str(k)])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["critical"] is False and "cr" not in doc


def test_critical_above_the_k_budget_reports_what_it_established(runner):
    # cr(K6) = 3: no witness within max_k = 2, so k = 4 stays undecided
    res = runner.invoke(main, ["critical", "complete:6", "--k", "4", "--max-k", "2"])
    assert res.exit_code == 3
    assert json.loads(res.stderr) == {"error": "k=3 above budget 2 (cr > 2)"}


def test_critical_edge_budget_is_per_component(runner, tmp_path):
    # 2K5 has 20 edges, each K5 10: the K5s are searched apart, each
    # within --max-edges 10, and their crossing numbers sum to 2
    path = tmp_path / "2k5.txt"
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    path.write_text("".join(f"{u + s} {v + s}\n" for s in (0, 5) for u, v in k5))
    res = runner.invoke(main, ["critical", str(path), "--format", "edgelist", "--k", "2",
                               "--max-edges", "10"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["critical"] is True and doc["cr"] == 2


def test_analyze_k6(runner):
    res = runner.invoke(main, ["analyze", "complete:6"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["n"] == 6 and doc["m"] == 15 and doc["min_degree"] == 5
    assert doc["skewness"]["value"] == 3
    assert len(doc["skewness"]["removed"]) == 3
    assert doc["light_cycle"]["mu"] <= 13
    assert doc["skewness_bound"] == "8/1"
    assert doc["cr"] == 3 and doc["cr_status"] == "exact"


def test_analyze_reports_cr_budget_inline(runner):
    # analysis still succeeds when the oracle gives up; cr comes back null
    res = runner.invoke(main, ["analyze", "bipartite:3:5", "--max-k", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["cr"] is None
    assert doc["cr_status"] == "cr > 2"


def test_draw_k5_with_svg(runner, tmp_path):
    svg = tmp_path / "k5.svg"
    res = runner.invoke(main, ["draw", "complete:5", "--svg", str(svg)])
    assert res.exit_code == 0
    doc = json.loads(res.output)["drawing"]
    assert doc["crossing_count"] == 1
    assert doc["crossing_bound"] == "1/1"
    assert doc["bound_met"] is True
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("text, fmt", [(b"", "edgelist"), (b"?\n", "graph6")])
def test_analyze_the_empty_graph(runner, tmp_path, text, fmt):
    path = tmp_path / "empty"
    path.write_bytes(text)
    res = runner.invoke(main, ["analyze", str(path), "--format", fmt])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert (doc["n"], doc["min_degree"], doc["light_cycle"]) == (0, None, None)
    assert (doc["skewness_bound"], doc["cr"]) == (None, 0)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_to_one_blas_thread(preset, expected):
    # numpy, and with it OpenBLAS, is not loaded yet when the CLI sets the default
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    code = ("import os, sys, crossbound.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.split() == [expected, "False"]


def test_critical_k5(runner):
    res = runner.invoke(main, ["critical", "complete:5", "--k", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["critical"] is True
    assert doc["cr"] == 1
    assert doc["satisfied"] == {
        "skewness_bound": "true",
        "cycle_bound": "true",
        "degree_bound": "true",
    }


def test_critical_negative(runner):
    res = runner.invoke(main, ["critical", "complete:4", "--k", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["critical"] is False
    assert "satisfied" not in doc


def test_critical_min_degree_2(runner, tmp_path):
    # K5 with edge (0, 1) subdivided by 5 is 1-critical; the light cycle and
    # the bounds on it need minimum degree 3, so they are null
    path = tmp_path / "k5sub.txt"
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    path.write_text("".join(f"{u} {v}\n" for u, v in edges + [(0, 5), (1, 5)]))
    res = runner.invoke(main, ["critical", str(path), "--format", "edgelist", "--k", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["critical"] is True and doc["cr"] == 1
    assert doc["bounds"] == {"skewness_bound": "5/3", "cycle_bound": None, "degree_bound": None}
    assert doc["satisfied"] == {"skewness_bound": "true"}


def test_verify_lemma(runner):
    res = runner.invoke(main, ["verify-lemma"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"holds": True}


def test_verify_lemma_refuses_a_huge_d_max(runner):
    # the check covers every degree, so --d-max is no longer an option
    res = runner.invoke(main, ["verify-lemma", "--d-max", "1000000000"])
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "No such option '--d-max'."}


@pytest.mark.parametrize("args", [
    ["critical", "complete:5"],
    ["oracle", "complete:5", "--max-k", "x"],
    ["verify-lemma", "--d-max", "60"],
], ids=["missing-option", "bad-value", "unknown-option"])
def test_usage_errors_are_json_errors(runner, args):
    # exit 2 is draw's bound-violation finding, not a usage error
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and res.stdout == ""
    assert "error" in json.loads(res.stderr)


def test_verify_lemma_help_lists_only_out_and_pretty(runner):
    res = runner.invoke(main, ["verify-lemma", "--help"])
    assert res.exit_code == 0
    assert re.findall(r"--[a-z-]+", res.output) == ["--out", "--pretty", "--help"]


@pytest.mark.parametrize("args", [
    ["analyze", "complete:5", "--out", "{tmp}/no/such/dir/x.json"],
    ["draw", "complete:5", "--svg", "{tmp}/no/such/dir/x.svg"],
    ["generate", "complete:5", "--out", "{tmp}"],
], ids=["analyze-out", "draw-svg", "generate-out"])
def test_unwritable_output_is_error(runner, tmp_path, args):
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 1 and res.stdout == ""
    assert str(tmp_path) in json.loads(res.stderr)["error"]


def test_readme_cli_examples_run(runner):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(c[0] == "crossbound" for c in commands)
    with runner.isolated_filesystem():
        for command in commands:
            res = runner.invoke(main, command[1:])
            assert res.exit_code == 0, (command, res.output, res.stderr)


def test_reruns_are_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = runner.invoke(main, ["analyze", "planar-plus:10:2", "--seed", "7",
                                   "--out", str(path)])
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    # a different seed changes the generated input, hence the report
    res = runner.invoke(main, ["analyze", "planar-plus:10:2", "--seed", "8"])
    doc = json.loads(res.output)
    assert doc["meta"]["seed"] == 8
    assert doc["meta"]["input_sha256"] != json.loads(a.read_bytes())["meta"]["input_sha256"]


def test_planar_input_is_lr_tested_once(runner, monkeypatch):
    # the skewness certificate's checked embedding serves the light cycle
    # and the drawing: no second test or embedding of the same graph
    calls = []
    lr_test = embedding.lr_test

    def counted(adj):
        calls.append(1)
        return lr_test(adj)

    monkeypatch.setattr(embedding, "lr_test", counted)
    for command in ("analyze", "draw"):
        calls.clear()
        res = runner.invoke(main, [command, "maximal-planar:100"])
        assert res.exit_code == 0
        assert len(calls) == 1, command


@pytest.mark.parametrize("k", [4, 5])
def test_draw_rejects_a_disconnected_base(runner, tmp_path, k):
    # two disjoint K_k: the base of the drawing has two components
    path = tmp_path / "two.txt"
    lines = [f"{u + s} {v + s}" for s in (0, k) for u in range(k) for v in range(u + 1, k)]
    path.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["draw", str(path), "--format", "edgelist"])
    assert res.exit_code == 1
    assert json.loads(res.stderr) == {"error": "embedding needs a connected graph"}


@pytest.mark.parametrize("args", [
    ["oracle", "complete:1", "--max-edges", "-1"],
    ["oracle", "complete:1", "--max-k", "-3"],
    ["analyze", "complete:5", "--max-k", "-1"],
    ["critical", "complete:5", "--k", "1", "--max-k", "-1"],
    ["critical", "complete:5", "--k", "1", "--max-edges", "-1"],
], ids=["oracle-edges", "oracle-k", "analyze", "critical-k", "critical-edges"])
def test_negative_budgets_are_errors(runner, args):
    # not a budget the search ran out of: there is no fact to report
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and res.stdout == ""
    assert "budgets must be >= 0" in json.loads(res.stderr)["error"]


def test_missing_input_is_error(runner):
    res = runner.invoke(main, ["analyze", "no/such/file"])
    assert res.exit_code == 1
    assert "error" in json.loads(res.stderr)


def test_unreadable_input_is_error(runner, tmp_path):
    res = runner.invoke(main, ["analyze", str(tmp_path)])
    assert res.exit_code == 1
    assert "cannot read" in json.loads(res.stderr)["error"]


def test_non_ascii_edgelist_is_error(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n1 \xff2\n")
    res = runner.invoke(main, ["analyze", str(bad), "--format", "edgelist"])
    assert res.exit_code == 1
    assert "not ASCII" in json.loads(res.stderr)["error"]


def test_pretty_output_is_indented(runner):
    res = runner.invoke(main, ["verify-lemma", "--pretty"])
    assert res.output.startswith("{\n  ")
