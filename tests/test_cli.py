import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msograph
from msograph import cli
from msograph.cli import main, parse_assignment
from msograph.graphs import LabeledGraph, grid
from msograph.search import is_isomorphic
from msograph.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_m_msograph_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv, code in ((["--help"], 0), (["eval"], 2)):
        proc = subprocess.run([sys.executable, "-m", "msograph", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
    assert "usage: msograph" in proc.stderr  # the graph argument is missing


def test_parse_assignment():
    assert parse_assignment("x=3, Y={1,2}") == {"x": 3, "Y": frozenset({1, 2})}
    assert parse_assignment("Y={}") == {"Y": frozenset()}
    assert parse_assignment("x'=0, y = 1") == {"x'": 0, "y": 1}
    with pytest.raises(Exception):
        parse_assignment("X=3")  # set variable given a vertex
    with pytest.raises(Exception):
        parse_assignment("x={1}")  # vertex variable given a set


def test_gen_power(tmp_path, capsys):
    out = tmp_path / "d12.json"
    code, _, _ = run(capsys, "gen", "--family", "power", "--n", "12",
                     "-o", str(out))
    assert code == 0
    G = LabeledGraph.from_json(out.read_text())
    assert G.n == 12 and len(G.edges) == 30


def test_gen_bichain_labels(tmp_path, capsys):
    out = tmp_path / "z3.json"
    code, _, _ = run(capsys, "gen", "--family", "bichain", "--n", "3",
                     "--labels", "-o", str(out))
    assert code == 0
    G = LabeledGraph.from_json(out.read_text())
    assert len(G.edges) == 9 and len(G.labels) == 5


def test_gen_grid_dot(tmp_path, capsys):
    out = tmp_path / "c4.json"
    dot = tmp_path / "c4.dot"
    code, _, _ = run(capsys, "gen", "--family", "grid", "--m", "2", "--n",
                     "2", "-o", str(out), "--dot", str(dot))
    assert code == 0
    assert "graph G {" in dot.read_text()


def test_gen_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "grid", "--m", "2")
    assert code == 2 and "needs --n" in err


def test_eval_formula_and_pred(tmp_path, capsys):
    g = tmp_path / "d12.json"
    run(capsys, "gen", "--family", "power", "--n", "12", "-o", str(g))
    lib = tmp_path / "lib.mso"
    lib.write_text("def deg1(x) := exists! y. E(x, y)\n"
                   "def isolated() := exists x. !exists y. E(x, y)\n")
    code, out, _ = run(capsys, "eval", str(g), "--formula",
                       "exists x. (forall y. (x = y | E(x, y)))")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "eval", str(g), "--library", str(lib),
                       "--pred", "deg1")
    assert code == 0 and out.split() == []  # no degree-1 vertices in D_12
    # a predicate without parameters, under a valuation that it ignores
    code, out, _ = run(capsys, "eval", str(g), "--library", str(lib),
                       "--pred", "isolated", "--assign", "x=0")
    assert code == 0 and out.strip() == "false"


def test_eval_rejects_values_outside_the_graph(tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text(grid(2, 2).to_json())
    for formula, assign in (("E(x,y)", "x=99, y=0"), ("x = x", "x=5"),
                            ("exists z. Y(z)", "Y={9}"),
                            ("exists z. Y(z)", "Y={0, -1}")):
        code, out, err = run(capsys, "eval", str(g), "--formula", formula,
                             "--assign", assign)
        assert code == 2 and out == "", assign
        assert err.startswith("error:") and "Traceback" not in err, assign
    code, out, _ = run(capsys, "eval", str(g), "--formula", "exists z. Y(z)",
                       "--assign", "Y={3}")
    assert code == 0 and out.strip() == "true"


def test_library_cycle_is_usage_error(tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text(grid(2, 2).to_json())
    lib = tmp_path / "cyc.mso"
    lib.write_text("def a(x) := b(x)\ndef b(x) := a(x)\n")
    code, out, err = run(capsys, "eval", str(g), "--library", str(lib),
                         "--pred", "a")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cycle" in err
    assert "Traceback" not in err


def test_eval_pred_with_primed_names(tmp_path, capsys):
    g = tmp_path / "p3.json"
    g.write_text(LabeledGraph.build(3, [(0, 1)]).to_json())
    lib = tmp_path / "lib.mso"
    lib.write_text("def p(x') := exists y. E(x', y)\n")
    code, out, _ = run(capsys, "eval", str(g), "--library", str(lib),
                       "--pred", "p")
    assert code == 0 and out.split() == ["0", "1"]


def test_apply_builtin_and_pipeline(tmp_path, capsys):
    z4 = tmp_path / "z4.json"
    run(capsys, "gen", "--family", "bichain", "--n", "4", "--labels",
        "-o", str(z4))
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "apply", str(z4), "--interp", "psi-bichain",
                     "-o", str(out))
    assert code == 0
    H = LabeledGraph.from_json(out.read_text())
    assert is_isomorphic(H, grid(2, 2)) is not None
    code, _, _ = run(capsys, "apply", str(z4), "--pipeline",
                     "complement,complement", "-o", str(out))
    assert code == 0
    assert LabeledGraph.from_json(out.read_text()).edges == \
        LabeledGraph.from_json(z4.read_text()).edges


def test_apply_with_params(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    run(capsys, "gen", "--family", "grid", "--m", "2", "--n", "2",
        "-o", str(c4))
    out = tmp_path / "h.json"
    code, _, _ = run(capsys, "apply", str(c4), "--interp", "induced",
                     "--params", "Z={0,1}", "-o", str(out))
    assert code == 0
    assert LabeledGraph.from_json(out.read_text()).n == 2


def test_apply_phi_rejects_odd_n(tmp_path, capsys):
    g = tmp_path / "d11.json"
    run(capsys, "gen", "--family", "power", "--n", "11", "-o", str(g))
    code, _, err = run(capsys, "apply", str(g), "--interp", "phi-power",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2 and "even" in err


def test_width_exact_and_certify(tmp_path, capsys):
    g = tmp_path / "c4.json"
    run(capsys, "gen", "--family", "grid", "--m", "2", "--n", "2",
        "-o", str(g))
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "width", str(g), "--measure", "cwd",
                       "--cert-out", str(cert))
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run(capsys, "width", str(g), "--measure", "cwd",
                       "--certify", str(cert))
    assert code == 0 and json.loads(out)["certificate"] == "valid"
    # a certificate for the wrong graph fails with exit 1
    g2 = tmp_path / "p.json"
    run(capsys, "gen", "--family", "grid", "--m", "1", "--n", "4",
        "-o", str(g2))
    code, out, _ = run(capsys, "width", str(g2), "--measure", "cwd",
                       "--certify", str(cert))
    assert code == 1


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    for text in ('{"edges": []}', '{"n": 3}', '{"n": "3", "edges": []}',
                 '{"n": 3, "edges": [[0]]}', '[]', "[" * 100_000):
        g.write_text(text)
        for argv in (("width", str(g), "--measure", "twd"),
                     ("eval", str(g), "--formula", "x = x",
                      "--assign", "x=0")):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error:"), (text[:20], err)


def test_malformed_labels_and_names_are_usage_errors(tmp_path, capsys):
    g = tmp_path / "g.json"
    for extra in ('"labels": {"a": 5}', '"labels": {"a": [0, "1"]}',
                  '"labels": [[0]]', '"names": ["a"]', '"names": {"x": "a"}',
                  '"names": {"0": 7}', '"names": {"7": "ghost"}'):
        g.write_text(f'{{"n": 2, "edges": [], {extra}}}')
        code, _, err = run(capsys, "width", str(g), "--measure", "twd")
        assert code == 2 and err.startswith("error:"), extra
    g.write_text('{"n": 2, "edges": [[0, 1]], "labels": {"a": [1]}, '
                 '"names": {"0": "p", "1": "q"}}')
    G = LabeledGraph.from_json(g.read_text())
    assert G.labels == {"a": {1}} and G.name_of(1) == "q"


def test_eval_pred_prints_the_rows_of_the_table(tmp_path, capsys):
    # the rows and the count line of `msograph eval --pred`, as they
    # were printed while tables were sets of tuples
    g = tmp_path / "d12.json"
    run(capsys, "gen", "--family", "power", "--n", "12", "-o", str(g))
    lib = Path(msograph.__file__).parent / "libraries" / "power.mso"
    code, out, err = run(capsys, "eval", str(g), "--library", str(lib),
                         "--pred", "cliquemin")
    assert code == 0
    assert out.split() == ["1", "2", "4", "8"]
    assert err == "# cliquemin: 4 tuples\n"


def test_malformed_certificates_are_usage_errors(tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text(grid(2, 2).to_json())
    cert = tmp_path / "cert.json"
    for measure, text in (("cwd", '{"type": "k-expression"}'),
                          ("cwd", '[["leaf", 1]]'),
                          ("twd", '{"type": "tree-decomposition", '
                                  '"bags": [[0, 1, 2, 3]]}')):
        cert.write_text(text)
        code, _, err = run(capsys, "width", str(g), "--measure", measure,
                           "--certify", str(cert))
        assert code == 2 and err.startswith("error:"), text


def test_certificates_with_bad_nodes_or_labels_are_usage_errors(tmp_path,
                                                                 capsys):
    g = tmp_path / "k1.json"
    g.write_text(LabeledGraph.build(1, []).to_json())
    cert = tmp_path / "cert.json"
    for root, want in (('["union", ["leaf", 1]]', "('union', ('leaf', 1))"),
                       ('["join", 1, 2]', "('join', 1, 2)"),
                       ('["leaf", true]', "label True")):
        cert.write_text('{"type": "k-expression", "k": 2, "root": %s}' % root)
        code, out, err = run(capsys, "width", str(g), "--measure", "cwd",
                             "--certify", str(cert))
        assert code == 2 and out == "" and err.startswith("error:"), root
        assert want in err and "unpack" not in err, err


def test_decomposition_with_a_vertex_outside_the_graph_is_invalid(tmp_path,
                                                                  capsys):
    g = tmp_path / "p2.json"
    g.write_text(grid(1, 2).to_json())
    cert = tmp_path / "td.json"
    cert.write_text('{"type": "tree-decomposition", "bags": [[0, 1, 7, -3]], '
                    '"tree_edges": []}')
    code, out, _ = run(capsys, "width", str(g), "--measure", "twd",
                       "--certify", str(cert))
    assert code == 1
    assert json.loads(out) == {"measure": "twd", "certificate": "invalid",
                               "width": 3}
    cert.write_text('{"type": "tree-decomposition", "bags": [[0, 1]], '
                    '"tree_edges": [[0, 0]]}')
    code, out, err = run(capsys, "width", str(g), "--measure", "twd",
                         "--certify", str(cert))
    assert code == 2 and out == "" and "is a loop" in err


def test_deep_certificates_are_checked_or_rejected(tmp_path, capsys):
    g = tmp_path / "k1.json"
    g.write_text(LabeledGraph.build(1, []).to_json())
    cert = tmp_path / "deep.json"
    for depth, want in ((900, 0), (3000, 2)):
        root = '["relabel", 1, 2, ' * depth + '["leaf", 1]' + "]" * depth
        cert.write_text('{"type": "k-expression", "k": 2, "root": %s}' % root)
        code, out, err = run(capsys, "width", str(g), "--measure", "cwd",
                             "--certify", str(cert))
        assert code == want, (depth, err)
        assert "Traceback" not in err
        if want == 0:
            assert json.loads(out) == {"measure": "cwd",
                                       "certificate": "valid", "k": 2}
        else:
            assert err.startswith("error:")


def test_formula_nested_too_deeply_to_parse_is_usage_error(tmp_path, capsys):
    g = tmp_path / "k1.json"
    g.write_text(LabeledGraph.build(1, []).to_json())
    deep = "".join(f"exists z{i}. (" for i in range(100)) + "x = x" + \
        ")" * 100
    code, out, err = run(capsys, "eval", str(g), "--formula", deep,
                         "--assign", "x=0")
    assert code == 2 and out == ""
    assert err.startswith("error: formula nested too deeply to parse")
    assert "Traceback" not in err


def test_call_chain_past_the_recursion_limit_is_exit_3(tmp_path, capsys):
    g = tmp_path / "g13.json"
    g.write_text(grid(1, 3).to_json())
    chain = tmp_path / "chain.mso"
    chain.write_text("def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, 600)))
    code, out, err = run(capsys, "eval", str(g), "--library", str(chain),
                         "--pred", "p599", "--assign", "x=0, y=1")
    assert code == 3 and out == ""
    assert err.startswith("limit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_guarded_set_quantifier_answers_over_the_cap(tmp_path, capsys):
    g = tmp_path / "g56.json"
    g.write_text(grid(5, 6).to_json())  # 30 vertices, over the cap of 22
    code, out, _ = run(capsys, "eval", str(g), "--formula",
                       "exists S. ((forall w. (S(w) -> X(w))) & "
                       "(exists v. (X(v) & S(v))))", "--assign", "X={0,1,2,3}")
    assert code == 0 and out == "true\n"
    code, out, err = run(capsys, "eval", str(g), "--formula", "exists S. true")
    assert code == 3 and out == ""
    assert err.startswith("budget: ") and "30 free vertices" in err
    assert "Traceback" not in err


def test_interpretation_errors_exit_1_whatever_their_text(tmp_path, capsys):
    # a vertex name containing "cap" must not turn the error into exit 3
    interp = tmp_path / "refl.interp"
    interp.write_text("domain(x) := x = x\nedge(x, y) := E(x, y) | x = y\n")
    g = tmp_path / "g.json"
    for name in ("capstone", "a"):
        g.write_text(LabeledGraph.build(2, [(0, 1)],
                                        names={0: name, 1: "b"}).to_json())
        code, _, err = run(capsys, "apply", str(g), "--interp", str(interp))
        assert code == 1, name
        assert err == f"error: edge formula is reflexive at {name}\n"


def test_repeated_interpretation_parameters_exit_1(tmp_path, capsys):
    interp = tmp_path / "zz.interp"
    interp.write_text("params: [Z, Z]\ndomain(x) := Z(x)\n"
                      "edge(x,y) := E(x,y)\n")
    g = tmp_path / "g.json"
    g.write_text(grid(1, 3).to_json())
    code, out, err = run(capsys, "apply", str(g), "--interp", str(interp),
                         "--params", "Z={0,1}")
    assert code == 1 and not out
    assert err == "error: parameters ['Z'] are repeated\n"


def test_width_cap_is_exit_3(tmp_path, capsys):
    g = tmp_path / "d12.json"
    run(capsys, "gen", "--family", "power", "--n", "12", "-o", str(g))
    code, _, err = run(capsys, "width", str(g), "--measure", "cwd")
    assert code == 3 and "cap" in err
    g.write_text(grid(3, 7).to_json())
    code, _, err = run(capsys, "width", str(g), "--measure", "twd")
    assert code == 3 and "cap is 20 vertices, got 21" in err


def test_width_grid45_treewidth_at_the_default_cap(tmp_path, capsys):
    g = tmp_path / "g45.json"
    g.write_text(grid(4, 5).to_json())
    cert = tmp_path / "td.json"
    code, out, _ = run(capsys, "width", str(g), "--measure", "twd",
                       "--cert-out", str(cert))
    assert code == 0 and json.loads(out) == {"measure": "twd", "value": 4}
    code, out, _ = run(capsys, "width", str(g), "--measure", "twd",
                       "--certify", str(cert))
    assert code == 0 and json.loads(out) == {"measure": "twd",
                                             "certificate": "valid",
                                             "width": 4}


def test_width_help_states_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["width", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "vertex cap (default: twd 20, cwd 8)" in out
    assert "cwd only: union steps and the groupings they close " \
        "(default: 2,000,000)" in out


def test_width_zero_cap_or_budget_is_exit_3(tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text(grid(2, 2).to_json())
    for opts in (("cwd", "--budget", "0"), ("twd", "--cap", "0"),
                 ("cwd", "--cap", "0")):
        code, out, err = run(capsys, "width", str(g), "--measure", *opts)
        assert code == 3 and out == "" and err.startswith("budget:"), opts


def test_width_budget_for_treewidth_or_negative_limits_are_usage_errors(
        tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text(grid(2, 2).to_json())
    for opts in (("twd", "--budget", "5"), ("twd", "--cap", "-1"),
                 ("cwd", "--cap", "-1"), ("cwd", "--budget", "-1")):
        code, out, err = run(capsys, "width", str(g), "--measure", *opts)
        assert code == 2 and out == "" and err.startswith("error:"), opts


def test_apply_ignores_an_unreached_set_quantified_definition(tmp_path,
                                                              capsys):
    interp = tmp_path / "adj.interp"
    interp.write_text("def big(x) := exists X. X(x)\n"
                      "def adj(x, y) := E(x, y)\n"
                      "domain(x) := x = x\nedge(x, y) := adj(x, y)\n")
    g = tmp_path / "g55.json"
    g.write_text(grid(5, 5).to_json())
    out = tmp_path / "h.json"
    code, _, _ = run(capsys, "apply", str(g), "--interp", str(interp),
                     "--set-cap", "10", "-o", str(out))
    H = LabeledGraph.from_json(out.read_text())
    assert code == 0 and H.n == 25 and len(H.edges) == 40


def test_width_grid33_at_cap_10_fits_the_default_budget(tmp_path, capsys):
    g = tmp_path / "g33.json"
    g.write_text(grid(3, 3).to_json())
    code, out, _ = run(capsys, "width", str(g), "--measure", "cwd",
                       "--cap", "10")
    assert code == 0 and json.loads(out) == {"measure": "cwd", "value": 4}


def test_the_parser_lists_every_verify_suite():
    assert cli.SUITE_NAMES == tuple(sorted(SUITES))


def test_verify_suite_and_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code, _, err = run(capsys, "verify", "--suite", "split", "--max-n", "3",
                       "--json", str(rep))
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["status"] == "pass"
    assert all(r["pass"] for r in data["records"])


def test_verify_seed_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "relativize", "--trials", "20",
        "--seed", "5", "--json", str(a))
    run(capsys, "verify", "--suite", "relativize", "--trials", "20",
        "--seed", "5", "--json", str(b))
    ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    strip = lambda d: [{k: r[k] for k in ("id", "parameters", "pass")}
                       for r in d["records"]]
    assert strip(ja) == strip(jb)
