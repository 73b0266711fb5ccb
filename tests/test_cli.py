import csv
import json
import warnings

import pytest

from l0path import NotBipartite, b2_subgraph_bipartite, read_instance, support_graph, write_instance
from l0path.cli import main

from conftest import random_dd_instance, rng_for
from test_cover import edge_tuples, path_cover_loop


def run_cli(*argv):
    return main(list(argv))


def test_gen_solve_path_round_trip(tmp_path, capsys):
    inst = tmp_path / "t.json"
    sol = tmp_path / "sol.json"
    assert run_cli("gen", "tridiag", "--n", "50", "--seed", "1", "-o", str(inst)) == 0
    assert run_cli("solve-path", str(inst), "-o", str(sol)) == 0
    out = capsys.readouterr().out
    assert "objective" in out
    doc = json.loads(sol.read_text())
    assert set(doc) == {"objective", "objective_with_offset", "z", "x"}
    assert len(doc["x"]) == 50
    assert all(v in (0, 1) for v in doc["z"])


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli("gen", "lattice2d", "--rows", "3", "--cols", "4", "--seed", "9", "-o", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_solve_decomp_outputs(tmp_path, capsys):
    inst = tmp_path / "lat.json"
    sol = tmp_path / "sol.json"
    log = tmp_path / "log.csv"
    run_cli("gen", "lattice2d", "--rows", "3", "--cols", "3", "--seed", "2", "-o", str(inst))
    code = run_cli(
        "solve-decomp", str(inst), "--steps", "harmonic", "--eps", "0.01",
        "--max-iter", "200", "--log", str(log), "-o", str(sol),
    )
    assert code == 0
    assert "gap" in capsys.readouterr().out
    doc = json.loads(sol.read_text())
    assert doc["lower"] <= doc["upper"] + 1e-9
    assert doc["objective"] == doc["upper"]
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "lower", "upper", "gap", "step", "h", "elapsed_ms"]
    assert len(rows) == doc["iters"] + 1


def test_solve_decomp_repeat_identical_modulo_timing(tmp_path):
    inst = tmp_path / "lat.json"
    run_cli("gen", "lattice2d", "--rows", "3", "--cols", "3", "--seed", "4", "-o", str(inst))
    sols, logs = [], []
    for tag in ("x", "y"):
        sol = tmp_path / f"sol_{tag}.json"
        log = tmp_path / f"log_{tag}.csv"
        run_cli("solve-decomp", str(inst), "--max-iter", "40", "--log", str(log), "-o", str(sol))
        sols.append(sol.read_bytes())
        with open(log, newline="") as fh:
            logs.append([row[:-1] for row in csv.reader(fh)])  # drop elapsed_ms
    assert sols[0] == sols[1]
    assert logs[0] == logs[1]


def test_path_instance_same_answer_both_solvers(tmp_path):
    inst = tmp_path / "t.json"
    run_cli("gen", "signal1d", "--n", "30", "--seed", "5", "-o", str(inst))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("solve-path", str(inst), "-o", str(a))
    run_cli("solve-decomp", str(inst), "-o", str(b))
    pa = json.loads(a.read_text())
    pb = json.loads(b.read_text())
    assert abs(pa["objective"] - pb["objective"]) <= 1e-9
    assert pb["gap"] == 0.0


def test_decompose_json(tmp_path):
    inst = tmp_path / "lat.json"
    out = tmp_path / "ord.json"
    run_cli("gen", "lattice2d", "--rows", "3", "--cols", "3", "--seed", "3", "-o", str(inst))
    assert run_cli("decompose", str(inst), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["pi"]) == list(range(1, 10))
    assert doc["weight_retained"] <= doc["weight_total"]
    edges = {tuple(e) for e in doc["retained"]} | {tuple(e) for e in doc["relaxed"]}
    assert len(edges) == len(doc["retained"]) + len(doc["relaxed"])
    assert all(1 <= i < j <= 9 for i, j in edges)
    # the document is exactly the tuple-walk pipeline's, in plain ints, on
    # a lattice and on a non-bipartite graph
    rnd = random_dd_instance(rng_for(61), 9)
    with pytest.raises(NotBipartite):
        b2_subgraph_bipartite(support_graph(rnd))
    write_instance(rnd, str(tmp_path / "rnd.json"))
    for name in ("lat", "rnd"):
        assert run_cli("decompose", str(tmp_path / f"{name}.json"), "-o", str(out)) == 0
        g = support_graph(read_instance(str(tmp_path / f"{name}.json")))
        pi, retained, relaxed = path_cover_loop(g)
        wmap = {(i, j): w for i, j, w in edge_tuples(g)}
        assert json.loads(out.read_text()) == {
            "pi": [v + 1 for v in pi],
            "retained": [[i + 1, j + 1] for i, j in retained],
            "relaxed": [[i + 1, j + 1] for i, j in relaxed],
            "weight_retained": float(sum(wmap[e] for e in retained)),
            "weight_total": float(sum(w for _, _, w in edge_tuples(g))),
        }


def test_oracle_command(tmp_path, capsys):
    inst = tmp_path / "t.json"
    out = tmp_path / "o.json"
    run_cli("gen", "tridiag", "--n", "8", "--seed", "6", "-o", str(inst))
    assert run_cli("oracle", str(inst), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["supports_enumerated"] == 256
    sol = tmp_path / "s.json"
    run_cli("solve-path", str(inst), "-o", str(sol))
    assert abs(doc["objective"] - json.loads(sol.read_text())["objective"]) <= 1e-8


def test_exit_codes(tmp_path, capsys):
    assert run_cli("solve-path", str(tmp_path / "nope.json")) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("solve-path", str(bad)) == 2
    # not UTF-8, and nested past the recursion limit: both are parse errors
    bad.write_bytes(b"\xff\xfe{}")
    assert run_cli("solve-path", str(bad)) == 2
    bad.write_text("[" * 200000)
    assert run_cli("solve-path", str(bad)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error: ") for line in err)

    # indefinite tridiagonal: input parses but the solve must fail
    indef = tmp_path / "indef.json"
    indef.write_text(json.dumps({
        "n": 2, "a": [0.0, 0.0], "c": [1.0, 1.0],
        "Q": [[1, 1, 1.0], [1, 2, 2.0], [2, 2, 1.0]],
    }))
    assert run_cli("solve-path", str(indef)) == 3

    # diagonally dominant but singular: the retained segment is not PD
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({
        "n": 2, "a": [0.0, 0.0], "c": [1.0, 1.0],
        "Q": [[1, 1, 1.0], [1, 2, -1.0], [2, 2, 1.0]],
    }))
    assert run_cli("solve-decomp", str(singular)) == 3
    assert "not positive definite" in capsys.readouterr().err

    assert run_cli("gen", "tridiag", "--n", "5") == 2  # missing -o
    out = str(tmp_path / "g.json")
    assert run_cli("gen", "tridiag", "--n", "0", "-o", out) == 2
    # Philox keys are 128-bit
    assert run_cli("gen", "tridiag", "--n", "3", "--seed", "-1", "-o", out) == 2
    assert run_cli("gen", "tridiag", "--n", "3", "--seed", str(2**128), "-o", out) == 2
    assert run_cli("gen", "lattice2d", "--rows", "1", "--cols", "3", "-o", out) == 2
    assert run_cli("gen", "signal1d", "--n", "5", "--sigma", "-1", "-o", out) == 2
    # extreme parameters: sigma^2 underflows to zero or overflows, or the
    # generated numbers are not finite
    assert run_cli("gen", "lattice2d", "--rows", "2", "--cols", "2", "--sigma", "1e-200", "-o", out) == 2
    assert run_cli("gen", "lattice2d", "--rows", "2", "--cols", "2", "--sigma", "1e200", "-o", out) == 2
    assert run_cli("gen", "signal1d", "--n", "5", "--mu", "nan", "-o", out) == 2
    assert run_cli("gen", "signal1d", "--n", "5", "--sigma", "1e300", "-o", out) == 2
    # readable, but its magnitudes overflow the label sweep: the dual
    # bound is not finite
    assert run_cli("gen", "lattice2d", "--rows", "3", "--cols", "3", "--sigma", "1e-150", "-o", out) == 0
    assert run_cli("solve-decomp", out) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("signal1d", "--n", "5", "--sigma", "1e200"),
        ("signal1d", "--n", "5", "--sigma", "1e300"),
        ("lattice2d", "--rows", "2", "--cols", "2", "--sigma", "inf"),
        ("lattice2d", "--rows", "2", "--cols", "2", "--sigma", "1e-160"),
    ],
)
def test_generator_overflow_reports_only_the_error(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("gen", *argv, "-o", str(tmp_path / "g.json")) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
