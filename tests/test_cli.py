import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from mgbarrier import cli, diagnostics, problems
from mgbarrier.cli import (EXIT_INVALID_INPUT, EXIT_OK, main, parse_config_text,
                           spec_from_config)
from mgbarrier.pathfollow import CSV_HEADER, PathConfig, run_mgb
from mgbarrier.problems import build_problem

SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
BENCH_HEADER = "algorithm,p,h,fine_cells,newton_steps,max_step_newton,t_final,status,wall_s"


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(
        "p = 1.5\nalpha = 2\nlevels = 2\ncells0 = 2\nalgorithm = mgb\n"
    )
    return path


def test_solve_writes_artifacts(config_file, tmp_path, capsys):
    mesh_path = tmp_path / "mesh.txt"
    sol_path = tmp_path / "sol.txt"
    trace_path = tmp_path / "trace.csv"
    code = main(["solve", "--config", str(config_file),
                 "--dump-mesh", str(mesh_path),
                 "--dump-solution", str(sol_path),
                 "--trace", str(trace_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # one Newton count: the trace's newton_steps, each centering's steps once
    tr = run_mgb(build_problem(spec_from_config(parse_config_text(config_file.read_text()))))
    assert f"\nstatus=converged t_final={tr.t_final!r} newton_steps={tr.newton_steps}\n" in out
    assert mesh_path.exists() and sol_path.exists()
    text = trace_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert all(float(line.split(",")[1]) <= 1e8 for line in text.splitlines()[1:])


@pytest.mark.parametrize("value", ["false", "True"])
def test_solve_predictor_key(config_file, tmp_path, value):
    # `predictor = false` runs practical MGB as the paper states it
    path = tmp_path / "run.cfg"
    path.write_text(config_file.read_text() + f"predictor = {value}\n")
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", "--config", str(path), "--trace", str(trace_path)]) == EXIT_OK
    cfg = parse_config_text(path.read_text())
    assert cfg["predictor"] is (value == "True")
    expected = run_mgb(build_problem(spec_from_config(cfg)),
                       PathConfig(predictor=cfg["predictor"]))
    # every column but the last, wall_ms
    got = [line.rsplit(",", 1)[0] for line in trace_path.read_text().splitlines()]
    assert got == [line.rsplit(",", 1)[0] for line in expected.to_csv().splitlines()]


def test_solve_direct_cap_key(config_file, tmp_path):
    # `direct_cap = 0` runs Algorithm MGB proper: every t-step sweeps
    path = tmp_path / "run.cfg"
    path.write_text(config_file.read_text() + "direct_cap = 0\n")
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", "--config", str(path), "--trace", str(trace_path)]) == EXIT_OK
    cfg = parse_config_text(path.read_text())
    assert cfg["direct_cap"] == 0 and cli._path_config(cfg) == PathConfig(direct_cap=0)
    expected = run_mgb(build_problem(spec_from_config(cfg)), PathConfig(direct_cap=0))
    got = [line.rsplit(",", 1)[0] for line in trace_path.read_text().splitlines()]
    assert got == [line.rsplit(",", 1)[0] for line in expected.to_csv().splitlines()]
    # no row is a direct fine step (level 0)
    assert all(line.split(",")[3] != "0" for line in got[1:])


@pytest.mark.parametrize("algorithm", ["naive-h-then-t", "naive-theta"])
def test_solve_naive_algorithms(tmp_path, algorithm):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"p = 2\nalpha = 1\nlevels = 2\ncells0 = 2\nalgorithm = {algorithm}\n"
    )
    assert main(["solve", "--config", str(cfg)]) == EXIT_OK


@pytest.mark.parametrize("text,message", [
    ("warp_speed = 9\n", "unknown config key 'warp_speed'"),
    ("dim = 3\n", "dim must be 1 or 2"),
    ("algorithm = fancy\n", "unknown algorithm 'fancy'"),
    ("rho0 = 0.5\n", "rho0 must be > 1"),
    ("predictor = maybe\n", "expected true or false, got 'maybe'"),
    (None, "No such file"),
    # t0 = inf once ended as infeasible-start, t0 past t_cap wrote rows past it
    ("t0 = inf\n", "t0 must be > 0, finite and <= t_cap"),
    ("t0 = 100\nt_cap = 10\n", "t0 must be > 0, finite and <= t_cap"),
    # p = inf once failed in slack setup with a traceback
    ("p = inf\n", "p must be >= 1 and finite"),
    # t_cap = inf with c_stp = inf once ran to t ~ 1e12 and a solver failure
    ("t_cap = inf\nc_stp = inf\n", "t_cap must be > 0 and finite"),
    # a repeated key once solved silently with its last value
    ("p = 1.5\nlevels = 2\np = 2\n", "config key 'p' on line 3 repeats line 1"),
    # a value its parser rejects once gave a message naming neither key nor line
    ("levels = 2\np =\n", "config key 'p' on line 2: could not convert string to float"),
    ("levels = 2.5\n", "config key 'levels' on line 1: invalid literal for int()"),
    ("direct_cap = -1\n", "direct_cap must be an int >= 0, got -1"),
    ("direct_cap = 2.5\n", "config key 'direct_cap' on line 1: invalid literal for int()"),
    ("direct_cap = true\n", "config key 'direct_cap' on line 1: invalid literal for int()"),
], ids=["unknown-key", "dim", "algorithm", "rho0", "predictor", "missing-file",
        "t0-infinite", "t0-past-t_cap", "p-infinite", "t_cap-infinite",
        "repeated-key", "empty-value", "non-integer", "direct_cap-negative",
        "direct_cap-float", "direct_cap-boolean"])
def test_solve_invalid_config_is_a_clean_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    assert main(["solve", "--config", str(cfg)]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


def test_unbuildable_starting_point_is_a_clean_error(tmp_path, capsys):
    # p = 1e6 passes validation, but no power-of-two slack reaches the barrier
    # domain; this once ended in a traceback and exit code 1
    path = tmp_path / "steep.cfg"
    path.write_text("p = 1e6\nlevels = 1\n")
    assert main(["solve", "--config", str(path)]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "mgbarrier: invalid input: slack doubling failed to reach the barrier domain"]


@pytest.mark.parametrize("key", ["p", "rho0", "c_stp", "t_cap", "theta", "budget_s"])
def test_nan_config_value_is_a_clean_error(tmp_path, capsys, key):
    text = f"{key} = nan\n"
    cfg = parse_config_text(text)
    assert math.isnan(cfg[key])
    path_keys = {k: v for k, v in cfg.items() if k != "p"}
    with pytest.raises(ValueError, match=f"{key} must be"):
        spec_from_config(cfg)
        PathConfig(**path_keys)
    path = tmp_path / "nan.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert f"{key} must be" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_configs_parse(path):
    cfg = cli.load_config(path)
    assert isinstance(spec_from_config(cfg), problems.ProblemSpec)
    assert isinstance(cli._path_config(cfg), PathConfig)


def test_configs_are_shipped():
    # an empty glob would leave test_shipped_configs_parse with no cases
    assert SHIPPED_CONFIGS


@pytest.mark.parametrize("key", ["rho0", "theta"])
def test_infinite_step_parameter_is_a_clean_error(tmp_path, capsys, key):
    # rho0 = inf would jump to t_cap, theta = inf overflow the level rule
    path = tmp_path / "inf.cfg"
    path.write_text(f"{key} = inf\nalgorithm = naive-theta\n")
    assert main(["solve", "--config", str(path)]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert f"{key} must be" in err and "finite" in err
    assert len(err.strip().splitlines()) == 1


def _bench_rows(out_path):
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == BENCH_HEADER
    return [line.split(",") for line in lines[1:]]


def test_bench_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    cfg = tmp_path / "b.cfg"
    cfg.write_text("alpha = 2\ncells0 = 2\n")
    code = main(["bench", "--config", str(cfg), "--out", str(out_path),
                 "--algorithms", "mgb", "--p-values", "1.5", "--levels", "1,2"])
    assert code == EXIT_OK
    rows = _bench_rows(out_path)
    assert len(rows) == 2
    assert [row[:2] for row in rows] == [["mgb", "1.5"]] * 2
    assert [row[3] for row in rows] == ["8", "32"]
    assert [row[7] for row in rows] == ["converged"] * 2
    # newton_steps, each centering's steps once, at least max_step_newton
    assert all(0 < int(row[5]) <= int(row[4]) for row in rows)


def test_bench_unbuildable_cell_is_a_row(tmp_path):
    # the p = 1e6 cell cannot build its starting point; the p = 1.5 row solved
    # before it is still written
    out_path = tmp_path / "bench.csv"
    code = main(["bench", "--out", str(out_path), "--algorithms", "mgb",
                 "--p-values", "1.5,1e6", "--levels", "1"])
    assert code == EXIT_OK
    rows = _bench_rows(out_path)
    assert [row[7] for row in rows] == ["converged", "setup-failure"]
    assert rows[1] == ["mgb", "1000000.0", "", "", "", "", "", "setup-failure", ""]


def test_bench_builds_each_cell_once(tmp_path, monkeypatch):
    # the default two algorithms over two cells build two problems, not
    # four; the rows stay grouped by algorithm, and an unbuildable cell
    # still gives one setup-failure row per algorithm
    built, build = [], cli.build_problem

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(cli, "build_problem", counted)
    out_path = tmp_path / "bench.csv"
    cfg = tmp_path / "b.cfg"
    cfg.write_text("cells0 = 2\n")
    assert main(["bench", "--config", str(cfg), "--out", str(out_path),
                 "--levels", "1,2"]) == EXIT_OK
    assert len(built) == 2
    assert [(row[0], row[3], row[7]) for row in _bench_rows(out_path)] == [
        (a, cells, "converged") for a in ("mgb", "naive-theta") for cells in ("8", "32")]
    built.clear()
    assert main(["bench", "--out", str(out_path), "--p-values", "1e6",
                 "--levels", "1"]) == EXIT_OK
    assert len(built) == 1
    assert _bench_rows(out_path) == [[a, "1000000.0", "", "", "", "", "", "setup-failure", ""]
                                     for a in ("mgb", "naive-theta")]


def test_bench_cells_take_the_config_dim(tmp_path):
    # a 1-D config runs 1-D cells: 2 and 4 intervals, not 8 and 32 triangles
    out_path = tmp_path / "bench.csv"
    cfg = tmp_path / "b.cfg"
    cfg.write_text("dim = 1\ncells0 = 2\n")
    code = main(["bench", "--config", str(cfg), "--out", str(out_path),
                 "--algorithms", "mgb", "--levels", "1,2"])
    assert code == EXIT_OK
    rows = _bench_rows(out_path)
    assert [row[3] for row in rows] == ["2", "4"]
    assert [row[7] for row in rows] == ["converged"] * 2


@pytest.mark.parametrize("config", [None, "p = 2\nlevels = 3\nalgorithm = naive-theta\n"],
                         ids=["no-config", "overridden"])
def test_bench_defaults_and_flag_overrides(tmp_path, config):
    # cells0 is 4 unless the config sets it; the flags override p, levels
    # and algorithm from the config
    out_path = tmp_path / "bench.csv"
    argv = ["bench", "--out", str(out_path), "--algorithms", "mgb",
            "--p-values", "1.5", "--levels", "1"]
    if config is not None:
        cfg = tmp_path / "b.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_OK
    rows = _bench_rows(out_path)
    assert len(rows) == 1
    assert rows[0][:2] == ["mgb", "1.5"]
    assert rows[0][3] == "32"


def test_bench_rejects_unknown_algorithm_before_any_cell(tmp_path, monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(cli, "build_problem", lambda spec: cells.append(spec))
    out_path = tmp_path / "bench.csv"
    bad_alpha = tmp_path / "b.cfg"
    bad_alpha.write_text("alpha = 3\n")
    for argv, message in [
        (["--algorithms", "mgb,fancy"], "unknown algorithm 'fancy'"),
        (["--levels", "1,x"], "invalid literal for int()"),
        (["--config", str(bad_alpha)], "alpha must be 1 or 2"),
        # the first cell is valid: every cell is checked before any runs
        (["--p-values", "1.5,0.5"], "p must be >= 1 and finite, got 0.5"),
        (["--levels", "1,0"], "levels must be >= 1, got 0"),
    ]:
        code = main(["bench", "--out", str(out_path), "--levels", "1", *argv])
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
    assert cells == []
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--out", "--trace", "--dump-mesh", "--dump-solution"])
def test_unwritable_output_fails_before_any_solve(config_file, tmp_path, monkeypatch,
                                                  capsys, flag):
    # an output path in a missing directory once crashed with a traceback
    # after every solve had run
    cells = []
    monkeypatch.setattr(cli, "build_problem", lambda spec: cells.append(spec))
    bad = str(tmp_path / "missing" / "x.txt")
    if flag == "--out":
        argv = ["bench", "--out", bad, "--levels", "1"]
    else:
        argv = ["solve", "--config", str(config_file), flag, bad]
    assert main(argv) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err.startswith("mgbarrier: invalid input:") and "x.txt" in err
    assert len(err.strip().splitlines()) == 1
    assert cells == []


def test_writable_check_leaves_no_file_and_keeps_existing_ones(tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    cli._check_writable(None, str(new), str(old))
    assert not new.exists()
    assert old.read_text() == "kept\n"
    with pytest.raises(IsADirectoryError):
        cli._check_writable(str(tmp_path))


@pytest.mark.parametrize("module", [problems, diagnostics])
def test_problems_and_diagnostics_do_not_import_the_solver(module):
    # only cli ties problem construction to the path-following solver
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name.rsplit(".", 1)[-1] for name in imported}.isdisjoint({"pathfollow", "cli"})


def test_check_passes(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "ok" in out
    # one reverse Hoelder line per coarse level of the 3-level check problem
    rh = [line for line in out.splitlines() if "reverse Hoelder" in line]
    assert [line.split(":")[0] for line in rh] == ["ok   level 1", "ok   level 2"]
    # one numbered quadrature weight line per level
    wq = [line for line in out.splitlines() if "quadrature weights" in line]
    assert wq == [f"ok   level {lvl}: positive quadrature weights" for lvl in (1, 2, 3)]
