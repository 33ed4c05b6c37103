import math

import numpy as np
import pytest

from mgbarrier.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from mgbarrier.pathfollow import CSV_HEADER, PathConfig, PathTrace
from mgbarrier.problems import parse_config_text, spec_from_config


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
    assert "status=converged" in out
    assert mesh_path.exists() and sol_path.exists()
    text = trace_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    rows = PathTrace.rows_from_csv(text)
    assert rows[-1].t <= 1e8


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
    (None, "No such file"),
], ids=["unknown-key", "dim", "algorithm", "rho0", "missing-file"])
def test_solve_invalid_config_is_a_clean_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    assert main(["solve", "--config", str(cfg)]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


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


def test_bench_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    cfg = tmp_path / "b.cfg"
    cfg.write_text("alpha = 2\ncells0 = 2\n")
    code = main(["bench", "--config", str(cfg), "--out", str(out_path),
                 "--algorithms", "mgb", "--p-values", "1.5", "--levels", "1,2"])
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("mgb,1.5,")


def test_bench_rejects_unknown_algorithm_before_any_cell(tmp_path, monkeypatch, capsys):
    from mgbarrier import diagnostics
    cells = []
    monkeypatch.setattr(diagnostics, "run_cell", lambda cell, *a: cells.append(cell))
    out_path = tmp_path / "bench.csv"
    bad_alpha = tmp_path / "b.cfg"
    bad_alpha.write_text("alpha = 3\n")
    for argv, message in [
        (["--algorithms", "mgb,fancy"], "unknown algorithm 'fancy'"),
        (["--levels", "1,x"], "invalid literal for int()"),
        (["--config", str(bad_alpha)], "alpha must be 1 or 2"),
    ]:
        code = main(["bench", "--out", str(out_path), "--levels", "1", *argv])
        assert code == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
    assert cells == []
    assert not out_path.exists()


def test_check_passes(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "ok" in out
