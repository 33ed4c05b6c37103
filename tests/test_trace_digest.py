"""scripts/trace_digest.py's solve line and failure map, on one small problem."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from mgbarrier.pathfollow import STATUS_CONVERGED, STATUS_FAILURE
from mgbarrier.problems import ProblemSpec

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"
SOLVE_LINE = re.compile(r"tiny mgb: (?P<status>\S+) (?P<reason>'.*') "
                        r"t_final=(?P<t_final>\S+) newton=(?P<newton>\d+) "
                        r"rows=(?P<rows>[0-9a-f]{16}) splu=(?P<splu>\d+) "
                        r"csv=(?P<csv>[0-9a-f]{16}) z_final=(?P<z_final>[0-9a-f]{16})")


def load_script(monkeypatch, runs):
    """The script as a module, its cases() the tiny map cell p=1.5, alpha=2,
    cells0=2, L=2 solved by runs."""
    # the script sets the BLAS thread counts and wraps splu when it runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(spla, "splu", spla.splu)
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cases", lambda: [(
        "tiny", ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2), runs)])
    monkeypatch.setattr(sys, "argv", ["trace_digest.py"])
    return script


def test_solve_line_holds_the_rows_digest_splu_count_and_full_digests(monkeypatch, capsys):
    script = load_script(monkeypatch, [("mgb", "mgb", {})])
    traces = []

    def recorded(problem, config, run=script.ALGORITHMS["mgb"]):
        traces.append(run(problem, config))
        return traces[-1]

    monkeypatch.setitem(script.ALGORITHMS, "mgb", recorded)
    assert script.main() == 0
    solve, problem, count, *failure_map = capsys.readouterr().out.splitlines()
    assert problem.startswith("tiny problem: ") and count == "1 solves"
    # the tiny problem is a cell of the failure map, and mgb one of its runs
    assert "| 1.5 | 0 of 1 | 0 of 0 | 0 of 0 |" in failure_map
    assert failure_map[-1] == "0 of 1 runs failed"
    line = SOLVE_LINE.fullmatch(solve)
    assert line, solve
    (trace,) = traces
    assert trace.status == line["status"] == STATUS_CONVERGED
    assert line["t_final"] == repr(trace.t_final)
    assert int(line["newton"]) == trace.newton_steps
    # every centering factors once per Newton step and once more to confirm;
    # the rows other than step summaries are the centerings, and the last
    # row of a converged run is the final re-centering, not a summary
    assert trace.rows[-1].level == -1
    centerings = len(trace.rows) - len(trace.summary_rows()) + 1
    assert int(line["splu"]) == trace.newton_steps + centerings
    work = [(r.k, r.level, r.newton_iters, r.direct_step) for r in trace.rows]
    assert line["rows"] == script.digest(np.array(work, dtype=np.int64))
    assert line["csv"] == script.digest(trace.to_csv(wall_times=False))
    assert line["z_final"] == script.digest(trace.z_final)


def test_failure_map_counts_the_default_runs_of_a_map_cell(monkeypatch, capsys):
    # the three runs of a map cell, naive-theta made to fail
    script = load_script(monkeypatch, [(name, name, {}) for name in
                                       ("mgb", "naive-theta", "naive-h-then-t")])

    def failing(problem, config, run=script.ALGORITHMS["naive-theta"]):
        trace = run(problem, config)
        trace.status, trace.failure_reason = STATUS_FAILURE, "fine centering: iteration-cap"
        return trace

    monkeypatch.setitem(script.ALGORITHMS, "naive-theta", failing)
    assert script.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert "3 solves" in out
    assert "| 1.5 | 0 of 1 | 1 of 1 | 0 of 1 |" in out
    assert "| iteration-cap | 1 | items 1, 21 and 7 |" in out
    assert out[-1] == "1 of 3 runs failed"
