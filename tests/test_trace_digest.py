"""scripts/trace_digest.py's solve line, on one small problem."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from mgbarrier.pathfollow import STATUS_CONVERGED
from mgbarrier.problems import ProblemSpec

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"
SOLVE_LINE = re.compile(r"tiny mgb: (?P<status>\S+) (?P<reason>'.*') "
                        r"t_final=(?P<t_final>\S+) rows=(?P<rows>[0-9a-f]{16}) "
                        r"splu=(?P<splu>\d+) csv=(?P<csv>[0-9a-f]{16}) "
                        r"z_final=(?P<z_final>[0-9a-f]{16})")


def test_solve_line_holds_the_rows_digest_splu_count_and_full_digests(monkeypatch, capsys):
    # the script sets the BLAS thread counts and wraps splu when it runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(spla, "splu", spla.splu)
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cases", lambda: [(
        "tiny", ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2), [("mgb", "mgb", {})])])
    traces = []

    def recorded(problem, config, run=script.ALGORITHMS["mgb"]):
        traces.append(run(problem, config))
        return traces[-1]

    monkeypatch.setitem(script.ALGORITHMS, "mgb", recorded)
    monkeypatch.setattr(sys, "argv", ["trace_digest.py"])
    assert script.main() == 0
    solve, problem, count = capsys.readouterr().out.splitlines()
    assert problem.startswith("tiny problem: ") and count == "1 solves"
    line = SOLVE_LINE.fullmatch(solve)
    assert line, solve
    (trace,) = traces
    assert trace.status == line["status"] == STATUS_CONVERGED
    assert line["t_final"] == repr(trace.t_final)
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
