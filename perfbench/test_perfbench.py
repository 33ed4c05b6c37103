"""Tests of the benchmark harness: span arithmetic, Newton and backtrack
counting on a tiny two-level run, and the correctness gate."""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import harness  # noqa: E402
import probe  # noqa: E402
from mgbarrier import assembly, newton, pathfollow, problems  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

TINY = harness.Workload("tiny", 1.5, 2, "mgb", cells0=2)
NO_REF = {"cost_integral": math.nan}


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,5] > D[2,4];  A > C[6,7]
    tr = Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    a = tr.open("A")
    b = tr.open("B")
    d = tr.open("D")
    tr.close(d)
    tr.close(b)
    c = tr.open("C")
    tr.close(c)
    tr.close(a)
    assert self_times(tr.spans) == [5, 2, 2, 1]
    assert [s[3] for s in tr.spans] == [None, 0, 1, 0]
    assert tr.self_time_by_name() == {"A": 5, "B": 2, "D": 2, "C": 1}


def test_patch_is_undone_on_exit():
    class Box:
        def f(self, x):
            return x + 1

    original = Box.f
    with Tracer() as tr:
        tr.patch(Box, "f", "box.f")
        assert Box.f is not original
        assert Box().f(1) == 2
    assert Box.f is original
    assert [s[0] for s in tr.spans] == ["box.f"]


def test_probe_scales_each_stretch_by_its_bounding_probes(monkeypatch):
    monkeypatch.setattr(probe, "REFERENCE_S", 1.0)
    calls = []
    # probes (start, timed start, end): (0, 1, 2), (10, 11, 13), (16, 17, 18)
    pr = probe.SpeedProbe(kernel=lambda: calls.append(1),
                          clock=fake_clock([0, 1, 2, 10, 11, 13, 13.1, 15, 16, 17, 18]))
    pr.probe()
    pr.probe()
    assert not pr.due()  # 0.1 s after the last probe
    assert pr.due()      # 2 s after
    pr.probe()
    assert len(calls) == 6
    # speeds 1, 1/2, 1: each stretch runs at the mean of its ends, 0.75
    assert pr.segments() == [(8, 6.0), (3, 2.25)]
    assert pr.totals() == (11, 8.25)
    assert pr.median_ms() == 1000


def test_tail_percentile_leaves_ten_samples_above():
    samples = list(range(28))
    pct, value = harness.tail_percentile(samples)
    assert pct == 64
    assert sum(x > value for x in samples) == 10
    assert harness.tail_percentile(list(range(10))) is None


def test_seed_zero_is_the_default_boundary_data():
    assert harness.boundary_data(harness.phase_of(0)) is None
    assert harness.phase_of(harness.N_PHASES) == 0.0
    g = harness.boundary_data(harness.phase_of(3))
    phase = 3 * harness.PHASE_STEP
    assert g(0.25, 0.0) == pytest.approx(1.6 * math.sin(0.75 * math.pi + phase), rel=1e-12)


@pytest.fixture
def rejecting_value(monkeypatch):
    """Reject every third line-search trial and log what center() saw.

    state["rejects"] counts the rejected trials in the log by center()'s
    acceptance rule: a trial is kept iff it is finite and, in the damped
    phase (lambda >= 1/4), lower than the current value.
    """
    state = {"events": None, "trials": 0, "rejects": 0}
    value, decrement, center = (assembly.LevelObjective.value,
                                newton.newton_decrement, pathfollow.center)

    def logged_value(self, y, t):
        ev = state["events"]
        v = value(self, y, t)
        if ev is not None and any(e[0] == "lam" for e in ev):
            state["trials"] += 1
            if state["trials"] % 3 == 0:
                v = math.inf
        if ev is not None:
            ev.append(("value", v))
        return v

    def logged_decrement(g, H):
        lam, step = decrement(g, H)
        if state["events"] is not None:
            state["events"].append(("lam", lam))
        return lam, step

    def logged_center(*args, **kwargs):
        state["events"] = []
        try:
            return center(*args, **kwargs)
        finally:
            events, state["events"] = state["events"], None
            cur, damped = events[0][1], None
            for kind, x in events[1:]:
                if kind == "lam":
                    damped = x >= newton.QUAD_PHASE
                elif math.isfinite(x) and (not damped or x < cur):
                    cur = x
                else:
                    state["rejects"] += 1

    monkeypatch.setattr(assembly.LevelObjective, "value", logged_value)
    monkeypatch.setattr(newton, "newton_decrement", logged_decrement)
    monkeypatch.setattr(pathfollow, "center", logged_center)
    return state


def test_newton_and_backtrack_counts_on_tiny_run(rejecting_value):
    problem = problems.build_problem(TINY.spec(0))
    rec = harness.timed_solve(TINY, problem, TINY.path_config(), math.nan, True)
    assert rec.trace.status == pathfollow.STATUS_CONVERGED
    tc = harness.trace_counts(rec.trace)
    lay = rec.layers
    # hooked Newton steps equal the work rows of the trace, not total_newton
    assert lay["newton.steps"] == tc["true_newton"] > 0
    assert tc["reported_total_newton"] > tc["true_newton"]
    assert sum(lay[f"pathfollow.level_newton.{k}"] for k in harness.LEVEL_KEYS) \
        == tc["true_newton"]
    # every center() call factorizes once per step plus its final decrement
    assert lay["newton.factorizations"] == lay["newton.steps"] + lay["newton.center_calls"]
    assert lay["assembly.grad_hess_calls"] == lay["newton.factorizations"]
    assert rejecting_value["rejects"] > 0
    assert lay["newton.backtracks"] == rejecting_value["rejects"]


def test_spans_are_written_as_json_lines(tmp_path):
    _, _, recs = harness.run(TINY, 0, NO_REF, trace_layers=True)
    path = tmp_path / "spans.jsonl"
    harness.write_spans(recs, path)
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert recs[0].spans == []
    assert len(lines) == len(recs[1].spans) > 0
    assert {x["run"] for x in lines} == {"tiny/seed0"}
    roots = [x for x in lines if x["parent"] is None]
    assert [x["name"] for x in roots] == ["pathfollow.run"]
    assert all(lines[x["parent"]]["start"] <= x["start"] <= x["end"]
               for x in lines if x["parent"] is not None)


def test_traced_run_repeats_the_untraced_solve():
    _, setup, recs = harness.run(TINY, 0, NO_REF, trace_layers=True)
    plain, traced = recs
    for key in ("steps", "factorizations", "center_calls"):
        assert plain.counts[key] == traced.counts[key]
    assert plain.layers == {}
    assert harness.digest(plain.trace) == harness.digest(traced.trace)
    lay = harness.per_layer(setup, recs)
    assert lay["trace.overhead_s"] == traced.ref_s - plain.ref_s
    assert lay["trace.untraced_solve_s"] == plain.ref_s


def test_crashing_solve_is_a_failed_record(monkeypatch):
    def boom(problem, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(pathfollow, "run_mgb", boom)
    _, setup, recs = harness.run(TINY, 0, NO_REF, trace_layers=True)
    assert all(not rec.ok and "boom" in rec.error for rec in recs)
    assert harness.end_to_end(setup, recs) == {}
    assert harness.per_layer(setup, recs) == {}


def test_gate_rejects_tampered_reference():
    problem, _, (rec,) = harness.run(TINY, 0, NO_REF)
    config = TINY.path_config()
    cost = rec.trace.costs[-1][2]
    assert harness.gate(problem, config, rec.trace, cost) == []
    tol = problem.barrier.nu * problem.domain_volume() / config.stop_t(problem)
    reasons = harness.gate(problem, config, rec.trace, cost + 2 * tol)
    assert len(reasons) == 1 and reasons[0].startswith("cost integral")
    rec.trace.status = pathfollow.STATUS_BUDGET
    assert any(r.startswith("status") for r in harness.gate(problem, config, rec.trace, cost))


def test_behaviour_separates_roundoff_from_newton_changes():
    _, _, (rec,) = harness.run(TINY, 0, NO_REF)
    ref = {"digest": harness.digest(rec.trace), "newton_rows": harness.newton_rows(rec.trace)}
    assert harness.behaviour(rec.trace, ref)["digest_match"]
    rec.trace.rows[3].objective *= 1 + 1e-15
    b = harness.behaviour(rec.trace, ref)
    assert not b["digest_match"] and b["newton_rows_changed"] == 0
    rec.trace.rows[3].newton_iters += 1
    assert harness.behaviour(rec.trace, ref)["newton_rows_changed"] == 1


def test_reference_covers_every_workload_and_phase():
    ref = harness.load_reference()
    for name in harness.WORKLOADS:
        entries = ref["workloads"][name]
        assert len(entries) == harness.N_PHASES
        for idx, e in enumerate(entries):
            assert e["phase"] == harness.phase_of(idx)
            assert math.isfinite(e["cost_integral"]) and len(e["digest"]) == 64
