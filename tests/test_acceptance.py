"""End-to-end acceptance suite.

One test per criterion; each emits a single PASS/FAIL line (via pytest -v and
an explicit report line) and shares the expensive solver runs through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import barrier_oracles as oracles
from hessians import plan_of
from mgbarrier import diagnostics
from mgbarrier.barrier import PLapBarrier
from mgbarrier.femspace import s_basis, u_basis_grad
from mgbarrier.mesh import CHILDREN
from mgbarrier.newton import regularize
from mgbarrier.pathfollow import PathConfig, adapt_stepsize, run_mgb, run_naive
from mgbarrier.problems import ProblemSpec, build_problem

P_SET = [1.0, 1.1, 1.5, 2.0, 3.0, 4.0]
NU = 4.0

_walls = {}


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def timed_run(key, fn):
    t0 = time.monotonic()
    out = fn()
    _walls[key] = time.monotonic() - t0
    return out


def sample_interior(barrier, rng, n, eps_lo=0.05, eps_hi=5.0):
    q = rng.standard_normal((n, barrier.d)) * rng.uniform(0.1, 2.0, (n, 1))
    eps = rng.uniform(eps_lo, eps_hi, n)
    s = (np.sum(q * q, axis=-1) + eps) ** (barrier.p / 2.0)
    return q, s


# ---------------------------------------------------------------------------
# shared solver runs

# Practical MGB as it runs by default, and as the paper states it, with each
# t-step started from z_k; criteria 3, 6, 7 and 8 hold for both.
VARIANTS = {"predictor": PathConfig(), "no-predictor": PathConfig(predictor=False)}


@pytest.fixture(scope="module")
def mgb_scaling_runs(mgb_with_iterates):
    """p=1.5, alpha=2 MGB runs on h = 1/4 .. 1/32 (criteria 3, 6, 8), as
    {variant: [(problem, trace, fine iterates) by level count]}."""
    problems = [build_problem(ProblemSpec(p=1.5, alpha=2, levels=levels, cells0=4))
                for levels in (1, 2, 3, 4)]
    out = {}
    for name, config in VARIANTS.items():
        out[name] = []
        for pr in problems:
            tr, iterates = timed_run(f"{name}/mgb15_L{pr.L}",
                                     lambda: mgb_with_iterates(pr, config))
            assert tr.status == "converged"
            out[name].append((pr, tr, iterates))
    return out


@pytest.fixture(scope="module")
def naive_theta_run():
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4))
    tr = timed_run("naive15_L4",
                   lambda: run_naive(pr, PathConfig(), schedule="theta"))
    return pr, tr


@pytest.fixture(scope="module")
def p1_run():
    """{variant: (problem, trace)} for p=1 on 3 levels."""
    pr = build_problem(ProblemSpec(p=1.0, alpha=2, levels=3, cells0=4))
    out = {}
    for name, config in VARIANTS.items():
        tr = timed_run(f"{name}/mgb1_L3", lambda: run_mgb(pr, config))
        assert tr.status == "converged"
        out[name] = (pr, tr)
    return out


@pytest.fixture(scope="module")
def p2_run_3level():
    """{variant: (problem, trace)} for p=2 on 3 levels."""
    pr = build_problem(ProblemSpec(p=2.0, alpha=2, levels=3, cells0=4))
    out = {}
    for name, config in VARIANTS.items():
        tr = run_mgb(pr, config)
        assert tr.status == "converged"
        out[name] = (pr, tr)
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_barrier_calculus():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst_g, worst_h = 0.0, 0.0
    for p in P_SET:
        b = PLapBarrier(p=p, d=2)
        q, s = sample_interior(b, rng, 200)
        _, G, H = b.value_grad_hess(q, s)
        fd_g = np.empty_like(G)
        fd_h = np.empty_like(H)
        h = 1e-6
        for k in range(3):
            qp, sp, qm, sm = q.copy(), s.copy(), q.copy(), s.copy()
            if k < 2:
                qp[:, k] += h
                qm[:, k] -= h
            else:
                sp += h
                sm -= h
            fd_g[:, k] = (b.value(qp, sp) - b.value(qm, sm)) / (2 * h)
            _, Gp, _ = b.value_grad_hess(qp, sp)
            _, Gm, _ = b.value_grad_hess(qm, sm)
            fd_h[:, :, k] = (Gp - Gm) / (2 * h)
        eg = np.linalg.norm(fd_g - G, axis=1) / np.linalg.norm(G, axis=1)
        eh = (np.linalg.norm(fd_h - H, axis=(1, 2))
              / np.linalg.norm(H, axis=(1, 2)))
        worst_g = max(worst_g, float(eg.max()))
        worst_h = max(worst_h, float(eh.max()))

        # self-concordance and barrier parameter at 1000 samples each
        q, s = sample_interior(b, rng, 1000, eps_lo=1e-3, eps_hi=10.0)
        u = rng.standard_normal((1000, 3))
        _, G, H = b.value_grad_hess(q, s)
        quad = np.einsum("na,nab,nb->n", u, H, u)
        third = oracles.third_directional(b, q, s, u)
        assert np.all(np.abs(third) <= 2.0 * quad ** 1.5 * (1 + 1e-8)), p
        lam2 = np.einsum("na,nab,nb->n", G, np.linalg.inv(H), G)
        assert np.max(lam2) <= NU + 1e-8, p
    wall = time.monotonic() - t0
    ok = worst_g < 1e-6 and worst_h < 1e-5 and wall < 30.0
    report(1, ok, f"grad rel err {worst_g:.2e} (<1e-6), hess rel err "
                  f"{worst_h:.2e} (<1e-5), SC and lambda^2<=nu at 1000 "
                  f"samples for p in {P_SET}, wall {wall:.1f}s (<30s)")


def test_criterion_2_slack_bounds():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        p = float(rng.choice(P_SET))
        b = PLapBarrier(p=p, d=2)
        q = rng.standard_normal(2) * rng.uniform(0.1, 2.0)
        t = 10.0 ** rng.uniform(0.0, 6.0)
        gap = oracles.slack_for_t(b, q, t) - float(b.lam(q.reshape(1, -1))[0])
        ok = ok and (1.0 / t <= gap <= NU / t)
    b2 = PLapBarrier(p=2.0, d=2)
    closed = all(
        abs(oracles.slack_for_t(b2, np.zeros(2), t) - 3.0 / t) <= 1e-10
        for t in (1.0, 10.0, 1e3, 1e6)
    )
    report(2, ok and closed,
           "1/t <= s(t)(q) - Lambda(q) <= nu/t at 100 random (q, t), "
           "and s(t)(0) = 3/t for p=2 to 1e-10")


def test_criterion_3_filter_bound(mgb_scaling_runs, p2_run_3level):
    worst = {}
    for name in VARIANTS:
        worst[name] = 0.0
        for pr, tr in (mgb_scaling_runs[name][2][:2], p2_run_3level[name]):
            gaps = diagnostics.filter_gap(tr, NU, pr.domain_volume())
            for _, t, gap, bound in gaps:
                worst[name] = max(worst[name], gap / bound)
    ok = all(ratio <= 1.0 for ratio in worst.values())
    ratios = ", ".join(f"{name} {ratio:.3f}" for name, ratio in worst.items())
    report(3, ok, f"int c[z_k] - int c[z_final] <= 2 nu |Omega| / t_k on "
                  f"3-level p=1.5 and p=2 runs; worst gap/bound ratio "
                  f"{ratios} (<=1)")


def test_criterion_4_adaptation_table():
    ok = (adapt_stepsize(1.5, 2) == 2.25
          and adapt_stepsize(1.5, 4) == 1.5
          and adapt_stepsize(1.5, 7) == math.sqrt(1.5))
    report(4, ok, "(1.5,2)->2.25, (1.5,4)->1.5, (1.5,7)->sqrt(1.5) exactly")


def test_criterion_5_p2_oracle():
    t0 = time.monotonic()
    rates = {}
    for alpha in (1, 2):
        hs, errs = [], []
        for levels in (2, 3, 4):
            pr = build_problem(ProblemSpec(p=2.0, alpha=alpha,
                                           levels=levels, cells0=4))
            tr = run_mgb(pr, PathConfig())
            assert tr.status == "converged"
            _, linf = diagnostics.p2_oracle_error(pr, tr)
            hs.append(pr.h_fine())
            errs.append(linf)
        rates[alpha] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    wall = time.monotonic() - t0
    ok = all(0.7 * a <= rates[a] <= 1.3 * a for a in (1, 2)) and wall < 120.0
    report(5, ok, f"L^inf error vs direct linear FEM: fitted rates "
                  f"alpha=1: {rates[1]:.2f} (in [0.7,1.3]), "
                  f"alpha=2: {rates[2]:.2f} (in [1.4,2.6]), "
                  f"wall {wall:.0f}s (<120s)")


def test_criterion_6_iteration_scaling(mgb_scaling_runs, naive_theta_run,
                                       p1_run):
    _, tr_naive = naive_theta_run
    ok, details = True, []
    for name in VARIANTS:
        totals = [tr.newton_steps for _, tr, _ in mgb_scaling_runs[name]]
        # (a) trend check: average growth factor per h-halving
        growth = (totals[-1] / totals[0]) ** (1.0 / (len(totals) - 1))
        ok_a = growth <= 1.5
        # (b) worst per-step Newton count
        max_steps = max(tr.max_step_newton() for _, tr, _ in mgb_scaling_runs[name])
        p1_max = p1_run[name][1].max_step_newton()
        ok_b = max_steps <= 15 and p1_max <= 20
        # (c) naive theta=0.5 at the smallest h
        mgb_n = totals[-1]
        if tr_naive.status == "converged":
            ok_c = tr_naive.newton_steps >= 2 * mgb_n
            c_detail = f"naive/MGB = {tr_naive.newton_steps}/{mgb_n} (>=2x)"
        else:
            ok_c = tr_naive.status == "budget"
            c_detail = f"naive failed with status {tr_naive.status}"
        wall = _walls["naive15_L4"] + sum(
            v for k, v in _walls.items() if k.startswith(f"{name}/"))
        ok = ok and ok_a and ok_b and ok_c and wall < 600.0
        details.append(f"{name}: MGB Newton steps {totals}, growth/halving "
                       f"{growth:.3f} (<=1.5); max t-step Newton {max_steps} "
                       f"(<=15), p=1 {p1_max} (<=20); {c_detail}; "
                       f"wall {wall:.0f}s (<600s)")
    report(6, ok, " | ".join(details))


def test_criterion_7_stepsize_floor(p1_run):
    rho_min = {name: min(r.rho for r in tr.summary_rows() if r.k >= 1)
               for name, (_, tr) in p1_run.items()}
    ok = all(rho >= 1.1 for rho in rho_min.values())
    mins = ", ".join(f"{name} {rho:.4f}" for name, rho in rho_min.items())
    report(7, ok, f"p=1 MGB min_k rho_k = {mins} (>= 1.1)")


def test_criterion_8_robustness_rails(mgb_scaling_runs):
    # regularization formula exact: S + sigma diag(S), sigma = 1e-15 times
    # the max absolute row sum of D^-1/2 S D^-1/2 (1.125 in both rows)
    # read in the plan's order, R's row and column k being dof gather[k]
    S = sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 16.0]]))
    plan = plan_of(S)
    R, _ = regularize(S, plan)
    g = plan.gather
    expected = S.toarray() + 1e-15 * 1.125 * np.diag([4.0, 16.0])
    ok_reg = np.array_equal(R.toarray(), expected[np.ix_(g, g)])
    # t rail and feasibility of every recorded iterate
    ok_t, ok_feas = True, True
    for pr, tr, iterates in (run for runs in mgb_scaling_runs.values() for run in runs):
        ok_t = ok_t and tr.t_final <= 1e8 and all(r.t <= 1e8 for r in tr.rows)
        for _, z in iterates:
            ok_feas = ok_feas and bool(np.all(pr.fine_objective.margin(z) > 0.0))
    # bitwise determinism of the trace CSV (timing column excluded)
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2))
    csv_a = run_mgb(pr, PathConfig()).to_csv(wall_times=False)
    pr2 = build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2))
    csv_b = run_mgb(pr2, PathConfig()).to_csv(wall_times=False)
    ok_det = csv_a == csv_b
    ok = ok_reg and ok_t and ok_feas and ok_det
    report(8, ok, f"regularization exact: {ok_reg}; t<=1e8: {ok_t}; all "
                  f"recorded iterates feasible: {ok_feas}; traces bitwise "
                  f"deterministic: {ok_det}")


def test_criterion_9_substrate(mgb_scaling_runs):
    pr, _, _ = mgb_scaling_runs["predictor"][-1]
    ok_vol = all(abs(m.total_volume() - 1.0) < 1e-12
                 for m in pr.meshes)
    ok_w = all(np.all(obj.sampler.wq > 0) for obj in pr.objectives)

    # prolongation exactness in the discrete L^inf norm on 50 random coarse v
    rng = np.random.default_rng(99)
    fes_c, fes_f = pr.objectives[0].fesys, pr.objectives[1].fesys
    mesh_c, mesh_f = fes_c.mesh, fes_f.mesh
    smp_f = pr.objectives[1].sampler
    P = pr.P_full[0]
    # the parent of fine element e is e // m
    pe = np.arange(mesh_f.num_elements) // len(CHILDREN[2])
    # reference coordinates of the fine quadrature points in the parent element
    ref = np.einsum("eab,eqb->eqa", mesh_c.Ainv[pe],
                    smp_f.xq - mesh_c.b[pe][:, None, :])
    nq = smp_f.xq.shape[1]
    gb = u_basis_grad(2, fes_c.alpha, ref.reshape(-1, 2))
    gb = np.einsum("eba,eqib->eqia", mesh_c.Ainv[pe],
                   gb.reshape(len(pe), nq, -1, 2))
    sb = s_basis(2, fes_c.alpha, ref.reshape(-1, 2)).reshape(len(pe), nq, -1)
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(fes_c.total_dim)
        gf, sf = smp_f.sample(P @ v)
        gc = np.einsum("eqia,ei->eqa", gb, v[fes_c.u_elem[pe]])
        sc = np.einsum("eqj,ej->eq", sb, v[fes_c.s_elem()[pe]])
        worst = max(worst, float(np.max(np.abs(gf - gc))),
                    float(np.max(np.abs(sf - sc))))
    ok_p = worst < 1e-12
    ok = ok_vol and ok_w and ok_p
    report(9, ok, f"sum|K|=|Omega| to 1e-12 at all levels: {ok_vol}; positive "
                  f"weights: {ok_w}; prolongation exactness "
                  f"|D(Pv)-Dv|_Linf = {worst:.2e} (<1e-12)")
