"""LP kernel tests: construction contracts, status classification, oracle checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch import evba, lp
from evdispatch.analysis import generate_price_set
from oracles import DenseSimplex, build_problem, random_bounded_lp, vertex_enumeration_optimum
from scen import refine


def test_add_variable_first_id_is_zero():
    p = lp.LpProblem()
    assert p.add_variable(0.0, lp.INF, 1.0, "x") == 0
    assert p.num_variables == 1


def test_add_variable_inverted_bounds_rejected():
    p = lp.LpProblem()
    with pytest.raises(lp.LpError):
        p.add_variable(2.0, 1.0)


@pytest.mark.parametrize("cost", [lp.INF, -lp.INF, float("nan")])
def test_add_variable_non_finite_cost_rejected(cost):
    p = lp.LpProblem()
    with pytest.raises(lp.LpError):
        p.add_variable(0.0, 1.0, cost, "x")
    assert p.num_variables == 0


def test_add_variable_fixed_interval_accepted():
    p = lp.LpProblem()
    x = p.add_variable(3.0, 3.0, 5.0, "x")
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.value(x) == pytest.approx(3.0)
    assert sol.objective == pytest.approx(15.0)


def test_add_constraint_simple_lower_bound():
    p = lp.LpProblem()
    x = p.add_variable(0.0, lp.INF, 1.0, "x")
    p.add_constraint([(x, 1.0)], ">=", 1.0, "r")
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.value(x) == pytest.approx(1.0, abs=1e-9)


def test_add_constraint_merges_duplicate_terms():
    p = lp.LpProblem()
    x = p.add_variable(0.0, 10.0, -1.0, "x")
    p.add_constraint([(x, 1.0), (x, 1.0)], "<=", 4.0, "r")  # stored as 2x <= 4
    sol = lp.solve(p)
    assert sol.value(x) == pytest.approx(2.0, abs=1e-9)


def test_add_constraint_unknown_id_rejected():
    p = lp.LpProblem()
    p.add_variable()
    with pytest.raises(lp.LpError):
        p.add_constraint([(99, 1.0)], "<=", 4.0)


@pytest.mark.parametrize("coef, rhs", [
    (float("nan"), 1.0), (lp.INF, 1.0), (-lp.INF, 1.0),
    (1.0, float("nan")), (1.0, lp.INF), (1.0, -lp.INF),
])
def test_add_constraint_non_finite_data_rejected(coef, rhs):
    p = lp.LpProblem()
    x = p.add_variable()
    with pytest.raises(lp.LpError):
        p.add_constraint([(x, coef)], "<=", rhs, "r")
    assert p.num_constraints == 0


def test_unbounded_detection():
    p = lp.LpProblem()
    p.add_variable(0.0, lp.INF, -1.0, "x")
    assert lp.solve(p).status == lp.UNBOUNDED


def test_infeasible_detection():
    p = lp.LpProblem()
    x = p.add_variable(0.0, 1.0, 1.0, "x")
    p.add_constraint([(x, 1.0)], ">=", 2.0, "r")
    assert lp.solve(p).status == lp.INFEASIBLE


def test_arbitrage_core_two_variable_lp():
    # min 0.1c - 0.5d  s.t. 0.95c - d/0.85 >= 0, 0 <= c, 0 <= d <= 4
    p = lp.LpProblem()
    c = p.add_variable(0.0, lp.INF, 0.1, "c")
    d = p.add_variable(0.0, 4.0, -0.5, "d")
    p.add_constraint([(c, 0.95), (d, -1.0 / 0.85)], ">=", 0.0, "bal")
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(-1.5046439628, abs=1e-6)
    assert sol.value(d) == pytest.approx(4.0, abs=1e-6)
    assert sol.value(c) == pytest.approx(4.9535603715, abs=1e-6)


def test_equality_constraint():
    p = lp.LpProblem()
    x = p.add_variable(0.0, 10.0, 1.0, "x")
    y = p.add_variable(0.0, 10.0, 3.0, "y")
    p.add_constraint([(x, 1.0), (y, 1.0)], "=", 5.0, "r")
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(5.0, abs=1e-9)


def test_free_variable():
    p = lp.LpProblem()
    x = p.add_variable(-lp.INF, lp.INF, 1.0, "x")
    p.add_constraint([(x, 1.0)], ">=", -3.0, "r")
    sol = lp.solve(p)
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_iteration_limit_is_distinct_status():
    p = lp.LpProblem()
    x = p.add_variable(0.0, 10.0, -1.0, "x")
    p.add_constraint([(x, 1.0)], "<=", 4.0, "r")
    sol = lp.solve(p, max_iter=0)
    assert sol.status == lp.ITERATION_LIMIT
    assert sol.objective is None


def test_empty_problem():
    sol = lp.solve(lp.LpProblem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == 0.0


@pytest.mark.parametrize("sense, rhs, status", [
    ("<=", 1.0, lp.OPTIMAL),
    ("=", 0.0, lp.OPTIMAL),
    (">=", 1.0, lp.INFEASIBLE),
    ("=", 1.0, lp.INFEASIBLE),
])
def test_problem_without_variables(sense, rhs, status):
    p = lp.LpProblem()
    p.add_constraint([], sense, rhs, "r")
    sol = lp.solve(p)
    assert sol.status == status
    if status == lp.OPTIMAL:
        assert sol.objective == 0.0
        assert sol.x.shape == (0,)
    else:
        assert sol.objective is None and sol.x is None


def test_determinism_same_problem_same_values():
    rng = np.random.default_rng(7)
    data = random_bounded_lp(rng)
    s1 = lp.solve(build_problem(*data))
    s2 = lp.solve(build_problem(*data))
    assert s1.status == s2.status == lp.OPTIMAL
    assert np.array_equal(s1.x, s2.x)


def _crash_basis_by_rows(sim):
    """Row-by-row reference for the starting basis ``_Simplex._setup`` builds."""
    n, m = sim.n_struct, sim.m
    lb, ub = sim.lb[: n + m], sim.ub[: n + m]
    status = np.where(np.isfinite(lb), lp._AT_LB, np.where(np.isfinite(ub), lp._AT_UB, lp._FREE))
    xbar = np.where(status == lp._AT_LB, lb, np.where(status == lp._AT_UB, ub, 0.0))
    resid = sim.b - sim.A[:, : n + m] @ xbar
    basis, xB, signs = [], [], []
    for i in range(m):
        s = n + i
        r = resid[i] + xbar[s]
        clamped = min(max(r, lb[s]), ub[s])
        if lb[s] - 1e-12 <= r <= ub[s] + 1e-12:
            basis.append(s)
            status[s] = lp._BASIC
            xB.append(clamped)
        else:
            status[s] = lp._AT_LB if clamped == lb[s] else lp._AT_UB
            signs.append((i, 1.0 if r - clamped > 0 else -1.0))
            basis.append(n + m + len(signs) - 1)
            xB.append(abs(r - clamped))
    return basis, status, np.array(xB), signs


def test_crash_basis_matches_row_by_row_reference():
    n_art = 0
    for seed in range(60):
        sim = lp._Simplex(build_problem(*random_bounded_lp(np.random.default_rng(seed))), 1e-6, None)
        sim._setup()
        basis, status, xB, signs = _crash_basis_by_rows(sim)
        n, m = sim.n_struct, sim.m
        assert sim.basis.tolist() == basis
        assert np.array_equal(sim.status[: n + m], status)
        assert sim.xB.tobytes() == xB.tobytes()
        art = sim.A[:, n + m :]
        expected = np.zeros((m, len(signs)))
        for k, (i, sign) in enumerate(signs):
            expected[i, k] = sign
        assert np.array_equal(art, expected)
        n_art += len(signs)
    assert n_art > 0  # the sample must exercise the artificial columns


def test_lp_text_dump_mentions_rows_and_bounds():
    p = lp.LpProblem("demo")
    x = p.add_variable(0.0, 4.0, 1.5, "spend")
    p.add_constraint([(x, 2.0)], "<=", 6.0, "capacity")
    text = p.to_lp_text()
    assert "Minimize" in text and "capacity" in text and "spend" in text


def _residuals_ok(data, sol, tol=1e-6) -> bool:
    c, lb, ub, A, senses, b = data
    x = sol.x
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return False
    act = A @ x
    for i, s in enumerate(senses):
        if s == "<=" and act[i] > b[i] + tol:
            return False
        if s == ">=" and act[i] < b[i] - tol:
            return False
        if s == "=" and abs(act[i] - b[i]) > tol:
            return False
    return True


@pytest.mark.parametrize("seed", range(40))
def test_random_lp_matches_vertex_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    data = random_bounded_lp(rng)
    sol = lp.solve(build_problem(*data))
    assert sol.status == lp.OPTIMAL, f"seed {seed}: {sol.status}"
    assert _residuals_ok(data, sol), f"seed {seed}: residual violation"
    oracle = vertex_enumeration_optimum(*data)
    assert oracle is not None
    assert sol.objective == pytest.approx(oracle, abs=1e-6), f"seed {seed}"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_certified_feasibility_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    data = random_bounded_lp(rng)
    sol = lp.solve(build_problem(*data))
    assert sol.status == lp.OPTIMAL
    assert _residuals_ok(data, sol)


def _assert_same_as_dense_reference(p: lp.LpProblem) -> lp.LpSolution:
    """Solve ``p`` with the solver and the dense reference kernel; both must
    give the same status and iterations, bitwise the same x and objective,
    and equal final tableaus and reduced costs."""
    got_sim, ref_sim = lp._Simplex(p, 1e-6, None), DenseSimplex(p, 1e-6, None)
    got, ref = got_sim.run(), ref_sim.run()
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    assert repr(got.objective) == repr(ref.objective)
    assert (got.x is None and ref.x is None) or got.x.tobytes() == ref.x.tobytes()
    # pricing reads the reduced costs, so they must agree to the last bit
    assert np.array_equal(got_sim.T, ref_sim.T)
    assert np.array_equal(got_sim._reduced_costs(got_sim.cost), ref_sim._reduced_costs(ref_sim.cost))
    return got


def _example_lps(example_with_high) -> list[lp.LpProblem]:
    return evba.build_evba(example_with_high, evba.cost_toggles_for("of5"))


def test_pivots_match_dense_reference_on_random_lps():
    for seed in range(200):
        _assert_same_as_dense_reference(build_problem(*random_bounded_lp(np.random.default_rng(seed))))


def test_pivots_match_dense_reference_on_a_15_minute_vehicle(example_scenario):
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=1, step_count=96, step_hours=0.25))
    (p,) = evba.build_evba(s, evba.cost_toggles_for("of5"))
    assert (p.num_variables, p.num_constraints) == (480, 376)
    assert _assert_same_as_dense_reference(p).status == lp.OPTIMAL


def test_pivots_match_dense_reference_under_blands_rule(example_with_high, monkeypatch):
    # Bland's entering rule from the first pivot, in both kernels
    for cls in (lp._Simplex, DenseSimplex):
        price = cls._price
        monkeypatch.setattr(cls, "_price", lambda self, d, bland, price=price: price(self, d, True))
    problems = _example_lps(example_with_high)
    problems += [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(50)]
    for p in problems:
        _assert_same_as_dense_reference(p)


def test_pivots_match_dense_reference_through_a_refactorization(example_with_high, monkeypatch):
    # the first verification fails, so each solve rebuilds its tableau once
    violation = lp._Simplex._violation
    rebuilds = []

    def fail_once(self, x):
        if not hasattr(self, "failed_once"):
            self.failed_once = True
            rebuilds.append(type(self))
            return lp.INF
        return violation(self, x)

    monkeypatch.setattr(lp._Simplex, "_violation", fail_once)
    problems = _example_lps(example_with_high)
    for p in problems:
        assert _assert_same_as_dense_reference(p).status == lp.OPTIMAL
    assert rebuilds == [lp._Simplex, DenseSimplex] * len(problems)
