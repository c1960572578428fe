"""LP kernel tests: the constructor's checks, status classification, oracle checks."""

from __future__ import annotations

import dataclasses
import importlib.util
import tracemalloc
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch import evba, lp
from evdispatch.analysis import generate_price_set
from oracles import (
    DenseSimplex,
    EtaLoopSimplex,
    RowBuilder,
    block_diagonal_scipy_optimum,
    build_problem,
    crash_by_rows,
    dense_A,
    random_banded_lp,
    random_bounded_lp,
    random_free_bound_lp,
    vertex_enumeration_optimum,
)
from scen import refine


def _problem(lb=(), ub=(), cost=(), indptr=(0,), indices=(), data=(), senses=(), rhs=()):
    """A problem given to the constructor as sequences, with names x<j> and r<i>."""
    return lp.LpProblem("p", lb, ub, cost, [f"x{j}" for j in range(len(lb))], indptr, indices, data,
                        senses, rhs, [f"r{i}" for i in range(len(rhs))])


def test_constructor_takes_lists_and_keeps_arrays_of_its_dtypes():
    p = _problem([0.0, -1.0], [1.0, 2.0], [0.5, 0.0], [0, 2, 3], [0, 1, 1], [1.0, -2.0, 3.0], ["<=", "="], [4.0, 1.0])
    assert p._rows == [{0: 1.0, 1: -2.0}, {1: 3.0}] and p._senses.tolist() == ["<=", "="]
    given = [np.zeros(1), np.ones(1), np.zeros(1), np.array([0, 1], dtype=np.intp), np.zeros(1, dtype=np.intp),
             np.ones(1), np.array(["<="]), np.ones(1)]
    q = _problem(*given)
    kept = (q._lb, q._ub, q._cost, q._indptr, q._indices, q._data, q._senses, q._rhs)
    assert all(a is b for a, b in zip(kept, given))


def test_add_variable_inverted_bounds_rejected():
    with pytest.raises(lp.LpError, match="variable x0: inverted bounds"):
        _problem([2.0], [1.0], [0.0])


@pytest.mark.parametrize("cost", [lp.INF, -lp.INF, float("nan")])
def test_add_variable_non_finite_cost_rejected(cost):
    with pytest.raises(lp.LpError, match="variable x0: unusable bounds or cost"):
        _problem([0.0], [1.0], [cost])


def test_add_variable_fixed_interval_accepted():
    p = RowBuilder()
    x = p.var(3.0, 3.0, 5.0, "x")
    sol = lp.solve(p.problem())
    assert sol.status == lp.OPTIMAL
    assert sol.x[x] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(15.0)


def test_add_constraint_simple_lower_bound():
    p = RowBuilder()
    x = p.var(0.0, lp.INF, 1.0, "x")
    p.row([(x, 1.0)], ">=", 1.0, "r")
    sol = lp.solve(p.problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(1.0, abs=1e-9)


def test_add_constraint_merges_duplicate_terms():
    p = RowBuilder()
    x = p.var(0.0, 10.0, -1.0, "x")
    p.row([(x, 1.0), (x, 1.0)], "<=", 4.0, "r")  # stored as 2x <= 4
    sol = lp.solve(p.problem())
    assert sol.x[x] == pytest.approx(2.0, abs=1e-9)


def test_add_constraint_unknown_id_rejected():
    with pytest.raises(lp.LpError, match="constraint 'r0': unknown variable id 99"):
        _problem([0.0], [1.0], [0.0], [0, 1], [99], [1.0], ["<="], [4.0])


@pytest.mark.parametrize("j, sense, fault", [
    (5, ">=", "unknown variable id 5"), (-1, ">=", "unknown variable id -1"),
    (0, "!!", "unknown sense '!!'"), (0, "==", "unknown sense '=='"), (0, "", "unknown sense ''"),
])
def test_a_faulty_row_of_finite_numbers_is_rejected(j, sense, fault):
    with pytest.raises(lp.LpError, match=f"^constraint 'r1': {fault}$"):
        _problem([0.0], [1.0], [0.0], [0, 1, 2], [0, j], [1.0, 2.0], ["<=", sense], [4.0, 0.0])


@pytest.mark.parametrize("coef, rhs", [
    (float("nan"), 1.0), (lp.INF, 1.0), (-lp.INF, 1.0),
    (1.0, float("nan")), (1.0, lp.INF), (1.0, -lp.INF),
])
def test_add_constraint_non_finite_data_rejected(coef, rhs):
    with pytest.raises(lp.LpError, match="constraint 'r0': non-finite"):
        _problem([0.0], [lp.INF], [0.0], [0, 1], [0], [coef], ["<="], [rhs])


def test_the_first_faulty_variable_then_the_first_faulty_row_is_named():
    rows = dict(indptr=[0, 1, 3, 4], indices=[0, 3, 0, 0], data=[1.0, 1.0, float("nan"), 1.0],
                senses=["<=", ">=", "<"], rhs=[1.0, 1.0, 1.0])
    with pytest.raises(lp.LpError, match="constraint 'r1': unknown variable id 3"):
        _problem([0.0], [1.0], [0.0], **rows)
    with pytest.raises(lp.LpError, match="variable x1: inverted bounds"):
        _problem([0.0, 2.0, 0.0], [1.0, 1.0, -1.0], [0.0] * 3, **rows)


_ONE_ROW = dict(lb=[0.0, 0.0], ub=[1.0, 1.0], cost=[0.0, 0.0], var_names=["x0", "x1"], indptr=[0, 2],
                indices=[0, 1], data=[1.0, 1.0], senses=["<="], rhs=[1.0], row_names=["r0"])


@pytest.mark.parametrize("change, fault", [
    (dict(indptr=[0]), "indptr has 1 offsets for 1 rows, not 2"),
    (dict(indptr=[0, 1]), "indptr runs from 0 to 1, not from 0 to 2"),
    (dict(indptr=[1, 2]), "indptr runs from 1 to 2, not from 0 to 2"),
    (dict(indptr=[0, 2, 1, 2], senses=["<="] * 3, rhs=[1.0] * 3, row_names=["r0", "r1", "r2"]),
     "constraint 'r1': indptr falls from 2 to 1"),
    (dict(data=[1.0, 1.0, 1.0]), r"terms: indices and data differ in length \(2, 3\)"),
    (dict(lb=[0.0, 0.0, 0.0]), r"variables: lb, ub, cost and var_names differ in length \(3, 2, 2, 2\)"),
    (dict(cost=[0.0]), r"variables: lb, ub, cost and var_names differ in length \(2, 2, 1, 2\)"),
    (dict(var_names=["x0"]), r"variables: lb, ub, cost and var_names differ in length \(2, 2, 2, 1\)"),
    (dict(senses=["<=", "<="]), r"rows: rhs, senses and row_names differ in length \(1, 2, 1\)"),
    (dict(row_names=[]), r"rows: rhs, senses and row_names differ in length \(1, 1, 0\)"),
    (dict(indices=[0, 0]), "constraint 'r0': variable id 0 repeats"),
    (dict(indices=[1, 0]), "constraint 'r0': variable id 0 follows the larger id 1"),
], ids=["indptr-short", "indptr-end", "indptr-start", "indptr-falls", "data-long", "lb-long", "cost-short",
        "var-names-short", "senses-long", "row-names-short", "id-repeats", "ids-descend"])
def test_malformed_compressed_rows_are_rejected_naming_the_fault(change, fault):
    with pytest.raises(lp.LpError, match=f"^{fault}$"):
        lp.LpProblem("p", **{**_ONE_ROW, **change})


def test_column_order_is_checked_within_rows_not_across_them():
    # row 1 restarts at a lower id, and the fault is named in the first
    # faulty row, before a later row's unknown sense
    two_rows = {**_ONE_ROW, "indptr": [0, 2, 3], "data": [1.0, 1.0, 1.0], "rhs": [1.0, 0.0],
                "row_names": ["r0", "r1"]}
    p = lp.LpProblem("p", **{**two_rows, "indices": [0, 1, 0], "senses": ["<=", ">="]})
    assert lp.solve(p).status == lp.OPTIMAL
    with pytest.raises(lp.LpError, match="^constraint 'r0': variable id 1 repeats$"):
        lp.LpProblem("p", **{**two_rows, "indices": [1, 1, 0], "senses": ["<=", "!"]})


def test_unbounded_detection():
    p = RowBuilder()
    p.var(0.0, lp.INF, -1.0, "x")
    assert lp.solve(p.problem()).status == lp.UNBOUNDED


def test_infeasible_detection():
    p = RowBuilder()
    x = p.var(0.0, 1.0, 1.0, "x")
    p.row([(x, 1.0)], ">=", 2.0, "r")
    assert lp.solve(p.problem()).status == lp.INFEASIBLE


def test_arbitrage_core_two_variable_lp():
    # min 0.1c - 0.5d  s.t. 0.95c - d/0.85 >= 0, 0 <= c, 0 <= d <= 4
    p = RowBuilder()
    c = p.var(0.0, lp.INF, 0.1, "c")
    d = p.var(0.0, 4.0, -0.5, "d")
    p.row([(c, 0.95), (d, -1.0 / 0.85)], ">=", 0.0, "bal")
    sol = lp.solve(p.problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(-1.5046439628, abs=1e-6)
    assert sol.x[d] == pytest.approx(4.0, abs=1e-6)
    assert sol.x[c] == pytest.approx(4.9535603715, abs=1e-6)


def test_equality_constraint():
    p = RowBuilder()
    x = p.var(0.0, 10.0, 1.0, "x")
    y = p.var(0.0, 10.0, 3.0, "y")
    p.row([(x, 1.0), (y, 1.0)], "=", 5.0, "r")
    sol = lp.solve(p.problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(5.0, abs=1e-9)


def test_a_variable_with_no_finite_bound_is_rejected_by_name():
    # no variable of a window LP lacks a finite bound, so the solver takes
    # none that does; the first such variable is named
    with pytest.raises(lp.LpError, match="^variable x1: no finite bound$"):
        _problem([0.0, -lp.INF, -lp.INF], [1.0, lp.INF, lp.INF], [0.0] * 3)
    # one finite bound is enough: x <= 3, and x >= -3 as a row
    p = RowBuilder()
    x = p.var(-lp.INF, 3.0, 1.0, "x")
    p.row([(x, 1.0)], ">=", -3.0, "r")
    sol = lp.solve(p.problem())
    assert sol.status == lp.OPTIMAL and sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_iteration_limit_is_distinct_status(monkeypatch):
    init = lp._Simplex.__init__

    def no_iterations(self, p):
        init(self, p)
        self.max_iter = 0

    monkeypatch.setattr(lp._Simplex, "__init__", no_iterations)
    p = RowBuilder()
    x = p.var(0.0, 10.0, -1.0, "x")
    p.row([(x, 1.0)], "<=", 4.0, "r")
    sol = lp.solve(p.problem())
    assert sol.status == lp.ITERATION_LIMIT
    assert sol.objective is None


def test_phase_one_and_the_final_check_share_one_feasibility_rule():
    # x <= 1 and x >= 1 + delta, beside a row whose rhs of 500 once scaled
    # phase 1's infeasibility threshold to 5e-4: a leftover violation above
    # FEAS_TOL is infeasible whatever the size of the other rows
    for delta, status in ((1e-7, lp.OPTIMAL), (1e-5, lp.INFEASIBLE), (1e-4, lp.INFEASIBLE)):
        p = RowBuilder("band")
        x = p.var(0.0, lp.INF, 1.0, "x")
        y = p.var(0.0, lp.INF, 1.0, "y")
        p.row([(x, 1.0)], "<=", 1.0, "cap")
        p.row([(x, 1.0)], ">=", 1.0 + delta, "need")
        p.row([(y, 1.0)], "<=", 500.0, "wide")
        sol = _assert_agrees_with_dense_reference(p.problem())
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.stats.max_violation <= lp.FEAS_TOL
            assert sol.x[x] == pytest.approx(1.0, abs=2e-7) and sol.x[y] == 0.0


def test_empty_problem():
    sol = lp.solve(_problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == 0.0


@pytest.mark.parametrize("sense, rhs, status", [
    ("<=", 1.0, lp.OPTIMAL),
    ("=", 0.0, lp.OPTIMAL),
    (">=", 1.0, lp.INFEASIBLE),
    ("=", 1.0, lp.INFEASIBLE),
])
def test_problem_without_variables(sense, rhs, status):
    sol = lp.solve(_problem(indptr=[0, 0], senses=[sense], rhs=[rhs]))
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


def _random_lps_with_tied_ranges():
    """The 60 random LPs, each also with its bound ranges rounded up to whole
    numbers, so the crash meets ties; x0 stays feasible, as ranges only grow."""
    for seed in range(60):
        c, lb, ub, A, senses, b = random_bounded_lp(np.random.default_rng(seed))
        yield build_problem(c, lb, ub, A, senses, b)
        yield build_problem(c, lb, lb + np.ceil(ub - lb), A, senses, b)


def test_crash_basis_matches_row_by_row_reference():
    n_crash = 0
    for p in _random_lps_with_tied_ranges():
        sim = lp._Simplex(p)
        sim._setup()
        basis, taken = crash_by_rows(sim)
        assert sim.basis.tolist() == basis
        assert sim.crash_columns == len(taken)
        # every other basic column is a slack's unit column, so the start
        # basis is triangular when its crash block is
        A = np.hstack([dense_A(sim), np.eye(sim.m)])
        B = A[:, sim.basis]
        block = B[np.ix_(taken, taken)]
        assert np.all(np.triu(block, 1) == 0.0) and np.all(np.diag(block) != 0.0)
        # nonbasic columns rest at the lower bound when it is finite, else the upper
        status = np.where(np.isfinite(sim.lb), lp._AT_LB, lp._AT_UB)
        status[sim.basis] = lp._BASIC
        assert np.array_equal(sim.status, status)
        x_n = np.where(status == lp._AT_LB, sim.lb, np.where(status == lp._AT_UB, sim.ub, 0.0))
        x_n[sim.basis] = 0.0
        assert np.array_equal(sim.nb_value[status != lp._BASIC], x_n[status != lp._BASIC])
        # fixed columns never enter, so only the others are transformed
        live = sim.ub > sim.lb
        np.testing.assert_allclose(_ftran_columns(sim), np.linalg.solve(B, A)[:, live], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sim.xB, np.linalg.solve(B, sim.b - A @ x_n), rtol=0.0, atol=1e-12)
        n_crash += len(taken)
    assert n_crash > 0  # the sample must exercise the crash


def _violations(sim) -> np.ndarray:
    """Each basic variable's distance outside its bounds, 0 inside them."""
    lbB, ubB = sim.lb[sim.basis], sim.ub[sim.basis]
    return np.maximum(np.maximum(lbB - sim.xB, sim.xB - ubB), 0.0)


def test_start_moves_columns_to_the_bound_their_cost_favours_and_worsens_no_basic_violation(
        example_with_high, example_scenario):
    problems = [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(100)]
    problems += [build_problem(*random_banded_lp(np.random.default_rng(seed))) for seed in range(100)]
    problems += [p for ct in evba.OBJECTIVE_VARIANTS.values() for p in evba.build_evba(example_with_high, ct)]
    problems.append(_fifteen_minute_lp(example_scenario))
    n_moved = n_held = 0
    for p in problems:
        sim = lp._Simplex(p)
        sim._setup()
        basis, status, before, d = sim.basis.copy(), sim.status.copy(), _violations(sim), sim._reduced_costs()
        sim._place_bounds()
        assert np.array_equal(sim.basis, basis)
        assert np.all(_violations(sim) <= before + sim.pivot_tol)
        moved = np.flatnonzero(sim.status != status)
        assert sim.start_flips == moved.size
        # a negative reduced cost favours the upper bound, a positive one the lower
        at_lb = status[moved] == lp._AT_LB
        assert np.all(np.where(at_lb, d[sim.pos[moved]] < -sim.opt_tol, d[sim.pos[moved]] > sim.opt_tol))
        assert np.array_equal(sim.status[moved], np.where(at_lb, lp._AT_UB, lp._AT_LB))
        assert np.array_equal(sim.nb_value[moved], np.where(at_lb, sim.ub[moved], sim.lb[moved]))
        # the basic values are those of the moved nonbasic point
        A = np.hstack([dense_A(sim), np.eye(sim.m)])
        x_n = np.where(sim.status == lp._BASIC, 0.0, sim.nb_value)
        np.testing.assert_allclose(sim.xB, np.linalg.solve(A[:, sim.basis], sim.b - A @ x_n), rtol=0.0, atol=1e-9)
        favoured = np.flatnonzero((sim.sign * d > sim.opt_tol) & (sim.ub - sim.lb < lp.INF)[sim.cols])
        n_moved += moved.size
        n_held += favoured.size  # columns the guard kept where they were
    # the corpus must exercise both the moves and the guard
    assert n_moved > 100 and n_held > 10


def _ftran_columns(sim) -> np.ndarray:
    """``B^-1 [A | I]`` on the columns that can enter, one FTRAN each."""
    return np.reshape([sim.factor.ftran(sim.factor.column(k)) for k in range(len(sim.cols))], (len(sim.cols), sim.m)).T


def _assert_factor_matches_linear_algebra(sim) -> None:
    """FTRAN of every column that can enter, and BTRAN of the basic costs and
    of a fixed dense vector, equal ``np.linalg.solve`` on ``[A | I]`` and the
    basis to 1e-12."""
    A = np.hstack([dense_A(sim), np.eye(sim.m)])
    B = A[:, sim.basis]
    np.testing.assert_allclose(_ftran_columns(sim), np.linalg.solve(B, A[:, sim.cols]), rtol=1e-12, atol=1e-12)
    for y in (sim.cost[sim.basis], np.random.default_rng(0).uniform(-1.0, 1.0, sim.m)):
        np.testing.assert_allclose(sim.factor.btran(y), np.linalg.solve(B.T, y), rtol=1e-12, atol=1e-12)


def _assert_basic_values_match_linear_algebra(sim) -> None:
    """The basic values are those of the nonbasic point (a phase-1 pivot may
    rest a leaver at the bound it violated by up to ``pivot_tol``, so this
    holds before the pivots)."""
    A = np.hstack([dense_A(sim), np.eye(sim.m)])
    x_n = np.where(sim.status == lp._BASIC, 0.0, sim.nb_value)
    np.testing.assert_allclose(sim.xB, np.linalg.solve(A[:, sim.basis], sim.b - A @ x_n), rtol=0.0, atol=1e-9)


def _assert_factor_holds_through_a_solve(p: lp.LpProblem) -> lp.LpSolution:
    """Check the factor after set-up, after the start's moves and after a
    solve of ``p``; returns the solution."""
    sim = lp._Simplex(p)
    sim._setup()
    _assert_factor_matches_linear_algebra(sim)
    _assert_basic_values_match_linear_algebra(sim)
    sim._place_bounds()
    _assert_factor_matches_linear_algebra(sim)
    _assert_basic_values_match_linear_algebra(sim)
    solved = lp._Simplex(p)
    sol = solved.run()
    _assert_factor_matches_linear_algebra(solved)
    return sol


def test_tableau_holds_one_column_per_variable_that_can_enter(example_scenario):
    # the columns that can enter are the ones priced and transformed; the
    # tableau B^-1 [A | I] on them is never stored, only read by FTRAN
    problems = list(_random_lps_with_tied_ranges()) + [_fifteen_minute_lp(example_scenario)]
    for p in problems:
        sim = lp._Simplex(p)
        live = np.flatnonzero(sim.ub > sim.lb)
        assert np.array_equal(sim.cols, live)
        assert np.array_equal(sim.pos[live], np.arange(live.size))
        assert np.all(sim.pos[sim.ub <= sim.lb] == -1)
        assert _assert_factor_holds_through_a_solve(p).stats.tableau_columns == live.size
    # the 15-minute window: 480 structurals and 280 slacks, less 112 fixed
    # structurals and the 96 equality slacks
    assert (p.num_variables + p.num_constraints, live.size) == (760, 552)


def _edge_lps():
    """Edge cases of the tableau's shape, each with the data of an equivalent
    LP with finite bounds for vertex enumeration."""
    # every column fixed, so the tableau has none: one feasible, one not
    A = np.array([[1.0, 1.0], [2.0, -1.0]])
    for b in ([3.0, 0.0], [4.0, 0.0]):
        data = (np.array([1.0, -2.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0]), A, ["=", "="], np.array(b))
        yield build_problem(*data), data
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        c, lb, ub, A, senses, b = random_bounded_lp(rng)
        # no rows
        data = (c, lb, ub, np.zeros((0, c.size)), [], np.zeros(0))
        yield build_problem(*data), data
        # only equality rows, met by an interior point
        x0 = rng.uniform(lb, ub)
        data = (c, lb, ub, A, ["="] * len(b), A @ x0)
        yield build_problem(*data), data
        # columns bounded above only, most of them after a fixed one, their
        # lower bounds moved into rows
        lb, ub = lb.copy(), ub.copy()
        lb[1] = ub[1] = x0[1]
        b = A @ x0 + np.select([np.array(senses) == "<=", np.array(senses) == ">="], [1.0, -1.0], 0.0)
        upper = np.arange(c.size) % 2 == 0
        p = build_problem(c, np.where(upper, -lp.INF, lb), ub, np.vstack([A, np.eye(c.size)[upper]]),
                          senses + [">="] * int(upper.sum()), np.append(b, lb[upper]))
        yield p, (c, lb, ub, A, senses, b)


def test_edge_lps_match_the_dense_reference_and_vertex_enumeration():
    shapes = set()
    for p, data in _edge_lps():
        sol = _assert_agrees_with_dense_reference(p)
        oracle = vertex_enumeration_optimum(*data)
        if oracle is None:
            assert sol.status == lp.INFEASIBLE
        else:
            assert sol.status == lp.OPTIMAL
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
        shapes.add((sol.stats.m == 0, sol.stats.tableau_columns == 0))
    assert shapes == {(False, False), (True, False), (False, True)}


def test_solving_twice_gives_the_same_bits_and_leaves_the_problem_unchanged(example_scenario):
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=1, step_count=96, step_hours=0.25))
    problems = evba.build_evba(s, evba.cost_toggles_for("of5"))
    problems.append(build_problem(*random_bounded_lp(np.random.default_rng(3))))

    def snapshot(p):
        return {k: (v.tobytes(), v.dtype, v.shape) if isinstance(v, np.ndarray) else repr(v)
                for k, v in vars(p).items()}

    for p in problems:
        before = snapshot(p)
        first, second = lp.solve(p), lp.solve(p)
        assert (first.status, first.iterations, repr(first.stats), repr(first.objective)) == \
            (second.status, second.iterations, repr(second.stats), repr(second.objective))
        assert first.x.tobytes() == second.x.tobytes()
        assert snapshot(p) == before


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


def _assert_agrees_with_dense_reference(p: lp.LpProblem) -> lp.LpSolution:
    """Solve ``p`` with the solver and the dense reference kernel. Their
    pivots may part where the last bits of a reduced cost break a tie
    another way, so they must agree as the rules for a changed pivot path
    ask: the same status and start, objectives equal to 1e-9 relative, and
    both points within ``FEAS_TOL`` when optimal. The solver's factor must
    then match linear algebra on its final basis."""
    got_sim, ref_sim = lp._Simplex(p), DenseSimplex(p)
    got, ref = got_sim.run(), ref_sim.run()
    assert ref_sim.T.shape == (p.num_constraints, p.num_variables + p.num_constraints)
    assert got.status == ref.status
    assert (got.stats.n, got.stats.m, got.stats.tableau_columns, got.stats.crash_columns) == \
        (ref.stats.n, ref.stats.m, ref.stats.tableau_columns, ref.stats.crash_columns)
    if got.status == lp.OPTIMAL:
        assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        assert max(got.stats.max_violation, ref.stats.max_violation) <= lp.FEAS_TOL
    _assert_factor_matches_linear_algebra(got_sim)
    return got


def _example_lps(example_with_high) -> list[lp.LpProblem]:
    return evba.build_evba(example_with_high, evba.cost_toggles_for("of5"))


def test_pivots_match_dense_reference_on_random_lps():
    for seed in range(200):
        _assert_agrees_with_dense_reference(build_problem(*random_bounded_lp(np.random.default_rng(seed))))


def _fifteen_minute_lp(example_scenario, seed: int = 1) -> lp.LpProblem:
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=seed, step_count=96, step_hours=0.25))
    (p,) = evba.build_evba(s, evba.cost_toggles_for("of5"))
    assert (p.num_variables, p.num_constraints) == (480, 280)
    return p


def test_pivots_match_dense_reference_on_a_15_minute_vehicle(example_scenario):
    sol = _assert_agrees_with_dense_reference(_fifteen_minute_lp(example_scenario))
    assert sol.status == lp.OPTIMAL
    # the crash puts the state-of-energy chain in the start basis; before it
    # this LP took 437 pivots, 243 of them to drive out artificial columns
    assert sol.stats.crash_columns == 96
    assert sol.iterations <= 120 and sol.stats.phase1_pivots <= 10


def _record_spans(monkeypatch) -> list[tuple[int, int, int]]:
    """Record each pivot of the solver as (rows, first, last): the first and
    last row off the pivot row where the entering column's FTRAN is nonzero,
    the rows its eta reaches, or (rows, -1, -1) when it has none."""
    spans = []
    pivot = lp._Simplex._pivot

    def recording(self, r, k, w, entering_val, leaving_status):
        off = np.flatnonzero(w)
        off = off[off != r]
        spans.append((self.m, *((int(off[0]), int(off[-1])) if off.size else (-1, -1))))
        return pivot(self, r, k, w, entering_val, leaving_status)

    monkeypatch.setattr(lp._Simplex, "_pivot", recording)
    return spans


@pytest.mark.parametrize("columns, pivot_row, span", [
    # x is nonzero only in its pivot row: its eta reaches no other row
    ({"x": [0, 1, 0], "y": [1, 0, 1], "z": [1, 0, -1]}, 1, (3, -1, -1)),
    # x is nonzero in row 0 besides its pivot row
    ({"x": [1, 0, 1, 0], "y": [1, 0, 0, 0], "z": [0, 1, 0, 0], "w": [0, 0, 0, 1]}, 2, (4, 0, 0)),
    # x is nonzero in the last row besides its pivot row
    ({"x": [0, 1, 0, 1], "y": [0, 0, 0, 1], "z": [1, 0, 0, 0], "w": [0, 0, 1, 0]}, 1, (4, 3, 3)),
    # x's span runs from row 0 to the last, over its pivot row and a zero row
    ({"x": [1, 1, 0, 1], "y": [1, 0, 0, 0], "z": [0, 0, 1, 0], "w": [0, 0, 0, -1]}, 1, (4, 0, 3)),
])
def test_restricted_update_matches_dense_reference_at_the_span_edges(columns, pivot_row, span, monkeypatch):
    # maximise x alone under <= rows; x's pivot row is the tightest, and its
    # one pivot adds the eta whose reach is the case's span
    spans = _record_spans(monkeypatch)
    A = np.array(list(columns.values()), dtype=float).T
    m, n = A.shape
    b = np.full(m, 5.0)
    b[pivot_row] = 2.0
    c = np.zeros(n)
    c[0] = -1.0
    p = build_problem(c, np.zeros(n), np.full(n, 10.0), A, ["<="] * m, b)
    sol = _assert_agrees_with_dense_reference(p)
    assert sol.status == lp.OPTIMAL and sol.x[0] == 2.0
    assert spans == [span]
    _assert_factor_holds_through_a_solve(p)


def test_restricted_update_matches_dense_reference_on_banded_lps(monkeypatch):
    # columns nonzero on at most three consecutive rows keep most FTRAN
    # columns narrow, so most etas reach a few rows, some none, and some
    # the first or the last row
    spans = _record_spans(monkeypatch)
    for seed in range(200):
        p = build_problem(*random_banded_lp(np.random.default_rng(seed)))
        assert _assert_agrees_with_dense_reference(p).status == lp.OPTIMAL
        _assert_factor_holds_through_a_solve(p)
    widths = [(last - first + 1) / m for m, first, last in spans if first >= 0]
    assert len(spans) > 1000 and np.median(widths) < 0.5
    assert any(first < 0 for _, first, _ in spans)
    assert any(first == 0 and last < m - 1 for m, first, last in spans)
    assert any(first > 0 and last == m - 1 for m, first, last in spans)


def _arrays_2d(sim) -> dict[str, tuple[int, ...]]:
    """The shape of each 2-D array a solver and its factor hold that is not empty."""
    return {name: v.shape for name, v in {**vars(sim), **vars(sim.factor)}.items()
            if isinstance(v, np.ndarray) and v.ndim >= 2 and v.size}


def test_setup_holds_no_dense_copy_of_the_rows(example_scenario):
    # above the crossover the rows stay in the problem's CSR and the chain
    # in 1-D arrays; the pivots' etas are the one 2-D pair, with a row per
    # pivot and a little room to grow, so no array of rows by columns is built
    problems = [_fifteen_minute_lp(example_scenario), _ladder_rung(example_scenario, 8)]
    for p in problems:
        assert p.num_constraints > lp._DENSE_ROWS
        sim = lp._Simplex(p)
        sim._setup()
        assert _arrays_2d(sim) == {}
        sim = lp._Simplex(p)
        sol = sim.run()
        assert sol.stats.refactorizations == 0
        assert set(_arrays_2d(sim)) in (set(), {"U", "Z"})
        pivots = sol.stats.phase1_pivots + sol.stats.phase2_pivots
        f = sim.factor
        assert f.updates == pivots and f.U.shape == f.Z.shape and len(f.U) <= 2 * pivots + 4


def test_the_dense_path_holds_at_most_the_crossovers_rows_by_all_columns(example_with_high):
    # at or below the crossover an LP holds B^-1 and [A | I] on the columns
    # that can enter, each at most _DENSE_ROWS x (n + m), and no etas
    problems = [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(20)]
    problems += _example_lps(example_with_high) + [_session(example_with_high)]
    for p in problems:
        n, m = p.num_variables, p.num_constraints
        sims = [lp._Simplex(p), lp._Simplex(p)]
        sims[0]._setup()
        assert sims[1].run().stats.refactorizations == 0
        for sim in sims:
            shapes = _arrays_2d(sim)
            assert shapes == {"inverse": (m, m), "columns": (len(sim.cols), m)}, p.name
            assert m <= lp._DENSE_ROWS and all(a * b <= lp._DENSE_ROWS * (n + m) for a, b in shapes.values())
            assert type(sim.factor) is lp._DenseFactor


def test_set_up_residuals_from_the_rows_equal_the_dense_product_on_window_lps(example_with_high):
    # the start's basic values b - A x, from which every pivot follows; at
    # the final point the two sums may differ in the last bits, which moves
    # only the reported max_violation
    for ct in evba.OBJECTIVE_VARIANTS.values():
        for power in evba.PowerMode:
            for p in evba.build_evba(example_with_high, ct, power):
                sim = lp._Simplex(p)
                sim._setup()  # the crash moves no structural's nonbasic value
                x = sim.nb_value[:sim.n_struct]
                assert (sim.b - sim._row_products(x)).tobytes() == (sim.b - dense_A(sim) @ x).tobytes()


def _reduced_costs_by_linear_algebra(sim: lp._Simplex) -> np.ndarray:
    """``c_N - A^T B^-T c_B`` on the tableau's columns, from the original
    rows and the current basis alone."""
    full = np.hstack([dense_A(sim), np.eye(sim.m)])
    y = np.linalg.solve(full[:, sim.basis].T, sim.cost[sim.basis])
    return sim.cost[sim.cols] - full[:, sim.cols].T @ y


def test_reduced_costs_match_linear_algebra_after_setup_and_solve(example_scenario):
    problems = [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(100)]
    problems.append(_fifteen_minute_lp(example_scenario))
    for p in problems:
        crashed, solved = lp._Simplex(p), lp._Simplex(p)
        crashed._setup()
        assert solved.run().status == lp.OPTIMAL
        for sim in (crashed, solved):
            np.testing.assert_allclose(sim._reduced_costs(), _reduced_costs_by_linear_algebra(sim),
                                       rtol=1e-9, atol=1e-9)


def test_phase_two_updates_its_reduced_costs_on_the_dense_path(example_with_high, monkeypatch):
    # every phase-2 pricing reads reduced costs equal to those derived from
    # the basis by linear algebra; they are derived at most three times per
    # solve (the start, the end of phase 1, the check that ends phase 2),
    # however many pivots phase 2 makes
    derived, checked = [], []
    reduced_costs, price = lp._Simplex._reduced_costs, lp._Simplex._price

    def counting(self):
        derived[-1] += 1
        return reduced_costs(self)

    def checking(self, d, bland):
        if d is self.d:
            np.testing.assert_allclose(d, _reduced_costs_by_linear_algebra(self), rtol=1e-9, atol=1e-9)
            checked.append(1)
        return price(self, d, bland)

    monkeypatch.setattr(lp._Simplex, "_reduced_costs", counting)
    monkeypatch.setattr(lp._Simplex, "_price", checking)
    problems = [p for ct in evba.OBJECTIVE_VARIANTS.values() for p in evba.build_evba(example_with_high, ct)]
    problems += [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(30)]
    pivots = 0
    for p in problems:
        derived.append(0)
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL and sol.stats.refactorizations == 0
        assert derived[-1] <= 3, (p.name, derived[-1], sol.stats)
        pivots += sol.stats.phase2_pivots
    assert pivots > 150 and len(checked) > pivots


def test_updated_reduced_costs_are_derived_afresh_before_phase_two_ends(example_with_high, monkeypatch):
    # with the pivot-row updates priced as zero, phase 2 prices from stale
    # reduced costs until they price no column; deriving them afresh then
    # still takes every solve to the reference's optimum
    prices = lp._DenseFactor.prices

    def stale(self, y):
        out = prices(self, y)
        return np.zeros_like(out) if np.shares_memory(y, self.inverse) else out

    monkeypatch.setattr(lp._DenseFactor, "prices", stale)
    problems = _example_lps(example_with_high)
    problems += [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(30)]
    for p in problems:
        got, ref = lp.solve(p), DenseSimplex(p).run()
        assert got.status == ref.status == lp.OPTIMAL
        assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)


def test_example_lps_take_few_pivots_and_account_for_each(example_with_high):
    for p in _example_lps(example_with_high):
        sim = lp._Simplex(p)
        sim._setup()
        crashed = [p._var_names[q] for q in sim.basis if q < p.num_variables]
        # one pick per balance row, the SOE chain; at the last step the
        # departure floor narrows the SOE range, and a charge column may tie
        assert len(crashed) == 24
        assert all(name.startswith("soe[") for name in crashed[:23])
        sol = lp.solve(p)
        st = sol.stats
        assert sol.status == lp.OPTIMAL and sol.iterations <= 60
        assert (st.n, st.m) == (p.num_variables, p.num_constraints)
        assert st.phase1_pivots + st.phase2_pivots + st.bound_flips == sol.iterations
        assert (st.bland_from, st.refactorizations) == (None, 0)
        assert 0.0 <= st.max_violation <= 1e-6


def test_long_horizon_lp_matches_highs(example_scenario):
    # 16x refined (T=384): the artificial-column start ended in a singular basis here
    pytest.importorskip("scipy")
    s = refine(example_scenario, "ev1", 16)
    s = s.with_prices(generate_price_set("high", seed=1, step_count=384, step_hours=0.0625))
    (p,) = evba.build_evba(s, evba.cost_toggles_for("of5"))
    assert (p.num_variables, p.num_constraints) == (1920, 1120)
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(block_diagonal_scipy_optimum([p]), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 7])
def test_fifteen_minute_window_lp_takes_at_most_two_iterations(example_scenario, seed):
    # 13 and 17 iterations when every boxed column started at its lower bound
    sol = lp.solve(_fifteen_minute_lp(example_scenario, seed))
    assert sol.status == lp.OPTIMAL and sol.iterations <= 2
    assert sol.stats.start_flips > 0


def _ladder_rung(example_scenario, factor: int) -> lp.LpProblem:
    """The horizon ladder's LP: ev1 under of5 and high prices, every hour
    split into ``factor`` steps."""
    T = 24 * factor
    s = refine(example_scenario, "ev1", factor)
    s = s.with_prices(generate_price_set("high", seed=7, step_count=T, step_hours=1.0 / factor))
    (p,) = evba.build_evba(s, evba.cost_toggles_for("of5"))
    assert (p.num_variables, p.num_constraints) == (120 * factor, 70 * factor)
    return p


def test_horizon_ladder_takes_at_most_two_iterations_per_rung_and_matches_highs(example_scenario):
    # ev1 under of5 and high prices at 15, 7.5, 3.75 and 1.875 minutes a
    # step; the comparison with HiGHS needs scipy, the iteration bound not
    has_scipy = importlib.util.find_spec("scipy") is not None
    for factor in (4, 8, 16, 32):
        T = 24 * factor
        p = _ladder_rung(example_scenario, factor)
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL and sol.iterations <= 2, (T, sol.stats)
        if has_scipy:
            highs = block_diagonal_scipy_optimum([p], method="highs-ds")
            assert sol.objective == pytest.approx(highs, rel=1e-9, abs=1e-9), T


def test_a_solve_without_pivots_derives_the_reduced_costs_once(example_scenario, monkeypatch):
    # T=192: the start's bound moves leave the basis as it is and phase 1
    # makes no pivot, so the prices of the moves also start phase 2
    calls = []
    reduced_costs = lp._Simplex._reduced_costs
    monkeypatch.setattr(lp._Simplex, "_reduced_costs", lambda self: calls.append(1) or reduced_costs(self))
    sol = lp.solve(_ladder_rung(example_scenario, 8))
    assert sol.status == lp.OPTIMAL and sol.iterations == 0 and sol.stats.start_flips > 0
    assert len(calls) == 1


def test_the_longest_ladder_rung_solves_in_little_memory(example_scenario):
    # T=768, 2240 rows: an array of the rows by the columns that can enter
    # would take 80 MB, while the factor's etas take a few hundred kB
    p = _ladder_rung(example_scenario, 32)
    tracemalloc.start()
    try:
        sol = lp.solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == lp.OPTIMAL and sol.iterations <= 2
    assert peak < 8e6, peak


def test_singular_basis_raises_naming_the_problem():
    # twin structural columns, a structural twice and a slack twice
    p = RowBuilder("twin-columns")
    x = p.var(0.0, 1.0)
    y = p.var(0.0, 1.0)
    p.row([(x, 1.0), (y, 1.0)], "<=", 1.0)
    p.row([(x, 2.0), (y, 2.0)], "<=", 3.0)
    for basis in ([x, y], [x, x], [2, 2]):
        sim = lp._Simplex(p.problem())
        sim._setup()
        sim.basis[:] = basis
        with pytest.raises(ArithmeticError, match="^singular basis in 'twin-columns': "):
            sim._refactorize()


def test_pivots_match_dense_reference_under_blands_rule(example_with_high, monkeypatch):
    # Bland's entering rule from the first pivot, in both kernels
    for cls in (lp._Simplex, DenseSimplex):
        price = cls._price
        monkeypatch.setattr(cls, "_price", lambda self, d, bland, price=price: price(self, d, True))
    problems = _example_lps(example_with_high)
    problems += [build_problem(*random_bounded_lp(np.random.default_rng(seed))) for seed in range(50)]
    for p in problems:
        _assert_agrees_with_dense_reference(p)


def test_blands_rule_breaks_a_real_cycle_on_kuhns_example():
    # Kuhn's cycling example, columns 1 and 2 swapped: Dantzig pricing with
    # the largest-|w| leaving row cycles through degenerate pivots at the
    # origin, so Bland's rule takes over at the stall limit; from then on,
    # rows tied in the ratio test leave in order of their basic column
    c = np.array([-3.0, -2.0, 1.0, 12.0])
    A = np.array([[-9.0, -2.0, 1.0, 9.0], [1.0, 1.0 / 3.0, -1.0 / 3.0, -2.0], [3.0, 2.0, -1.0, -12.0]])
    data = (c, np.zeros(4), np.full(4, lp.INF), A, ["<="] * 3, np.array([0.0, 0.0, 2.0]))
    sol = _assert_agrees_with_dense_reference(build_problem(*data))
    assert sol.status == lp.OPTIMAL
    assert sol.stats.bland_from == 50 + 2 * (3 + 4) + 1  # the first pivot past the stall limit
    assert sol.objective == pytest.approx(vertex_enumeration_optimum(*data), abs=1e-9)


def test_pivots_match_dense_reference_through_a_refactorization(example_with_high, monkeypatch):
    # the first verification fails, so each solve rebuilds its tableau once,
    # on the day LPs and on random LPs, whose final bases mostly hold a
    # slack outside its own row's position
    violation = lp._Simplex._violation
    rebuilds, permuted = [], []

    def fail_once(self, x):
        if not hasattr(self, "failed_once"):
            self.failed_once = True
            rebuilds.append(type(self))
            slack = self.basis >= self.n_struct
            permuted.append(bool((self.basis[slack] - self.n_struct != np.flatnonzero(slack)).any()))
            return lp.INF
        return violation(self, x)

    monkeypatch.setattr(lp._Simplex, "_violation", fail_once)
    problems = _example_lps(example_with_high)
    problems += [build_problem(*make(np.random.default_rng(seed)))
                 for make in (random_bounded_lp, random_banded_lp) for seed in range(50)]
    for p in problems:
        sol = _assert_agrees_with_dense_reference(p)
        assert sol.status == lp.OPTIMAL and sol.stats.refactorizations == 1
    assert rebuilds == [lp._Simplex, DenseSimplex] * len(problems)
    assert sum(permuted) > 50


def test_a_refactorization_on_the_chain_path_builds_no_dense_copy_of_all_columns(example_scenario,
                                                                                 monkeypatch):
    # the 15-minute window fails its first verification, so its chain is
    # rebuilt as a dense inverse of the basis; that holds B^-1 and the
    # columns that can enter, and never an (n + m) x m array of all columns
    p = _fifteen_minute_lp(example_scenario, 7)
    n, m = p.num_variables, p.num_constraints
    violation, refactorize = lp._Simplex._violation, lp._Simplex._refactorize
    transient = []

    def fail_once(self, x):
        if not self.refactorizations:
            return lp.INF
        return violation(self, x)

    def measured(self):
        tracemalloc.start()
        try:
            refactorize(self)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transient.append(peak - self.factor.inverse.nbytes - self.factor.columns.nbytes)

    monkeypatch.setattr(lp._Simplex, "_violation", fail_once)
    monkeypatch.setattr(lp._Simplex, "_refactorize", measured)
    sim = lp._Simplex(p)
    sim._setup()
    assert type(sim.factor) is lp._ChainFactor
    sol = _assert_agrees_with_dense_reference(p)
    assert sol.status == lp.OPTIMAL and sol.stats.refactorizations == 1
    sim = lp._Simplex(p)
    sim.run()
    assert type(sim.factor) is lp._DenseFactor and _arrays_2d(sim) == {"inverse": (m, m), "columns": (len(sim.cols), m)}
    # set aside what it keeps, a refactorization allocates well under one
    # array of all n + m columns (1.7 MB here)
    assert len(transient) == 2 and max(transient) < 8 * (n + m) * m / 2, transient


# -- the two factor paths: a dense inverse, or the crash's chain as prefix sums


_STAGES = {
    "set-up": lambda sim: sim._setup(),
    "start": lambda sim: (sim._setup(), sim._place_bounds()),
    "solve": lambda sim: sim.run(),
}


def test_prefix_sums_equal_the_eta_loop_bit_for_bit_on_the_ladder(example_scenario):
    # the bench's long-horizon LP and every rung from T=96 to T=768, after
    # set-up, after the start's moves and after a solve; a stride of the
    # columns keeps the Python eta loop's share of the test short
    problems = [_fifteen_minute_lp(example_scenario, 7)] + [_ladder_rung(example_scenario, f) for f in (4, 8, 16, 32)]
    for p in problems:
        for stage, run in _STAGES.items():
            chain, loop = lp._Simplex(p), EtaLoopSimplex.solver(p)
            run(chain)
            run(loop)
            assert type(chain.factor) is lp._ChainFactor, (p.name, stage)
            assert np.array_equal(chain.basis, loop.basis) and chain.xB.tobytes() == loop.xB.tobytes()
            assert chain.start_flips == loop.start_flips
            for k in range(0, len(chain.cols), max(1, len(chain.cols) // 300)):
                assert (chain.factor.ftran(chain.factor.column(k)).tobytes()
                        == loop.factor.ftran(loop.factor.column(k)).tobytes())
            # each pick's sink terms precede its link in the column, so
            # BTRAN's slot-wise sums keep the loop's order too
            for y in (chain.cost[chain.basis], np.random.default_rng(0).uniform(-1.0, 1.0, chain.m)):
                assert chain.factor.btran(y).tobytes() == loop.factor.btran(y).tobytes()


def test_the_chain_path_matches_linear_algebra_through_a_solve(example_scenario):
    # T=768 is left out: its dense [A | I] alone would take 109 MB
    for p in [_fifteen_minute_lp(example_scenario, 7), _ladder_rung(example_scenario, 8),
              _ladder_rung(example_scenario, 16)]:
        sim = lp._Simplex(p)
        sim._setup()
        assert type(sim.factor) is lp._ChainFactor
        assert _assert_factor_holds_through_a_solve(p).status == lp.OPTIMAL


def test_the_dense_path_matches_linear_algebra_through_a_solve(example_with_high):
    # the example's whole-day LPs under every objective, and a session
    problems = [p for ct in evba.OBJECTIVE_VARIANTS.values() for p in evba.build_evba(example_with_high, ct)]
    for p in problems + [_session(example_with_high)]:
        sim = lp._Simplex(p)
        sim._setup()
        assert type(sim.factor) is lp._DenseFactor
        assert _assert_factor_holds_through_a_solve(p).status == lp.OPTIMAL


def test_solves_on_the_chain_path_equal_the_eta_loops_bit_for_bit(example_with_high, example_scenario,
                                                                   monkeypatch):
    # the whole-day windows of every objective and power mode (24 steps, 23
    # links), put on the chain path with the crossover at 0, and the
    # 15-minute day: the same pivots, point and objective
    monkeypatch.setattr(lp, "_DENSE_ROWS", 0)
    problems = [p for ct in evba.OBJECTIVE_VARIANTS.values() for power in evba.PowerMode
                for p in evba.build_evba(example_with_high, ct, power)]
    problems += [_fifteen_minute_lp(example_scenario, seed) for seed in (1, 7)]
    for p in problems:
        chain = lp._Simplex(p)
        got, ref = chain.run(), EtaLoopSimplex.solver(p).run()
        assert type(chain.factor) is lp._ChainFactor, p.name
        assert (got.status, got.iterations, got.stats) == (ref.status, ref.iterations, ref.stats)
        assert repr(got.objective) == repr(ref.objective) and got.x.tobytes() == ref.x.tobytes()


def _window(example_scenario, steps: int) -> lp.LpProblem:
    """ev1's window over its first ``steps`` 15-minute steps, of5, high prices."""
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=7, step_count=96, step_hours=0.25))
    v = s.vehicles[0]
    vl = evba._build_vehicle_lp(s, 0, evba.cost_toggles_for("of5"), evba.PowerMode.BOTH)
    return evba._slice_window(vl, 0, steps - 1, v.soe_initial_kwh, v.soe_min_kwh)


def _session(example_with_high) -> lp.LpProblem:
    """ev1's station session over steps 8..14 of the example (7 steps, 6 links)."""
    v = example_with_high.vehicles[0]
    vl = evba._build_vehicle_lp(example_with_high, 0, evba.cost_toggles_for("of5"), evba.PowerMode.BOTH)
    return evba._slice_window(vl, 8, 14, v.soe_initial_kwh, v.soe_min_kwh)


def test_small_lps_take_the_dense_inverse_and_long_windows_the_chain(example_with_high, example_scenario):
    small = _example_lps(example_with_high) + [_session(example_with_high)]
    assert max(p.num_constraints for p in small) == 70
    long = [_fifteen_minute_lp(example_scenario, 7)] + [_ladder_rung(example_scenario, f) for f in (4, 8, 16, 32)]
    # the crossover: 32 steps take 92 rows and 34 take 98
    at_crossover = [_window(example_scenario, steps) for steps in (32, 34)]
    assert [p.num_constraints for p in at_crossover] == [92, 98] and 92 <= lp._DENSE_ROWS < 98
    for p, chain in [(p, False) for p in small + at_crossover[:1]] + [(p, True) for p in long + at_crossover[1:]]:
        sim = lp._Simplex(p)
        sim._setup()
        assert type(sim.factor) is (lp._ChainFactor if chain else lp._DenseFactor), p.name
        # one pick per balance row: a link per pick but the last
        assert sim.crash_columns == (p._senses == "=").sum()
        if chain:
            assert sim.factor.chain[0].size == sim.crash_columns


def _all_equality_lp(rng: np.random.Generator):
    """``random_bounded_lp`` with every row an equality met by an interior
    point: with more rows than columns some row is left without a pick."""
    c, lb, ub, A, _, _ = random_bounded_lp(rng)
    return c, lb, ub, A, ["="] * len(A), A @ rng.uniform(lb, ub)


def test_the_array_crash_takes_the_row_loops_picks(example_with_high, example_scenario):
    problems = list(_random_lps_with_tied_ranges())
    for make in (random_banded_lp, random_free_bound_lp, _all_equality_lp):
        problems += [build_problem(*make(np.random.default_rng(seed))) for seed in range(200)]
    problems += [p for ct in evba.OBJECTIVE_VARIANTS.values() for power in evba.PowerMode
                 for p in evba.build_evba(example_with_high, ct, power)]
    problems += [_fifteen_minute_lp(example_scenario, 7), _ladder_rung(example_scenario, 8)]
    left = 0  # equality rows with a candidate but no pick
    for p in problems:
        sim = lp._Simplex(p)
        n = sim.n_struct
        row, col, cand = lp._crash_entries(sim.row_of, p._indices, p._data, sim.pos[n:] < 0, sim.ub[:n] - sim.lb[:n])
        rows, picks = lp._crash_picks(row, col, cand, sim.m, n)
        basis, taken = crash_by_rows(sim)
        assert rows.tolist() == taken and picks.tolist() == [basis[i] for i in taken], p.name
        left += len(set(row[cand].tolist()) - set(taken))
    assert left > 20


def test_the_array_set_up_agrees_with_the_dense_reference_on_random_lps(monkeypatch):
    # with the crossover at 0 every LP whose crash is a unit chain takes the
    # chain path, and every other one the dense inverse of its crash basis
    monkeypatch.setattr(lp, "_DENSE_ROWS", 0)
    kinds = set()
    for make in (random_bounded_lp, random_banded_lp, random_free_bound_lp, _all_equality_lp):
        for seed in range(100):
            p = build_problem(*make(np.random.default_rng(seed)))
            got, ref = lp.solve(p), DenseSimplex(p).run()
            assert got.status == ref.status and got.stats.crash_columns == ref.stats.crash_columns
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                _assert_factor_holds_through_a_solve(p)
            sim = lp._Simplex(p)
            sim._setup()
            kinds.add("chain" if type(sim.factor) is lp._ChainFactor else "dense")
    assert kinds == {"chain", "dense"}


def test_solve_stats_time_each_stage_outside_comparisons(example_scenario):
    p = _fifteen_minute_lp(example_scenario, 7)
    start = perf_counter()
    sol = lp.solve(p)
    wall = perf_counter() - start
    st = sol.stats
    stages = (st.setup_s, st.start_s, st.phase1_s, st.phase2_s)
    assert all(t >= 0.0 for t in stages) and st.setup_s > 0.0 and sum(stages) <= wall
    timed_otherwise = dataclasses.replace(st, setup_s=1.0, start_s=2.0, phase1_s=3.0, phase2_s=4.0)
    assert timed_otherwise == st and repr(timed_otherwise) == repr(st)


# -- derived problems: another objective and right-hand side on one crash


def _built_anew(p: lp.LpProblem, cost, rhs) -> lp.LpProblem:
    """``p`` given to the constructor again, with the objective ``cost`` and
    right-hand side ``rhs``."""
    return lp.LpProblem(p.name, p._lb.copy(), p._ub.copy(), cost, list(p._var_names), p._indptr.copy(),
                        p._indices.copy(), p._data.copy(), p._senses.tolist(), rhs, list(p._row_names))


def _same_solve(got: lp.LpSolution, want: lp.LpSolution) -> bool:
    """Bit for bit the same status, objective, point, iterations and stats."""
    return ((got.status, repr(got.objective), got.iterations, got.stats)
            == (want.status, repr(want.objective), want.iterations, want.stats)
            and (None if got.x is None else got.x.tobytes()) == (None if want.x is None else want.x.tobytes()))


def _factor_path(p: lp.LpProblem) -> str:
    sim = lp._Simplex(p)
    sim._setup()
    return "chain" if type(sim.factor) is lp._ChainFactor else "dense"


@pytest.mark.parametrize("dense_rows", [lp._DENSE_ROWS, 0])
def test_a_derived_random_lp_solves_bit_for_bit_like_one_built_anew(monkeypatch, dense_rows):
    # with the crossover at 0 every LP whose crash is a unit chain takes the
    # chain path; the parent is solved first, so each derived problem
    # solves on the crash and factor that the parent's solve built
    monkeypatch.setattr(lp, "_DENSE_ROWS", dense_rows)
    statuses, paths = set(), set()
    for make in (random_bounded_lp, random_banded_lp, random_free_bound_lp):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            p = build_problem(*make(rng))
            lp.solve(p)
            for _ in range(2):
                cost = rng.uniform(-2.0, 2.0, p.num_variables)
                rhs = p._rhs + rng.uniform(-1.0, 1.0, p.num_constraints)
                got, want = lp.solve(p.derive(cost, rhs)), lp.solve(_built_anew(p, cost, rhs))
                assert _same_solve(got, want), (make.__name__, seed)
                statuses.add(got.status)
            paths.add(_factor_path(p))
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
    assert paths == ({"chain", "dense"} if dense_rows == 0 else {"dense"})


def test_derived_window_lps_solve_bit_for_bit_like_ones_built_anew_on_both_factor_paths(example_scenario):
    # a window's rows and bounds do not depend on the prices or the arrival
    # stock: the 15-minute window (chain path) under other prices, and a
    # session (dense path) under other prices and arrival stocks
    s = example_scenario.with_prices(generate_price_set("high", seed=1))
    v = s.vehicles[0]
    pairs = [(_fifteen_minute_lp(example_scenario, 1), _fifteen_minute_lp(example_scenario, seed)) for seed in (7, 11)]
    for level, arrival in (("low", 6.0), ("medium", v.soe_initial_kwh), ("high", 18.0)):
        sp = example_scenario.with_prices(generate_price_set(level, seed=3))
        session = evba._slice_window(evba._build_vehicle_lp(s, 0, evba.cost_toggles_for("of5"), evba.PowerMode.BOTH),
                                     8, 14, v.soe_initial_kwh, v.soe_min_kwh)
        other = evba._slice_window(evba._build_vehicle_lp(sp, 0, evba.cost_toggles_for("of5"), evba.PowerMode.BOTH),
                                   8, 14, arrival, v.soe_min_kwh)
        pairs.append((session, other))
    assert {_factor_path(p) for p, _ in pairs} == {"chain", "dense"}
    for parent, other in pairs:
        assert parent._rhs.tobytes() != other._rhs.tobytes() or parent._cost.tobytes() != other._cost.tobytes()
        lp.solve(parent)
        got, want = lp.solve(parent.derive(other._cost, other._rhs)), lp.solve(other)
        assert got.status == lp.OPTIMAL and _same_solve(got, want), parent.name


def test_a_derived_problem_builds_no_second_crash(example_scenario, example_with_high, monkeypatch):
    picks = []
    crash_picks = lp._crash_picks

    def counted(*args):
        picks.append(1)
        return crash_picks(*args)

    monkeypatch.setattr(lp, "_crash_picks", counted)
    for p in (_session(example_with_high), _fifteen_minute_lp(example_scenario, 7)):
        picks.clear()
        derived = p.derive(2.0 * p._cost)
        assert derived._rhs is p._rhs and derived._start is p._start
        # the first solve of any of them builds the crash, whichever it is
        sols = [lp.solve(q) for q in (derived, p, derived.derive(p._cost), derived)]
        assert len(picks) == 1, p.name
        assert _same_solve(sols[1], sols[2]) and _same_solve(sols[0], sols[3])


@pytest.mark.parametrize("change, fault", [
    (lambda c, b: (c[:2], b), "variables: lb, ub, cost and var_names differ in length (3, 3, 2, 3)"),
    (lambda c, b: (c, [*b, 0.0]), "rows: rhs, senses and row_names differ in length (3, 2, 2)"),
    (lambda c, b: (c[:2], [np.nan, 0.0]), "variables: lb, ub, cost and var_names differ in length (3, 3, 2, 3)"),
    (lambda c, b: ([c[0], np.nan, np.inf], b), "variable x1: unusable bounds or cost"),
    (lambda c, b: (c, [b[0], -np.inf]), "constraint 'r1': non-finite right-hand side -inf"),
    (lambda c, b: ([c[0], c[1], np.inf], [np.nan, b[1]]), "variable x2: unusable bounds or cost"),
])
def test_a_derived_problem_checks_its_new_arrays_as_the_constructor_does(change, fault):
    def build(cost, rhs):
        return lp.LpProblem("p", [0.0, -1.0, 0.0], [1.0, 2.0, 3.0], cost, ["x0", "x1", "x2"], [0, 2, 3], [0, 1, 2],
                            [1.0, -2.0, 3.0], ["<=", "="], rhs, ["r0", "r1"])

    p = build([0.5, 0.0, -1.0], [4.0, 1.0])
    cost, rhs = change([0.5, 0.0, -1.0], [4.0, 1.0])
    with pytest.raises(lp.LpError) as anew:
        build(cost, rhs)
    with pytest.raises(lp.LpError) as derived:
        p.derive(cost, rhs)
    assert str(derived.value) == str(anew.value) == fault
