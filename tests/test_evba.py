"""Fleet-model tests: assembly counts, the arbitrage oracle, orderings, audits."""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from evdispatch import evca, lp
from evdispatch.analysis import check_schedule, generate_price_set
from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    TripPlan,
    Vehicle,
    example_scenario_path,
    parse_scenario,
)
from evdispatch.evba import (
    OBJECTIVE_VARIANTS,
    AssemblyError,
    PowerMode,
    _build_vehicle_lp,
    _cost_breakdown,
    _FloorUnreachable,
    _infeasibility_hint,
    build_evba,
    cost_toggles_for,
    _slice_window,
    extract_schedule,
    solve_evba,
)
from oracles import block_diagonal_scipy_optimum, cost_breakdown_by_steps, micro_case_grid_optimum, window_lp_by_rows
from scen import micro_scenario, random_scenario, refine

OF1 = cost_toggles_for("of1")
OF5 = cost_toggles_for("of5")


def _one_ev_24() -> Scenario:
    v = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("home", "slow", 4.0, 0.01, 0.02, 0.0)
    mask = np.zeros((1, 24, 1), dtype=bool)
    mask[0, :12, 0] = True
    mask[0, 14:, 0] = True
    trips = np.zeros((1, 24))
    trips[0, 12] = 1.8
    s = Scenario(Horizon(24), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    return s.with_prices(generate_price_set("medium", seed=2))


def _var_ids(problem: lp.LpProblem, prefix: str) -> set[int]:
    return {i for i in range(problem.num_variables) if problem._var_names[i].startswith(prefix)}


def test_variable_and_degradation_row_counts():
    s = _one_ev_24()
    problems = build_evba(s, cost_toggles_for("of2"))
    assert len(problems) == 1
    assert sum(p.num_variables for p in problems) == 5 * 24
    assert sum(1 for p in problems for n in p._row_names if n.startswith("deg")) == 24  # one wear row per step
    assert sum(len(_var_ids(p, "udeg[")) for p in problems) == 24


def test_disconnected_steps_force_zero_flow():
    s = _one_ev_24()
    fs = solve_evba(s, OF1)
    assert fs.status == "optimal"
    assert fs.e_sch[0, 12] == 0.0 and fs.e_dch[0, 12] == 0.0 and fs.e_fch[0, 12] == 0.0
    assert fs.e_sch[0, 13] == 0.0  # still unplugged


def test_taper_rows_only_reference_slow_charging(example_with_high):
    for problem in build_evba(example_with_high, OF5):
        sch_ids = _var_ids(problem, "sch[")
        fch_ids = _var_ids(problem, "fch[")
        for i, name in enumerate(problem._row_names):
            if not name.startswith("cv["):
                continue
            row_vars = set(problem._rows[i])
            assert row_vars & sch_ids
            assert not (row_vars & fch_ids)


def test_micro_case_exact_value_and_flows():
    fs = solve_evba(micro_scenario(), OF1)
    assert fs.status == "optimal"
    assert fs.total_cost_eur == pytest.approx(-1.5046, abs=1e-3)
    assert fs.e_dch[0, 1] == pytest.approx(4.0, abs=1e-6)
    assert fs.e_sch.sum() == pytest.approx(4.9536, abs=1e-3)


def test_micro_case_matches_grid_oracle():
    fs = solve_evba(micro_scenario(), OF1)
    oracle = micro_case_grid_optimum(1e-3)
    assert fs.total_cost_eur == pytest.approx(oracle, abs=1e-3)


def test_flat_prices_mean_zero_flows():
    s = micro_scenario().with_prices(PriceSeries("flat", np.full(3, 0.2)))
    fs = solve_evba(s, OF1)
    assert fs.total_cost_eur == pytest.approx(0.0, abs=1e-9)
    assert fs.e_sch.sum() == pytest.approx(0.0, abs=1e-9)
    assert fs.e_dch.sum() == pytest.approx(0.0, abs=1e-9)


def test_impossible_trip_reports_infeasible_with_hint():
    v = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("home", "slow", 4.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 6, 1), dtype=bool)
    mask[0, :2, 0] = True
    trips = np.zeros((1, 6))
    trips[0, 3] = 30.0  # far beyond what two plug-in steps can provide
    s = Scenario(Horizon(6), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    s = s.with_prices(PriceSeries("flat", np.full(6, 0.1)))
    fs = solve_evba(s, OF1)
    assert fs.status == lp.INFEASIBLE
    assert "ev1" in fs.message and "step 3" in fs.message


def _second_vehicle_infeasible(stranded: Vehicle, plugged: slice, trip: tuple[int, float]) -> Scenario:
    """ev1 is feasible on its own; ``stranded`` is plugged in at ``plugged``
    and drives ``trip`` = (step, kWh)."""
    ok = Vehicle("ev1", 20.0, 10.0, 3000.0)
    cp = ChargingPoint("home", "slow", 10.0, 0.0, 0.0, 0.0)
    mask = np.zeros((2, 6, 1), dtype=bool)
    mask[0, :2, 0] = True
    mask[1, plugged, 0] = True
    trips = np.zeros((2, 6))
    trips[0, 3] = 1.0
    trips[1, trip[0]] = trip[1]
    s = Scenario(Horizon(6), (ok, stranded), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    return s.with_prices(PriceSeries("flat", np.full(6, 0.1)))


def test_infeasibility_hint_names_the_vehicle_whose_trip_cannot_be_covered():
    s = _second_vehicle_infeasible(Vehicle("ev2", 20.0, 10.0, 3000.0), slice(0, 2), (4, 30.0))
    fs = solve_evba(s, OF1)
    assert fs.status == lp.INFEASIBLE
    assert "'ev2'" in fs.message and "step 4" in fs.message
    assert "'ev1'" not in fs.message


def test_infeasibility_hint_names_the_vehicle_held_back_by_the_taper():
    # one plug-in step cannot restore the end-of-day stock under the taper,
    # although it could without it
    tapered = Vehicle("ev2", 20.0, 10.0, 3000.0, soe_cv_frac=0.5, soe_initial_frac=0.9)
    fs = solve_evba(_second_vehicle_infeasible(tapered, slice(1, 2), (0, 4.0)), OF1)
    assert fs.status == lp.INFEASIBLE
    assert "'ev2'" in fs.message and "taper" in fs.message
    assert "'ev1'" not in fs.message


def test_window_infeasible_by_less_than_the_wear_row_rhs_times_the_tolerance_is_infeasible():
    # infeasible by about 1e-5 kWh, far below the wear row's 257 EUR rhs
    # times 1e-6, which phase 1 once took as its threshold
    data = json.loads(example_scenario_path().read_text())
    data["trips"][0]["energy_kwh"] = 14.3975  # ev1's step-7 trip; 14.3974 kWh is feasible
    s = parse_scenario(data).with_prices(generate_price_set("high", seed=1))
    fs = solve_evba(s)
    assert fs.status == lp.INFEASIBLE
    assert fs.message == _infeasibility_hint(s, 0, PowerMode.BOTH)
    assert fs.message.startswith("vehicle 'ev1': ")


def test_micro_breakdown_energy_only():
    fs = solve_evba(micro_scenario(), OF1)
    b = fs.per_vehicle[0]
    assert b.energy_eur == pytest.approx(-1.5046, abs=1e-3)
    assert b.grid_fee_eur == 0.0 and b.cp_fee_eur == 0.0 and b.degradation_eur == 0.0
    assert b.v2g_revenue_eur == pytest.approx(2.0, abs=1e-3)


def test_zero_prices_zero_cost():
    s = micro_scenario().with_prices(PriceSeries("zero", np.zeros(3)))
    fs = solve_evba(s, OF1)
    assert fs.total_cost_eur == pytest.approx(0.0, abs=1e-9)


def test_of5_breakdown_populated_and_signs(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    assert fs.status == "optimal"
    for b in fs.per_vehicle:
        assert b.grid_fee_eur >= -1e-12
        assert b.cp_fee_eur >= -1e-12
        assert b.degradation_eur >= -1e-12
        assert b.v2g_revenue_eur >= -1e-12
    total = sum(b.total_eur for b in fs.per_vehicle)
    assert total == pytest.approx(fs.total_cost_eur, abs=1e-9)


def test_breakdown_sums_to_total(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    for b in fs.per_vehicle:
        assert b.energy_eur + b.grid_fee_eur + b.cp_fee_eur + b.degradation_eur == pytest.approx(
            b.total_eur, abs=1e-9
        )


def test_energy_conservation(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    s = example_with_high
    for i, v in enumerate(s.vehicles):
        delta = fs.soe[i, -1] - v.soe_initial_kwh
        flows = (
            v.eta_sch * fs.e_sch[i].sum()
            + v.eta_fch * fs.e_fch[i].sum()
            - fs.e_dch[i].sum() / v.eta_dch
            - s.trips.energy_kwh[i].sum() / v.eta_run
        )
        assert delta == pytest.approx(flows, abs=1e-6)


def test_soe_within_bounds_and_terminal_floor(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    for i, v in enumerate(example_with_high.vehicles):
        assert np.all(fs.soe[i] >= v.soe_min_kwh - 1e-6)
        assert np.all(fs.soe[i] <= v.soe_max_kwh + 1e-6)
        assert fs.soe[i, -1] >= v.soe_initial_kwh - 1e-6


def test_cv_taper_honored_at_optimum(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    for i, v in enumerate(example_with_high.vehicles):
        cap = v.capacity_kwh
        for t in range(24):
            if fs.soe[i, t] > v.soe_cv_frac * cap:
                limit = v.obc_max_kwh_per_step * (cap - fs.soe[i, t]) / (cap * (1 - v.soe_cv_frac))
                assert fs.e_sch[i, t] <= limit + 1e-6


def test_power_mode_orderings(example_with_high):
    costs = {
        mode: solve_evba(example_with_high, OF1, mode).total_cost_eur
        for mode in PowerMode
    }
    assert costs[PowerMode.OBC_ONLY] <= costs[PowerMode.BOTH] + 1e-6
    assert costs[PowerMode.CP_ONLY] <= costs[PowerMode.BOTH] + 1e-6
    assert costs[PowerMode.BOTH] <= costs[PowerMode.FIXED_4KW] + 1e-6


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_power_mode_orderings_random(seed):
    s = random_scenario(seed).with_prices(generate_price_set("high", seed=seed))
    costs = {mode: solve_evba(s, OF1, mode).total_cost_eur for mode in PowerMode}
    assert costs[PowerMode.OBC_ONLY] <= costs[PowerMode.BOTH] + 1e-6
    assert costs[PowerMode.CP_ONLY] <= costs[PowerMode.BOTH] + 1e-6
    h = s.horizon.step_hours
    limits = s.plugs.limit[s.plugs.kind != ""]
    if all(4.0 * h <= x for x in limits) and all(
        4.0 * h <= v.obc_max_kwh_per_step for v in s.vehicles
    ):
        assert costs[PowerMode.BOTH] <= costs[PowerMode.FIXED_4KW] + 1e-6


def test_toggle_monotonicity(example_with_high):
    obj = {
        label: solve_evba(example_with_high, cost_toggles_for(label)).total_cost_eur
        for label in ("of1", "of2", "of3", "of4", "of5")
    }
    assert obj["of1"] <= obj["of2"] + 1e-6 <= obj["of5"] + 2e-6
    assert obj["of1"] <= obj["of3"] + 1e-6
    assert obj["of1"] <= obj["of4"] + 1e-6 <= obj["of5"] + 2e-6


def test_optimal_both_mode_schedule_passes_audit(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    assert check_schedule(example_with_high, fs).ok


def test_extract_requires_optimal_solution(example_with_high):
    problems = build_evba(example_with_high, OF5)
    bad = lp.LpSolution(lp.INFEASIBLE, None, None, 0)
    with pytest.raises(ValueError):
        extract_schedule([bad] * len(problems), example_with_high, OF5)


def test_unbounded_window_lp_names_the_vehicle_and_status(example_with_high, monkeypatch):
    monkeypatch.setattr(lp, "solve", lambda p, **kw: lp.LpSolution(lp.UNBOUNDED, None, None, 0))
    fs = solve_evba(example_with_high, OF5)
    assert fs.status == lp.UNBOUNDED
    assert fs.message.startswith("vehicle 'ev1': LP ended unbounded")
    assert "numerically extreme" in fs.message


def test_extract_rejects_nan_objective(example_with_high):
    sols = [lp.solve(p) for p in build_evba(example_with_high, OF5)]
    sols[1] = dataclasses.replace(sols[1], objective=float("nan"))
    with pytest.raises(AssemblyError, match="ev2"):
        extract_schedule(sols, example_with_high, OF5)


def _replicated(s: Scenario, copies: int) -> Scenario:
    """The bundled example fleet repeated ``copies`` times, vehicle ids
    suffixed ``_rNN``, with the prices of ``s``."""
    data = json.loads(example_scenario_path().read_text())
    out = {**data, "vehicles": [], "connectivity": [], "trips": []}
    for r in range(copies):
        suffix = f"_r{r:02d}"
        out["vehicles"] += [{**v, "id": v["id"] + suffix} for v in data["vehicles"]]
        for key in ("connectivity", "trips"):
            out[key] += [{**item, "vehicle": item["vehicle"] + suffix} for item in data[key]]
    return parse_scenario(out).with_prices(s.prices)


def test_decomposition_is_exact_for_a_replicated_fleet(example_with_high):
    base = solve_evba(example_with_high, OF5)
    s4 = _replicated(example_with_high, 4)
    fs = solve_evba(s4, OF5)
    assert fs.status == "optimal"
    assert fs.total_cost_eur == pytest.approx(4 * base.total_cost_eur, rel=1e-9)
    V = len(example_with_high.vehicles)
    for r in range(4):
        rows = slice(r * V, (r + 1) * V)
        for field in ("e_sch", "e_dch", "e_fch", "soe", "c_deg"):
            assert np.array_equal(getattr(fs, field)[rows], getattr(base, field))
    assert check_schedule(s4, fs).ok


def _assert_total_matches_scipy(s: Scenario, label: str, power: PowerMode = PowerMode.BOTH):
    pytest.importorskip("scipy")
    ct = cost_toggles_for(label)
    fs = solve_evba(s, ct, power)
    joint = block_diagonal_scipy_optimum(build_evba(s, ct, power))
    assert fs.total_cost_eur == pytest.approx(joint, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("label", ["of1", "of2", "of3", "of4", "of5"])
def test_fleet_total_matches_scipy_on_the_joint_lp(example_with_high, label):
    _assert_total_matches_scipy(example_with_high, label)


@pytest.mark.parametrize("power", list(PowerMode), ids=lambda m: m.value)
@pytest.mark.parametrize("label", ["of1", "of5"])
@pytest.mark.parametrize(
    "seed", [None, *range(10)], ids=["example", *(f"seed{seed}" for seed in range(10))]
)
def test_fleet_total_matches_scipy_across_scenarios_and_power_modes(
    example_with_high, seed, label, power
):
    if seed is None:
        s = example_with_high
    else:
        s = random_scenario(seed).with_prices(generate_price_set("high", seed=seed))
    _assert_total_matches_scipy(s, label, power)


def test_fleet_total_matches_scipy_on_the_replicated_example(example_with_high):
    _assert_total_matches_scipy(_replicated(example_with_high, 4), "of5")


def test_fleet_total_matches_scipy_on_a_15_minute_vehicle(example_scenario):
    s = refine(example_scenario, "ev1", 4)
    s = s.with_prices(generate_price_set("high", seed=1, step_count=96, step_hours=0.25))
    _assert_total_matches_scipy(s, "of5")


def test_fast_charger_used_when_it_is_the_only_plug():
    v = Vehicle("ev1", 30.0, 10.0, 4500.0)
    fast = ChargingPoint("dc", "fast", 50.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 6, 1), dtype=bool)
    mask[0, 0:2, 0] = True
    trips = np.zeros((1, 6))
    trips[0, 3] = 4.5
    s = Scenario(Horizon(6), (v,), (fast,), ConnectivityMatrix(mask), TripPlan(trips))
    s = s.with_prices(PriceSeries("flat", np.full(6, 0.1)))
    fs = solve_evba(s, OF1)
    assert fs.status == "optimal"
    assert fs.e_fch.sum() > 0.0
    assert fs.e_sch.sum() == pytest.approx(0.0, abs=1e-9)  # no slow plug anywhere
    assert check_schedule(s, fs).ok


def test_half_hour_steps_scale_caps_and_solve():
    v = Vehicle("ev1", 20.0, 5.0, 3000.0)  # OBC already in kWh per half-hour step
    cp = ChargingPoint("home", "slow", 2.0, 0.0, 0.0, 0.0)  # 4 kW * 0.5 h
    mask = np.ones((1, 6, 1), dtype=bool)
    s = Scenario(Horizon(6, 0.5), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(np.zeros((1, 6))))
    s = s.with_prices(PriceSeries("spiky", np.array([0.1, 0.1, 0.5, 0.5, 0.1, 0.1])))
    fs = solve_evba(s, OF1)
    assert fs.status == "optimal"
    assert fs.e_dch.max() <= 2.0 + 1e-9
    assert check_schedule(s, fs).ok
    # fixed mode caps at 4 kW * 0.5 h = 2 kWh per step as well
    fixed = solve_evba(s, OF1, PowerMode.FIXED_4KW)
    assert fixed.e_sch.max() <= 2.0 + 1e-9


def test_empty_fleet_is_trivially_optimal():
    s = Scenario(
        Horizon(24),
        (),
        (),
        ConnectivityMatrix(np.zeros((0, 24, 0), dtype=bool)),
        TripPlan(np.zeros((0, 24))),
    ).with_prices(generate_price_set("low", seed=1))
    fs = solve_evba(s, OF5)
    assert fs.status == "optimal"
    assert fs.total_cost_eur == 0.0


def _same_problem(got: lp.LpProblem, ref: lp.LpProblem) -> bool:
    """Bitwise the same variables, bounds, costs, names, rows, senses and rhs."""
    arrays = ("_lb", "_ub", "_cost", "_indptr", "_indices", "_data", "_rhs")
    return (
        got.name == ref.name
        and all(getattr(got, a).tobytes() == getattr(ref, a).tobytes() for a in arrays)
        and got._senses.tolist() == ref._senses.tolist()
        and got._var_names == ref._var_names
        and got._row_names == ref._row_names
    )


def _build_both(s, v_idx, steps, init_soe, floor, ct, power, **kwargs):
    """The window LP sliced from the vehicle's array build and from the
    row-by-row reference, or the exception type each raised."""
    builds = (
        lambda: _slice_window(_build_vehicle_lp(s, v_idx, ct, power), int(steps[0]), int(steps[-1]),
                              init_soe, floor, **kwargs),
        lambda: window_lp_by_rows(s, v_idx, steps, init_soe, floor, ct, power, **kwargs),
    )
    out = []
    for build in builds:
        try:
            out.append(build())
        except _FloorUnreachable as exc:
            out.append(type(exc))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_window_lp_matches_the_row_by_row_reference(seed):
    s = random_scenario(seed).with_prices(generate_price_set(("low", "medium", "high")[seed % 3], seed=seed))
    day = np.arange(s.horizon.step_count)
    windows = [(v_idx, day) for v_idx in range(len(s.vehicles))]
    windows += [(v_idx, session.steps)
                for v_idx, sessions in enumerate(evca.derive_sessions(s)) for session in sessions]
    built = 0
    for (label, ct), power in itertools.product(OBJECTIVE_VARIANTS.items(), PowerMode):
        for v_idx, steps in windows:
            v = s.vehicles[v_idx]
            # the end-of-day floor, and evca's best-effort relaxation
            cases = [(v.soe_initial_kwh, False), (v.soe_min_kwh, True)]
            if label == "of5" and power is PowerMode.BOTH:
                # the floor only moves the last SOE bound: the ceiling itself
                # (the range closes), one 5e-10 above it (tied to the
                # ceiling) and one out of reach
                cases += [(v.soe_max_kwh, False), (v.soe_max_kwh + 5e-10, False), (v.soe_max_kwh + 1.0, False)]
            for floor, maximize in cases:
                got, ref = _build_both(s, v_idx, steps, v.soe_initial_kwh, floor, ct, power,
                                       maximize_departure=maximize)
                if ref is _FloorUnreachable:
                    assert got is _FloorUnreachable
                    continue
                assert _same_problem(got, ref), (v.id, steps[0], label, power, floor, maximize)
                built += 1
    assert built == (2 * 5 * 4 + 2) * len(windows)


@pytest.mark.parametrize("seed", [*range(12), "example"])
def test_session_slices_match_the_row_by_row_reference(seed, example_scenario):
    if seed == "example":
        s = example_scenario.with_prices(generate_price_set("high", seed=1))
    else:
        s = random_scenario(seed).with_prices(generate_price_set(("low", "medium", "high")[seed % 3], seed=seed))
    sessions = evca.derive_sessions(s)
    built = 0
    for (label, ct), power in itertools.product(OBJECTIVE_VARIANTS.items(), PowerMode):
        for v_idx, v in enumerate(s.vehicles):
            vl = _build_vehicle_lp(s, v_idx, ct, power)  # one build for all of its sessions
            for k, session in enumerate(sessions[v_idx]):
                arrival = v.soe_min_kwh + (k + 1) / (len(sessions[v_idx]) + 1) * (v.soe_max_kwh - v.soe_min_kwh)
                post_trips = float(s.trips.energy_kwh[v_idx, session.depart_step + 1:].sum())
                # the policy floor, the end-of-day floor and the best-effort
                # relaxation; the ceiling and one floor out of reach move
                # only the last SOE bound
                cases = [(evca.HIGH_SOE.floor_kwh(v), False), (v.soe_initial_kwh + post_trips / v.eta_run, False),
                         (v.soe_min_kwh, True)]
                if label == "of5" and power is PowerMode.BOTH:
                    cases += [(v.soe_max_kwh, False), (v.soe_max_kwh + 1.0, False)]
                for floor, maximize in cases:
                    args = (arrival, floor)
                    try:
                        got = _slice_window(vl, session.arrive_step, session.depart_step, *args,
                                            maximize_departure=maximize)
                    except _FloorUnreachable:
                        got = _FloorUnreachable
                    try:
                        ref = window_lp_by_rows(s, v_idx, session.steps, *args, ct, power,
                                                maximize_departure=maximize)
                    except _FloorUnreachable:
                        assert got is _FloorUnreachable
                        continue
                    assert _same_problem(got, ref), (v.id, session.arrive_step, label, power, floor, maximize)
                    built += 1
    assert built >= (3 * 5 * 4 + 1) * sum(map(len, sessions))


@pytest.mark.parametrize("arrival", [np.nan, np.inf])
def test_a_non_finite_arrival_stock_is_rejected_as_the_row_by_row_build_rejects_it(arrival, example_scenario):
    s = example_scenario.with_prices(generate_price_set("high", seed=1))
    session = evca.derive_sessions(s)[0][1]
    v = s.vehicles[0]
    vl = _build_vehicle_lp(s, 0, OF5, PowerMode.BOTH)
    with pytest.raises(lp.LpError) as ref:
        window_lp_by_rows(s, 0, session.steps, arrival, v.soe_min_kwh, OF5, PowerMode.BOTH)
    with pytest.raises(lp.LpError) as got:
        _slice_window(vl, session.arrive_step, session.depart_step, arrival, v.soe_min_kwh)
    assert str(got.value) == str(ref.value) == (
        f"constraint 'bal[ev1,{session.arrive_step}]': non-finite right-hand side {arrival}"
    )


def test_a_non_finite_coefficient_is_rejected_as_the_row_by_row_build_rejects_it(example_scenario):
    # a valid efficiency whose reciprocal, the balance row's discharge
    # coefficient, overflows
    s = example_scenario.with_prices(generate_price_set("high", seed=1))
    s = dataclasses.replace(s, vehicles=(dataclasses.replace(s.vehicles[0], eta_dch=5e-324), *s.vehicles[1:]))
    session = evca.derive_sessions(s)[0][1]
    vl = _build_vehicle_lp(s, 0, OF5, PowerMode.BOTH)
    with pytest.raises(lp.LpError) as ref:
        window_lp_by_rows(s, 0, session.steps, 10.0, 12.0, OF5, PowerMode.BOTH)
    with pytest.raises(lp.LpError) as got:
        _slice_window(vl, session.arrive_step, session.depart_step, 10.0, 12.0)
    assert str(got.value) == str(ref.value) == (
        f"constraint 'bal[ev1,{session.arrive_step}]': non-finite coefficient inf on variable 1"
    )


def test_names_read_one_at_a_time_equal_the_row_by_row_references(example_with_high):
    # the build formats no name; each one read is formatted then
    s = example_with_high
    for ct in (OF1, OF5):
        for v_idx, v in enumerate(s.vehicles):
            for steps in (np.arange(24), np.arange(8, 15)):
                got, ref = _build_both(s, v_idx, steps, v.soe_initial_kwh, v.soe_min_kwh, ct, PowerMode.BOTH)
                for names, want in ((got._var_names, ref._var_names), (got._row_names, ref._row_names)):
                    assert isinstance(want, list) and not isinstance(names, list)
                    assert len(names) == len(want)
                    assert [names[i] for i in range(len(names))] == want
                    assert [names[i] for i in range(-len(names), 0)] == want
                    assert names[np.intp(3)] == want[3]
                    assert list(names[2:9:3]) == want[2:9:3] and names[3:][1:4] == want[4:7]
                    assert names == want and want == names and names != want[::-1]
                    assert list(names) == want and repr(names) == repr(want)


@pytest.mark.parametrize("seed", range(8))
def test_cost_breakdown_from_arrays_equals_the_step_loop_bit_for_bit(seed):
    s = random_scenario(seed).with_prices(generate_price_set(("low", "medium", "high")[seed % 3], seed=seed))
    for ct in OBJECTIVE_VARIANTS.values():
        for fs in (solve_evba(s, ct), evca.solve_evca(s, evca.SoePolicy(0.95), ct)):
            assert fs.status == "optimal"
            deg_priced = fs.c_deg if ct.include_degradation else np.zeros(fs.c_deg.shape)
            args = (s, ct, fs.e_sch, fs.e_dch, fs.e_fch, deg_priced)
            got, ref = _cost_breakdown(*args), cost_breakdown_by_steps(*args)
            assert repr(got) == repr(ref) and repr(fs.per_vehicle) == repr(ref)
            assert any(c.grid_fee_eur > 0.0 for c in ref) == ct.include_grid_tariff
