"""Auditor, price generation, experiment runners and report emission."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import threading

import numpy as np
import pytest

from evdispatch import analysis, charts, cli, evba, evca, lp
from evdispatch.analysis import (
    AblationStudy,
    OrderingError,
    check_schedule,
    compare_aggregators,
    generate_price_set,
    run_cost_ablation,
    run_power_ablation,
    write_report,
)
from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    TripPlan,
    Vehicle,
    example_scenario_path,
)
from evdispatch.evba import PowerMode, cost_toggles_for, solve_evba
from evdispatch.evca import HIGH_SOE, solve_evca
from oracles import check_schedule_by_steps
from scen import flat_scenario, random_scenario

OF1 = cost_toggles_for("of1")
OF5 = cost_toggles_for("of5")


# ---------------------------------------------------------------------------
# Auditor

def test_audit_clean_on_both_mode_optimum(example_with_high):
    fs = solve_evba(example_with_high, OF5, PowerMode.BOTH)
    assert check_schedule(example_with_high, fs).ok


def test_audit_flags_cp_limit_for_obc_only_schedule(example_with_high):
    fs = solve_evba(example_with_high, OF1, PowerMode.OBC_ONLY)
    rep = check_schedule(example_with_high, fs)
    assert rep.count("CP limit") >= 1
    # violations sit where flows exceed the 4 kWh/step home plug but fit the 10 kWh OBC
    mags = [v.magnitude for v in rep.violations if v.constraint == "CP limit"]
    assert all(m <= 10.0 - 4.0 + 1e-6 for m in mags)


def test_audit_exactly_one_soe_bounds_entry_for_hand_built_dip():
    s = flat_scenario(n_vehicles=1)
    fs = solve_evba(s, OF1)
    fs.soe[0, 5] = s.vehicles[0].soe_min_kwh - 0.5  # inject a dip below the floor
    rep = check_schedule(s, fs)
    assert rep.count("SOE bounds") == 1
    assert rep.count("balance") >= 1  # the dip necessarily breaks the balance too


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("e_sch", 8.0, "CP limit"),       # above the 4 kWh/step home plug
        ("e_dch", 12.0, "OBC limit"),     # above the 10 kWh/step OBC
        ("e_sch", -0.01, "nonnegative"),
        ("soe", 30.0, "SOE bounds"),      # above the 20 kWh pack
        ("c_deg", -5.0, "degradation"),
    ],
)
def test_audit_detects_injected_perturbations(example_with_high, field, value, expected):
    fs = solve_evba(example_with_high, OF5, PowerMode.BOTH)
    # perturb a plugged-in step of ev1 (home plug covers steps 0..6)
    if field == "c_deg":
        fs.e_dch[0, 3] = 2.0  # make the wear planes positive first
    getattr(fs, field)[0, 3] = value
    rep = check_schedule(example_with_high, fs)
    assert rep.count(expected) >= 1


def test_audit_detects_millinewton_perturbation(example_with_high):
    fs = solve_evba(example_with_high, OF5, PowerMode.BOTH)
    fs.soe[0, 3] += 1e-3  # above the 1e-6 tolerance, breaks the balance row
    rep = check_schedule(example_with_high, fs)
    assert not rep.ok


def test_audit_detects_taper_breach(example_with_high):
    fs = solve_evba(example_with_high, OF5, PowerMode.BOTH)
    v = example_with_high.vehicles[0]
    fs.soe[0, 3] = 0.95 * v.capacity_kwh          # deep into the taper zone
    fs.e_sch[0, 3] = 4.0                           # within plug and OBC caps
    rep = check_schedule(example_with_high, fs)
    assert rep.count("CV taper") >= 1


def test_audit_terminal_floor(example_with_high):
    fs = solve_evba(example_with_high, OF5, PowerMode.BOTH)
    fs.soe[0, -1] = example_with_high.vehicles[0].soe_initial_kwh - 0.1
    rep = check_schedule(example_with_high, fs)
    assert rep.count("terminal SOE") == 1


def test_audit_dimension_mismatch(example_with_high):
    fs = solve_evba(example_with_high, OF5)
    small = flat_scenario(n_vehicles=1)
    with pytest.raises(ValueError, match="does not match"):
        check_schedule(small, fs)


def test_negative_price_burn_is_flagged_not_violated():
    # full battery, no taper, deeply negative hour: the optimum absorbs paid
    # consumption by charging and discharging at once; the audit must surface
    # it as a flag while the schedule stays constraint-clean
    v = Vehicle("ev", 20.0, 10.0, 3000.0, soe_initial_frac=1.0, soe_cv_frac=1.0)
    cp = ChargingPoint("p", "slow", 10.0, 0.0, 0.0, 0.0)
    mask = np.ones((1, 2, 1), dtype=bool)
    s = Scenario(Horizon(2), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(np.zeros((1, 2))))
    s = s.with_prices(PriceSeries("neg", np.array([-0.30, 0.0])))
    fs = solve_evba(s, OF1)
    rep = check_schedule(s, fs)
    assert fs.e_sch[0, 0] > 1e-6 and fs.e_dch[0, 0] > 1e-6
    assert fs.total_cost_eur < 0
    assert rep.ok
    assert any("simultaneous" in f for f in rep.flags)


def test_audit_flags_simultaneous_charge_discharge():
    from evdispatch.degradation import degradation_cost

    s = flat_scenario(n_vehicles=1)
    fs = solve_evba(s, OF1)
    v = s.vehicles[0]
    # hand-build a feasible burn step: charge and discharge cancel in the
    # balance, and the wear entry is kept consistent with the new discharge
    fs.e_sch[0, 4] = 1.0
    fs.e_dch[0, 4] = v.eta_sch * v.eta_dch * 1.0
    fs.c_deg[0, 4] = degradation_cost(v, fs.e_dch[0, 4], fs.soe[0, 4])
    rep = check_schedule(s, fs)
    assert rep.ok
    assert any("simultaneous" in f for f in rep.flags)


def _last_bit_neighbours(value: float) -> list[float]:
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


@pytest.mark.parametrize("value", [52.4675, 55.7775, 52.3825])
def test_a_chart_prints_a_value_on_a_half_the_same_whichever_way_its_last_bit_falls(value):
    # cp_only's discharge totals on the long-horizon inputs at seeds 0, 1 and
    # 7, which sit on a half at 3 decimals
    svgs = {charts.bar_chart(["both", "cp_only"], [50.0, v], title="discharge", y_label="kWh")
            for v in _last_bit_neighbours(value)}
    svgs |= {charts.line_chart([("cp_only", [0.0, v])], title="discharge", y_label="kWh")
             for v in _last_bit_neighbours(value)}
    assert len(svgs) == 2


def test_a_simultaneous_flow_flag_prints_a_value_on_a_half_the_same_whichever_way_its_last_bit_falls():
    # a 2.01875-kWh burn step, on a half at 4 decimals
    s = flat_scenario(n_vehicles=1)
    fs = solve_evba(s, OF1)
    flags = set()
    for e in _last_bit_neighbours(2.01875):
        fs.e_sch[0, 4] = fs.e_dch[0, 4] = e
        flags.add(tuple(check_schedule(s, fs).flags))
    assert flags == {("vehicle 'ev0' step 4: simultaneous charge 2.0187 kWh and discharge 2.0187 kWh",)}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["e_sch", "e_dch", "e_fch", "soe", "c_deg"])
def test_audit_rejects_a_non_finite_entry_naming_array_vehicle_and_step(example_with_high, field, value):
    fs = solve_evba(example_with_high, OF5)
    getattr(fs, field)[1, 5] = value
    with pytest.raises(ValueError, match=rf"^schedule {field}: vehicle 'ev2' step 5 holds {value}$"):
        check_schedule(example_with_high, fs)


def _perturbed(fs, seed: int):
    """``fs`` with noise on about a tenth of each array's entries, and a
    charge and discharge together at a few steps."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name in ("e_sch", "e_dch", "e_fch", "soe", "c_deg"):
        a = getattr(fs, name).copy()
        hit = rng.random(a.shape) < 0.1
        a[hit] += rng.normal(0.0, 3.0, int(hit.sum()))
        arrays[name] = a
    both = rng.random(fs.e_sch.shape) < 0.05
    arrays["e_sch"][both] = arrays["e_dch"][both] = 0.5
    return dataclasses.replace(fs, **arrays)


def test_array_auditor_matches_the_step_by_step_reference(example_scenario):
    schedules = []
    for level, ct, power in itertools.product(("low", "medium", "high"), (OF1, OF5), PowerMode):
        s = example_scenario.with_prices(generate_price_set(level, seed=3))
        schedules.append((s, solve_evba(s, ct, power)))
    for seed in range(10):
        s = random_scenario(seed).with_prices(generate_price_set("high", seed=seed))
        schedules += [(s, solve_evba(s, OF5)), (s, solve_evca(s, HIGH_SOE))]
    schedules += [(s, _perturbed(fs, seed)) for seed, (s, fs) in enumerate(schedules)]
    seen = set()
    for s, fs in schedules:
        got, ref = check_schedule(s, fs), check_schedule_by_steps(s, fs)
        rows = [(v.vehicle, v.step, v.constraint, repr(v.magnitude)) for v in got.violations]
        assert rows == [(v.vehicle, v.step, v.constraint, repr(v.magnitude)) for v in ref.violations]
        assert got.flags == ref.flags
        seen |= {v.constraint for v in got.violations} | {"flag" for _ in got.flags[:1]}
    assert seen == {"nonnegative", "CP limit", "OBC limit", "CV taper", "SOE bounds", "balance",
                    "degradation", "terminal SOE", "flag"}


# ---------------------------------------------------------------------------
# Price generation

def test_price_stdev_ordering_across_seeds():
    for seed in range(1, 11):
        low = generate_price_set("low", seed)
        med = generate_price_set("medium", seed)
        high = generate_price_set("high", seed)
        assert low.values.std() < med.values.std() < high.values.std()


def test_price_mean_is_construction_exact():
    for vol in ("low", "medium", "high"):
        ps = generate_price_set(vol, seed=9)
        assert abs(ps.values.mean() - 0.05) < 1e-9


def test_one_step_price_series_is_flat_at_the_mean():
    for vol in ("low", "medium", "high"):
        assert generate_price_set(vol, seed=3, step_count=1).values.tolist() == [analysis.PRICE_MEAN]


def test_negative_price_seed_is_named_in_the_error():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        generate_price_set("high", seed=-1)


@pytest.mark.parametrize("arg, value, rule", [
    ("step_count", 0, "an integer >= 1"),
    ("step_count", -3, "an integer >= 1"),
    ("step_count", 2.0, "an integer >= 1"),
    ("step_hours", float("nan"), "finite and > 0"),
    ("step_hours", float("inf"), "finite and > 0"),
    ("step_hours", 0.0, "finite and > 0"),
    ("seed", 1.5, "a non-negative integer"),
])
def test_price_arguments_are_checked_before_use(arg, value, rule):
    with pytest.raises(ValueError, match=f"^{arg} must be {rule}, got {value}$"):
        generate_price_set("high", **{arg: value})


def test_hourly_price_shape_is_laid_out_in_steps_as_before():
    # reference: the shape in step units, which equal hours at hourly steps
    t = np.arange(24, dtype=float)
    shape = (
        0.9 * np.exp(-(((t - 8.5) / 2.0) ** 2))
        + 1.1 * np.exp(-(((t - 18.5) / 2.2) ** 2))
        - 0.8 * np.exp(-(((t - 3.0) / 2.5) ** 2))
    )
    z = shape + np.random.default_rng(4).normal(0.0, 0.35, 24)
    z = (z - z.mean()) / z.std()
    expected = 0.05 + 0.008 * 6.0 * z
    assert generate_price_set("high", seed=4).values.tobytes() == expected.tobytes()


def test_quarter_hour_prices_peak_in_the_same_hours_as_hourly_ones():
    def landmarks(step_hours: float) -> np.ndarray:
        # averaging over seeds leaves the shape: hours of the morning peak,
        # the evening peak and the night trough
        n = round(24 / step_hours)
        values = np.mean(
            [generate_price_set("low", seed=k, step_count=n, step_hours=step_hours).values
             for k in range(60)],
            axis=0,
        )
        hours = np.arange(n) * step_hours
        morning = hours < 12.0
        return np.array([
            hours[morning][np.argmax(values[morning])],
            hours[np.argmax(values)],
            hours[np.argmin(values)],
        ])

    hourly, quarter = landmarks(1.0), landmarks(0.25)
    assert np.all(np.abs(quarter - hourly) <= 1.0), (hourly, quarter)
    assert 17.0 <= quarter[1] <= 20.0 and 1.0 <= quarter[2] <= 5.0


def test_price_determinism_and_label():
    a = generate_price_set("high", seed=5)
    b = generate_price_set("high", seed=5)
    assert a.label == "high"
    assert np.array_equal(a.values, b.values)


def test_same_seed_shares_shape_across_volatilities():
    lo = generate_price_set("low", seed=3).values
    hi = generate_price_set("high", seed=3).values
    assert np.allclose((hi - 0.05) / 6.0, lo - 0.05, atol=1e-12)


def test_unknown_volatility_rejected():
    with pytest.raises(ValueError):
        generate_price_set("wild", seed=1)


# ---------------------------------------------------------------------------
# Comparison grid

def test_comparison_grid_complete(example_scenario):
    sets = [generate_price_set(v, seed=1) for v in ("high", "medium", "low")]
    rep = compare_aggregators(example_scenario, sets)
    assert len(rep.cells) == 9
    assert {c.model for c in rep.cells} == {"evba", "evca_high", "evca_low"}
    for c in rep.cells:
        if c.model != "evba":
            assert c.dominance_ok is True


def test_the_stated_answers_hold_on_seeds_0_to_9(example_scenario):
    # the directions the README states for the fleet-vs-station comparison
    # on the bundled example; a change that moves one fails here
    levels = ("low", "medium", "high")
    evca_low_gaps = {level: [] for level in levels}
    for seed in range(10):
        rep = compare_aggregators(example_scenario, [generate_price_set(level, seed=seed) for level in levels])
        gap = {(c.price_label, c.model): c.dominance_gap_eur for c in rep.cells}
        assert all(c.status == "optimal" for c in rep.cells), seed
        assert all(g >= -1e-6 for g in gap.values() if g is not None), seed
        assert gap["low", "evca_high"] > gap["medium", "evca_high"] > gap["high", "evca_high"], seed
        fleet = [rep.cell(level, "evba").total_cost_eur for level in levels]
        assert fleet[0] >= fleet[1] - 1e-6 and fleet[1] >= fleet[2] - 1e-6, seed
        for level in levels:
            evca_low_gaps[level].append(gap[level, "evca_low"])
    assert np.mean(evca_low_gaps["high"]) < np.mean(evca_low_gaps["low"])


def test_comparison_flat_prices_zero_fees():
    s = flat_scenario(n_vehicles=2, price=0.05)
    rep = compare_aggregators(s, [s.prices])
    evba = rep.cell("flat", "evba")
    assert evba.total_cost_eur == pytest.approx(0.0, abs=1e-9)
    for model in ("evca_high", "evca_low"):
        assert rep.cell("flat", model).total_cost_eur >= -1e-9


def test_comparison_records_cell_errors_not_fatal():
    v = Vehicle("ev1", 40.0, 10.0, 6000.0)
    cp = ChargingPoint("cp1", "slow", 4.0, 0.0, 0.0, 0.0)
    mask = np.zeros((1, 24, 1), dtype=bool)
    mask[0, 0:2, 0] = True    # too short for the 95% policy
    mask[0, 20:24, 0] = True
    trips = np.zeros((1, 24))
    trips[0, 5] = 1.0
    s = Scenario(Horizon(24), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(trips))
    rep = compare_aggregators(s, [generate_price_set("low", seed=1)])
    bad = rep.cell("low", "evca_high")
    assert bad.status == "infeasible"
    assert bad.error.startswith("vehicle 'ev1' at 'cp1', steps 0..1: no feasible schedule")
    assert rep.cell("low", "evba").status == "optimal"


# ---------------------------------------------------------------------------
# Ablations

def test_power_ablation_example(example_scenario, high_prices):
    study = run_power_ablation(example_scenario, high_prices)
    by = {r.label: r for r in study.reports}
    assert set(by) == {"fixed_4kw", "obc_only", "cp_only", "both"}
    assert by["obc_only"].violations.count("CP limit") >= 1
    assert by["cp_only"].violations.count("OBC limit") >= 1
    assert by["fixed_4kw"].violations.ok
    assert by["both"].violations.ok
    assert by["obc_only"].total_cost_eur <= by["both"].total_cost_eur + 1e-6
    assert by["cp_only"].total_cost_eur <= by["both"].total_cost_eur + 1e-6
    assert by["both"].total_cost_eur <= by["fixed_4kw"].total_cost_eur + 1e-6


def test_power_ablation_obc_binding_side_only():
    # plug rating above the OBC everywhere and no CV taper: the only cap the
    # cp_only variant can break is the OBC rating
    v = Vehicle("ev1", 30.0, 8.0, 4500.0, soe_cv_frac=1.0)
    cp = ChargingPoint("big", "slow", 12.0, 0.0, 0.0, 0.0)
    mask = np.ones((1, 24, 1), dtype=bool)
    s = Scenario(Horizon(24), (v,), (cp,), ConnectivityMatrix(mask), TripPlan(np.zeros((1, 24))))
    study = run_power_ablation(s, generate_price_set("high", seed=1))
    cp_only = next(r for r in study.reports if r.label == "cp_only")
    kinds = {x.constraint for x in cp_only.violations.violations}
    assert kinds == {"OBC limit"}


def test_cost_ablation_example(example_scenario, high_prices):
    study = run_cost_ablation(example_scenario, high_prices)
    labels = [r.label for r in study.reports]
    assert labels == ["of1", "of2", "of3", "of4", "of5"]
    by = {r.label: r for r in study.reports}
    assert by["of1"].total_cost_eur <= by["of2"].total_cost_eur + 1e-6
    assert by["of2"].total_cost_eur <= by["of5"].total_cost_eur + 1e-6
    assert by["of1"].total_cost_eur <= by["of3"].total_cost_eur + 1e-6
    assert by["of1"].total_cost_eur <= by["of4"].total_cost_eur + 1e-6
    assert by["of4"].total_cost_eur <= by["of5"].total_cost_eur + 1e-6
    # discharge collapses once wear and tariffs are priced
    assert by["of5"].discharged_kwh <= by["of1"].discharged_kwh + 1e-9
    assert by["of2"].discharged_kwh <= by["of1"].discharged_kwh + 1e-9


def test_cost_ablation_zero_prices():
    s = flat_scenario(n_vehicles=1)
    study = run_cost_ablation(s, PriceSeries("zero", np.zeros(24)))
    by = {r.label: r for r in study.reports}
    assert by["of1"].total_cost_eur == pytest.approx(0.0, abs=1e-9)
    for r in study.reports:
        assert r.total_cost_eur >= -1e-9


@pytest.mark.parametrize("run,raised,message", [
    (run_cost_ablation, OF1, r"expected cost\(of1\) <= cost\(of2\)"),
    (run_power_ablation, PowerMode.OBC_ONLY, r"expected cost\(obc_only\) <= cost\(both\)"),
], ids=["cost", "power"])
def test_ablation_ordering_failure_names_both_variants(
    example_scenario, high_prices, monkeypatch, run, raised, message
):
    def solve_raising_one_variant(s, ct, power):
        fs = solve_evba(s, ct, power)
        if raised in (ct, power):
            fs.total_cost_eur += 100.0
        return fs

    monkeypatch.setattr(analysis, "solve_evba", solve_raising_one_variant)
    with pytest.raises(OrderingError, match=message):
        run(example_scenario, high_prices)


# ---------------------------------------------------------------------------
# Cells solved in forked children

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="cells fork only on Linux")


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Counts the forks made in this process; the affinity set starts at two CPUs."""
    made: list[int] = []
    real_fork = os.fork

    def counted_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@linux_only
@pytest.mark.parametrize("command", [
    ["compare", "--seed", "1"],
    ["ablate-power", "--gen-prices", "high", "--seed", "1"],
    ["ablate-costs", "--gen-prices", "low", "--seed", "1"],
])
def test_reports_are_identical_on_one_cpu_and_on_two(tmp_path, monkeypatch, forks, command):
    reports = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        assert cli.main([*command, "--scenario", str(example_scenario_path()), "--out", str(out)]) == 0
        reports[len(cpus)] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(forks) == len(cpus) - 1
        assert_no_child_left()
    assert reports[1] == reports[2]


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one message, its __init__ wants two."""

    def __init__(self, cell: str, why: str):
        super().__init__(f"{cell}: {why}")


@linux_only
@pytest.mark.parametrize("make,solved_here", [
    (lambda cell: ZeroDivisionError(f"{cell} divided by zero"), ["evca_low"]),
    (lambda cell: TwoArgError(cell, "no schedule"), ["evca_low", "evca_high"]),
], ids=["pickles", "will-not-unpickle"])
def test_first_exception_in_cell_order_reaches_the_caller(
    example_scenario, monkeypatch, forks, tmp_path, make, solved_here
):
    # the cells are the models; with two CPUs the child solves cells 1::2,
    # so evca_high (cell 1) raises there, before evca_low (cell 2) raises
    # here; an exception that will not unpickle has the child's share
    # solved again here
    calls = tmp_path / "calls"

    def fail(s, price_sets, policy):
        cell = "evca_high" if policy is HIGH_SOE else "evca_low"
        with calls.open("a") as f:
            f.write(f"{os.getpid()} {cell}\n")
        raise make(cell)

    monkeypatch.setattr(analysis, "solve_evca_series", fail)
    prices = [generate_price_set("low", seed=1)]
    with pytest.raises(Exception) as forked:
        compare_aggregators(example_scenario, prices)
    assert len(forks) == 1
    assert_no_child_left()
    assert type(forked.value) is type(make("")) and str(forked.value).startswith("evca_high")
    pids = {}
    for line in calls.read_text().splitlines():
        pid, cell = line.split()
        pids.setdefault(int(pid), []).append(cell)
    assert sorted(pids.pop(os.getpid())) == sorted(solved_here)
    assert list(pids.values()) == [["evca_high"]]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(Exception) as serial:
        compare_aggregators(example_scenario, prices)
    assert (type(serial.value), str(serial.value)) == (type(forked.value), str(forked.value))


@linux_only
def test_a_share_whose_child_dies_is_solved_here(example_scenario, monkeypatch, forks):
    prices = [generate_price_set(v, seed=1) for v in ("high", "medium", "low")]
    parent, real_solve_evca_series = os.getpid(), analysis.solve_evca_series

    def die_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_solve_evca_series(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_evca_series", die_in_child)
    forked = compare_aggregators(example_scenario, prices)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert forked == compare_aggregators(example_scenario, prices)


def test_compare_builds_each_crash_and_vehicle_lp_once_per_model(example_scenario, monkeypatch):
    # one CPU, so every build is counted here: 3 vehicles' day LPs and 9
    # session LPs per series; each model builds its vehicles and cuts its
    # windows once, and every series still solves every window through lp.solve
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    counts = {"crash": 0, "frame": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lp, "_crash_picks", counted("crash", lp._crash_picks))
    monkeypatch.setattr(lp, "solve", counted("solve", lp.solve))
    build = counted("frame", evba._build_vehicle_lp)
    monkeypatch.setattr(evba, "_build_vehicle_lp", build)
    monkeypatch.setattr(evca, "_build_vehicle_lp", build)
    prices = [generate_price_set(v, seed=1) for v in ("high", "medium", "low")]
    report = compare_aggregators(example_scenario, prices)
    assert [c.status for c in report.cells] == ["optimal"] * 9
    assert counts == {"crash": 3 + 9 + 9, "frame": 3 * 3, "solve": 3 * (3 + 9 + 9)}


@linux_only
def test_cells_are_not_forked_beside_another_thread_or_for_one_cell(forks):
    assert analysis._solve_cells(abs, [-1]) == [1]
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert analysis._solve_cells(abs, [-1, -2, 3]) == [1, 2, 3]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert analysis._solve_cells(abs, [-1, -2, 3]) == [1, 2, 3]
    assert len(forks) == 1
    assert_no_child_left()


# ---------------------------------------------------------------------------
# Report files

def test_write_comparison_report_manifest(example_scenario, tmp_path):
    sets = [generate_price_set(v, seed=1) for v in ("high", "medium", "low")]
    rep = compare_aggregators(example_scenario, sets)
    paths = {p.name for p in write_report(rep, tmp_path)}
    assert {"comparison.json", "comparison.csv", "prices.svg"} <= paths
    assert {f"soe_ev{i}.svg" for i in (1, 2, 3)} <= paths
    data = json.loads((tmp_path / "comparison.json").read_text())
    assert data["assumptions"]
    assert len(data["cells"]) == 9


def test_write_ablation_reports(example_scenario, high_prices, tmp_path):
    study = run_power_ablation(example_scenario, high_prices)
    paths = {p.name for p in write_report(study, tmp_path)}
    assert {"power_ablation.json", "power_ablation.csv", "power_ablation.svg"} <= paths
    study2 = run_cost_ablation(example_scenario, high_prices)
    paths2 = {p.name for p in write_report(study2, tmp_path)}
    assert {"cost_ablation.json", "cost_ablation.csv", "cost_ablation.svg"} <= paths2


def test_write_schedule_report(example_with_high, tmp_path):
    from evdispatch.evca import LOW_SOE, solve_evca

    fs = solve_evca(example_with_high, LOW_SOE, OF5)
    paths = {p.name for p in write_report(fs, tmp_path, scenario=example_with_high)}
    assert {"schedule.csv", "breakdown.json", "sessions.csv"} <= paths
    text = (tmp_path / "schedule.csv").read_text()
    assert text.startswith("vehicle,step,")
    assert len(text.splitlines()) == 1 + 3 * 24


def test_empty_study_emits_header_only_csv(tmp_path):
    study = AblationStudy(kind="power", price_label="none", reports=[])
    write_report(study, tmp_path)
    lines = (tmp_path / "power_ablation.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("label,")


def test_report_bytes_are_deterministic(example_scenario, high_prices, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        study = run_cost_ablation(example_scenario, high_prices)
        write_report(study, out)
    for name in ("cost_ablation.json", "cost_ablation.csv", "cost_ablation.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rewriting_over_longer_files_leaves_exactly_the_new_bytes(example_scenario, high_prices, tmp_path):
    study = run_cost_ablation(example_scenario, high_prices)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    names = [p.name for p in write_report(study, fresh)]
    reused.mkdir()
    for name in names:
        (reused / name).write_bytes(b"x" * (2 * (fresh / name).stat().st_size + 100))
    assert [p.name for p in write_report(study, reused)] == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_a_symlinked_report_file_keeps_its_link(example_scenario, high_prices, tmp_path):
    study = run_cost_ablation(example_scenario, high_prices)
    out, target = tmp_path / "out", tmp_path / "kept.json"
    out.mkdir()
    target.write_text("old " * 10_000)
    (out / "cost_ablation.json").symlink_to(target)
    write_report(study, out)
    assert (out / "cost_ablation.json").is_symlink()
    write_report(study, tmp_path / "plain")
    assert target.read_bytes() == (tmp_path / "plain" / "cost_ablation.json").read_bytes()


def test_an_unwritable_report_file_raises_naming_it(example_scenario, high_prices, tmp_path):
    # a directory where the report file goes cannot be opened for writing
    study = run_cost_ablation(example_scenario, high_prices)
    (tmp_path / "cost_ablation.csv").mkdir()
    with pytest.raises(OSError, match=r"^cannot write report file .*cost_ablation\.csv: "):
        write_report(study, tmp_path)


def test_random_scenarios_have_clean_audits():
    for seed in (21, 22):
        s = random_scenario(seed).with_prices(generate_price_set("medium", seed=seed))
        fs = solve_evba(s, OF5)
        assert fs.status == "optimal"
        assert check_schedule(s, fs).ok
