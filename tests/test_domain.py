"""Scenario model tests: parsing, tariffs, validation, round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch.analysis import generate_price_set
from evdispatch.domain import (
    ChargingPoint,
    ConnectivityMatrix,
    Horizon,
    PriceSeries,
    Scenario,
    ScenarioError,
    TariffCalendar,
    TripPlan,
    Vehicle,
    dump_scenario,
    example_scenario_path,
    grid_fee,
    load_price_series,
    load_scenario,
    parse_scenario,
    save_price_series,
    scenario_to_dict,
    validate_scenario,
)

HOME = ChargingPoint("home", "slow", 4.0, 0.02284, 0.04704, 0.004)
DCFAST = ChargingPoint("dcfast", "fast", 100.0, 0.01075, 0.02284, 0.2)


def test_example_scenario_loads_three_vehicles(example_scenario):
    assert [v.id for v in example_scenario.vehicles] == ["ev1", "ev2", "ev3"]
    assert [v.capacity_kwh for v in example_scenario.vehicles] == [20.0, 40.0, 60.0]
    assert validate_scenario(example_scenario) == []


def test_zero_vehicle_scenario_is_valid():
    s = parse_scenario(
        {
            "horizon": {"step_count": 24},
            "vehicles": [],
            "charging_points": [],
        }
    )
    assert s.vehicles == ()
    assert validate_scenario(s) == []


def _minimal_dict():
    return {
        "horizon": {"step_count": 4},
        "vehicles": [{"id": "ev1", "capacity_kwh": 20.0}],
        "charging_points": [
            {
                "id": "home",
                "kind": "slow",
                "power_kw": 4.0,
                "grid_fee_low_eur_per_kwh": 0.02284,
                "grid_fee_high_eur_per_kwh": 0.04704,
                "cp_fee_eur_per_kwh": 0.004,
            }
        ],
        "connectivity": [{"vehicle": "ev1", "cp": "home", "from_step": 0, "to_step": 2}],
        "trips": [{"vehicle": "ev1", "step": 3, "energy_kwh": 1.0}],
    }


def test_driving_while_connected_rejected():
    data = _minimal_dict()
    data["trips"][0]["step"] = 1  # inside the plug-in window
    with pytest.raises(ScenarioError, match="connected during trip"):
        parse_scenario(data)


def test_defaults_applied_for_omitted_fields():
    s = parse_scenario(_minimal_dict())
    v = s.vehicles[0]
    assert v.battery_cost_eur == pytest.approx(150.0 * 20.0)
    assert v.obc_max_kwh_per_step == pytest.approx(10.0)
    assert v.soe_initial_frac == pytest.approx(0.6)
    assert v.degradation.d1 == pytest.approx(-0.3429)
    assert s.tariff_calendar == TariffCalendar(22, 6)


def test_unknown_keys_rejected():
    data = _minimal_dict()
    data["vehicles"][0]["rang"] = 3
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(data)


def test_unknown_cp_reference_rejected():
    data = _minimal_dict()
    data["connectivity"][0]["cp"] = "nope"
    with pytest.raises(ScenarioError, match="unknown charging point id"):
        parse_scenario(data)


def test_power_kw_converted_with_step_hours():
    data = _minimal_dict()
    data["horizon"] = {"step_count": 8, "step_hours": 0.5}
    data["trips"] = []
    s = parse_scenario(data)
    assert s.charging_points[0].power_limit_kwh_per_step == pytest.approx(2.0)
    assert s.vehicles[0].obc_max_kwh_per_step == pytest.approx(5.0)


def test_grid_fee_table_values():
    cal = TariffCalendar()
    assert grid_fee(HOME, 3, cal) == pytest.approx(0.02284)    # 03:00, night band
    assert grid_fee(HOME, 12, cal) == pytest.approx(0.04704)   # noon, day band
    assert grid_fee(DCFAST, 12, cal) == pytest.approx(0.02284)


def test_grid_fee_is_pure():
    cal = TariffCalendar()
    assert all(grid_fee(HOME, 7, cal) == grid_fee(HOME, 7, cal) for _ in range(5))


def test_default_calendar_low_band_steps():
    cal = TariffCalendar()
    low = [t for t in range(24) if cal.is_low_band(t)]
    assert low == [0, 1, 2, 3, 4, 5, 22, 23]
    assert len(low) == 8


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=23),
    end=st.integers(min_value=0, max_value=23),
)
def test_calendar_assigns_exactly_one_band_per_step(start, end):
    cal = TariffCalendar(start, end)
    for t in range(24):
        assert cal.band(t) in ("low", "high")
        assert cal.is_low_band(t) == (cal.band(t) == "low")


def test_validate_multiple_connections_diagnostic():
    mask = np.zeros((1, 4, 2), dtype=bool)
    mask[0, 1, 0] = True
    mask[0, 1, 1] = True
    s = Scenario(
        horizon=Horizon(4),
        vehicles=(Vehicle("ev1", 20.0, 10.0, 3000.0),),
        charging_points=(HOME, ChargingPoint("work", "slow", 8.0, 0.0, 0.0, 0.0)),
        connectivity=ConnectivityMatrix(mask),
        trips=TripPlan(np.zeros((1, 4))),
    )
    diags = validate_scenario(s)
    assert any("multiple connections" in d for d in diags)


def test_validate_soe_ordering_diagnostic():
    s = Scenario(
        horizon=Horizon(4),
        vehicles=(Vehicle("ev1", 20.0, 10.0, 3000.0, soe_min_frac=0.5, soe_initial_frac=0.3),),
        charging_points=(HOME,),
        connectivity=ConnectivityMatrix(np.zeros((1, 4, 1), dtype=bool)),
        trips=TripPlan(np.zeros((1, 4))),
    )
    diags = validate_scenario(s)
    assert any("SOE ordering" in d for d in diags)


@pytest.mark.parametrize("key", ["d1", "d2", "d3", "d4"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_validate_rejects_non_finite_degradation_coefficient(key, bad):
    data = _minimal_dict()
    data["vehicles"][0]["degradation"] = {"d1": -0.3, "d2": 0.03, "d3": 0.004, "d4": 0.008, key: bad}
    diags = validate_scenario(parse_scenario(data, check=False))
    assert any(f"degradation.{key} must be finite" in d for d in diags)


def test_infinite_step_hours_rejected():
    data = _minimal_dict()
    data["horizon"]["step_hours"] = float("inf")
    with pytest.raises(ScenarioError, match="step_hours"):
        parse_scenario(data, check=False)


def test_validate_passes_whatever_load_accepts(example_scenario, tmp_path):
    assert validate_scenario(example_scenario) == []
    s = parse_scenario(_minimal_dict())
    assert validate_scenario(s) == []


def test_scenario_round_trip(example_scenario, tmp_path):
    path = tmp_path / "round.json"
    dump_scenario(example_scenario, path)
    again = load_scenario(path)
    assert again == example_scenario


def test_round_trip_via_dict_equality():
    s = parse_scenario(_minimal_dict())
    assert parse_scenario(json.loads(json.dumps(scenario_to_dict(s)))) == s


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_round_trip_random_scenarios(seed):
    from scen import random_scenario

    s = random_scenario(seed)
    again = parse_scenario(json.loads(json.dumps(scenario_to_dict(s))))
    assert again == s
    assert validate_scenario(again) == []


def test_load_price_series_constant(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{t},0.05\n" for t in range(24)))
    ps = load_price_series(path, 24)
    assert ps.label == "flat"
    assert np.allclose(ps.values, 0.05)


def test_load_price_series_wrong_row_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("".join(f"{t},0.05\n" for t in range(23)))
    with pytest.raises(ScenarioError, match="23 rows"):
        load_price_series(path, 24)


def test_with_prices_checks_length(example_scenario):
    with pytest.raises(ScenarioError, match="23 steps"):
        example_scenario.with_prices(PriceSeries("bad", np.zeros(23)))


def test_load_price_series_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,cheap\n")
    with pytest.raises(ScenarioError, match="non-numeric"):
        load_price_series(path)


def test_generated_series_round_trips_through_csv(tmp_path):
    ps = generate_price_set("high", seed=3)
    path = tmp_path / "high.csv"
    save_price_series(ps, path)
    again = load_price_series(path, 24)
    assert again.label == "high"
    assert np.allclose(again.values, ps.values, atol=0)


def test_example_path_exists():
    assert example_scenario_path().exists()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_price_series_rejects_non_finite_values(bad):
    with pytest.raises(ScenarioError, match="step 2"):
        PriceSeries("x", [0.1, 0.2, bad])
