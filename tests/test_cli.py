"""CLI contract tests: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from evdispatch import analysis, cli, lp
from evdispatch.analysis import generate_price_set
from evdispatch.cli import main
from evdispatch.domain import example_scenario_path, load_scenario
from evdispatch.evba import AssemblyError
from evdispatch.lp import LpError


@pytest.fixture()
def example_path():
    return str(example_scenario_path())


def test_solve_evba_happy_path(example_path, tmp_path, capsys):
    rc = main([
        "solve", "--model", "evba", "--scenario", example_path,
        "--gen-prices", "high", "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "schedule.csv").exists()
    assert (tmp_path / "breakdown.json").exists()
    out = capsys.readouterr().out
    assert "total cost" in out


def test_solve_evca_writes_session_trace(example_path, tmp_path):
    rc = main([
        "solve", "--model", "evca", "--policy", "low", "--scenario", example_path,
        "--gen-prices", "high", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "sessions.csv").exists()


def test_solve_evca_without_policy_is_usage_error(example_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "solve", "--model", "evca", "--scenario", example_path,
            "--gen-prices", "high", "--out", str(tmp_path),
        ])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(example_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "evba", "--scenario", example_path, "--frobnicate"])
    assert exc.value.code == 2


def test_validate_ok(example_path, capsys):
    assert main(["validate", "--scenario", example_path]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_scenario_exit_1(tmp_path, capsys):
    broken = {
        "horizon": {"step_count": 4},
        "vehicles": [{"id": "ev1", "capacity_kwh": 20.0}],
        "charging_points": [
            {"id": "a", "kind": "slow", "power_kw": 4.0,
             "grid_fee_low_eur_per_kwh": 0.0, "grid_fee_high_eur_per_kwh": 0.0,
             "cp_fee_eur_per_kwh": 0.0},
            {"id": "b", "kind": "slow", "power_kw": 4.0,
             "grid_fee_low_eur_per_kwh": 0.0, "grid_fee_high_eur_per_kwh": 0.0,
             "cp_fee_eur_per_kwh": 0.0},
        ],
        "connectivity": [
            {"vehicle": "ev1", "cp": "a", "from_step": 0, "to_step": 2},
            {"vehicle": "ev1", "cp": "b", "from_step": 1, "to_step": 3},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "multiple connections" in capsys.readouterr().out


def test_infeasible_solve_exit_1(tmp_path, capsys):
    scen = {
        "horizon": {"step_count": 4},
        "vehicles": [{"id": "ev1", "capacity_kwh": 20.0}],
        "charging_points": [
            {"id": "a", "kind": "slow", "power_kw": 4.0,
             "grid_fee_low_eur_per_kwh": 0.0, "grid_fee_high_eur_per_kwh": 0.0,
             "cp_fee_eur_per_kwh": 0.0}
        ],
        "connectivity": [{"vehicle": "ev1", "cp": "a", "from_step": 0, "to_step": 1}],
        "trips": [{"vehicle": "ev1", "step": 2, "energy_kwh": 25.0}],
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    rc = main([
        "solve", "--model", "evba", "--scenario", str(path),
        "--gen-prices", "low", "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


def test_compare_and_ablations_smoke(example_path, tmp_path):
    assert main(["compare", "--scenario", example_path, "--seed", "1",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert (tmp_path / "cmp" / "comparison.json").exists()
    assert main(["ablate-power", "--scenario", example_path, "--gen-prices", "high",
                 "--out", str(tmp_path / "pow")]) == 0
    assert (tmp_path / "pow" / "power_ablation.csv").exists()
    assert main(["ablate-costs", "--scenario", example_path, "--gen-prices", "high",
                 "--out", str(tmp_path / "cost")]) == 0
    assert (tmp_path / "cost" / "cost_ablation.csv").exists()


def test_seed_determines_outputs_byte_for_byte(example_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["compare", "--scenario", example_path, "--seed", "7",
                     "--out", str(out)]) == 0
    for name in ("comparison.json", "comparison.csv", "prices.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_env_var_default_out(example_path, tmp_path, monkeypatch):
    monkeypatch.setenv("EVDISPATCH_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    rc = main(["solve", "--model", "evba", "--scenario", example_path,
               "--gen-prices", "low"])
    assert rc == 0
    assert (tmp_path / "envout" / "schedule.csv").exists()


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_price_file_exit_1_without_report(example_path, tmp_path, capsys, bad):
    values = ["0.05"] * 24
    values[7] = bad
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(f"{t},{x}\n" for t, x in enumerate(values)))
    out = tmp_path / "report"
    rc = main(["solve", "--model", "evba", "--scenario", example_path,
               "--prices", str(prices), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "non-finite" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, bad, named",
    [
        ("vehicles", "obc_max_kw", "nan", "obc_max_kw"),
        ("vehicles", "battery_cost_eur", "inf", "battery_cost_eur"),
        ("vehicles", "battery_cost_eur", "nan", "battery_cost_eur"),
        ("vehicles", "battery_cost_eur", "1e308", "battery_cost_eur"),  # overflows the wear rows
        ("charging_points", "power_kw", "inf", "power_kw"),
        ("charging_points", "cp_fee_eur_per_kwh", "nan", "cp_fee"),
        ("trips", "energy_kwh", "nan", "energy_kwh"),
    ],
)
def test_non_finite_scenario_number_exit_1_without_report(
    example_path, tmp_path, capsys, section, key, bad, named
):
    data = json.loads(Path(example_path).read_text())
    data[section][0][key] = float(bad)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))  # json writes NaN/Infinity, which json.loads accepts

    assert main(["validate", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "must be finite" in out and named in out

    report = tmp_path / "report"
    rc = main(["solve", "--model", "evba", "--scenario", str(path),
               "--gen-prices", "high", "--seed", "1", "--out", str(report)])
    err = capsys.readouterr().err
    assert rc == 1
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize(
    "section, key, big",
    [
        ("vehicles", "capacity_kwh", 1e12),
        ("vehicles", "capacity_kwh", 1e300),
        ("vehicles", "obc_max_kw", 1e12),
        ("vehicles", "obc_max_kw", 1e300),
        ("charging_points", "power_kw", 1e12),
        ("trips", "energy_kwh", 1e12),
    ],
)
@pytest.mark.parametrize("command", ["ablate-power", "ablate-costs", "compare"])
def test_number_beyond_the_energy_limit_exit_1_without_report(
    example_path, tmp_path, capsys, section, key, big, command
):
    data = json.loads(Path(example_path).read_text())
    data[section][0][key] = big
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))

    assert main(["validate", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{key} {big:g} exceeds the 1e+06 kWh limit" in out

    report = tmp_path / "report"
    prices = [] if command == "compare" else ["--gen-prices", "high"]
    rc = main([command, "--scenario", str(path), *prices, "--seed", "1", "--out", str(report)])
    err = capsys.readouterr().err
    assert rc == 1
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert err.startswith("error: invalid scenario") and "exceeds" in err and "Traceback" not in err
    assert not report.exists()


def _nearly_feasible_path(example_path, tmp_path) -> str:
    # ev1's step-7 trip 1e-5 kWh beyond what its window can cover
    data = json.loads(Path(example_path).read_text())
    data["trips"][0]["energy_kwh"] = 14.3975
    path = tmp_path / "nearly.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_nearly_feasible_window_is_reported_infeasible(example_path, tmp_path, capsys):
    path = _nearly_feasible_path(example_path, tmp_path)
    rc = main(["solve", "--model", "evba", "--scenario", path, "--gen-prices", "high", "--seed", "1",
               "--out", str(tmp_path / "solve")])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("infeasible: vehicle 'ev1': ")

    out = tmp_path / "costs"
    assert main(["ablate-costs", "--scenario", path, "--gen-prices", "high", "--seed", "1",
                 "--out", str(out)]) == 0
    variants = json.loads((out / "cost_ablation.json").read_text())["variants"]
    assert [v["status"] for v in variants] == ["infeasible"] * 5

    out = tmp_path / "compare"
    assert main(["compare", "--scenario", path, "--seed", "1", "--out", str(out)]) == 1
    cells = json.loads((out / "comparison.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["infeasible"] * 9
    # the station model fails its itinerary check before any LP
    assert all(re.match(r"vehicle 'ev1': trip of 14\.398 kWh drains the battery", c["error"])
               for c in cells if c["model"] != "evba")
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 9 and "Error" not in err


def test_compare_records_an_infeasible_session_as_infeasible(example_path, tmp_path, capsys):
    # a 1e6 kWh battery cannot reach the 95% floor in its first session
    data = json.loads(Path(example_path).read_text())
    data["vehicles"][0]["capacity_kwh"] = 1e6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "compare"
    assert main(["compare", "--scenario", str(path), "--seed", "1", "--out", str(out)]) == 1
    cells = json.loads((out / "comparison.json").read_text())["cells"]
    for c in cells:
        if c["model"] == "evca_high":
            assert c["status"] == "infeasible"
            assert c["error"].startswith("vehicle 'ev1' at 'home', steps 0..6: no feasible schedule")
        else:
            assert c["status"] == "optimal"
    assert len(capsys.readouterr().err.splitlines()) == 3


def test_compare_lets_any_other_exception_reach_the_cli(example_path, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(analysis, "solve_evca_series", fail)
    with pytest.raises(ValueError, match="boom"):
        analysis.compare_aggregators(load_scenario(example_path), [generate_price_set("low", seed=1)])
    out = tmp_path / "report"
    assert main(["compare", "--scenario", example_path, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--model", "evba", "--gen-prices", "high"],
    ["ablate-power", "--gen-prices", "low"],
    ["compare"],
])
def test_negative_seed_is_usage_error(example_path, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--scenario", example_path, "--seed", "-3", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: --seed must be a non-negative integer, got -3" in err and "Traceback" not in err
    assert sum("error" in line for line in err.splitlines()) == 1
    assert not (tmp_path / "r").exists()


def _assert_one_usage_error(exc, capsys, fault: str) -> None:
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {fault}" in err and "Traceback" not in err
    assert sum("error" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("flags, fault", [
    (["--policy", "low"], "--policy applies to --model evca only"),
    (["--best-effort"], "--best-effort applies to --model evca only"),
    (["--policy", "high", "--best-effort"], "--policy applies to --model evca only"),
])
def test_station_model_flags_on_the_fleet_model_are_usage_errors(example_path, tmp_path, capsys, flags, fault):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "evba", "--scenario", example_path, "--gen-prices", "high", *flags,
              "--out", str(tmp_path / "r")])
    _assert_one_usage_error(exc, capsys, fault)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, files", [
    (["solve", "--model", "evba"], 1),
    (["solve", "--model", "evca", "--policy", "low"], 1),
    (["compare"], 3),
    (["ablate-power"], 1),
    (["ablate-costs"], 1),
])
def test_a_seed_with_price_files_is_a_usage_error(example_path, tmp_path, capsys, command, files):
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(f"{t},0.1\n" for t in range(24)))
    argv = [*command, "--scenario", example_path, "--prices", *[str(prices)] * files, "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    _assert_one_usage_error(exc, capsys, "--seed applies to generated prices only, not to --prices")


def test_one_step_horizon_solves_with_generated_prices(example_path, tmp_path, capsys):
    data = json.loads(Path(example_path).read_text())
    data["horizon"]["step_count"] = 1
    data["connectivity"], data["trips"] = [], []
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data))
    rc = main(["solve", "--model", "evba", "--scenario", str(path), "--gen-prices", "high",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("exc", [LpError("boom"), AssemblyError("boom"), ArithmeticError("boom")])
def test_solver_failures_exit_1_with_one_line(example_path, tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_evba", fail)
    out = tmp_path / "report"
    rc = main(["solve", "--model", "evba", "--scenario", example_path,
               "--gen-prices", "low", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


def test_singular_basis_exit_1_naming_the_problem(example_path, tmp_path, capsys, monkeypatch):
    # the first vehicle's solve fails its verification, and the basis it is
    # rebuilt from holds one column twice, which the factorization rejects
    refactorize = lp._Simplex._refactorize

    def twin_columns(self):
        self.basis[1] = self.basis[0]
        refactorize(self)

    monkeypatch.setattr(lp._Simplex, "_violation", lambda self, x: lp.INF)
    monkeypatch.setattr(lp._Simplex, "_refactorize", twin_columns)
    out = tmp_path / "report"
    rc = main(["solve", "--model", "evba", "--scenario", example_path,
               "--gen-prices", "low", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: singular basis in 'window[ev1,0..23]'")
    assert not out.exists()


@pytest.mark.parametrize("model", [["--model", "evba"], ["--model", "evca", "--policy", "low"]])
def test_extreme_price_exit_1_naming_the_step(example_path, tmp_path, capsys, model):
    values = ["0.05"] * 24
    values[5] = "1e300"
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(f"{t},{x}\n" for t, x in enumerate(values)))
    out = tmp_path / "report"
    rc = main(["solve", *model, "--scenario", example_path,
               "--prices", str(prices), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "step 5" in err and "1e+300" in err
    assert not out.exists()


def test_policy_floor_below_a_vehicle_minimum_exit_1_naming_it(example_path, tmp_path, capsys):
    data = json.loads(Path(example_path).read_text())
    data["vehicles"][0].update(soe_min_frac=0.7, soe_initial_frac=0.8)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report"
    rc = main(["solve", "--model", "evca", "--policy", "low", "--scenario", str(path),
               "--gen-prices", "high", "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: policy floor 0.6") and "'ev1'" in err
    assert not out.exists()


def test_infeasible_ablation_variant_has_a_null_cost(example_path, tmp_path):
    # ev1 cannot cover a 10.8 kWh trip at 4 kW, but can with its 8 kW plug
    data = json.loads(Path(example_path).read_text())
    for trip in data["trips"]:
        if trip["vehicle"] == "ev1" and trip["step"] == 15:
            trip["energy_kwh"] = 10.8
    for plug in data["connectivity"]:
        if plug["vehicle"] == "ev1" and plug["cp"] == "leisure":
            plug["from_step"] = 23
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report"
    rc = main(["ablate-power", "--scenario", str(path), "--gen-prices", "high", "--seed", "1",
               "--out", str(out)])
    assert rc == 0

    def no_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    written = sorted(out.iterdir())
    assert [p.name for p in written] == [
        "power_ablation.csv", "power_ablation.json", "power_ablation.svg", "power_ablation_discharge.svg"
    ]
    for p in written:
        assert not re.search(r"\bnan\b", p.read_text(), re.IGNORECASE), p.name
    variants = json.loads((out / "power_ablation.json").read_text(), parse_constant=no_constant)["variants"]
    assert [(v["label"], v["status"], v["total_cost_eur"] is None) for v in variants] == [
        ("fixed_4kw", "infeasible", True), ("obc_only", "optimal", False),
        ("cp_only", "optimal", False), ("both", "optimal", False),
    ]
    assert (out / "power_ablation.csv").read_text().splitlines()[1].startswith("fixed_4kw,infeasible,,")
    svg = (out / "power_ablation.svg").read_text()
    assert svg.count("<rect ") == 1 + 3  # the background, then one bar per solved variant
    assert ">fixed_4kw</text>" in svg


def test_infeasible_ablation_variant_reports_no_flows_or_audit(example_path, tmp_path):
    # the same infeasible 4 kW variant: it has no schedule, so nothing of one
    # is reported, where zeros would read as a schedule that moves no energy
    data = json.loads(Path(example_path).read_text())
    for trip in data["trips"]:
        if trip["vehicle"] == "ev1" and trip["step"] == 15:
            trip["energy_kwh"] = 10.8
    for plug in data["connectivity"]:
        if plug["vehicle"] == "ev1" and plug["cp"] == "leisure":
            plug["from_step"] = 23
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report"
    assert main(["ablate-power", "--scenario", str(path), "--gen-prices", "high", "--seed", "1",
                 "--out", str(out)]) == 0
    variants = json.loads((out / "power_ablation.json").read_text())["variants"]
    assert [(v["charged_kwh"], v["discharged_kwh"], v["violation_count"]) for v in variants][0] == (None,) * 3
    # the relaxed variants are audited against the full model, so they may violate it
    assert [v["violation_count"] for v in variants[1:]] == [25, 19, 0]
    assert all(v["charged_kwh"] > 0.0 for v in variants[1:])
    rows = (out / "power_ablation.csv").read_text().splitlines()
    assert rows[1] == "fixed_4kw,infeasible,,,,,,,,,"
    assert all(len(row.split(",")) == 11 for row in rows)
    svg = (out / "power_ablation_discharge.svg").read_text()
    assert svg.count("<rect ") == 1 + 3  # the background, then one bar per solved variant
    assert ">fixed_4kw</text>" in svg


@pytest.mark.parametrize("step_count", [10**19, 2**62])  # numpy refuses both before allocating
def test_horizon_too_large_to_allocate_exit_1(example_path, tmp_path, capsys, step_count):
    data = json.loads(Path(example_path).read_text())
    data["horizon"]["step_count"] = step_count
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: horizon.step_count {step_count} is too large")
