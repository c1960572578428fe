"""CLI contract tests: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from evdispatch import cli
from evdispatch.cli import main
from evdispatch.domain import example_scenario_path
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


def test_tolerance_flag_accepted(example_path, tmp_path):
    rc = main([
        "solve", "--model", "evba", "--scenario", example_path,
        "--gen-prices", "low", "--tolerance", "1e-7", "--out", str(tmp_path),
    ])
    assert rc == 0


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
    "exc", [LpError("boom"), AssemblyError("boom"), ArithmeticError("boom"),
            np.linalg.LinAlgError("boom")],
)
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
