"""The benchmark's stored reference costs hold in tier 1.

bench/refs.json holds the total cost of every schedule the benchmark checks,
cross-checked against HiGHS when it was written. This test loads the
benchmark's input generator, bench/inputs.py, by path without editing or
installing anything, writes its inputs to a temporary directory and checks
the long-horizon fleet solve at three seeds, and the compare grid and both
ablations of the paper study at one, against those costs at the stored
tolerance. Every schedule of the full model must pass the audit.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from evdispatch import (
    HIGH_SOE,
    LOW_SOE,
    check_schedule,
    compare_aggregators,
    cost_toggles_for,
    load_price_series,
    load_scenario,
    run_cost_ablation,
    run_power_ablation,
    solve_evba,
    solve_evca,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFS = json.loads((BENCH / "refs.json").read_text())


def _write_inputs(workload: str, seed: int, out_dir: Path):
    """The workload's scenario and its price series by volatility level."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    scenario, prices = inputs.write_inputs(workload, seed, out_dir)
    s = load_scenario(scenario)
    return s, {level: load_price_series(path, s.horizon.step_count) for level, path in prices.items()}


def _assert_matches(refs: dict, label: str, cost: float) -> None:
    ref = refs[label]
    assert abs(cost - ref) <= REFS["rel_tol"] * max(1.0, abs(ref)), f"{label}: {cost!r} vs {ref!r}"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_long_horizon_fleet_cost_matches_the_stored_reference(tmp_path, seed):
    s, prices = _write_inputs("long-horizon", seed, tmp_path)
    s = s.with_prices(prices["high"])
    fs = solve_evba(s, cost_toggles_for("of5"))
    assert fs.status == "optimal"
    assert check_schedule(s, fs).ok
    _assert_matches(REFS["long-horizon"][str(seed)], "evba_of5", fs.total_cost_eur)


def test_paper_study_costs_match_the_stored_references(tmp_path):
    s, prices = _write_inputs("paper-study", 7, tmp_path)
    refs = REFS["paper-study"]["7"]

    report = compare_aggregators(s, list(prices.values()))
    assert len(report.cells) == 9
    solvers = {"evba": solve_evba,
               "evca_high": lambda sp: solve_evca(sp, HIGH_SOE),
               "evca_low": lambda sp: solve_evca(sp, LOW_SOE)}
    for cell in report.cells:
        assert cell.status == "optimal"
        _assert_matches(refs, f"compare/{cell.price_label}/{cell.model}", cell.total_cost_eur)
        sp = s.with_prices(prices[cell.price_label])
        assert check_schedule(sp, solvers[cell.model](sp)).ok

    # only the "both" variant keeps the full power model; the relaxed ones
    # break it by design
    power = run_power_ablation(s, prices["high"])
    for r in power.reports:
        _assert_matches(refs, f"power/{r.label}", r.total_cost_eur)
        assert r.violations.ok or r.label != "both"

    cost = run_cost_ablation(s, prices["high"])
    assert len(cost.reports) == 5
    for r in cost.reports:
        _assert_matches(refs, f"cost/{r.label}", r.total_cost_eur)
        assert r.violations.ok
