"""The rules for a changed pivot path, against the dense reference kernel.

The solver and ``tests/oracles.py`` ``DenseSimplex`` pivot alike in exact
arithmetic, but they sum reduced costs in different orders, so where two
columns tie to the last bits they may enter in another order and end at
another optimal vertex. On the identity corpora both kernels must give the
same statuses, infeasible and unbounded included, and totals and per-vehicle
totals equal to 1e-9 relative; every audit of a full-model schedule must be
clean, and every ablation ordering and dominance check must hold (the
ablation runners raise on a broken ordering). The corpora:

- the benchmark's inputs at seeds 0, 1 and 7, read through bench/inputs.py
  by path, as tests/test_bench_refs.py reads them;
- ``random_scenario``;
- ``random_bounded_lp``, ``random_banded_lp`` and random LPs with columns
  bounded on one side only, whose statuses take all three values.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from evdispatch import (
    HIGH_SOE,
    LOW_SOE,
    check_schedule,
    cost_toggles_for,
    load_price_series,
    load_scenario,
    lp,
    run_cost_ablation,
    run_power_ablation,
    solve_evba,
    solve_evca,
)
from evdispatch.analysis import generate_price_set
from oracles import DenseSimplex, build_problem, random_banded_lp, random_bounded_lp, random_free_bound_lp
from scen import random_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

MODELS = {
    "evba": solve_evba,
    "evca_high": lambda s: solve_evca(s, HIGH_SOE),
    "evca_low": lambda s: solve_evca(s, LOW_SOE),
}


@pytest.fixture
def dense_kernel(monkeypatch):
    """A callable that runs its argument with every LP solved by the dense
    reference kernel."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(lp, "solve", lambda p: DenseSimplex(p).run())
            return fn(*args)
    return run


def _bench_inputs(workload: str, seed: int, out_dir: Path):
    out_dir.mkdir()
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    scenario, prices = inputs.write_inputs(workload, seed, out_dir)
    s = load_scenario(scenario)
    return s, {level: load_price_series(path, s.horizon.step_count) for level, path in prices.items()}


def _schedules(s, prices: dict, models: dict) -> dict[str, tuple]:
    """Status, total and per-vehicle totals of each model under each price
    series, each optimal schedule audited clean and no station model cheaper
    than the fleet model."""
    out = {}
    for level, ps in prices.items():
        sp = s.with_prices(ps)
        for model, solve in models.items():
            fs = solve(sp)
            out[f"{level}/{model}"] = (fs.status, fs.total_cost_eur, [c.total_eur for c in fs.per_vehicle])
            if fs.status == "optimal":
                assert check_schedule(sp, fs).ok, (level, model)
        if "evba" in models:
            for model in models.keys() - {"evba"}:
                assert out[f"{level}/evba"][1] <= out[f"{level}/{model}"][1] + 1e-6, (level, model)
    return out


def _ablations(s, high) -> dict[str, tuple]:
    """Status and total of each ablation variant; the relaxed power variants
    may break the full model, every other one is audited clean."""
    out = {}
    for study in (run_power_ablation(s, high), run_cost_ablation(s, high)):
        for r in study.reports:
            out[f"{study.kind}/{r.label}"] = (r.status, r.total_cost_eur, None)
            assert r.violations.ok or r.label in ("obc_only", "cp_only", "fixed_4kw"), r.label
    return out


def _assert_same_answers(got: dict[str, tuple], ref: dict[str, tuple]) -> None:
    assert got.keys() == ref.keys()
    for label, (status, total, per_vehicle) in got.items():
        assert status == ref[label][0], label
        if status == "optimal":
            assert total == pytest.approx(ref[label][1], rel=1e-9, abs=1e-9), label
            assert per_vehicle == pytest.approx(ref[label][2], rel=1e-9, abs=1e-9), label


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bench_inputs_give_the_dense_kernels_answers(tmp_path, seed, dense_kernel):
    s, prices = _bench_inputs("paper-study", seed, tmp_path / "paper")

    def answers():
        return {**_schedules(s, prices, MODELS), **_ablations(s, prices["high"])}

    _assert_same_answers(answers(), dense_kernel(answers))
    s, prices = _bench_inputs("long-horizon", seed, tmp_path / "long")
    of5 = {"evba": lambda sp: solve_evba(sp, cost_toggles_for("of5"))}
    _assert_same_answers(_schedules(s, prices, of5), dense_kernel(_schedules, s, prices, of5))


def test_random_scenarios_give_the_dense_kernels_answers(dense_kernel):
    for seed in range(10):
        s = random_scenario(seed)
        prices = {level: generate_price_set(level, seed=seed) for level in ("low", "high")}
        _assert_same_answers(_schedules(s, prices, MODELS), dense_kernel(_schedules, s, prices, MODELS))


def test_random_lps_give_the_dense_kernels_statuses_and_objectives():
    corpus = [random_bounded_lp, random_banded_lp, random_free_bound_lp]
    statuses = set()
    for make in corpus:
        for seed in range(200):
            p = build_problem(*make(np.random.default_rng(seed)))
            got, ref = lp.solve(p), DenseSimplex(p).run()
            assert got.status == ref.status, (make.__name__, seed)
            statuses.add(got.status)
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9), (make.__name__, seed)
                assert got.stats.max_violation <= lp.FEAS_TOL
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
