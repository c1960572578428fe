"""Command-line entry point.

Thin adapter over the library: every behavior here is reachable through the
module functions. Exit codes: 0 success, 1 infeasibility, validation
diagnostics or a solver failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    OrderingError,
    compare_aggregators,
    generate_price_set,
    run_cost_ablation,
    run_power_ablation,
    write_report,
)
from .domain import ScenarioError, load_price_series, load_scenario, validate_scenario
from .evba import OBJECTIVE_VARIANTS, AssemblyError, PowerMode, cost_toggles_for, solve_evba
from .evca import HIGH_SOE, LOW_SOE, ItineraryError, SessionInfeasibleError, solve_evca
from .lp import LpError

_POWER_FLAGS = {
    "fixed": PowerMode.FIXED_4KW,
    "obc": PowerMode.OBC_ONLY,
    "cp": PowerMode.CP_ONLY,
    "both": PowerMode.BOTH,
}
_POLICY_FLAGS = {"high": HIGH_SOE, "low": LOW_SOE}


def _default_out() -> str:
    return os.environ.get("EVDISPATCH_OUT", "out")


def _add_price_source(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--prices", help="price CSV file (step_index,price_eur_per_kwh)")
    grp.add_argument(
        "--gen-prices", choices=("low", "medium", "high"), help="generate a seeded price series"
    )
    p.add_argument("--seed", type=int, default=1, help="seed for generated prices")


def _resolve_prices(args, step_count: int):
    if args.prices:
        return load_price_series(args.prices, step_count)
    return generate_price_set(args.gen_prices, seed=args.seed, step_count=step_count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evdispatch",
        description="Day-ahead EV charge/discharge scheduling and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one model for one price source")
    p_solve.add_argument("--model", choices=("evba", "evca"), required=True)
    p_solve.add_argument("--scenario", required=True)
    _add_price_source(p_solve)
    p_solve.add_argument("--policy", choices=tuple(_POLICY_FLAGS), help="departure SOE policy (evca)")
    p_solve.add_argument("--costs", default="of5", choices=tuple(OBJECTIVE_VARIANTS))
    p_solve.add_argument("--power", default="both", choices=tuple(_POWER_FLAGS))
    p_solve.add_argument("--best-effort", action="store_true",
                         help="lower unreachable session floors instead of failing (evca)")
    p_solve.add_argument("--out", default=_default_out())
    p_solve.add_argument("--tolerance", type=float, default=1e-6)

    p_cmp = sub.add_parser("compare", help="fleet vs per-station grid over three price series")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--prices", nargs=3, metavar="CSV",
                       help="three price CSV files instead of generated series")
    p_cmp.add_argument("--out", default=_default_out())

    p_pow = sub.add_parser("ablate-power", help="power-cap ablation with audit")
    p_pow.add_argument("--scenario", required=True)
    _add_price_source(p_pow)
    p_pow.add_argument("--costs", default="of1", choices=tuple(OBJECTIVE_VARIANTS))
    p_pow.add_argument("--out", default=_default_out())

    p_cost = sub.add_parser("ablate-costs", help="objective-term ablation of1..of5")
    p_cost.add_argument("--scenario", required=True)
    _add_price_source(p_cost)
    p_cost.add_argument("--power", default="both", choices=tuple(_POWER_FLAGS))
    p_cost.add_argument("--out", default=_default_out())

    p_val = sub.add_parser("validate", help="scenario diagnostics only")
    p_val.add_argument("--scenario", required=True)
    return parser


def _cmd_solve(args) -> int:
    s = load_scenario(args.scenario)
    s = s.with_prices(_resolve_prices(args, s.horizon.step_count))
    ct = cost_toggles_for(args.costs)
    power = _POWER_FLAGS[args.power]
    if args.model == "evca":
        fs = solve_evca(
            s,
            _POLICY_FLAGS[args.policy],
            ct,
            power,
            best_effort=args.best_effort,
            feas_tol=args.tolerance,
        )
    else:
        fs = solve_evba(s, ct, power, feas_tol=args.tolerance)
    if fs.status != "optimal":
        print(f"{fs.status}: {fs.message}", file=sys.stderr)
        return 1
    paths = write_report(fs, args.out, scenario=s)
    for w in fs.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"total cost: {fs.total_cost_eur:.4f} EUR")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_compare(args) -> int:
    s = load_scenario(args.scenario)
    if args.prices:
        sets = [load_price_series(p, s.horizon.step_count) for p in args.prices]
    else:
        sets = [
            generate_price_set(v, seed=args.seed, step_count=s.horizon.step_count)
            for v in ("high", "medium", "low")
        ]
    report = compare_aggregators(s, sets)
    paths = write_report(report, args.out)
    failures = [c for c in report.cells if c.status != "optimal"]
    for c in failures:
        print(f"cell ({c.price_label}, {c.model}): {c.status} {c.error}", file=sys.stderr)
    for p in paths:
        print(f"wrote {p}")
    return 1 if failures else 0


def _cmd_ablate_power(args) -> int:
    s = load_scenario(args.scenario)
    prices = _resolve_prices(args, s.horizon.step_count)
    study = run_power_ablation(s, prices, cost_toggles_for(args.costs))
    for p in write_report(study, args.out):
        print(f"wrote {p}")
    return 0


def _cmd_ablate_costs(args) -> int:
    s = load_scenario(args.scenario)
    prices = _resolve_prices(args, s.horizon.step_count)
    study = run_cost_ablation(s, prices, _POWER_FLAGS[args.power])
    for p in write_report(study, args.out):
        print(f"wrote {p}")
    return 0


def _cmd_validate(args) -> int:
    s = load_scenario(args.scenario, check=False)
    diags = validate_scenario(s)
    for d in diags:
        print(d)
    if diags:
        return 1
    print("scenario is valid")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.model == "evca" and not args.policy:
        parser.error("--model evca requires --policy high|low")
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "ablate-power":
            return _cmd_ablate_power(args)
        if args.command == "ablate-costs":
            return _cmd_ablate_costs(args)
        return _cmd_validate(args)
    except (ScenarioError, SessionInfeasibleError, ItineraryError, OrderingError, OSError,
            LpError, AssemblyError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
