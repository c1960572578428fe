"""Command-line entry point.

Thin adapter over the library: every behavior here is reachable through the
module functions. Exit codes: 0 success, 1 infeasibility, validation
diagnostics or a solver failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .analysis import (
    OrderingError,
    compare_aggregators,
    generate_price_set,
    run_cost_ablation,
    run_power_ablation,
    write_report,
)
from .domain import Horizon, load_price_series, load_scenario, validate_scenario
from .evba import OBJECTIVE_VARIANTS, AssemblyError, PowerMode, cost_toggles_for, solve_evba
from .evca import HIGH_SOE, LOW_SOE, ItineraryError, SessionInfeasibleError, solve_evca

_POWER_FLAGS = {
    "fixed": PowerMode.FIXED_4KW,
    "obc": PowerMode.OBC_ONLY,
    "cp": PowerMode.CP_ONLY,
    "both": PowerMode.BOTH,
}
_POLICY_FLAGS = {"high": HIGH_SOE, "low": LOW_SOE}
_SEED = 1  # of generated prices, unless --seed is given


def _default_out() -> str:
    return os.environ.get("EVDISPATCH_OUT", "out")


def _add_price_source(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--prices", help="price CSV file (step_index,price_eur_per_kwh)")
    grp.add_argument(
        "--gen-prices", choices=("low", "medium", "high"), help="generate a seeded price series"
    )
    p.add_argument("--seed", type=int, help=f"seed for generated prices (default {_SEED})")


def _resolve_prices(args, h: Horizon):
    if args.prices:
        return load_price_series(args.prices, h.step_count)
    return generate_price_set(
        args.gen_prices, seed=_seed(args), step_count=h.step_count, step_hours=h.step_hours
    )


def _seed(args) -> int:
    return _SEED if args.seed is None else args.seed


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
    p_solve.add_argument("--out")

    p_cmp = sub.add_parser("compare", help="fleet vs per-station grid over three price series")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seed", type=int, help=f"seed for generated prices (default {_SEED})")
    p_cmp.add_argument("--prices", nargs=3, metavar="CSV",
                       help="three price CSV files instead of generated series")
    p_cmp.add_argument("--out")

    p_pow = sub.add_parser("ablate-power", help="power-cap ablation with audit")
    p_pow.add_argument("--scenario", required=True)
    _add_price_source(p_pow)
    p_pow.add_argument("--costs", default="of1", choices=tuple(OBJECTIVE_VARIANTS))
    p_pow.add_argument("--out")

    p_cost = sub.add_parser("ablate-costs", help="objective-term ablation of1..of5")
    p_cost.add_argument("--scenario", required=True)
    _add_price_source(p_cost)
    p_cost.add_argument("--power", default="both", choices=tuple(_POWER_FLAGS))
    p_cost.add_argument("--out")

    p_val = sub.add_parser("validate", help="scenario diagnostics only")
    p_val.add_argument("--scenario", required=True)
    return parser


def _cmd_solve(args) -> int:
    s = load_scenario(args.scenario)
    s = s.with_prices(_resolve_prices(args, s.horizon))
    ct = cost_toggles_for(args.costs)
    power = _POWER_FLAGS[args.power]
    if args.model == "evca":
        fs = solve_evca(s, _POLICY_FLAGS[args.policy], ct, power, best_effort=args.best_effort)
    else:
        fs = solve_evba(s, ct, power)
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
            generate_price_set(
                v, seed=_seed(args), step_count=s.horizon.step_count, step_hours=s.horizon.step_hours
            )
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
    prices = _resolve_prices(args, s.horizon)
    study = run_power_ablation(s, prices, cost_toggles_for(args.costs))
    for p in write_report(study, args.out):
        print(f"wrote {p}")
    return 0


def _cmd_ablate_costs(args) -> int:
    s = load_scenario(args.scenario)
    prices = _resolve_prices(args, s.horizon)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if "out" in vars(args) and args.out is None:  # read at call time, not at build time
        args.out = _default_out()
    if args.command == "solve" and args.model == "evca" and not args.policy:
        parser.error("--model evca requires --policy high|low")
    if args.command == "solve" and args.model == "evba" and (args.policy or args.best_effort):
        parser.error(f"{'--policy' if args.policy else '--best-effort'} applies to --model evca only")
    seed = getattr(args, "seed", None)
    if seed is not None and getattr(args, "prices", None):
        parser.error("--seed applies to generated prices only, not to --prices")
    if seed is not None and seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {seed}")
    commands = {"solve": _cmd_solve, "compare": _cmd_compare, "ablate-power": _cmd_ablate_power,
                "ablate-costs": _cmd_ablate_costs, "validate": _cmd_validate}
    try:
        return commands[args.command](args)
    except (ValueError, SessionInfeasibleError, ItineraryError, OrderingError, OSError,
            AssemblyError, ArithmeticError) as exc:  # ScenarioError and LpError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
