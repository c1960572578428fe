"""Day-ahead EV charging/discharging schedulers and an experiment harness.

Two scheduler models over the same scenario data:
- evba: the whole-day plan of every vehicle over all charging points, solved
  as one LP per vehicle because no constraint couples two vehicles;
- evca: chronological per-session LPs, each blind to prices outside its own
  plug-in window, chained through realized state of energy.

Plus a self-contained bounded-variable simplex solver, a linearized battery
wear cost, a constraint auditor and reporting/ablation runners.
"""

from .analysis import (
    AblationReport,
    AblationStudy,
    ComparisonCell,
    ComparisonReport,
    OrderingError,
    Violation,
    ViolationReport,
    check_schedule,
    compare_aggregators,
    generate_price_set,
    run_cost_ablation,
    run_power_ablation,
    write_report,
)
from .degradation import degradation_cost, plane_values
from .domain import (
    ChargingPoint,
    ConnectivityMatrix,
    DegradationParams,
    Horizon,
    PriceSeries,
    Scenario,
    ScenarioError,
    TariffCalendar,
    TripPlan,
    Vehicle,
    example_scenario_path,
    load_price_series,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from .evba import (
    CostToggles,
    FleetSchedule,
    PowerMode,
    SessionResult,
    VehicleCosts,
    build_evba,
    cost_toggles_for,
    extract_schedule,
    solve_evba,
    solve_evba_series,
)
from .evca import (
    HIGH_SOE,
    LOW_SOE,
    ItineraryError,
    Session,
    SessionInfeasibleError,
    SoePolicy,
    chain_arrival_soe,
    derive_sessions,
    solve_evca,
    solve_evca_series,
)
from .lp import LpError, LpProblem, LpSolution, solve

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "AblationStudy",
    "ChargingPoint",
    "ComparisonCell",
    "ComparisonReport",
    "ConnectivityMatrix",
    "CostToggles",
    "DegradationParams",
    "FleetSchedule",
    "HIGH_SOE",
    "Horizon",
    "ItineraryError",
    "LOW_SOE",
    "LpError",
    "LpProblem",
    "LpSolution",
    "OrderingError",
    "PowerMode",
    "PriceSeries",
    "Scenario",
    "ScenarioError",
    "Session",
    "SessionInfeasibleError",
    "SessionResult",
    "SoePolicy",
    "TariffCalendar",
    "TripPlan",
    "Vehicle",
    "VehicleCosts",
    "Violation",
    "ViolationReport",
    "build_evba",
    "chain_arrival_soe",
    "check_schedule",
    "compare_aggregators",
    "cost_toggles_for",
    "degradation_cost",
    "derive_sessions",
    "example_scenario_path",
    "extract_schedule",
    "generate_price_set",
    "load_price_series",
    "load_scenario",
    "parse_scenario",
    "plane_values",
    "run_cost_ablation",
    "run_power_ablation",
    "solve",
    "solve_evba",
    "solve_evba_series",
    "solve_evca",
    "solve_evca_series",
    "validate_scenario",
    "write_report",
]
