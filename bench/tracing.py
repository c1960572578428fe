"""Spans around the package's public calls, recorded from outside the package.

Each wrapped function records one span: name, op id, parent span, start and
end. Spans stay in memory until the run writes them out. A name imported
with ``from .x import y`` is a separate binding in the importing module, so
it is wrapped there too (``analysis.solve_evba``, ``evba.validate_scenario``);
the span is named after the module that defines the function, which is the
layer its self time counts towards.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from time import perf_counter


def _lp_info(args, kwargs, sol):
    p = args[0]
    return {"n": p.num_variables, "m": p.num_constraints, "iters": sol.iterations,
            "optimal": sol.status == "optimal"}


def _report_info(args, kwargs, paths):
    return {"files": len(paths), "bytes": sum(Path(p).stat().st_size for p in paths)}


def _sessions_info(args, kwargs, sessions):
    return {"sessions": sum(len(per_vehicle) for per_vehicle in sessions)}


# (defining module, function, modules holding a binding of it, span annotation)
TARGETS = (
    ("lp", "solve", ("lp",), _lp_info),
    ("evba", "solve_evba", ("evba", "analysis", "cli"), None),
    ("evba", "build_evba", ("evba",), None),
    ("evba", "extract_schedule", ("evba",), None),
    ("evca", "solve_evca", ("evca", "analysis", "cli"), None),
    ("evca", "derive_sessions", ("evca",), _sessions_info),
    ("domain", "load_scenario", ("domain", "cli"), None),
    ("domain", "load_price_series", ("domain", "cli"), None),
    ("domain", "validate_scenario", ("domain", "evba", "evca", "cli"), None),
    ("degradation", "degradation_cost", ("evba", "evca"), None),
    ("analysis", "check_schedule", ("analysis",), None),
    ("analysis", "compare_aggregators", ("cli",), None),
    ("analysis", "run_power_ablation", ("cli",), None),
    ("analysis", "run_cost_ablation", ("cli",), None),
    ("analysis", "write_report", ("cli",), _report_info),
    ("charts", "line_chart", ("charts",), None),
    ("charts", "bar_chart", ("charts",), None),
    ("cli", "main", ("cli",), None),
)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self, package):
        self._pkg = package
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.op = None
        # span: [name, site, op, parent, start, end, info]
        self.spans: list[list] = []

    def _module(self, name: str):
        return getattr(self._pkg, name)

    def install(self) -> None:
        for owner, func, sites, info in TARGETS:
            name = f"{owner}.{func}"
            for site in sites:
                mod = self._module(site)
                orig = getattr(mod, func)
                self._saved.append((mod, func, orig))
                setattr(mod, func, self._wrap(orig, name, site, info))

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._saved):
            setattr(mod, func, orig)
        self._saved.clear()

    def _wrap(self, orig, name: str, site: str, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, site, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if info is not None:
                rec[6] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for i, (name, site, op, parent, start, end, info) in enumerate(self.spans):
                row = {"id": i, "name": name, "site": site, "op": op, "parent": parent,
                       "start_us": round(start * 1e6, 1), "dur_us": round((end - start) * 1e6, 1)}
                if info:
                    row.update(info)
                f.write(json.dumps(row) + "\n")


LAYERS = ("lp", "evba", "evca", "domain", "degradation", "analysis", "charts", "cli")
BYTES_PER_FLOAT = 8
# the metrics that together account for an op's wall time
SELF_TIME = ("lp.solve_ms", "evba.self_ms", "evca.self_ms", "domain.self_ms",
             "degradation.cost_ms", "analysis.self_ms", "charts.svg_ms", "cli.self_ms",
             "trace.unattributed_ms")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct * len(xs) / 100.0 - 1e-9) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of 50/75/90/95/99/99.9 with at least
    ten samples beyond it, or the maximum when there are fewer than 20."""
    best = (100.0, max(values))
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if len(values) * (100.0 - pct) >= 1000.0 - 1e-6:
            best = (pct, percentile(values, pct))
    return best


def lp_solve_ms(spans: list[list], op_walls: dict) -> list[float]:
    """Duration of every lp.solve span of the given ops, or [0.0] if none."""
    return [1e3 * (s[5] - s[4]) for s in spans if s[0] == "lp.solve" and s[2] in op_walls] or [0.0]


def layer_metrics(spans: list[list], op_walls: dict[object, float], loads_ms: list[float]) -> dict:
    """Per-layer figures over the spans of the given ops, per op.

    ``op_walls`` maps each traced op id to its wall time in seconds; spans of
    other ops are ignored. Self time is a span's duration minus that of its
    direct children; what no root span covers is the unattributed remainder.
    """
    n_ops = len(op_walls)
    keep = [i for i, s in enumerate(spans) if s[2] in op_walls]
    dur = {i: spans[i][5] - spans[i][4] for i in keep}
    child = dict.fromkeys(keep, 0.0)
    for i in keep:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
    self_s = {layer: 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    roots = 0.0
    for i in keep:
        name = spans[i][0]
        self_s[name.split(".")[0]] += dur[i] - child[i]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if spans[i][3] < 0:
            roots += dur[i]

    def per_op_ms(x: float) -> float:
        return 1e3 * x / n_ops

    def span_ms(*names: str) -> float:
        return per_op_ms(sum(total.get(n, 0.0) for n in names))

    def per_op(name: str) -> float:
        return calls.get(name, 0) / n_ops

    infos = [spans[i][6] for i in keep]
    lp = [(info, dur[i]) for i, info in zip(keep, infos) if spans[i][0] == "lp.solve"]
    lp_ms = lp_solve_ms(spans, op_walls)
    pivots = sum(info["iters"] for info, _ in lp)
    # dense tableau of m rows by n + m columns (structural plus slack; the
    # artificial columns are not visible from outside): one rank-1 update
    # per iteration, which writes the scratch buffer and reads both buffers
    # to write the tableau, four passes in all
    cells = [info["m"] * (info["n"] + info["m"]) for info, _ in lp]
    flop = sum(2.0 * c * info["iters"] for c, (info, _) in zip(cells, lp))
    moved = sum(4.0 * BYTES_PER_FLOAT * c * info["iters"] for c, (info, _) in zip(cells, lp))
    reports = [info for i, info in zip(keep, infos) if spans[i][0] == "analysis.write_report"]
    sessions = sum(info["sessions"] for i, info in zip(keep, infos)
                   if spans[i][0] == "evca.derive_sessions")
    evca_calls = calls.get("evca.solve_evca", 0)
    op_ms = per_op_ms(sum(op_walls.values()))
    return {
        "lp.solve_calls": (per_op("lp.solve"), "count"),
        "lp.solve_ms": (per_op_ms(self_s["lp"]), "ms"),
        "lp.solve_p50_ms": (statistics.median(lp_ms), "ms"),
        "lp.solve_tail_ms": (tail(lp_ms)[1], "ms"),
        "lp.pivots": (pivots / n_ops, "count"),
        "lp.pivots_per_solve": (pivots / max(len(lp), 1), "count"),
        "lp.us_per_pivot": (1e6 * self_s["lp"] / max(pivots, 1), "us"),
        "lp.vars_max": (max((info["n"] for info, _ in lp), default=0), "count"),
        "lp.rows_max": (max((info["m"] for info, _ in lp), default=0), "count"),
        "lp.optimal_ratio": (sum(info["optimal"] for info, _ in lp) / max(len(lp), 1), "ratio"),
        "lp.tableau_gflop_computed": (flop / 1e9 / n_ops, "GFLOP"),
        "lp.tableau_gb_computed": (moved / 1e9 / n_ops, "GB"),
        "lp.tableau_mb_computed": (2 * BYTES_PER_FLOAT * max(cells, default=0) / 1e6, "MB"),
        "evba.solve_calls": (per_op("evba.solve_evba"), "count"),
        "evba.self_ms": (per_op_ms(self_s["evba"]), "ms"),
        "evba.build_ms": (span_ms("evba.build_evba"), "ms"),
        "evba.extract_ms": (span_ms("evba.extract_schedule"), "ms"),
        "evca.solve_calls": (per_op("evca.solve_evca"), "count"),
        "evca.self_ms": (per_op_ms(self_s["evca"]), "ms"),
        "evca.sessions_per_solve": (sessions / max(evca_calls, 1), "count"),
        "evca.derive_ms": (span_ms("evca.derive_sessions"), "ms"),
        "domain.self_ms": (per_op_ms(self_s["domain"]), "ms"),
        "domain.load_ms": (statistics.median(loads_ms), "ms"),
        "domain.validate_ms": (span_ms("domain.validate_scenario"), "ms"),
        "domain.validate_calls": (per_op("domain.validate_scenario"), "count"),
        "degradation.cost_calls": (per_op("degradation.degradation_cost"), "count"),
        "degradation.cost_ms": (per_op_ms(self_s["degradation"]), "ms"),
        "analysis.self_ms": (per_op_ms(self_s["analysis"]), "ms"),
        "analysis.runner_self_ms": (
            per_op_ms(sum(dur[i] - child[i] for i in keep if spans[i][0] in (
                "analysis.compare_aggregators", "analysis.run_power_ablation",
                "analysis.run_cost_ablation"))), "ms"),
        "analysis.audit_ms": (span_ms("analysis.check_schedule"), "ms"),
        "analysis.audit_calls": (per_op("analysis.check_schedule"), "count"),
        "analysis.report_ms": (span_ms("analysis.write_report"), "ms"),
        "analysis.report_bytes": (sum(r["bytes"] for r in reports) / n_ops, "bytes"),
        "analysis.report_files": (sum(r["files"] for r in reports) / n_ops, "count"),
        "charts.svg_ms": (per_op_ms(self_s["charts"]), "ms"),
        "charts.svg_calls": (per_op("charts.line_chart") + per_op("charts.bar_chart"), "count"),
        "cli.self_ms": (per_op_ms(self_s["cli"]), "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.unattributed_ms": (op_ms - per_op_ms(roots), "ms"),
    }
