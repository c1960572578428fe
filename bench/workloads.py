"""The three workloads: their ops, and the checks run on every op's output.

An op is one call through the package's public API. A workload is a fixed
cycle of ops that the benchmark repeats as a closed loop. The first run of
each op is verified in full (audit, dominance, stored reference cost); a
repeat must then produce the same bytes as that first run, and inherits its
verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REL_TOL = 1e-6        # stored reference vs this run
SAME_RUN_TOL = 1e-9   # CLI report vs the library call it wraps


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    vehicle_days: float               # V * T * step_hours / 24 per schedule produced
    verify: Callable[[object], list[str]]  # full check of a first run
    digest: Callable[[object], str]        # bytes a repeat must reproduce


class Checker:
    """Compares total costs against the stored references of one seed.

    ``observed`` collects every labelled cost, checked or not, which is also
    how the reference file is produced.
    """

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.observed: dict[str, float] = {}

    def cost(self, label: str, value: float) -> list[str]:
        self.observed[label] = value
        if self.refs is None:
            return []
        if label not in self.refs:
            return [f"{label}: no stored reference"]
        ref = self.refs[label]
        if abs(value - ref) > REL_TOL * max(1.0, abs(ref)):
            return [f"{label}: total cost {value!r} differs from reference {ref!r}"]
        return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SAME_RUN_TOL * max(1.0, abs(b))


def _schedule_problems(ev, s, fs, label: str, checker: Checker) -> list[str]:
    if fs.status != "optimal":
        return [f"{label}: status {fs.status} {fs.message}"]
    out = [f"{label}: audit {v}" for v in ev.check_schedule(s, fs).violations[:3]]
    return out + checker.cost(label, fs.total_cost_eur)


def _schedule_digest(fs) -> str:
    h = hashlib.sha256(repr(fs.total_cost_eur).encode())
    for arr in (fs.e_sch, fs.e_dch, fs.e_fch, fs.soe, fs.c_deg):
        h.update(arr.tobytes())
    return h.hexdigest()


def _vehicle_days(s) -> float:
    h = s.horizon
    return len(s.vehicles) * h.step_count * h.step_hours / 24.0


class PaperStudy:
    """The five CLI commands that produce the paper's answers, in-process."""

    def __init__(self, ev, scenario: Path, prices: dict[str, Path], out: Path, checker: Checker):
        self.ev, self.checker = ev, checker
        self.s = ev.load_scenario(scenario)
        T = self.s.horizon.step_count
        self.prices = {k: ev.load_price_series(p, T) for k, p in prices.items()}
        src = ["--scenario", str(scenario)]
        high = ["--prices", str(prices["high"])]
        commands = {
            # name: (argv, schedules produced, verifier)
            "compare": (["compare", *src, "--prices", *(str(p) for p in prices.values())],
                        3 * len(prices), self._verify_compare),
            "ablate-power": (["ablate-power", *src, *high], 4, self._verify_power),
            "ablate-costs": (["ablate-costs", *src, *high], 5, self._verify_costs),
            "solve-evba": (["solve", "--model", "evba", *src, *high], 1,
                           lambda result: self._verify_solve(result, "evba", None)),
            "solve-evca-low": (["solve", "--model", "evca", "--policy", "low", *src, *high], 1,
                               lambda result: self._verify_solve(result, "evca_low", ev.LOW_SOE)),
        }
        vd = _vehicle_days(self.s)
        self.ops = []
        for name, (argv, schedules, verify) in commands.items():
            out_dir = out / name
            self.ops.append(Op(name, self._runner(argv + ["--out", str(out_dir)], out_dir),
                               vd * schedules, verify, self._digest))

    def _runner(self, argv: list[str], out_dir: Path):
        cli = self.ev.cli

        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            return rc, out_dir, stdout.getvalue()

        return run

    @staticmethod
    def _digest(result) -> str:
        rc, out_dir, _ = result
        h = hashlib.sha256(str(rc).encode())
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def _library(self, label: str, policy):
        """The schedule the CLI command computed, recomputed through the library."""
        sp = self.s.with_prices(self.prices[label])
        if policy is None:
            return sp, self.ev.solve_evba(sp)
        return sp, self.ev.solve_evca(sp, policy)

    def _verify_compare(self, result) -> list[str]:
        rc, out_dir, _ = result
        if rc != 0:
            return [f"compare: exit code {rc}"]
        cells = json.loads((out_dir / "comparison.json").read_text())["cells"]
        policies = {"evba": None, "evca_high": self.ev.HIGH_SOE, "evca_low": self.ev.LOW_SOE}
        problems = []
        for c in cells:
            label = f"compare/{c['price']}/{c['model']}"
            if c["status"] != "optimal":
                problems.append(f"{label}: status {c['status']} {c['error']}")
                continue
            if c["model"] != "evba" and c["dominance_ok"] is not True:
                problems.append(f"{label}: dominance_ok is {c['dominance_ok']}")
            sp, fs = self._library(c["price"], policies[c["model"]])
            problems += _schedule_problems(self.ev, sp, fs, label, self.checker)
            if not _close(c["total_cost_eur"], fs.total_cost_eur):
                problems.append(f"{label}: report cost differs from the library's")
        if len(cells) != 9:
            problems.append(f"compare: {len(cells)} cells, expected 9")
        return problems

    def _verify_ablation(self, result, kind: str, full_model: set[str] | None) -> list[str]:
        rc, out_dir, _ = result
        if rc != 0:
            return [f"{kind}: exit code {rc}"]
        variants = json.loads((out_dir / f"{kind}_ablation.json").read_text())["variants"]
        problems = []
        for v in variants:
            label = f"{kind}/{v['label']}"
            if v["status"] != "optimal":
                problems.append(f"{label}: status {v['status']}")
                continue
            # relaxed power caps may legitimately break the full constraint set
            if (full_model is None or v["label"] in full_model) and v["violation_count"]:
                problems.append(f"{label}: {v['violation_count']} audit violations")
            problems += self.checker.cost(label, v["total_cost_eur"])
        return problems

    def _verify_power(self, result) -> list[str]:
        return self._verify_ablation(result, "power", {"both"})

    def _verify_costs(self, result) -> list[str]:
        return self._verify_ablation(result, "cost", None)

    def _verify_solve(self, result, model: str, policy) -> list[str]:
        rc, out_dir, _ = result
        label = f"solve/{model}"
        if rc != 0:
            return [f"{label}: exit code {rc}"]
        breakdown = json.loads((out_dir / "breakdown.json").read_text())
        sp, fs = self._library("high", policy)
        problems = _schedule_problems(self.ev, sp, fs, label, self.checker)
        if breakdown["status"] != "optimal" or not _close(breakdown["total_cost_eur"], fs.total_cost_eur):
            problems.append(f"{label}: report {breakdown['status']} "
                            f"{breakdown['total_cost_eur']!r} differs from the library's")
        return problems


class LibraryWorkload:
    """Direct library solves of one scenario under the high-volatility prices."""

    def __init__(self, ev, scenario: Path, prices: dict[str, Path], checker: Checker, calls):
        self.ev, self.checker = ev, checker
        s = ev.load_scenario(scenario)
        self.s = s.with_prices(ev.load_price_series(prices["high"], s.horizon.step_count))
        vd = _vehicle_days(self.s)
        self.ops = [Op(name, self._runner(call), vd, self._verifier(name), _schedule_digest)
                    for name, call in calls.items()]

    def _runner(self, call):
        return lambda: call(self.s)

    def _verifier(self, label: str):
        return lambda fs: _schedule_problems(self.ev, self.s, fs, label, self.checker)


def build(workload: str, ev, scenario: Path, prices: dict[str, Path], out: Path, checker: Checker):
    """The workload object, whose ``ops`` list is one cycle of the closed loop.

    Ops look their target up on the module at call time, so a tracer that
    swaps the module attribute sees the call.
    """
    if workload == "paper-study":
        return PaperStudy(ev, scenario, prices, out, checker)
    if workload == "station-fleet":
        calls = {
            "evca_high": lambda s: ev.evca.solve_evca(s, ev.HIGH_SOE),
            "evca_low": lambda s: ev.evca.solve_evca(s, ev.LOW_SOE),
        }
    elif workload == "long-horizon":
        of5 = ev.cost_toggles_for("of5")
        calls = {"evba_of5": lambda s: ev.evba.solve_evba(s, of5)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return LibraryWorkload(ev, scenario, prices, checker, calls)


WORKLOADS = ("paper-study", "station-fleet", "long-horizon")
