"""Write the stored reference costs in bench/refs.json.

    python3 bench/make_refs.py --seeds 0-63

For each workload and seed this runs every op of one cycle once, applies the
same checks as the benchmark (audit, dominance, CLI report against the
library) and stores every labelled total cost. While it runs, every LP the
package solves is solved again with scipy's HiGHS when scipy can be
imported; an objective that differs by more than the benchmark's relative
tolerance aborts the run. scipy is not a dependency of the package, so
without it the references are written unchecked and the file says so.
Existing entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"


def highs_objective(p, linprog, np):
    """Objective of an evdispatch LpProblem solved by HiGHS, or None if not optimal.

    LpProblem has no public accessor for its rows, so this reads its internal
    lists and has to follow any change to how the problem stores them.
    """
    n = p.num_variables
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row, sense, rhs in zip(p._rows, p._senses, p._rhs):
        dense = np.zeros(n)
        for var, coef in row.items():
            dense[var] = coef
        if sense == "=":
            eq_rows.append(dense)
            eq_rhs.append(rhs)
        else:
            sign = 1.0 if sense == "<=" else -1.0
            ub_rows.append(sign * dense)
            ub_rhs.append(sign * rhs)
    res = linprog(
        np.array(p._cost),
        A_ub=np.array(ub_rows) if ub_rows else None, b_ub=ub_rhs or None,
        A_eq=np.array(eq_rows) if eq_rows else None, b_eq=eq_rhs or None,
        bounds=[(None if lo == -np.inf else lo, None if hi == np.inf else hi)
                for lo, hi in zip(p._lb, p._ub)],
        method="highs",
    )
    return res.fun if res.status == 0 else None


def cross_check(ev, tol: float):
    """Wrap lp.solve so that every optimal objective is compared with HiGHS."""
    try:
        import numpy as np
        from scipy import __version__ as scipy_version
        from scipy.optimize import linprog
    except ImportError:
        return None, [0]
    solve = ev.lp.solve
    count = [0]

    def checked(p, **kwargs):
        sol = solve(p, **kwargs)
        if sol.status == "optimal":
            ref = highs_objective(p, linprog, np)
            if ref is None or abs(sol.objective - ref) > tol * max(1.0, abs(ref)):
                raise AssertionError(f"LP {p.name!r}: objective {sol.objective!r}, HiGHS {ref!r}")
            count[0] += 1
        return sol

    ev.lp.solve = checked
    return f"scipy {scipy_version} linprog(method='highs')", count


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args(argv)

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import evdispatch as ev
    import evdispatch.cli  # noqa: F401
    import inputs
    import workloads

    checker_name, count = cross_check(ev, workloads.REL_TOL)
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    for workload in args.workloads or workloads.WORKLOADS:
        table = refs.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            work = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".bench_out"))
            try:
                scenario, prices = inputs.write_inputs(workload, seed, work)
                if workload != "paper-study":
                    prices = {"high": prices["high"]}
                checker = workloads.Checker(None)
                wl = workloads.build(workload, ev, scenario, prices, work / "reports", checker)
                for op in wl.ops:
                    problems = op.verify(op.run())
                    if problems:
                        raise SystemExit(f"{workload} seed {seed}: {problems}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table[str(seed)] = checker.observed
            print(f"{workload} seed {seed}: {len(checker.observed)} costs, "
                  f"{count[0]} LPs cross-checked so far", flush=True)
    refs["cross_check"] = checker_name or "none: scipy not importable, references unchecked"
    refs["rel_tol"] = workloads.REL_TOL
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
