"""evdispatch benchmark: one workload per process, run as a closed loop.

    python3 bench/run.py --workload paper-study --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One client sends the next op when the previous one returns. Each op is timed
through the package's public API, and every op's output is checked outside
the timed region. Progress and details go to stdout; the last line is one
JSON object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see bench/README.md). Spans and a summary with the machine
description are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = BENCH / "refs.json"

# BLAS threads are pinned so that timings do not depend on how many cores
# numpy grabs; numpy reads these when it is first imported.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters per untraced run, spread evenly over the timed loop so
# that they sample the same machine conditions as the ops; setup_s is their
# median.
SETUP_STARTS = 10
# The tail is reported at one fixed percentile per workload, so that two
# commits compare the same statistic. It is the highest of p50/p75/p90/p95
# with ten or more ops beyond it at the slowest op rate seen with 50-s runs:
# about 110 ops for paper-study (p90; the slowest command, compare) and 85
# for long-horizon (p75). A faster commit only adds ops beyond it.
TAIL_PERCENTILE = {"paper-study": 90.0, "station-fleet": 75.0, "long-horizon": 75.0}
LOAD_REPEATS = 5   # in-process input loads timed by the traced run

# A fresh interpreter: import the package and load the workload's inputs.
PROBE = (
    "import sys, evdispatch\n"
    "s = evdispatch.load_scenario(sys.argv[1])\n"
    "for p in sys.argv[2:]:\n"
    "    evdispatch.load_price_series(p, s.horizon.step_count)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("paper-study", "station-fleet", "long-horizon"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(scenario: Path, prices: list[Path]) -> float:
    # no timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantise the measurement
    start = perf_counter()
    subprocess.run([sys.executable, "-c", PROBE, str(scenario), *map(str, prices)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
    }


class Loop:
    """Runs cycles of a workload's ops and records each op's time and verdict."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.first: dict[str, tuple[str | None, list[str]]] = {}
        self.records: list[dict] = []

    def _call(self, op, op_id):
        gc.collect()
        self.tracer.op = op_id
        start = perf_counter()
        try:
            result, err = op.run(), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            result, err = None, f"{op.name}: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        self.tracer.op = None
        return result, err, seconds

    def warm_up(self) -> None:
        """One untimed cycle; the full verification of each op happens here."""
        for op in self.wl.ops:
            result, err, _ = self._call(op, None)
            digest, problems = None, [err] if err else []
            if not err:
                try:
                    problems = op.verify(result)
                    digest = op.digest(result)
                except Exception as exc:  # noqa: BLE001 - a broken output fails the op
                    problems = [f"{op.name}: verification raised {type(exc).__name__}: {exc}"]
            self.first[op.name] = (digest, problems)

    def cycle(self, index: int, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            for op in self.wl.ops:
                op_id = f"{index}:{op.name}"
                result, err, seconds = self._call(op, op_id)
                digest, problems = self.first[op.name]
                if err:
                    problems = [err]
                elif digest is None or op.digest(result) != digest:
                    problems = [f"{op.name}: output bytes differ from the first run"]
                self.records.append({"op": op_id, "name": op.name, "cycle": index, "traced": traced,
                                     "seconds": seconds, "vehicle_days": op.vehicle_days,
                                     "problems": problems})
        finally:
            if traced:
                self.tracer.uninstall()

    def cycle_seconds(self) -> dict[int, float]:
        per: dict[int, float] = {}
        for r in self.records:
            per[r["cycle"]] = per.get(r["cycle"], 0.0) + r["seconds"]
        return per


def end_to_end(loop: Loop, setup: list[float], tail_pct: float) -> tuple[dict, dict]:
    import tracing

    lat_ms = [1e3 * r["seconds"] for r in loop.records]
    tail_ms = tracing.percentile(lat_ms, tail_pct)
    days: dict[int, float] = {}
    busy: dict[int, float] = {}
    for r in loop.records:
        days[r["cycle"]] = days.get(r["cycle"], 0.0) + r["vehicle_days"]
        busy[r["cycle"]] = busy.get(r["cycle"], 0.0) + r["seconds"]
    rates = [days[c] / busy[c] for c in days]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "vehicle_days_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(1 for x in lat_ms if x > tail_ms)
    detail = {"op_tail_percentile": tail_pct, "op_samples": len(lat_ms),
              "op_samples_beyond_tail": beyond, "cycles": len(rates),
              "setup_samples": [round(s, 4) for s in setup]}
    return metrics, detail


def traced_layers(loop: Loop, tracer, loads_ms: list[float]) -> tuple[dict, dict]:
    import tracing

    walls = {r["op"]: r["seconds"] for r in loop.records if r["traced"]}
    metrics = tracing.layer_metrics(tracer.spans, walls, loads_ms)
    # each traced cycle against the untraced cycle just before it, so that
    # drift in machine speed between the two cancels
    per = loop.cycle_seconds()
    overhead = statistics.median(per[c] / per[c - 1] for c in per if c % 2) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    op_ms = metrics["trace.op_ms"][0]
    shares = {k: round(metrics[k][0] / op_ms, 4) for k in tracing.SELF_TIME}
    return metrics, {"traced_ops": len(walls), "share_of_op_wall": shares,
                     "share_sum": round(sum(shares.values()), 6),
                     "lp_solve_tail_percentile": tracing.tail(tracing.lp_solve_ms(tracer.spans, walls))[0]}


def run(args, ev, work: Path) -> dict:
    import inputs
    import tracing
    import workloads

    scenario, prices = inputs.write_inputs(args.workload, args.seed, work)
    if args.workload != "paper-study":
        prices = {"high": prices["high"]}
    refs = json.loads(REFS.read_text()).get(args.workload, {}) if REFS.exists() else {}
    checker = workloads.Checker(refs.get(str(args.seed)))

    setup: list[float] = []
    tracer = tracing.Tracer(ev)
    loads_ms = []
    if args.trace:
        tracer.install()
        try:
            for k in range(LOAD_REPEATS):
                tracer.op = f"load{k}"
                start = perf_counter()
                s = ev.domain.load_scenario(scenario)
                for p in prices.values():
                    ev.domain.load_price_series(p, s.horizon.step_count)
                loads_ms.append(1e3 * (perf_counter() - start))
        finally:
            tracer.op = None
            tracer.uninstall()

    wl = workloads.build(args.workload, ev, scenario, prices, work / "reports", checker)
    loop = Loop(wl, tracer)
    loop.warm_up()
    deadline = perf_counter() + args.seconds
    index = 0
    # the traced run alternates untraced and traced cycles, so the overhead
    # estimate sees the same machine conditions on both sides
    while index == 0 or perf_counter() < deadline or (args.trace and index % 2):
        loop.cycle(index, traced=bool(args.trace and index % 2))
        index += 1
        if not args.trace:
            # between cycles, so that no probe overlaps a timed op
            done = 1.0 - (deadline - perf_counter()) / args.seconds
            while len(setup) < min(done, 1.0) * SETUP_STARTS:
                setup.append(setup_seconds(scenario, list(prices.values())))

    failed = sum(1 for r in loop.records if r["problems"])
    problems = sorted({p for r in loop.records for p in r["problems"]})
    if args.trace:
        metrics, detail = traced_layers(loop, tracer, loads_ms)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, detail = end_to_end(loop, setup, TAIL_PERCENTILE[args.workload])
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / len(loop.records),
        "cost_reference": "checked" if checker.refs is not None else "unchecked",
        "op_median_ms": {name: round(1e3 * statistics.median(
            r["seconds"] for r in loop.records if r["name"] == name), 3) for name in
            dict.fromkeys(r["name"] for r in loop.records)},
        "problems": problems[:20],
        "environment": environment(),
    })
    return {"correct": failed == 0, "attempted": len(loop.records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "detail": detail}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evdispatch" / "__init__.py").is_file():
        print(f"error: {SRC / 'evdispatch'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["PYTHONPATH"] = str(SRC)  # for the set-up probes
    sys.path.insert(0, str(SRC))
    import evdispatch as ev  # after the thread pins
    import evdispatch.cli  # noqa: F401 - ops reach it as ev.cli

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, ev, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = result.pop("detail")
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print("detail " + json.dumps(detail))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
