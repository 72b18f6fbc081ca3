"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run measures for about ``--seconds`` seconds untraced and
reports every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it times a fixed set of units untraced, then the same units
under ``cProfile``, and reports every per-layer metric.  Without
``--workload`` it runs every workload in turn, each in its own process.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a readable table goes to standard error.  ``correct`` is false when an
output check failed, except for the three documented chaos defects, which
are counted in ``failed`` and ``ops_ok_frac`` (see NOTES.md).
"""

import os
import sys
import time

# Python seeds its string hashing per process, and with random seeds the
# same run scattered more between processes (table1-scale op_s_p50: 14%
# against 11% interquartile spread over ten runs).  So the benchmark, and
# the set-up processes it starts, run with a fixed seed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, "PYTHONHASHSEED": "0"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import calibrate  # noqa: E402

# Set-up time runs from here: imports, workload generation and warm-up,
# normalised by kernel times taken just before and just after it.
_KERNEL_AT_START = calibrate.typical()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

# One process, one thread: keep numpy's thread pools out of the measurement.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("table1-scale", "design-sweep", "service-soak", "chaos-recovery")
#: Set-ups per untraced run: this process plus fresh child processes.
SETUPS = 3
CHILD_TIMEOUT = 150


def load_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return os.path.dirname(os.path.abspath(repro.__file__))


def make_workload(name: str, seed: int):
    from perfbench.chaos_recovery import ChaosRecovery
    from perfbench.design_sweep import DesignSweep
    from perfbench.service_soak import ServiceSoak
    from perfbench.table1_scale import Table1Scale

    classes = (Table1Scale, DesignSweep, ServiceSoak, ChaosRecovery)
    return {cls.name: cls for cls in classes}[name](seed)


def child_setup(args) -> float:
    """Set-up seconds of a fresh process for the same workload and seed."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def report(values, listed, correct, attempted, failed) -> dict:
    """The result object, with exactly the metrics ``listed``."""
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_one(args):
    """Run one workload; returns (result, meter), or None for --setup-only."""
    repro_dir = load_program()
    from perfbench import harness
    from repro.perf import cache_stats, clear_all_caches

    workload = make_workload(args.workload, args.seed)
    workload.warm_up()
    setup_s = time.perf_counter() - _START
    setup_s *= calibrate.NOMINAL / ((_KERNEL_AT_START + calibrate.typical()) / 2)
    if args.setup_only:
        print(repr(setup_s))
        return None
    with open(SPEC) as fh:
        spec = json.load(fh)

    if not args.trace:
        setups = [setup_s] + [child_setup(args) for _ in range(SETUPS - 1)]
        meter = harness.measure(workload, args.seconds, workload.min_units)
        values = harness.end_to_end(workload, meter, statistics.median(setups))
        return report(values, spec["end_to_end"], not meter.problems,
                      meter.attempted, meter.failed), meter

    import cProfile
    import pstats

    plain = harness.measure(workload, None, workload.trace_units)
    clear_all_caches()
    workload.warm_up()
    profiler = cProfile.Profile()
    traced = harness.measure(workload, None, workload.trace_units,
                             profiler=profiler, cache_stats=cache_stats)
    values = harness.per_layer(workload, plain, traced,
                               pstats.Stats(profiler), repro_dir)
    for m in spec["per_layer"]:
        if m["name"].startswith("perf.") and m["name"].endswith(".hit_frac"):
            values.setdefault(m["name"], 0.0)  # a cache this revision lacks
    correct = not (plain.problems or traced.problems)
    return report(values, spec["per_layer"], correct,
                  traced.attempted, traced.failed), traced


def print_table(result: dict, meter) -> None:
    err = sys.stderr
    for name, m in result["metrics"].items():
        print(f"  {name:<40s} {m['value']:>16.6g} {m['unit']}", file=err)
    print(f"  {meter.units} units, {result['attempted']} operations attempted, "
          f"{result['failed']} failed "
          f"({len(meter.known)} of them documented defects)", file=err)
    for problem in (meter.problems + meter.known)[:20]:
        print(f"  FAILED {problem}", file=err)


def run_all(args) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"{name}:", file=sys.stderr)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        print(json.dumps(run_all(args)))
        return 0
    out = run_one(args)
    if out is None:
        return 0
    result, meter = out
    print_table(result, meter)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
