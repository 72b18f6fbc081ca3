"""Wall-clock benchmark harness: ``python -m repro bench``.

Times the *host* cost of the end-to-end SAGE pipeline — glue generation,
runtime setup, and discrete-event simulation — for the two paper benchmarks
(FFT2D and corner turn) across node counts, and writes ``BENCH_simcore.json``
with events/sec figures and per-stage breakdowns.

The workload is :data:`repro.experiments.BENCH_PROTOCOL` (1 run x 5
iterations, jitter disabled) at matrix size 256 — the same workload the
pytest-benchmark suite under ``benchmarks/`` uses, so numbers from both
harnesses are comparable.  Virtual (simulated) times are wholly unaffected
by anything measured here; the golden-trace tests prove that.

Measurement discipline, chosen to survive noisy shared machines:

* GC is disabled around the timed region.
* Each configuration runs ``--warmups`` untimed passes first (these also
  fill the derived-artifact caches — the cached path IS the steady state
  being measured), then ``--repeats`` timed passes.
* The recorded figure is the *best* pass (min total), the standard
  technique for wall-clock microbenchmarks where noise is strictly additive.

The file embeds :data:`BASELINE` — the same harness run on the tree
immediately before the simulator fast path and caching layers landed — so
every report carries its own before/after comparison.  Refresh it by
checking out the baseline commit and running this module's ``--emit-baseline``
mode (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as _platform
import sys
import time
from typing import Dict, List, Optional, Sequence

from .registry import PerfRegistry

__all__ = [
    "BASELINE",
    "BASELINE_META",
    "run_pass",
    "run_config",
    "run_bench",
    "run_migration_pause",
    "run_service_soak",
    "run_straggler_pause",
    "compute_speedups",
    "compare_to_baseline",
    "write_report",
    "main",
]

#: Benchmark matrix: both paper apps at the paper's node ladder.
DEFAULT_APPS = ("fft2d", "corner_turn")
DEFAULT_NODES = (1, 2, 4, 8)
DEFAULT_SIZE = 256
DEFAULT_REPEATS = 7
DEFAULT_WARMUPS = 2

#: Where the baseline numbers came from.  ``nevents`` per configuration is
#: the current event model's count, which the fast path and the caches
#: preserved exactly; the callback-driven link transfers later dropped one
#: entry per planned message (the unawaited completion entry), and counted
#: arrivals the entries that only counted a receiving thread's messages
#: down, so the counts were re-baselined each time and the timings kept.
BASELINE_META = {
    "label": "pre-fastpath tree (commit 35ec246)",
    "size": DEFAULT_SIZE,
    "iterations": 5,
    "repeats": DEFAULT_REPEATS,
    "warmups": DEFAULT_WARMUPS,
    "gc_disabled": True,
    "selection": "best-of-repeats by total",
}

#: Best-of-7 wall-clock figures from the pre-change tree on this class of
#: machine (times in seconds; events/sec derived from them).
BASELINE: Dict[str, Dict[str, float]] = {
    "fft2d@1": {
        "generate": 0.006849321000117925,
        "setup": 0.00014895999993314035,
        "simulate": 0.0021700340003008023,
        "total": 0.009168315000351868,
        "latency": 0.07943646913580252,
        "makespan": 0.3973823456790126,
        "nevents": 251,
        "events_per_sec_simulate": 122578.72455598762,
        "events_per_sec_total": 29012.964758496113,
    },
    "fft2d@2": {
        "generate": 0.007343531000515213,
        "setup": 0.0002604059991426766,
        "simulate": 0.0043404340012784814,
        "total": 0.011944371000936371,
        "latency": 0.0403990163860831,
        "makespan": 0.2021950819304155,
        "nevents": 556,
        "events_per_sec_simulate": 139617.37462693863,
        "events_per_sec_total": 50735.19567941192,
    },
    "fft2d@4": {
        "generate": 0.007477209999706247,
        "setup": 0.00044004799929098226,
        "simulate": 0.009096671999941464,
        "total": 0.017013929998938693,
        "latency": 0.020443453647586964,
        "makespan": 0.10241726823793482,
        "nevents": 1346,
        "events_per_sec_simulate": 167753.65760245282,
        "events_per_sec_total": 89691.21185376865,
    },
    "fft2d@8": {
        "generate": 0.008814526998321526,
        "setup": 0.0009788850002223626,
        "simulate": 0.02417319100095483,
        "total": 0.03396660299949872,
        "latency": 0.010559708641975299,
        "makespan": 0.05299854320987649,
        "nevents": 3646,
        "events_per_sec_simulate": 178958.58266412263,
        "events_per_sec_total": 127360.39574118858,
    },
    "corner_turn@1": {
        "generate": 0.006751168000846519,
        "setup": 0.00013809799929731525,
        "simulate": 0.0013198520009609638,
        "total": 0.008209118001104798,
        "latency": 0.008832133333333332,
        "makespan": 0.04436066666666665,
        "nevents": 161,
        "events_per_sec_simulate": 129559.98087323242,
        "events_per_sec_total": 20830.496038306002,
    },
    "corner_turn@2": {
        "generate": 0.006615427000724594,
        "setup": 0.00017456999921705574,
        "simulate": 0.0029426220007735537,
        "total": 0.009732619000715204,
        "latency": 0.0050708484848484845,
        "makespan": 0.02555424242424242,
        "nevents": 376,
        "events_per_sec_simulate": 141370.51918005178,
        "events_per_sec_total": 42742.86294053329,
    },
    "corner_turn@4": {
        "generate": 0.006880152001031092,
        "setup": 0.00034435799898346886,
        "simulate": 0.006632175000049756,
        "total": 0.013856685000064317,
        "latency": 0.0027533696969696975,
        "makespan": 0.013966848484848488,
        "nevents": 986,
        "events_per_sec_simulate": 172793.99291957804,
        "events_per_sec_total": 82703.7635621132,
    },
    "corner_turn@8": {
        "generate": 0.007445651001035003,
        "setup": 0.0007742260004306445,
        "simulate": 0.019635360999018303,
        "total": 0.02785523800048395,
        "latency": 0.0016886666666666686,
        "makespan": 0.008643333333333343,
        "nevents": 2926,
        "events_per_sec_simulate": 181611.12495860335,
        "events_per_sec_total": 128019.01028230472,
    },
}


def run_pass(
    app: str,
    nodes: int,
    size: int = DEFAULT_SIZE,
    iterations: Optional[int] = None,
    registry: Optional[PerfRegistry] = None,
) -> Dict[str, float]:
    """One end-to-end pass: generate glue, set up, simulate.

    Returns the per-stage wall-clock breakdown plus the simulated results
    (event count, virtual latency/makespan).  When *registry* is given the
    stage timings are also accumulated there as ``bench.<stage>`` timers.
    """
    # Imported here, not at module level: repro.perf is a leaf dependency of
    # the core packages, so pulling the whole stack in at import time would
    # create a cycle.
    from ..apps import benchmark_mapping
    from ..core.codegen import generate_glue
    from ..core.runtime import DEFAULT_CONFIG, SageRuntime
    from ..experiments import APP_BUILDERS, BENCH_PROTOCOL
    from ..machine import Environment, SimCluster, get_platform

    if iterations is None:
        iterations = BENCH_PROTOCOL.iterations
    builder, _ = APP_BUILDERS[app]

    t0 = time.perf_counter()
    model = builder(size, nodes)
    mapping = benchmark_mapping(model, nodes)
    glue = generate_glue(model, mapping, num_processors=nodes)
    t1 = time.perf_counter()

    env = Environment()
    cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes)
    runtime = SageRuntime(glue, cluster, config=DEFAULT_CONFIG.timing_only())
    t2 = time.perf_counter()

    result = runtime.run(iterations=iterations)
    t3 = time.perf_counter()

    if registry is not None:
        registry.record("bench.generate", t1 - t0)
        registry.record("bench.setup", t2 - t1)
        registry.record("bench.simulate", t3 - t2)
        registry.count("bench.passes")
        registry.count("bench.events", env.events_processed)

    simulate = t3 - t2
    total = t3 - t0
    nevents = env.events_processed
    return {
        "generate": t1 - t0,
        "setup": t2 - t1,
        "simulate": simulate,
        "total": total,
        "latency": result.mean_latency,
        "makespan": result.makespan,
        "nevents": nevents,
        "events_per_sec_simulate": nevents / simulate if simulate > 0 else 0.0,
        "events_per_sec_total": nevents / total if total > 0 else 0.0,
    }


def run_config(
    app: str,
    nodes: int,
    size: int = DEFAULT_SIZE,
    iterations: Optional[int] = None,
    repeats: int = DEFAULT_REPEATS,
    warmups: int = DEFAULT_WARMUPS,
    registry: Optional[PerfRegistry] = None,
) -> Dict[str, float]:
    """Best-of-*repeats* figures for one (app, nodes) configuration."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(warmups):
            run_pass(app, nodes, size, iterations)
        passes = [
            run_pass(app, nodes, size, iterations, registry=registry)
            for _ in range(repeats)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    return min(passes, key=lambda p: p["total"])


def run_bench(
    apps: Sequence[str] = DEFAULT_APPS,
    node_counts: Sequence[int] = DEFAULT_NODES,
    size: int = DEFAULT_SIZE,
    iterations: Optional[int] = None,
    repeats: int = DEFAULT_REPEATS,
    warmups: int = DEFAULT_WARMUPS,
    registry: Optional[PerfRegistry] = None,
    verbose: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Run the full benchmark matrix; returns ``{"app@nodes": figures}``."""
    results: Dict[str, Dict[str, float]] = {}
    for app in apps:
        for nodes in node_counts:
            key = f"{app}@{nodes}"
            results[key] = run_config(
                app, nodes, size, iterations, repeats, warmups, registry
            )
            if verbose:
                r = results[key]
                print(
                    f"  {key:<16s} {r['total'] * 1e3:8.2f} ms total "
                    f"({r['nevents']:>5d} events, "
                    f"{r['events_per_sec_total']:>9.0f} ev/s)",
                    file=sys.stderr,
                )
    return results


def run_migration_pause(
    registry: PerfRegistry,
    nodes: int = 8,
    size: int = 32,
    iterations: int = 6,
) -> Optional[Dict[str, float]]:
    """Tracked stat, no gate: the simulated pause of one live migration.

    Runs one crash -> rejoin -> re-grow cycle (FFT2D, ``grow_restripe``)
    and records the migration pause into *registry* as
    ``runtime.migration_pause_s``.  Unlike every other figure here this is
    *virtual* seconds — what the simulated application stalls during the
    re-grow, not host time (see docs/ELASTICITY.md).  Returns the
    ``{pause_s, migrations}`` summary, or None if no migration happened.
    """
    from ..apps import benchmark_mapping
    from ..core.codegen import generate_glue
    from ..core.runtime import DEFAULT_CONFIG, SageRuntime
    from ..experiments import APP_BUILDERS
    from ..faults import FaultPlan, FaultPolicy
    from ..machine import Environment, SimCluster, get_platform
    from .registry import REGISTRY as _GLOBAL

    builder, _ = APP_BUILDERS["fft2d"]
    model = builder(size, nodes)
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)

    def run_once(plan):
        env = Environment()
        cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes,
                                           fault_plan=plan)
        runtime = SageRuntime(glue, cluster,
                              config=DEFAULT_CONFIG.timing_only(),
                              fault_policy=FaultPolicy.grow_restripe())
        return runtime.run(iterations=iterations)

    base = run_once(None)
    plan = (FaultPlan(seed=71)
            .crash_node(nodes - 1, at=base.makespan * 0.3, permanent=True)
            .join_node(nodes - 1, at=base.makespan * 0.6))
    empty = {"count": 0, "total_s": 0.0}
    before = _GLOBAL.snapshot()["timers"].get(
        "runtime.migration_pause_s", empty)
    run_once(plan)
    after = _GLOBAL.snapshot()["timers"].get(
        "runtime.migration_pause_s", empty)
    migrations = after["count"] - before["count"]
    pause = after["total_s"] - before["total_s"]
    if migrations <= 0:
        return None
    registry.record("runtime.migration_pause_s", pause)
    registry.count("bench.migrations", migrations)
    return {"pause_s": pause, "migrations": migrations}


def run_straggler_pause(
    registry: PerfRegistry,
    nodes: int = 8,
    iterations: int = 12,
) -> Optional[Dict[str, float]]:
    """Tracked stat, no gate: the simulated pause of one straggler drain.

    Runs the slack-striped FFT2D with one node limping at 0.25x under
    ``migrate_stragglers`` and records the drain/restore re-striping pause
    into *registry* as ``runtime.straggler_pause_s`` — virtual seconds,
    like ``runtime.migration_pause_s`` next to it.  Returns the
    ``{pause_s, drains}`` summary, or None if no straggler was migrated.
    """
    from ..apps import benchmark_mapping, fft2d_slack_model
    from ..core.codegen import generate_glue
    from ..core.runtime import DEFAULT_CONFIG, SageRuntime
    from ..faults import FaultPlan, FaultPolicy
    from ..machine import Environment, SimCluster, get_platform
    from .registry import REGISTRY as _GLOBAL

    model = fft2d_slack_model()
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    plan = FaultPlan(seed=72).slow_node(nodes // 2, at=5e-4, factor=0.25)
    env = Environment()
    cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes,
                                       fault_plan=plan)
    runtime = SageRuntime(glue, cluster,
                          config=DEFAULT_CONFIG.timing_only(),
                          fault_policy=FaultPolicy.migrate_stragglers())
    empty = {"count": 0, "total_s": 0.0}
    before = _GLOBAL.snapshot()["timers"].get(
        "runtime.straggler_pause_s", empty)
    runtime.run(iterations=iterations)
    after = _GLOBAL.snapshot()["timers"].get(
        "runtime.straggler_pause_s", empty)
    drains = after["count"] - before["count"]
    pause = after["total_s"] - before["total_s"]
    if drains <= 0:
        return None
    registry.record("runtime.straggler_pause_s", pause)
    registry.count("bench.straggler_drains", drains)
    return {"pause_s": pause, "drains": drains}


def run_service_soak(
    registry: PerfRegistry,
    jobs: int = 150,
    seed: int = 7,
    nodes: int = 8,
) -> Optional[Dict[str, float]]:
    """Tracked stat, no gate: multi-job service throughput under soak.

    Plays a seeded mixed workload through the service scheduler
    (:mod:`repro.service.soak`, invariant checks skipped — the full gate
    lives in ``python -m repro serve --soak``) and records the headline
    designs-compiled-and-simulated per host second into *registry* as
    ``service.jobs`` / ``service.soak_s``.  Returns the
    ``{jobs_per_sec, executed, completed}`` summary.
    """
    from ..service.soak import run_soak

    report = run_soak(jobs=jobs, seed=seed, nodes=nodes,
                      replay=False, isolation=False)
    executed = report.completed + report.failed
    registry.record("service.soak_s", report.wall_seconds)
    registry.count("service.jobs", executed)
    registry.count("service.backfills", report.backfills)
    return {
        "jobs_per_sec": report.jobs_per_sec,
        "executed": executed,
        "completed": report.completed,
    }


def compute_speedups(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
) -> Dict[str, Dict[str, float]]:
    """events/sec ratios (current / baseline) for configurations in both."""
    speedups: Dict[str, Dict[str, float]] = {}
    for key, cur in current.items():
        base = baseline.get(key)
        if not base:
            continue
        entry: Dict[str, float] = {}
        for metric in ("events_per_sec_total", "events_per_sec_simulate"):
            if base.get(metric):
                entry[metric] = cur[metric] / base[metric]
        if base.get("nevents") is not None:
            entry["nevents_match"] = float(cur["nevents"] == base["nevents"])
        speedups[key] = entry
    return speedups


def compare_to_baseline(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    threshold: float = 0.2,
) -> List[Dict[str, object]]:
    """Flag configurations whose throughput regressed more than *threshold*.

    A configuration regresses when its ``events_per_sec_total`` falls below
    ``(1 - threshold)`` times the baseline figure.  An event-count mismatch
    is also reported (as kind ``nevents``): it means the two runs did not
    simulate the same workload, so the throughput comparison is void.
    Pure function over the two result dicts — no measurement happens here.
    """
    regressions: List[Dict[str, object]] = []
    for key in sorted(set(current) & set(baseline)):
        cur, base = current[key], baseline[key]
        if cur.get("nevents") != base.get("nevents"):
            regressions.append({
                "config": key,
                "kind": "nevents",
                "current": cur.get("nevents"),
                "baseline": base.get("nevents"),
            })
            continue
        base_eps = base.get("events_per_sec_total")
        if not base_eps:
            continue
        cur_eps = cur["events_per_sec_total"]
        if cur_eps < (1.0 - threshold) * base_eps:
            regressions.append({
                "config": key,
                "kind": "events_per_sec_total",
                "current": cur_eps,
                "baseline": base_eps,
                "ratio": cur_eps / base_eps,
            })
    return regressions


def write_report(
    path: str,
    results: Dict[str, Dict[str, float]],
    size: int,
    iterations: int,
    repeats: int,
    warmups: int,
    registry: Optional[PerfRegistry] = None,
    threshold: float = 0.2,
) -> Dict[str, object]:
    """Assemble the BENCH_simcore.json document and write it."""
    baseline_comparable = (
        size == BASELINE_META["size"] and iterations == BASELINE_META["iterations"]
    )
    report: Dict[str, object] = {
        "meta": {
            "harness": "python -m repro bench",
            "python": sys.version.split()[0],
            "machine": _platform.machine(),
            "gc_disabled": True,
            "selection": "best-of-repeats by total",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "protocol": {
            "runs": 1,
            "iterations": iterations,
            "jitter_sigma": 0.0,
            "size": size,
            "repeats": repeats,
            "warmups": warmups,
        },
        "baseline": {"meta": BASELINE_META, "results": BASELINE},
        "results": results,
        "baseline_comparable": baseline_comparable,
    }
    if baseline_comparable:
        report["speedup"] = compute_speedups(results, BASELINE)
        report["regressions"] = compare_to_baseline(results, BASELINE, threshold)
    if registry is not None:
        report["registry"] = registry.snapshot()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="wall-clock benchmark of the SAGE pipeline (see docs/PERFORMANCE.md)",
    )
    parser.add_argument("--apps", nargs="+", default=list(DEFAULT_APPS),
                        choices=list(DEFAULT_APPS), help="benchmarks to run")
    parser.add_argument("--nodes", nargs="+", type=int, default=list(DEFAULT_NODES),
                        help="node counts (default 1 2 4 8)")
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE,
                        help="matrix size (default 256; baseline comparison "
                             "needs 256)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="iterations per run (default BENCH_PROTOCOL's 5)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timed passes per configuration (default 7)")
    parser.add_argument("--warmups", type=int, default=DEFAULT_WARMUPS,
                        help="untimed warm-up passes (default 2)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 1-2 nodes, 2 repeats, 1 warm-up")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="regression threshold on events/sec (default 0.2)")
    parser.add_argument("-o", "--output", default="BENCH_simcore.json",
                        help="report path (default BENCH_simcore.json)")
    parser.add_argument("--emit-baseline", action="store_true",
                        help="print the results dict as JSON to stdout (for "
                             "refreshing the embedded BASELINE)")
    args = parser.parse_args(argv)

    if args.quick:
        args.nodes = [n for n in args.nodes if n <= 2] or [1]
        args.repeats = min(args.repeats, 2)
        args.warmups = min(args.warmups, 1)

    from ..experiments import BENCH_PROTOCOL

    iterations = args.iterations or BENCH_PROTOCOL.iterations
    registry = PerfRegistry()

    print(f"bench: apps={args.apps} nodes={args.nodes} size={args.size} "
          f"iterations={iterations} repeats={args.repeats}", file=sys.stderr)
    results = run_bench(
        args.apps, args.nodes, args.size, iterations,
        args.repeats, args.warmups, registry, verbose=True,
    )
    pause = run_migration_pause(registry)
    if pause:
        print(
            f"  migration pause: {pause['pause_s'] * 1e6:.1f} virtual us "
            f"over {pause['migrations']} migration(s) (tracked, no gate)",
            file=sys.stderr,
        )
    straggler = run_straggler_pause(registry)
    if straggler:
        print(
            f"  straggler pause: {straggler['pause_s'] * 1e6:.1f} virtual us "
            f"over {straggler['drains']} drain(s) (tracked, no gate)",
            file=sys.stderr,
        )
    service = run_service_soak(registry, jobs=40 if args.quick else 150)
    if service:
        print(
            f"  service soak: {service['jobs_per_sec']:.1f} jobs/sec "
            f"({service['executed']} executed) (tracked, no gate)",
            file=sys.stderr,
        )

    if args.emit_baseline:
        print(json.dumps(results, indent=1))
        return 0

    report = write_report(
        args.output, results, args.size, iterations,
        args.repeats, args.warmups, registry, args.threshold,
    )
    print(f"wrote {args.output}", file=sys.stderr)
    if report.get("baseline_comparable"):
        for key, s in sorted(report["speedup"].items()):
            ratio = s.get("events_per_sec_total")
            if ratio:
                print(f"  {key:<16s} {ratio:5.2f}x events/sec vs baseline",
                      file=sys.stderr)
        regressions = report.get("regressions") or []
        if regressions:
            print(f"REGRESSIONS: {json.dumps(regressions, indent=1)}",
                  file=sys.stderr)
            # --quick is a smoke mode (CI shared runners are too noisy to
            # gate on wall clock); only full runs fail on regressions.
            if not args.quick:
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
