"""One design pass through the public API, timed by layer call.

A SAGE pass is what a designer runs: map the model, generate the glue,
build the simulated cluster and the run-time, run.  A hand pass runs the
hand-coded MPI rank program on the same simulated platform.  Both record
untraced spans around the calls into each layer (``codegen.generate_s``,
``runtime.setup_s`` and ``machine.sim_s``, the time inside the simulate
call) and the program's counters.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.apps import (
    benchmark_mapping,
    corner_turn_model,
    corner_turn_rank,
    fft2d_model,
    fft2d_rank,
)
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import Environment, SimCluster, get_platform
from repro.mpi import MpiWorld

PLATFORM = get_platform("cspi")
TIMING = DEFAULT_CONFIG.timing_only()
MODELS = {"fft2d": fft2d_model, "corner_turn": corner_turn_model}
RANK_PROGRAMS = {"fft2d": fft2d_rank, "corner_turn": corner_turn_rank}


def sage_setup(meter, model, nodes: int, *, optimize: bool = False,
               config=TIMING, plan=None, policy=None) -> SageRuntime:
    """Map the model, generate its glue and build the cluster and run-time."""
    t0 = time.perf_counter()
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes, optimize_buffers=optimize)
    t1 = time.perf_counter()
    cluster = SimCluster.from_platform(Environment(), PLATFORM, nodes,
                                       fault_plan=plan)
    runtime = SageRuntime(glue, cluster, config=config, fault_policy=policy)
    meter.span("codegen.generate_s", t1 - t0)
    meter.span("runtime.setup_s", time.perf_counter() - t1)
    return runtime


def sage_run(meter, runtime: SageRuntime, iterations: int, provider=None):
    """Simulate; the span and counters are recorded even if the run raises."""
    t0 = time.perf_counter()
    try:
        return runtime.run(iterations=iterations, input_provider=provider)
    finally:
        meter.span("machine.sim_s", time.perf_counter() - t0)
        meter.count("machine.sim.events", runtime.env.events_processed)
        meter.count("machine.model.msgs",
                    runtime.trace.counts_by_kind().get("send", 0))
        meter.count("runtime.probes", len(runtime.trace))


def sage_pass(meter, model, nodes: int, iterations: int, provider=None,
              **setup):
    """One whole design pass; returns (runtime, result)."""
    runtime = sage_setup(meter, model, nodes, **setup)
    return runtime, sage_run(meter, runtime, iterations, provider)


def hand_pass(meter, app: str, size: int, nodes: int, iterations: int):
    """Run the hand-coded rank program (timing only); returns its timings."""
    env = Environment()
    world = MpiWorld(SimCluster.from_platform(env, PLATFORM, nodes))
    world.spawn(RANK_PROGRAMS[app], size, iterations=iterations,
                alltoall_algorithm=PLATFORM.alltoall_algorithm,
                execute_data=False)
    t0 = time.perf_counter()
    timings = world.run()
    meter.span("machine.sim_s", time.perf_counter() - t0)
    meter.count("machine.sim.events", env.events_processed)
    meter.count("machine.model.msgs", world.total_messages)
    meter.count("mpi.msgs", world.total_messages)
    return timings


def hand_figures(timings, iterations: int) -> Tuple[float, float]:
    """(mean latency, makespan) of a hand run, as the Table-1 protocol
    defines latency: first rank start to last rank finish per iteration."""
    lats = [max(t.finishes[k] for t in timings) - min(t.starts[k] for t in timings)
            for k in range(iterations)]
    return sum(lats) / len(lats), max(t.finishes[-1] for t in timings)


class _Discard:
    """A meter stand-in for untimed reference runs."""

    def span(self, name, seconds):
        pass

    def count(self, name, n=1):
        pass


DISCARD = _Discard()


class HandReferences:
    """Memoized hand-coded mean latencies, run outside the timed region."""

    def __init__(self):
        self._memo: Dict[Tuple[str, int, int, int], float] = {}

    def latency(self, app: str, size: int, nodes: int, iterations: int) -> float:
        key = (app, size, nodes, iterations)
        if key not in self._memo:
            timings = hand_pass(DISCARD, app, size, nodes, iterations)
            self._memo[key] = hand_figures(timings, iterations)[0]
        return self._memo[key]


def ratio_mean(pairs) -> float:
    """Mean of SAGE/hand latency ratios over (sage, hand) pairs."""
    pairs = list(pairs)
    return sum(s / h for s, h in pairs) / len(pairs)
