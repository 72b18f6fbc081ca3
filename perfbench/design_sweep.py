"""``design-sweep``: a stream of distinct small designs, as a designer edits.

Each operation builds one design drawn from the seed (app; size 16-64; 1-8
nodes; a fresh model data seed; ``optimize_buffers`` on half), generates
its glue, sets it up and simulates 2 iterations (timing only).
The fresh data seed changes the model fingerprint, so every generate misses
the glue cache: Alter, the Verifier and codegen do the work here and the
simulator little.

Every ``CHECK_EVERY``-th design is re-run with real data outside the timed
region, on the glue the timed pass generated, and compared with numpy:
``fft2`` for FFT2D, the transpose for corner turn.  The data run must also
reproduce the timed run's virtual makespan.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple

import numpy as np

from repro.apps import MatrixProvider
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import Environment, SimCluster

from .harness import Meter, Workload, percentile
from .passes import MODELS, PLATFORM, HandReferences, ratio_mean, sage_pass

APPS = ("fft2d", "corner_turn")
SIZES = (16, 32, 64)
NODES = (1, 2, 4, 8)
ITERATIONS = 2
CHECK_EVERY = 20
#: Largest FFT2D error accepted, relative to the largest reference entry
#: (complex64 output; the reference is computed in complex128).
FFT_RTOL = 1e-5


class Design(NamedTuple):
    app: str
    size: int
    nodes: int
    data_seed: int
    optimize: bool


#: Every (app, size, nodes, optimize_buffers) combination once per block.
BLOCK = tuple((app, size, nodes, optimize) for app in APPS for size in SIZES
              for nodes in NODES for optimize in (False, True))


def design(seed: int, i: int) -> Design:
    """Design ``i`` of the stream for ``seed``.  Each block of
    ``len(BLOCK)`` designs holds every combination once, in a seeded order,
    so every prefix of whole blocks has the same mix; the data seed's low
    bits carry ``i``, so designs are distinct for ``i`` below 2**16."""
    block, pos = divmod(i, len(BLOCK))
    order = list(BLOCK)
    random.Random(f"design-sweep:{seed}:block{block}").shuffle(order)
    app, size, nodes, optimize = order[pos]
    data_seed = random.Random(f"design-sweep:{seed}:{i}").randrange(1 << 15)
    return Design(app, size, nodes, data_seed << 16 | (i & 0xFFFF), optimize)


def check_numerics(glue, d: Design, makespan: float):
    """Problems found re-running ``glue`` with data against numpy."""
    provider = MatrixProvider(d.size, seed=d.data_seed)
    env = Environment()
    runtime = SageRuntime(glue, SimCluster.from_platform(env, PLATFORM, d.nodes),
                          config=DEFAULT_CONFIG)
    result = runtime.run(iterations=ITERATIONS, input_provider=provider)
    problems = []
    if result.makespan != makespan:
        problems.append(f"data-run makespan {result.makespan!r} != "
                        f"timed {makespan!r}")
    for k in range(ITERATIONS):
        got = result.full_result(k)
        x = provider(k)
        if d.app == "fft2d":
            want = np.fft.fft2(x.astype(np.complex128))
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            if not err <= FFT_RTOL:
                problems.append(f"iteration {k}: fft2 error {err:.3g}")
        elif not np.array_equal(got, x.T):
            problems.append(f"iteration {k}: result is not the transpose")
    return problems


class DesignSweep(Workload):
    name = "design-sweep"
    min_units = 6 * len(BLOCK)   # the virtual metrics' fixed prefix
    trace_units = 3 * len(BLOCK)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.hand = HandReferences()

    def warm_up(self) -> None:
        meter = Meter()
        for i in range(1, 5):
            self.run_unit(-i, meter, fixed=False)

    def run_unit(self, u: int, meter: Meter, fixed: bool) -> None:
        d = design(self.seed, u)
        meter.attempted += 1
        try:
            with meter.timed():
                model = MODELS[d.app](d.size, d.nodes, seed=d.data_seed)
                runtime, result = sage_pass(meter, model, d.nodes, ITERATIONS,
                                            optimize=d.optimize)
            if u % CHECK_EVERY == 0:
                problems = check_numerics(runtime.glue, d, result.makespan)
                if problems:
                    meter.fail(f"{d}: " + "; ".join(problems))
        except Exception as exc:
            meter.fail(f"{d}: raised {type(exc).__name__}: {exc}")
            return
        if fixed:
            meter.record("makespan", result.makespan)
            hand = self.hand.latency(d.app, d.size, d.nodes, ITERATIONS)
            meter.record("latency_pair", (result.mean_latency, hand))

    def virtual_metrics(self, meter: Meter) -> Dict[str, float]:
        return {
            "sage_hand_latency_ratio": ratio_mean(meter.virtual["latency_pair"]),
            # Closed loop on private clusters, no faults (see table1-scale).
            "virtual_utilization": 1.0,
            "virtual_latency_s_p90": percentile(meter.virtual["makespan"], 90),
            "fault_makespan_ratio": 1.0,
        }
