"""``table1-scale``: the paper's Table-1 pair at the scale of today's work.

FFT2D and corner turn at 256x256, 5 iterations, on 8, 16 and 32 nodes,
each run as generated SAGE glue (timing only) and as the hand-coded MPI
rank program.  One unit is a cycle of all twelve passes in a seeded order;
whole cycles keep the mix of passes fixed.  Glue generation is a warm
cache hit after the warm-up cycle, as for a designer re-running a model.

Every pass is checked against ``table1_pins.json``: the exact virtual
makespan and mean latency, and for SAGE passes the probe-trace digest.  The
passes do not depend on the seed, so the pins hold for every seed.  The
event count is deliberately not pinned: cutting events per message is
planned work.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict

from .harness import Meter, Workload, percentile
from .passes import MODELS, hand_figures, hand_pass, ratio_mean, sage_pass

SIZE = 256
ITERATIONS = 5
CONFIGS = tuple((app, nodes) for app in ("fft2d", "corner_turn")
                for nodes in (8, 16, 32))
PASSES = tuple((app, nodes, variant) for app, nodes in CONFIGS
               for variant in ("sage", "hand"))

with open(os.path.join(os.path.dirname(__file__), "table1_pins.json")) as _fh:
    PINS: Dict[str, Dict[str, object]] = json.load(_fh)


def pass_key(app: str, nodes: int, variant: str) -> str:
    return f"{app}@{nodes}/{variant}"


def run_pass(meter: Meter, app: str, nodes: int, variant: str):
    """One timed pass; returns its virtual figures (outside the timing)."""
    with meter.timed():
        if variant == "sage":
            _, result = sage_pass(meter, MODELS[app](SIZE, nodes), nodes,
                                  ITERATIONS)
        else:
            timings = hand_pass(meter, app, SIZE, nodes, ITERATIONS)
    if variant == "sage":
        return {"makespan": result.makespan,
                "mean_latency": result.mean_latency,
                "trace_digest": result.trace.digest()}
    latency, makespan = hand_figures(timings, ITERATIONS)
    return {"makespan": makespan, "mean_latency": latency}


class Table1Scale(Workload):
    name = "table1-scale"
    min_units = 9      # 108 passes: p90 needs 100 samples
    trace_units = 1

    def order(self, u: int):
        passes = list(PASSES)
        random.Random(f"{self.name}:{self.seed}:{u}").shuffle(passes)
        return passes

    def warm_up(self) -> None:
        self.run_unit(-1, Meter(), fixed=False)

    def run_unit(self, u: int, meter: Meter, fixed: bool) -> None:
        for app, nodes, variant in self.order(u):
            key = pass_key(app, nodes, variant)
            meter.attempted += 1
            try:
                got = run_pass(meter, app, nodes, variant)
            except Exception as exc:
                meter.fail(f"{key}: raised {type(exc).__name__}: {exc}")
                continue
            pins = PINS[key]
            wrong = [f"{name} {value!r} != pinned {pins[name]!r}"
                     for name, value in got.items() if value != pins[name]]
            if wrong:
                meter.fail(f"{key}: " + "; ".join(wrong))
            if fixed:
                meter.record("latency", (key, got["mean_latency"]))
                meter.record("makespan", got["makespan"])

    def virtual_metrics(self, meter: Meter) -> Dict[str, float]:
        latency = dict(meter.virtual["latency"])
        pairs = [(latency[pass_key(a, n, "sage")], latency[pass_key(a, n, "hand")])
                 for a, n in CONFIGS
                 if pass_key(a, n, "sage") in latency
                 and pass_key(a, n, "hand") in latency]
        return {
            "sage_hand_latency_ratio": ratio_mean(pairs),
            # Each pass holds a private cluster of its own size for its whole
            # makespan, and no faults are injected: both ratios are 1.
            "virtual_utilization": 1.0,
            "virtual_latency_s_p90": percentile(meter.virtual["makespan"], 90),
            "fault_makespan_ratio": 1.0,
        }
