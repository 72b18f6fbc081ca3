"""The timing loop, the percentile rule and the metric assembly.

A workload is a seeded stream of *units*; a unit holds one or more
*operations* (a design pass, a chaos cell, a service job).  The loop runs
units one after another (closed loop, one client, one thread) until the next
unit would overrun the run length, but never fewer than the workload's
``min_units`` — the prefix from which every virtual metric and count is
taken, so those repeat exactly for a given seed however fast the host is.

Only the regions a workload wraps in :meth:`Meter.timed` count as host time;
output checks run outside them.  In the traced run the profiler is enabled
inside those regions only, so the layer attribution sees the same work.
Every host time is normalised to the reference speed of :mod:`calibrate`.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from . import calibrate
from .layers import function_stat, self_time_by_layer

#: At least this many samples must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile of ``values``, refused unless
    :data:`TAIL_SAMPLES` samples lie beyond it (p90 needs 100 samples, p50
    needs 20).

    Harrell-Davis estimate: a mean of all order statistics weighted by a
    Beta((n+1)p, (n+1)(1-p)) distribution.  A workload that mixes a few
    kinds of operation puts a percentile between two kinds, where the plain
    sample percentile is the slowest of one kind or the fastest of the next;
    those extremes scatter from run to run, the weighted mean does not.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    n = len(values)
    beyond = n * (100 - pct) / 100
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{pct} of {n} samples has {beyond:g} beyond it; need {TAIL_SAMPLES}"
        )
    # Imported here, after the fixed prefix has run, so that the benchmark's
    # own scipy import never counts in peak_rss_mb.
    from scipy.special import betainc

    p = pct / 100
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), np.sort(values)))


class Meter:
    """Everything one measured phase records."""

    def __init__(self, profiler=None, cache_stats=None):
        self.profiler = profiler
        self._cache_stats = cache_stats
        self.samples: List[float] = []      # host seconds per timed operation
        self.busy = 0.0                     # host seconds inside timed regions
        self.spans: Dict[str, float] = {}   # untraced host seconds by layer call
        self.counts: Dict[str, float] = {}  # program counters, summed
        self.virtual: Dict[str, list] = {}  # virtual-time results per op
        self.cache: Dict[str, List[int]] = {}  # cache name -> [hits, misses]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []       # failed output checks
        self.known: List[str] = []          # failures of a documented defect
        self.units = 0
        self.rss_mb = 0.0                   # peak memory after the fixed prefix
        # Calibration marks: (when, kernel seconds, samples so far, busy so far).
        self.marks: List[tuple] = []
        self._calibrated = 0.0
        self.speed = 1.0                    # mean normalisation factor

    def calibrate(self) -> None:
        now = time.perf_counter()
        self.marks.append((now, calibrate.sample(), len(self.samples), self.busy))
        self._calibrated = time.perf_counter()

    def normalise(self) -> None:
        """Scale samples and busy time to the reference speed.  Each stretch
        between two kernel samples is scaled by the median kernel time of
        the samples within ``calibrate.WINDOW`` seconds of it: the window
        follows the host's drift and filters the kernel's own jitter."""
        samples, busy = [], 0.0
        for (t0, _, n0, b0), (t1, _, n1, b1) in zip(self.marks, self.marks[1:]):
            mid = (t0 + t1) / 2
            near = [c for t, c, _, _ in self.marks
                    if abs(t - mid) <= calibrate.WINDOW]
            factor = calibrate.NOMINAL / statistics.median(near)
            samples += [x * factor for x in self.samples[n0:n1]]
            busy += (b1 - b0) * factor
        self.speed = busy / self.busy
        self.samples, self.busy = samples, busy

    @contextmanager
    def timed(self, op: bool = True):
        """Time one region of program work; ``op`` makes it one sample."""
        if time.perf_counter() - self._calibrated >= calibrate.EVERY:
            self.calibrate()
        before = self._cache_stats() if self._cache_stats else None
        prof = self.profiler
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
            self.busy += dt
            if op:
                self.samples.append(dt)
            if before is not None:
                for name, row in self._cache_stats().items():
                    acc = self.cache.setdefault(name, [0, 0])
                    old = before.get(name, {"hits": 0, "misses": 0})
                    acc[0] += row["hits"] - old["hits"]
                    acc[1] += row["misses"] - old["misses"]

    def span(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name: str, value) -> None:
        self.virtual.setdefault(name, []).append(value)

    def fail(self, problem: str, known: bool = False) -> None:
        """One failed operation; ``known`` marks a documented defect."""
        self.failed += 1
        (self.known if known else self.problems).append(problem)


class Workload:
    """A seeded stream of units; subclasses define the units and checks."""

    name = ""
    #: Units always run: the fixed prefix behind virtual metrics and counts.
    min_units = 1
    #: Units the traced run profiles (and times untraced, for the overhead).
    trace_units = 1

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before anything is timed."""

    def begin(self, meter: Meter) -> None:
        """Start a measured phase (before its first unit)."""

    def finish(self, meter: Meter) -> None:
        """End a measured phase: checks that need every unit's output."""

    def run_unit(self, u: int, meter: Meter, fixed: bool) -> None:
        raise NotImplementedError

    def ops_done(self, meter: Meter) -> int:
        """Operations completed inside the timed regions."""
        return len(meter.samples)

    def virtual_metrics(self, meter: Meter) -> Dict[str, float]:
        raise NotImplementedError

    def layer_metrics(self, meter: Meter, stats, repro_dir: str) -> Dict[str, float]:
        """Workload-specific per-layer figures from the traced phase."""
        return {}


def measure(workload, seconds: Optional[float], units: int,
            profiler=None, cache_stats=None) -> Meter:
    """Run units ``0, 1, ...``: at least ``units`` of them, and while
    ``seconds`` is given, more until the next would end past it."""
    meter = Meter(profiler, cache_stats)
    workload.begin(meter)
    gc.collect()
    meter.calibrate()
    start = time.perf_counter()
    u = 0
    while u < units or seconds is not None:
        if u >= units:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / u > seconds:
                break
        workload.run_unit(u, meter, fixed=u < units)
        u += 1
        if u == units:
            meter.rss_mb = peak_rss_mb()
    meter.calibrate()
    meter.units = u
    workload.finish(meter)
    meter.normalise()
    return meter


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, meter: Meter, setup_s: float) -> Dict[str, float]:
    """The user-visible figures of one untraced run."""
    out = {
        "setup_s": setup_s,
        "op_s_p50": percentile(meter.samples, 50),
        "op_s_p90": percentile(meter.samples, 90),
        "ops_per_s": workload.ops_done(meter) / meter.busy,
        "ops_ok_frac": (meter.attempted - meter.failed) / meter.attempted,
        "peak_rss_mb": meter.rss_mb,
    }
    out.update(workload.virtual_metrics(meter))
    return out


#: Program counters summed by the workloads, reported per operation.
COUNTERS = (
    "machine.sim.events", "machine.model.msgs", "runtime.probes",
    "runtime.recoveries", "runtime.recovery_virtual_s", "mpi.msgs",
    "service.bus_msgs", "service.backfills", "service.rejections",
    "service.budget_kills", "chaos.violations", "chaos.sanctioned_aborts",
)
#: Untraced spans around the benchmark's calls, reported per operation.
SPANS = ("runtime.setup_s", "codegen.generate_s", "service.submit_s",
         "service.run_s")


def per_layer(workload, plain: Meter, traced: Meter, stats,
              repro_dir: str) -> Dict[str, float]:
    """Per-layer figures: self time and counts from the traced phase, spans
    and events per second from the untraced phase over the same units."""
    n = workload.ops_done(traced)
    n_plain = workload.ops_done(plain)
    self_time = {layer: t * traced.speed
                 for layer, t in self_time_by_layer(stats, repro_dir).items()}
    out = {f"{layer}.self_s": t / n for layer, t in self_time.items()}
    out.update({name: traced.counts.get(name, 0) / n for name in COUNTERS})
    out.update({name: plain.spans.get(name, 0.0) * plain.speed / n_plain
                for name in SPANS})
    events, msgs = traced.counts.get("machine.sim.events", 0), traced.counts.get(
        "machine.model.msgs", 0)
    out["machine.sim.events_per_msg"] = events / msgs if msgs else 0.0
    out["machine.sim.events_per_s"] = (plain.counts.get("machine.sim.events", 0)
                                       / (plain.spans["machine.sim_s"] * plain.speed))
    out["alter.parse_calls"] = function_stat(
        stats, "core/alter/parser.py", "parse", repro_dir)[0] / n
    out["analysis.admission_s"] = function_stat(
        stats, "analysis/admission.py", "lint_job_spec", repro_dir)[1] * traced.speed / n
    for cache, (hits, misses) in traced.cache.items():
        out[f"perf.{cache}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    waits = traced.virtual.get("wait")
    out["service.job_wait_virtual_s_p90"] = percentile(waits, 90) if waits else 0.0
    out["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    out["trace.attributed_frac"] = sum(self_time.values()) / traced.busy
    out["host.speed"] = plain.speed
    out.update(workload.layer_metrics(traced, stats, repro_dir))
    return out
