"""``service-soak``: a seeded multi-tenant job stream through one service.

The stream follows the soak's mix but is built here, so edits to the
program's own soak generator cannot change this traffic: four tenants, one
of them (``burst``) over quota; FFT2D and corner turn at 16-64 on 1-4 nodes;
three fault policies; a minority of tight budgets and a sprinkle of budgets
no job can meet.  All of a run's jobs go through one default
``SageService`` on 8 nodes.  One unit is a batch of 144 submissions,
timed from its first ``submit`` to the drain; arrivals are open-loop in
virtual time within a batch and start when the previous batch drained.

An operation is one executed job.  Its host time is read from the service's
event bus: from the job's ``started`` message to the next message.  Quota
rejections and budget kills are the stream's intended outcomes.  After the
run, outside the timed region, the service is checked for the quota,
no-starvation, slot and telemetry invariants and for isolation: each
completed job must equal its standalone run (references memoized by spec).
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.service import (
    JobSpec,
    QuotaExceededError,
    SageService,
    ServiceError,
    TenantQuota,
    TimeBudgetExceeded,
)
from repro.service.messages import job_topic
from repro.service.soak import check_isolation, check_quota_and_starvation, check_slots

from .harness import Meter, Workload, percentile
from .layers import function_stat
from .passes import HandReferences, ratio_mean

NODES = 8
TENANTS = ("alpha", "beta", "gamma", "burst")
SHAPES = ((16, 1), (16, 2), (16, 4), (32, 2), (32, 4), (64, 4))
APPS = ("fft2d", "corner_turn")
POLICIES = ("fail_fast", "retry", "checkpoint_restart")
ITERATIONS = (1, 2, 3, 6)
#: Cheap jobs finish well inside this many virtual seconds, so a tight
#: budget lets backfill slide them into reservation gaps without kills.
TIGHT_BUDGET = 8e-4
#: No job can meet this budget: the kill path stays exercised.
KILL_BUDGET = 1e-4
OPEN_BUDGET = 5.0
#: Fixed-rate open loop: one arrival per this many virtual seconds, well
#: under the mean makespan, so the queue builds.
GAP = 2e-4


def quotas() -> Dict[str, TenantQuota]:
    return {"burst": TenantQuota(max_nodes=2, max_running=2, max_queued=4)}


#: Every (shape, app, iterations, policy) once per batch, so every batch
#: asks for the same work; tenants take turns along the shuffled order.
BATCH = tuple((size, nodes, app, iterations, policy) for size, nodes in SHAPES
              for app in APPS for iterations in ITERATIONS for policy in POLICIES)


def batch(seed: int, b: int) -> List[Tuple[JobSpec, float]]:
    """Batch ``b`` of the stream: (spec, virtual arrival offset) pairs."""
    rng = random.Random(f"service-soak:{seed}:{b}")
    order = list(BATCH)
    rng.shuffle(order)
    out = []
    for i, (size, nodes, app, iterations, policy) in enumerate(order):
        cheap = ((app == "corner_turn" and size <= 32 and iterations <= 3)
                 or (app == "fft2d" and size == 16 and iterations == 1))
        roll = rng.random()
        if cheap and roll < 0.35:
            budget = TIGHT_BUDGET
        elif roll > 0.98:
            budget = KILL_BUDGET
        else:
            budget = OPEN_BUDGET
        out.append((JobSpec(tenant=TENANTS[i % len(TENANTS)], app=app,
                            size=size, nodes=nodes, iterations=iterations,
                            policy=policy, time_budget=budget),
                    i * GAP))
    return out


class JobClock:
    """Bus subscriber: host seconds from each ``started`` to the next message."""

    def __init__(self, samples: List[float]):
        self.samples = samples
        self._open = None

    def __call__(self, message) -> None:
        now = time.perf_counter()
        if self._open is not None:
            self.samples.append(now - self._open)
            self._open = None
        if message.kind == "started":
            self._open = now


def check_telemetry(svc: SageService) -> List[str]:
    """The program's telemetry invariant (``repro.service.soak``), with the
    bus history indexed by topic once: the program's form rescans the whole
    history per job, which is quadratic in the jobs of a long run."""
    by_topic: Dict[str, list] = defaultdict(list)
    for msg in svc.bus.history:
        by_topic[msg.topic].append(msg)
    out = []
    for job in svc.jobs.values():
        probes = by_topic.get(job_topic(job.id, "probes"), [])
        if job.result is not None:
            if len(probes) != 1:
                out.append(f"telemetry: {job.id} published {len(probes)} "
                           "probe messages, expected 1")
            elif (probes[0].get("digest") != job.result.trace_digest
                  or probes[0].get("events") != job.result.probe_events):
                out.append(f"telemetry: {job.id} bus probe summary != result")
        elif probes:
            out.append(f"telemetry: {job.id} has probe messages but no result")
        for msg in by_topic.get(job_topic(job.id), []) + probes:
            if msg.get("job") != job.id:
                out.append(f"telemetry: {job.id}'s topic carries a message "
                           f"for {msg.get('job')!r}")
    counts = svc.bus.counts_by_kind()
    stats = svc.stats()
    for kind, want in (("started", stats.executed), ("completed", stats.completed)):
        if counts.get(kind, 0) != want:
            out.append(f"telemetry: {counts.get(kind, 0)} {kind!r} messages "
                       f"but the service counted {want}")
    return out


class ServiceSoak(Workload):
    name = "service-soak"
    min_units = 12     # 1728 submissions: the virtual metrics' fixed prefix
    trace_units = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.hand = HandReferences()
        self.references: Dict[str, tuple] = {}

    def warm_up(self) -> None:
        meter = Meter()
        self.begin(meter)
        self.run_unit(-1, meter, fixed=False)
        self.finish(meter)

    def begin(self, meter: Meter) -> None:
        self.svc = SageService(nodes=NODES, seed=self.seed, quotas=quotas())
        self.svc.bus.subscribe("#", JobClock(meter.samples))

    def run_unit(self, u: int, meter: Meter, fixed: bool) -> None:
        """Batch ``u``: its arrivals start when the previous batch drained."""
        svc = self.svc
        jobs = batch(self.seed, u)
        t_start, executed = svc.now, svc.executed
        ids = []
        meter.attempted += len(jobs)
        with meter.timed(op=False):
            t0 = time.perf_counter()
            for spec, at in jobs:
                try:
                    ids.append(svc.submit(spec, at=t_start + at))
                except QuotaExceededError:
                    meter.count("service.rejections")
                except ServiceError as exc:
                    meter.fail(f"{spec.fingerprint()}: submit raised "
                               f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            svc.run()
            t2 = time.perf_counter()
        meter.span("service.submit_s", t1 - t0)
        meter.span("service.run_s", t2 - t1)
        meter.span("machine.sim_s", t2 - t1)
        meter.count("service.executed", svc.executed - executed)
        batch_jobs = [svc.jobs[i] for i in ids]
        self._count(batch_jobs, meter)
        if fixed:
            self._record(batch_jobs, svc.now - t_start, meter)

    def _count(self, jobs, meter: Meter) -> None:
        for job in jobs:
            if job.state == "rejected" and isinstance(job.error, QuotaExceededError):
                meter.count("service.rejections")
            elif job.state == "failed" and isinstance(job.error, TimeBudgetExceeded):
                meter.count("service.budget_kills")
            elif job.state != "completed":
                meter.fail(f"{job.id} {job.spec.fingerprint()}: {job.state}: "
                           f"{job.error}")
            if job.backfilled:
                meter.count("service.backfills")
            if job.result is not None:
                meter.count("machine.sim.events", job.result.sim_events)
                meter.count("runtime.probes", job.result.probe_events)

    def _record(self, jobs, span: float, meter: Meter) -> None:
        ids = {job.id for job in jobs}
        booked = sum((lease.t_end - lease.t_start) * lease.width
                     for lease in self.svc.scheduler.history if lease.job_id in ids)
        meter.record("utilization", booked / (NODES * span))
        for job in jobs:
            if job.start_time is None:
                continue
            meter.record("wait", job.wait_time)
            meter.record("turnaround", job.end_time - job.submit_time)
            if job.state == "completed":
                s = job.spec
                hand = self.hand.latency(s.app, s.size, s.nodes, s.iterations)
                meter.record("latency_pair", (job.result.mean_latency, hand))

    def finish(self, meter: Meter) -> None:
        """Whole-run checks and the bus-derived counts."""
        svc = self.svc
        problems, _ = check_isolation(svc, self.references)
        for check in (check_quota_and_starvation, check_slots, check_telemetry):
            problems += [str(v) for v in check(svc)]
        for problem in problems:
            meter.fail(problem)
        meter.count("service.bus_msgs", len(svc.bus))
        for msg in svc.bus.history_for("job.*.probes"):
            kinds = msg.get("kinds")
            meter.count("machine.model.msgs",
                        dict(zip(kinds[::2], kinds[1::2])).get("send", 0))

    def ops_done(self, meter: Meter) -> int:
        return int(meter.counts.get("service.executed", 0))

    def virtual_metrics(self, meter: Meter) -> Dict[str, float]:
        util = meter.virtual["utilization"]
        return {
            "sage_hand_latency_ratio": ratio_mean(meter.virtual["latency_pair"]),
            "virtual_utilization": sum(util) / len(util),
            "virtual_latency_s_p90": percentile(meter.virtual["turnaround"], 90),
            # Every job runs in a private partition with no faults injected,
            # and the isolation check holds it equal to its standalone run.
            "fault_makespan_ratio": 1.0,
        }

    def layer_metrics(self, meter: Meter, stats, repro_dir: str) -> Dict[str, float]:
        # The service, not the benchmark, calls these here: report the
        # profiler's cumulative time instead of an untraced span.
        n = self.ops_done(meter)
        _, gen = function_stat(stats, "core/codegen/generator.py",
                               "generate_glue", repro_dir)
        _, setup = function_stat(stats, "core/runtime/kernel.py", "__init__",
                                 repro_dir)
        return {"codegen.generate_s": gen * meter.speed / n,
                "runtime.setup_s": setup * meter.speed / n}
