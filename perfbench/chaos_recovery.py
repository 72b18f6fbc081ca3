"""``chaos-recovery``: seeded fault schedules crossed with six fault policies.

Corner turn 32x32 with real data, 8 nodes, 3 iterations.  Each unit draws
one schedule of 1-3 faults over the nine-kind taxonomy, built here as a
``FaultPlan`` so edits to the program's own schedule generator cannot change
this traffic, and runs it under each of the six policies, one cell after
another.  This is the only workload that runs the failure detector and the
retry, checkpoint, shrink, grow and straggler engines.

The schedules form a fixed pool, :data:`POOL`, drawn from
:data:`SCHEDULE_SEED` whatever the run's seed, which draws the matrix data;
two more schedules witness the rarer defects below.  A run attempts every
cell of the pool once, then cycles through it again until the run length is
spent.  So every run attempts the same cells, and
the documented defects below fail the same number of them, however fast the
host is and whichever seed it runs.  ``attempted`` and ``failed`` count each
cell once; a repeated cell must end as it did the first time.

Every cell is checked, outside the timed region, with the program's chaos
invariants: results bitwise equal to the fault-free run, aborts only where
the policy does not claim to survive the schedule, quiescence without leaked
slots, and a well-formed probe stream.

Three known defects of the program show here; their cells count as failed
operations, and any other violation also fails the run's output check:

* at 8 nodes some ``fail_fast`` cells abort as sanctioned, and then the
  quiescence drain raises a second ``TransportError`` from a stranded
  transfer, breaking ``no_wedged_processes`` (9 of 120 cells in the
  program's own soak at seed 1; here 582 of the 9000 cells of schedules
  0-149 at schedule seeds 1-10);
* when a schedule crashes two different nodes and at least one for good,
  the shrinking policies (``shrink_restripe``, ``grow_restripe``,
  ``migrate_stragglers``) abort with ``NodeFailure`` although they claim
  to survive it (40 of the same 9000 cells);
* when a node rejoins shortly after its crash, the shrinking policies can
  leave the run going forever; a watchdog stops the cell at
  :data:`WATCHDOG` fault-free makespans (3 of the same 9000 cells, all at
  seed 6; the slowest completed cell took 4.5).

The program's own chaos soak runs 2 nodes, where none of them occurred.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable, Dict, List

from repro.apps import MatrixProvider, corner_turn_model
from repro.chaos import (
    IDENTICAL,
    ChaosSchedule,
    Violation,
    check_probe_stream,
    check_quiescent,
    check_results,
    expected_outcome,
)
from repro.core.runtime import DEFAULT_CONFIG
from repro.core.runtime.kernel import RuntimeError_
from repro.core.runtime.policy import FaultPolicy, TransportError
from repro.machine.faults import FaultError, FaultPlan, NodeCrash, NodeFailure

from .harness import Meter, Workload, percentile
from .passes import HandReferences, sage_pass, sage_run, sage_setup

SIZE = 32
NODES = 8
ITERATIONS = 3
KINDS = ("crash", "hang", "slow", "degrade", "jitter", "flap",
         "loss", "corruption", "join")
#: Restart and retry budgets sized so a schedule a policy claims to survive
#: can be survived (a 4-cycle hard flap can burn one replay per down phase).
POLICIES: Dict[str, Callable[[], FaultPolicy]] = {
    "fail_fast": FaultPolicy.fail_fast,
    "retry": lambda: FaultPolicy.retry(max_retries=5),
    "checkpoint_restart": lambda: FaultPolicy.checkpoint_restart(
        max_restarts=8, max_retries=4),
    "shrink_restripe": lambda: FaultPolicy.shrink_restripe(
        max_restarts=8, max_retries=4),
    "grow_restripe": lambda: FaultPolicy.grow_restripe(
        max_restarts=8, max_retries=4),
    "migrate_stragglers": lambda: FaultPolicy.migrate_stragglers(
        max_restarts=8, max_retries=4, backoff_jitter=0.25),
}
#: The policies that claim to survive permanent node loss by shrinking.
SHRINKING = ("shrink_restripe", "grow_restripe", "migrate_stragglers")
#: Aborts a policy may sanction: fault and transport errors, and the
#: kernel's legible surrender when a replay budget runs out.
SANCTIONED = (FaultError, TransportError, RuntimeError_)
RECOVERY_KINDS = ("retry", "restore", "shrink", "grow", "migrate_straggler")
#: A cell still running after this many fault-free makespans of virtual time
#: is stopped and counted as livelocked.
WATCHDOG = 100
#: The schedule pool, as (schedule seed, schedule index): the first 90
#: schedules of one seed, then one witness each of the second and third
#: documented defects, which those 90 do not hit.  552 cells.
SCHEDULE_SEED = 1
POOL = ([(SCHEDULE_SEED, s) for s in range(10 * len(KINDS))]
        + [(2, 60), (6, 128)])


class Livelock(Exception):
    """A cell's simulation was still running when the watchdog fired."""


class Watchdog:
    """A simulation process that raises :class:`Livelock` out of the run at
    virtual time ``limit`` unless disarmed first."""

    def __init__(self, env, limit: float):
        self.armed = True
        env.process(self._wait(env, limit))

    def _wait(self, env, limit: float):
        yield env.timeout(limit)
        if self.armed:
            raise Livelock(f"still running at virtual t={env.now:.6f}")


def schedule(seed: int, s: int, horizon: float) -> ChaosSchedule:
    """Schedule ``s`` of the stream, its times scaled to ``horizon``.

    Each block of nine schedules leads with every kind once, in a seeded
    order, and adds up to two more kinds drawn freely; so every prefix of
    whole blocks has the same leading-kind mix.  Node 0 hosts the detector
    coordinator and the source, so crash-class faults spare it.
    """
    block, pos = divmod(s, len(KINDS))
    leads = list(KINDS)
    random.Random(f"chaos-recovery:{seed}:block{block}").shuffle(leads)
    rng = random.Random(f"chaos-recovery:{seed}:{s}")
    plan = FaultPlan(seed=rng.randrange(1 << 31))
    kinds = (leads[pos],) + tuple(rng.choice(KINDS)
                                  for _ in range(rng.randint(0, 2)))
    permanent_crash = hard_flap = False

    def node():
        return rng.randrange(1, NODES)

    def link():
        a = rng.randrange(NODES)
        b = rng.randrange(NODES - 1)
        return a, b + (b >= a)

    for kind in kinds:
        at = horizon * rng.uniform(0.10, 0.70)
        span = horizon * rng.uniform(0.2, 0.6)
        if kind == "crash":
            permanent = rng.random() < 0.3
            plan.crash_node(node(), at=at, permanent=permanent)
            permanent_crash = permanent_crash or permanent
        elif kind == "hang":
            plan.hang_node(node(), at=at,
                           duration=horizon * rng.uniform(0.02, 0.15))
        elif kind == "slow":
            plan.slow_node(node(), at=at, factor=rng.uniform(0.15, 0.6),
                           duration=None if rng.random() < 0.3 else span)
        elif kind == "degrade":
            plan.degrade_link(*link(), at=at, factor=rng.uniform(0.1, 0.8),
                              duration=span)
        elif kind == "jitter":
            plan.jitter_link(*link(), at=at,
                             sigma=horizon * rng.uniform(5e-4, 5e-3),
                             duration=span)
        elif kind == "flap":
            hard = rng.random() < 0.5
            plan.flap_link(*link(), at=at,
                           period=horizon * rng.uniform(0.05, 0.20),
                           factor=0.0 if hard else rng.uniform(0.2, 0.8),
                           cycles=rng.randint(2, 4))
            hard_flap = hard_flap or hard
        elif kind == "loss":
            plan.message_loss(rng.uniform(0.01, 0.08))
        elif kind == "corruption":
            plan.message_corruption(rng.uniform(0.01, 0.05))
        else:  # join: a permanent crash, then replacement hardware
            target = node()
            plan.crash_node(target, at=at, permanent=True)
            plan.join_node(target, at=horizon * rng.uniform(0.75, 0.95))
    return ChaosSchedule(seed=s, nodes=NODES, horizon=horizon, kinds=kinds,
                         plan=plan, permanent_crash=permanent_crash,
                         hard_flap=hard_flap)


def crashed_nodes(sched: ChaosSchedule) -> set:
    return {e.node for e in sched.plan.events if isinstance(e, NodeCrash)}


def known_defect(sched: ChaosSchedule, policy: str, error, violations) -> bool:
    """Whether a failed cell shows one of the three documented defects, and
    nothing else.  ``error`` is the exception the run raised, if any."""
    if policy == "fail_fast":
        return isinstance(error, SANCTIONED) and all(
            v.invariant == "no_wedged_processes"
            and v.detail.startswith("drain step raised TransportError")
            for v in violations)
    if policy not in SHRINKING:
        return False
    only_sanctioned = all(v.invariant == "sanctioned_failure" for v in violations)
    if isinstance(error, NodeFailure):
        return len(crashed_nodes(sched)) >= 2 and only_sanctioned
    return isinstance(error, Livelock) and "join" in sched.kinds and only_sanctioned


class ChaosRecovery(Workload):
    name = "chaos-recovery"
    min_units = len(POOL)   # the whole pool: the virtual metrics' prefix
    trace_units = len(KINDS)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.model = corner_turn_model(SIZE, NODES)
        self.provider = MatrixProvider(SIZE, seed=seed)
        self.hand = HandReferences()
        #: (pool unit, policy) -> (failed, makespan) of the cell's first run.
        self.outcomes: Dict[tuple, tuple] = {}

    def warm_up(self) -> None:
        _, self.baseline = sage_pass(Meter(), self.model, NODES, ITERATIONS,
                                     config=DEFAULT_CONFIG,
                                     policy=FaultPolicy.fail_fast(),
                                     provider=self.provider)
        self.run_unit(-1, Meter(), fixed=False)

    def run_unit(self, u: int, meter: Meter, fixed: bool) -> None:
        # The warm-up's unit -1 lies outside the pool.
        unit = u % len(POOL) if u >= 0 else u
        seed, s = POOL[unit] if u >= 0 else (SCHEDULE_SEED, u)
        sched = schedule(seed, s, self.baseline.makespan)
        for name, make_policy in POLICIES.items():
            self._cell(unit, sched, name, make_policy(), meter, fixed)

    def _cell(self, unit: int, sched: ChaosSchedule, name: str,
              policy: FaultPolicy, meter: Meter, fixed: bool) -> None:
        if fixed:
            meter.attempted += 1
        runtime = result = error = None
        found: List[Violation] = []
        try:
            with meter.timed():
                runtime = sage_setup(meter, self.model, NODES,
                                     config=DEFAULT_CONFIG, plan=sched.plan,
                                     policy=policy)
                dog = Watchdog(runtime.env, WATCHDOG * self.baseline.makespan)
                try:
                    result = sage_run(meter, runtime, ITERATIONS, self.provider)
                finally:
                    dog.armed = False
        except SANCTIONED as exc:
            error = exc
            meter.count("chaos.sanctioned_aborts")
            if expected_outcome(sched, policy) == IDENTICAL:
                found.append(Violation(
                    "sanctioned_failure", f"{name} should survive "
                    f"{sched.describe()} but aborted: {type(exc).__name__}: {exc}"))
        except Exception as exc:
            error = exc
            found.append(Violation(
                "sanctioned_failure",
                f"{type(exc).__name__} escaped the runtime: {exc}"))
        completed = result is not None
        if runtime is not None:
            found += check_quiescent(runtime.env, runtime.cluster,
                                     strict_faults=completed)
            found += check_probe_stream(
                runtime.trace, processors=len(runtime.cluster),
                completed_iterations=ITERATIONS if completed else None)
            counts = runtime.trace.counts_by_kind()
            meter.count("runtime.recoveries",
                        sum(counts.get(k, 0) for k in RECOVERY_KINDS))
        if completed:
            found += check_results(result, self.baseline)
            meter.count("runtime.recovery_virtual_s",
                        result.makespan - self.baseline.makespan)
            if fixed:
                meter.record("makespan", result.makespan)
        meter.count("chaos.violations", len(found))
        outcome = (bool(found), result.makespan if completed else None)
        first = self.outcomes.setdefault((unit, name), outcome)
        if outcome != first:
            meter.fail(f"{sched.describe()} under {name} ended as "
                       f"{outcome}, its first run as {first}")
        elif found and fixed:
            meter.fail(f"{sched.describe()} under {name}: "
                       + "; ".join(str(v) for v in found),
                       known=known_defect(sched, name, error, found))

    def virtual_metrics(self, meter: Meter) -> Dict[str, float]:
        base = self.baseline
        makespans = meter.virtual["makespan"]
        hand = self.hand.latency("corner_turn", SIZE, NODES, ITERATIONS)
        return {
            "sage_hand_latency_ratio": base.mean_latency / hand,
            # Closed loop: each cell holds its private 8-node cluster.
            "virtual_utilization": 1.0,
            "virtual_latency_s_p90": percentile(makespans, 90),
            "fault_makespan_ratio": statistics.median(makespans) / base.makespan,
        }
