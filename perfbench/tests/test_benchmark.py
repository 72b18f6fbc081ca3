"""The benchmark's own tests.

Run from the repository root: ``python -m pytest perfbench/tests -q``
(about half a minute; each workload runs a few units).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.chaos_recovery import (
    POOL,
    ChaosRecovery,
    Livelock,
    known_defect,
    schedule,
)
from perfbench.design_sweep import DesignSweep, design
from perfbench.harness import Meter, percentile
from perfbench.service_soak import ServiceSoak, batch
from perfbench.table1_scale import PASSES, PINS, Table1Scale, pass_key
from repro.chaos import ChaosSchedule

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = (Table1Scale, DesignSweep, ServiceSoak, ChaosRecovery)
#: Units per workload small enough for a test, large enough for p90 once
#: the tail rule is relaxed to one sample.
TEST_UNITS = {Table1Scale: 1, DesignSweep: 12, ServiceSoak: 1, ChaosRecovery: 4}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


# -- BENCHMARK.json ----------------------------------------------------------

def test_spec_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_name_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == [cls.name for cls in WORKLOADS]


def test_every_program_cache_has_a_hit_fraction():
    from repro.perf import cache_stats

    listed = {m["name"] for m in SPEC["per_layer"]}
    for cache in cache_stats():
        assert f"perf.{cache}.hit_frac" in listed


# -- the percentile rule -------------------------------------------------------

def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.5)


def test_p50_needs_20_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 50)
    assert percentile([1.0] * 20, 50) == 1.0


# -- seeded inputs -------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    assert [design(3, i) for i in range(50)] == [design(3, i) for i in range(50)]
    assert [design(3, i) for i in range(50)] != [design(4, i) for i in range(50)]
    assert len({design(3, i) for i in range(2000)}) == 2000
    assert batch(5, 0) == batch(5, 0) and batch(5, 0) != batch(6, 0)
    a, b = schedule(7, 0, 1e-3), schedule(7, 0, 1e-3)
    assert (a.kinds, a.plan.seed) == (b.kinds, b.plan.seed)
    assert Table1Scale(1).order(0) == Table1Scale(1).order(0)
    assert sorted(Table1Scale(1).order(0)) == sorted(PASSES)


def test_table1_pins_cover_every_pass():
    assert set(PINS) == {pass_key(*p) for p in PASSES}
    for key, pins in PINS.items():
        want = {"makespan", "mean_latency"} | (
            {"trace_digest"} if key.endswith("/sage") else set())
        assert set(pins) == want


# -- every metric, every workload --------------------------------------------

@pytest.fixture
def short_tails(monkeypatch):
    monkeypatch.setattr(harness, "TAIL_SAMPLES", 1)


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda c: c.name)
def test_every_metric_is_reported(cls, short_tails):
    import cProfile
    import pstats

    import repro
    from repro.perf import cache_stats, clear_all_caches

    units = TEST_UNITS[cls]
    workload = cls(seed=1)
    workload.warm_up()
    meter = harness.measure(workload, None, units)
    e2e = harness.end_to_end(workload, meter, setup_s=1.0)
    assert not meter.problems, meter.problems
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]] > 0, m["name"]

    clear_all_caches()
    workload.warm_up()
    profiler = cProfile.Profile()
    traced = harness.measure(workload, None, units, profiler=profiler,
                             cache_stats=cache_stats)
    layers = harness.per_layer(workload, meter, traced, pstats.Stats(profiler),
                               os.path.dirname(repro.__file__))
    for m in SPEC["per_layer"]:
        assert layers[m["name"]] >= 0, m["name"]
    # Layer self times account for the traced wall time.
    assert 0.8 < layers["trace.attributed_frac"] <= 1.05
    assert layers["machine.sim.events"] > 0


# -- failures show up ------------------------------------------------------------

def test_tampered_virtual_result_fails(monkeypatch):
    import perfbench.table1_scale as t1

    real = t1.hand_figures
    monkeypatch.setattr(t1, "hand_figures",
                        lambda timings, k: (real(timings, k)[0] * 1.000001,
                                            real(timings, k)[1]))
    meter = Meter()
    Table1Scale(seed=1).run_unit(0, meter, fixed=False)
    assert meter.failed == 6 and len(meter.problems) == 6
    assert all("/hand: mean_latency" in p for p in meter.problems)


def test_tampered_data_result_fails(monkeypatch):
    import perfbench.design_sweep as ds

    from repro.core.runtime.kernel import RunResult

    real = RunResult.full_result
    monkeypatch.setattr(RunResult, "full_result",
                        lambda self, k=0: real(self, k) * 1.001)
    workload = DesignSweep(seed=1)
    checked = range(0, 100 * ds.CHECK_EVERY, ds.CHECK_EVERY)
    one_per_app = {design(1, u).app: u for u in checked}
    assert set(one_per_app) == {"fft2d", "corner_turn"}
    for u in one_per_app.values():
        meter = Meter()
        workload.run_unit(u, meter, fixed=False)
        assert meter.failed == 1 and "iteration 0" in meter.problems[0]


def test_chaos_counts_each_pool_cell_once_and_checks_repeats():
    workload = ChaosRecovery(seed=1)
    workload.warm_up()
    meter = Meter()
    workload.run_unit(0, meter, fixed=True)
    workload.run_unit(len(POOL), meter, fixed=False)  # the same six cells
    assert (meter.attempted, len(meter.samples)) == (6, 12)
    assert not meter.problems
    workload.outcomes[(0, "retry")] = ("tampered",)
    workload.run_unit(len(POOL), meter, fixed=False)
    assert len(meter.problems) == 1 and "its first run as" in meter.problems[0]


def test_raised_operation_fails_and_the_run_goes_on(monkeypatch):
    import perfbench.design_sweep as ds

    real = ds.sage_pass
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(ds, "sage_pass", flaky)
    meter = Meter()
    workload = DesignSweep(seed=1)
    for u in range(1, 4):
        workload.run_unit(u, meter, fixed=False)
    assert (meter.attempted, meter.failed) == (3, 1)
    assert "raised RuntimeError: boom" in meter.problems[0]
    assert len(meter.samples) == 3


def test_known_defects_are_exactly_the_documented_three():
    from repro.chaos import Violation
    from repro.core.runtime.policy import TransportError
    from repro.machine.faults import FaultPlan, NodeFailure

    drain = Violation("no_wedged_processes",
                      "drain step raised TransportError: message lost")
    leak = Violation("no_leaked_slots", "node 3: 1 CPU slot(s) still held")
    survive = Violation("sanctioned_failure", "should survive but aborted")
    one = schedule(1, 0, 1e-3)
    two = ChaosSchedule(seed=0, nodes=8, horizon=1e-3, kinds=("crash", "join"),
                        plan=FaultPlan(seed=1).crash_node(2, at=1e-4, permanent=True)
                        .crash_node(4, at=2e-4).join_node(2, at=5e-4),
                        permanent_crash=True)
    lost = TransportError("message lost")
    assert known_defect(one, "fail_fast", lost, [drain])
    assert not known_defect(one, "fail_fast", None, [drain])
    assert not known_defect(one, "fail_fast", lost, [drain, leak])
    assert not known_defect(one, "retry", lost, [drain])
    crash = NodeFailure(2, 1e-4, 2e-4)
    assert known_defect(two, "shrink_restripe", crash, [survive])
    assert not known_defect(two, "shrink_restripe", crash, [survive, leak])
    assert not known_defect(two, "checkpoint_restart", crash, [survive])
    single = ChaosSchedule(seed=0, nodes=8, horizon=1e-3, kinds=("crash",),
                           plan=FaultPlan(seed=1).crash_node(2, at=1e-4,
                                                             permanent=True),
                           permanent_crash=True)
    assert not known_defect(single, "shrink_restripe", crash, [survive])
    stuck = Livelock("still running")
    rejoin = ChaosSchedule(seed=0, nodes=8, horizon=1e-3, kinds=("join",),
                           plan=FaultPlan(seed=1).crash_node(7, at=6e-4,
                                                             permanent=True)
                           .join_node(7, at=6.5e-4))
    assert known_defect(rejoin, "grow_restripe", stuck, [survive])
    assert not known_defect(rejoin, "retry", stuck, [survive])
    assert not known_defect(single, "grow_restripe", stuck, [survive])


# -- the command ---------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
