"""The counted-arrival contract of ``Countdown``.

The run-time waits for a receiving thread's N planned messages on
``env.all_of([countdown])`` instead of ``env.all_of(events)`` over one event
per message.  That must resume the waiter at the same instant and at the
same place among the other entries of that instant, whatever the order of
arrivals and wait, while dropping only the entries whose sole effect was a
decrement: the N-1 non-last arrival entries, and the N-1 redundant
hand-offs when every arrival was processed before the wait.
"""

import pytest

from repro.machine.simulator import Countdown, Environment, SimulationError

N = 3


def _scenario(counted, actors):
    """Run ``actors`` -- ``("arrive", slot, t)``, ``("wait", t)`` and
    ``("comp", t)``, created in list order -- with the N arrivals made
    either as one countdown or as one event per slot."""
    env = Environment()
    log = []
    if counted:
        countdown = Countdown(env, N)
        mark = countdown.mark
        waited = lambda: env.all_of([countdown])  # noqa: E731
    else:
        events = [env.event() for _ in range(N)]
        mark = lambda slot: events[slot].succeed()  # noqa: E731
        waited = lambda: env.all_of(events)  # noqa: E731

    def arrive(slot, t):
        yield env.timeout(t)
        log.append(("arrive", slot, env.now))
        mark(slot)

    def wait(t):
        yield env.timeout(t)
        log.append(("wait", env.now))
        yield waited()
        log.append(("resume", env.now))

    def competitor(t):
        # Logs at each of several same-instant entries, so a resume one
        # entry early or late shows as a reordered log.
        yield env.timeout(t)
        for i in range(4):
            log.append(("comp", i, env.now))
            yield env.timeout(0)

    bodies = {"arrive": arrive, "wait": wait, "comp": competitor}
    for kind, *args in actors:
        env.process(bodies[kind](*args))
    env.run()
    return log, env.now, env.events_processed


# (actors, entries the countdown drops: N-1 arrivals, plus N-1 hand-offs
# when all N were processed before the wait, else one per processed one)
SCENARIOS = {
    "all_before_wait": (
        [("arrive", 0, 0.0), ("arrive", 1, 0.0), ("arrive", 2, 0.5),
         ("wait", 1.0), ("comp", 1.0)],
        (N - 1) + (N - 1),
    ),
    "all_after_wait": (
        [("wait", 0.0), ("comp", 2.0), ("arrive", 2, 1.0),
         ("arrive", 0, 2.0), ("arrive", 1, 2.0), ("comp", 2.0)],
        N - 1,
    ),
    "mixed": (
        [("arrive", 1, 0.0), ("arrive", 0, 1.0), ("wait", 1.0),
         ("comp", 1.0), ("comp", 2.0), ("arrive", 2, 2.0)],
        (N - 1) + 1,
    ),
    # The last arrival's process steps just before the waiter's at t=1, so
    # its entry is still queued when the wait starts.
    "last_queued_at_wait": (
        [("arrive", 0, 0.0), ("arrive", 2, 0.0), ("comp", 1.0),
         ("arrive", 1, 1.0), ("wait", 1.0), ("comp", 1.0)],
        (N - 1) + 2,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counted_wait_matches_all_of_events(name):
    actors, dropped = SCENARIOS[name]
    log, now, entries = _scenario(True, actors)
    ref_log, ref_now, ref_entries = _scenario(False, actors)
    assert log == ref_log
    assert now == ref_now
    assert ref_entries - entries == dropped
    assert [e[0] for e in log].count("resume") == 1


def test_last_queued_scenario_really_queues_the_last_arrival():
    env = Environment()
    countdown = Countdown(env, 1)
    seen = []

    def arrive():
        yield env.timeout(1.0)
        countdown.mark(0)

    def wait():
        yield env.timeout(1.0)
        seen.append((countdown.triggered, countdown.processed))
        yield env.all_of([countdown])

    env.process(arrive())
    env.process(wait())
    env.run()
    assert seen == [(True, False)]


def test_marking_a_slot_twice_raises():
    env = Environment()
    countdown = Countdown(env, 2)
    countdown.mark(1)
    with pytest.raises(SimulationError, match="slot 1"):
        countdown.mark(1)
    assert not countdown.triggered  # a bare count would have fired here
    countdown.mark(0)
    assert countdown.triggered
    with pytest.raises(SimulationError, match="slot 0"):
        countdown.mark(0)


def test_slot_out_of_range_raises():
    env = Environment()
    countdown = Countdown(env, 2)
    with pytest.raises(SimulationError, match="slot 2"):
        countdown.mark(2)
    assert not countdown.triggered


def test_zero_slots_never_wait():
    env = Environment()
    resumed = []

    def wait():
        yield env.all_of([Countdown(env, 0)])
        resumed.append(env.now)

    env.process(wait())
    env.run()
    assert resumed == [0.0]
