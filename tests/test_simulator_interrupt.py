"""Interrupt-safety regressions for the simulation kernel.

Two historical bugs, now load-bearing for fault recovery:

* ``Process.interrupt()`` on a process whose resume was already queued (it
  was waiting on an event processed earlier, whose scheduled callback cannot
  be cancelled) must not leave a stale ``_resume`` on the event the process
  re-suspends on — or the process is stepped a second time later.
* A process interrupted while suspended on a ``Resource`` request must give
  the slot back (granted) or withdraw the request (queued); otherwise the
  resource leaks and every later requester deadlocks.
"""

import pytest

from repro.machine.simulator import (
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
    Task,
)


class TestInterruptRaces:
    def test_interrupt_races_queued_resume(self):
        """Interrupt a process whose resume is already in the event queue.

        The victim yields an event processed in a *previous* instant, so its
        resume is an un-cancellable scheduled callback.  The interrupt lands
        after that resume has run and the victim re-suspended on a new event;
        the interrupt must detach from the new target, or its stale callback
        would step the victim a second time at t=10."""
        env = Environment()
        done = env.event()
        done.succeed()
        env.run(until=done)  # `done` is processed before the victim exists

        order = []

        def victim():
            order.append("start")
            yield done  # already processed: resume is queued, not attached
            order.append("resumed")
            try:
                yield env.timeout(10)
                order.append("slept-10")
            except Interrupt as intr:
                order.append(f"interrupted:{intr.cause}")
                # Still suspended at t=10 when the abandoned timeout fires: a
                # stale callback would resume this wait 5s early.
                yield env.timeout(15)
                order.append(("slept", env.now))

        def attacker():
            # Also resumed via a queued callback — scheduled *before* the
            # victim's, so the interrupt is issued while the victim's resume
            # is still sitting in the queue.
            yield done
            v.interrupt("race")

        env.process(attacker())
        v = env.process(victim())
        env.run()
        assert order == ["start", "resumed", "interrupted:race", ("slept", 15.0)]
        assert v.processed and v.ok

    def test_interrupt_while_anyof_already_triggered(self):
        """Interrupt delivered in the same instant an AnyOf child fires:
        the Interrupt wins and the triggered AnyOf must not resume the
        process a second time."""
        env = Environment()
        ev = env.event()
        got = []

        def waiter():
            try:
                which, value = yield env.any_of([ev, env.timeout(5)])
                got.append(("value", which, value))
            except Interrupt as intr:
                got.append(("interrupt", intr.cause))
                yield env.timeout(1)
                got.append(("done",))

        p = env.process(waiter())

        def driver():
            yield env.timeout(1)
            ev.succeed("data")        # the AnyOf will fire this instant...
            p.interrupt("cancelled")  # ...but the interrupt detaches first

        env.process(driver())
        env.run()
        assert got == [("interrupt", "cancelled"), ("done",)]

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick():
            yield env.timeout(0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError, match="finished process"):
            p.interrupt()

    def test_anyof_late_straggler_after_interrupt_is_harmless(self):
        """After an interrupted wait, the AnyOf's remaining children firing
        later must not touch the (re-suspended or finished) process."""
        env = Environment()
        slow = env.event()
        got = []

        def waiter():
            try:
                yield env.any_of([slow, env.timeout(100)])
                got.append("value")
            except Interrupt:
                got.append("interrupt")
            yield env.timeout(1)
            got.append("after")

        p = env.process(waiter())

        def driver():
            yield env.timeout(2)
            p.interrupt()
            yield env.timeout(5)
            slow.succeed()  # straggler: waiter is elsewhere by now

        env.process(driver())
        env.run()
        assert got == ["interrupt", "after"]


class TestResourceCancel:
    def test_queued_request_withdrawn_on_interrupt(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield from res.use(10)

        def waiter():
            try:
                yield from res.use(1)
            except Interrupt:
                pass

        env.process(holder())
        w = env.process(waiter())

        def driver():
            yield env.timeout(1)
            w.interrupt()

        env.process(driver())
        env.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_holder_interrupted_mid_use_releases_slot(self):
        env = Environment()
        res = Resource(env, capacity=1)
        acquired = []

        def holder():
            try:
                yield from res.use(100)
            except Interrupt:
                pass

        def successor():
            yield env.timeout(2)
            yield from res.use(1)
            acquired.append(env.now)

        h = env.process(holder())
        env.process(successor())

        def driver():
            yield env.timeout(1)
            h.interrupt()

        env.process(driver())
        env.run()
        # The successor got the slot right away at t=2 and held it 1s.
        assert acquired == [3]
        assert res.count == 0

    def test_cancel_granted_but_unconsumed_request(self):
        """A request granted at the same instant the requester is interrupted
        must be released, not leaked."""
        env = Environment()
        res = Resource(env, capacity=1)

        def victim():
            req = res.request()  # capacity free: granted immediately
            try:
                yield req
            except Interrupt:
                res.cancel(req)

        v = env.process(victim())

        def driver():
            v.interrupt()
            return
            yield  # pragma: no cover

        env.process(driver())
        env.run()
        assert res.count == 0

    def test_cancel_untracked_request_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        stray = env.event()  # never a real request
        res.cancel(stray)
        assert res.count == 0 and res.queue_length == 0

    def test_anyof_is_exported(self):
        # Regression guard: AnyOf is public API for the timeout patterns.
        env = Environment()
        assert isinstance(env.any_of([env.timeout(1)]), AnyOf)


class _Holder(Task):
    """Hold ``res`` for ``d`` after a ``d`` sleep, logging each step."""

    __slots__ = ("res", "d", "log")

    def __init__(self, env, res, d, log):
        super().__init__(env)
        self.res, self.d, self.log = res, d, log

    def _run(self, event):
        self.log.append(("start", self.env.now))
        self._wait(self.env.timeout(self.d), self._slept)

    def _slept(self, event):
        self._use(self.res, self.d, self._done)

    def _done(self, event):
        self.log.append(("done", self.env.now))
        self._finish("ok")

    def _throw(self, exc):
        self.log.append(("interrupted", self.env.now))
        self._finish("interrupted")


def _hold_gen(env, res, d, log):
    log.append(("start", env.now))
    try:
        yield env.timeout(d)
        yield from res.use(d)
    except Interrupt:
        log.append(("interrupted", env.now))
        return "interrupted"
    log.append(("done", env.now))
    return "ok"


class TestTaskMatchesProcess:
    """A callback task makes the queue entries of the equivalent process."""

    def _run(self, make, interrupt_at=None):
        env = Environment()
        res = Resource(env)
        log = []
        workers = [make(env, res, 1.0 + k, log) for k in range(3)]
        if interrupt_at is not None:
            env.run(until=interrupt_at)
            workers[1].interrupt("test")
        values = env.run(until=env.all_of(workers))
        return log, values, env.events_processed, res.count, res.queue_length

    @pytest.mark.parametrize("interrupt_at", [None, 0.0, 1.5, 2.0, 3.5])
    def test_same_log_values_and_entries(self, interrupt_at):
        task = self._run(_Holder, interrupt_at)
        proc = self._run(
            lambda env, res, d, log: env.process(_hold_gen(env, res, d, log)),
            interrupt_at)
        assert task == proc
        assert task[3:] == (0, 0)

    def test_reset_fails_a_queued_hold_like_a_queued_use(self):
        def run(make):
            env = Environment()
            res = Resource(env)
            log = []
            make(env, res, 1.0, log)  # holds the resource from t=1
            make(env, res, 1.0, log)  # queues for it at t=1
            env.run(until=1.5)
            res.reset()  # the queued request fails; so does the holder's release
            errors = []
            while env._imm0 or env._imm1 or env._queue:
                with pytest.raises(SimulationError) as err:
                    env.run()
                errors.append((str(err.value), env.now))
            return errors, log

        assert run(_Holder) == run(
            lambda env, res, d, log: env.process(_hold_gen(env, res, d, log)))

    def test_unawaited_completion_entry_is_dropped(self):
        class Quiet(_Holder):
            __slots__ = ()
            keep_completion = False

        counts = []
        for cls in (_Holder, Quiet):
            env = Environment()
            cls(env, Resource(env), 1.0, [])
            env.run()
            counts.append(env.events_processed)
        assert counts[1] == counts[0] - 1

    def test_exception_without_waiters_escapes_step(self):
        class Boom(Task):
            __slots__ = ()

            def _run(self, event):
                raise ValueError("boom")

        env = Environment()
        task = Boom(env)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert not task.is_alive and not task.ok
