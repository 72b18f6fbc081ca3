"""Discrete-event simulation engine.

A small, self-contained, SimPy-flavoured kernel used by every timed layer of
the reproduction: the simulated cluster, the message-passing library, and the
SAGE run-time.  Processes are Python generators that ``yield`` *events*; the
:class:`Environment` advances a virtual clock and resumes processes when the
events they wait on fire.

Design notes
------------
* Events are totally ordered by ``(time, priority, sequence)`` so runs are
  deterministic: two events scheduled for the same instant fire in schedule
  order.
* Fast path: the vast majority of schedule operations are zero-delay (an
  event firing at the current instant — every ``succeed``/``fail``, process
  start, and post-processing callback).  Those never enter the heap; they go
  to two deques holding only current-instant entries (priority 0 for
  callback hand-offs, priority 1 for events), and :meth:`Environment.step`
  merges deques and heap in exact ``(time, priority, sequence)`` order.
  Only real timeouts pay ``heappush``/``heappop``.
* A process may yield:
    - :class:`Timeout`     -- resume after a virtual delay,
    - :class:`Event`       -- resume when someone triggers it,
    - :class:`Process`     -- resume when the child process terminates
      (its value is the child's return value),
    - :class:`AllOf`       -- resume when every sub-event has fired.
* A :class:`Task` is a process written as callbacks instead of a generator:
  the same queue entries, without a generator resume per wait.  A
  :class:`Hold` takes resources in order and holds them for a duration, as
  one event (what :meth:`Resource.use` does for one resource).  A
  :class:`Countdown` fires once each of its ``n`` slots has been marked:
  one entry where ``n`` events waited on together would make ``n``.
* :class:`Store` is an unbounded FIFO channel with blocking ``get``;
  :class:`Resource` is a counted lock used to model link/bus contention.

The engine never consults the wall clock; all time is virtual seconds.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Hold",
    "Task",
    "AllOf",
    "Countdown",
    "AnyOf",
    "Store",
    "Resource",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, with an optional value.  Callbacks
    registered before the trigger run when it fires; callbacks registered
    after it fired are scheduled immediately.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "triggered", "processed")

    #: sentinel meaning "no value yet"
    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self.triggered = False
        self.processed = False

    # -- inspection ------------------------------------------------------
    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        env = self.env  # inlined zero-delay _schedule (hottest call site)
        env._imm1.append((next(env._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception that will be raised in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._imm1.append((next(env._seq), self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current instant.
            self.env._schedule_callback(fn, self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires automatically after a virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self.triggered = True
        self._ok = True
        self._value = value
        if self.delay == 0.0:
            env._imm1.append((next(env._seq), self))
        else:
            heapq.heappush(
                env._queue, (env._now + self.delay, 1, next(env._seq), self)
            )


class Process(Event):
    """A running generator; also an event that fires when the generator ends."""

    __slots__ = ("generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        env._start(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self._target is not None and self.env._active_proc is not self:
            # Detach from whatever it was waiting on.
            target = self._target
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._target = None
        kick = Event(self.env)
        kick.triggered = True
        kick._ok = True
        kick._value = Interrupt(cause)
        self.env._schedule(kick)
        kick.callbacks = []
        kick.add_callback(self._resume_interrupt)

    # -- stepping --------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # finished in the meantime
        # The process may have resumed and re-suspended on a new event since
        # interrupt() detached it (e.g. it was waiting on an already-processed
        # event whose queued resume could not be cancelled).  Detach from the
        # current target too, or the stale callback would resume the process a
        # second time after the Interrupt is delivered.
        if self._target is not None:
            target = self._target
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._target = None
        self._step(event.value, throw=True)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return  # already finished (e.g. killed by an interrupt)
        self._target = None
        self._step(event._value, throw=not event._ok)

    def _step(self, value: Any, throw: bool) -> None:
        env = self.env
        prev = env._active_proc
        env._active_proc = self
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            env._active_proc = prev
            self.triggered = True
            self._ok = True
            self._value = stop.value
            env._schedule(self)
            return
        except BaseException as exc:
            env._active_proc = prev
            self.triggered = True
            self._ok = False
            self._value = exc
            if not self.callbacks:
                env._active_proc = prev
                raise
            env._schedule(self)
            return
        env._active_proc = prev
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._target = target
        target.add_callback(self._resume)


class Hold(Event):
    """Take ``resources`` in order, hold them all for ``duration``, release.

    Each take is an ordinary :meth:`Resource.request`, so every grant (of a
    free resource too) is a queue entry and same-instant requests are
    served FIFO; taking in one fixed order means two holds can never
    deadlock.  Once the last grant lands the hold schedules itself
    ``duration`` later.  When that entry fires it releases the resources
    (the last taken first) and sets its value from :meth:`_outcome` before
    any waiter's callback runs, so a waiter resumes at the entry where a
    :class:`Timeout` of ``duration`` would have resumed it, and finds the
    resources free.  With no resources it is a timeout.

    A failed grant (the resource was reset) is thrown at the waiters at
    once.  A holder that stops waiting calls :meth:`freeze` (the hold stops
    advancing) and then :meth:`cancel` (the queued request is withdrawn and
    the held resources released), as the ``except``/``finally`` blocks of
    :meth:`Resource.use` would.
    """

    __slots__ = ("_resources", "_duration", "_held", "_req")

    def __init__(self, env: "Environment", resources: tuple, duration: float):
        if duration < 0:
            raise SimulationError(f"negative hold duration: {duration!r}")
        super().__init__(env)
        self._resources = resources
        self._duration = duration
        self._held = 0
        self._req: Optional[Event] = None
        self.callbacks.append(self._release)
        if resources:
            self._req = req = resources[0].request()
            req.callbacks.append(self._granted)
        else:
            self.triggered = True
            env._schedule(self, duration)

    def _outcome(self) -> Any:
        """The value the hold fires with; subclasses add a verdict."""
        return None

    def _granted(self, event: Event) -> None:
        if not event._ok:
            # Thrown at the waiters at this entry, as at a generator's yield.
            self.triggered = True
            self._ok = False
            self._value = event._value
            callbacks, self.callbacks = self.callbacks, None
            self.processed = True
            for cb in callbacks[1:]:  # [0] is _release
                cb(self)
            return
        self._held = held = self._held + 1
        resources = self._resources
        if held < len(resources):
            self._req = req = resources[held].request()
            req.callbacks.append(self._granted)
            return
        self._req = None
        self.triggered = True
        self.env._schedule(self, self._duration)

    def _release(self, event: Event) -> None:
        resources = self._resources
        self._held = 0
        for i in range(len(resources) - 1, -1, -1):
            resources[i].release()
        self._value = self._outcome()

    def freeze(self) -> None:
        """Stop advancing, keeping the resources as they are until
        :meth:`cancel`: what a holder does between being interrupted and
        the interrupt reaching it."""
        req = self._req
        if (req is not None and req.callbacks is not None
                and self._granted in req.callbacks):
            req.callbacks.remove(self._granted)
        callbacks = self.callbacks
        if callbacks is not None and self._release in callbacks:
            callbacks.remove(self._release)

    def cancel(self) -> None:
        """Abandon the hold as an interrupted holder does: withdraw the
        queued request (or give back a granted one), then release the held
        resources, the last taken first.  A no-op once the hold is over."""
        self.freeze()
        resources, held, req = self._resources, self._held, self._req
        self._held = 0
        self._req = None
        if req is not None:
            resources[held].cancel(req)
        for i in range(held - 1, -1, -1):
            resources[i].release()


class Task(Event):
    """A process written as a chain of callbacks instead of a generator.

    Every wait costs one callback rather than a generator resume (plus a
    frame per ``yield from`` level).  A task schedules the queue entries a
    :class:`Process` running the equivalent generator would: a start entry
    when it is created, then the events it waits on.  Only its completion
    entry may differ: a subclass that sets ``keep_completion = False``
    skips it when nothing waits on the task.

    Subclasses implement :meth:`_run`, called at the start entry, and chain
    continuations ``then(event)`` with :meth:`_wait`, :meth:`_wait_hold`
    and :meth:`_use`; :meth:`_finish` ends the task.  An exception escaping
    a continuation ends the task as it would end a process: it is raised
    out of :meth:`Environment.step` when nothing waits on the task and
    delivered to the waiters otherwise.  :meth:`interrupt` has the queue
    effects of :meth:`Process.interrupt`; the :class:`Interrupt` reaches
    :meth:`_throw` at the current wait, after a :class:`Hold` being waited
    on has been cancelled.
    """

    __slots__ = ("_target", "_then", "_cb", "_holding")

    #: Schedule the completion entry even when nothing waits on the task.
    keep_completion = True

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._target: Optional[Event] = None
        self._then: Callable[[Event], None] = self._run
        self._holding: Optional[Hold] = None
        # One bound method for every wait (a cycle, broken when the task ends).
        self._cb = self._resume
        env._start(self._cb)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- the body ----------------------------------------------------------
    def _run(self, event: Event) -> None:
        raise NotImplementedError

    def _wait(self, event: Event, then: Callable[[Event], None]) -> None:
        """Continue with ``then(event)`` once ``event`` has fired."""
        self._target = event
        self._then = then
        callbacks = event.callbacks
        if callbacks is None:
            self.env._schedule_callback(self._cb, event)
        else:
            callbacks.append(self._cb)

    def _wait_hold(self, hold: Hold, then: Callable[[Event], None]) -> None:
        """Wait on ``hold``, which an interrupt freezes and cancels."""
        self._holding = hold
        self._wait(hold, then)

    def _use(self, resource: "Resource", duration: float,
             then: Callable[[Event], None]) -> None:
        """Hold ``resource`` for ``duration``: the entries of
        :meth:`Resource.use`."""
        self._wait_hold(Hold(self.env, (resource,), duration), then)

    def _throw(self, exc: BaseException) -> None:
        """Deliver ``exc`` at the current wait; by default the task fails."""
        raise exc

    def _finish(self, value: Any = None) -> None:
        self.triggered = True
        self._value = value
        self._then = self._cb = None  # drop the cycles: refcounting frees us
        if self.callbacks or self.keep_completion:
            env = self.env
            env._imm1.append((next(env._seq), self))
        else:
            self.callbacks = None
            self.processed = True

    # -- stepping ----------------------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        self.triggered = True
        self._ok = False
        self._value = exc
        self._then = self._cb = None
        if not self.callbacks:
            raise exc
        self.env._schedule(self)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        self._target = None
        try:
            if event._ok:
                self._holding = None
                self._then(event)
            else:
                self._deliver(event._value)
        except Exception as exc:
            self._fail(exc)

    def _deliver(self, exc: BaseException) -> None:
        hold = self._holding
        if hold is not None:
            self._holding = None
            hold.cancel()
        self._throw(exc)

    def _detach(self) -> None:
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is not None and self._resume in callbacks:
                callbacks.remove(self._resume)
            self._target = None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` at the task's current wait, at the
        current instant (a kick entry, as for a process)."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished task")
        if self._holding is not None:
            self._holding.freeze()  # its resources go back when it lands
        self._detach()
        kick = Event(self.env)
        kick.triggered = True
        kick._value = Interrupt(cause)
        self.env._schedule(kick)
        kick.callbacks.append(self._resume_interrupt)

    def _resume_interrupt(self, kick: Event) -> None:
        if self.triggered:
            return
        self._detach()
        try:
            self._deliver(kick._value)
        except Exception as exc:
            self._fail(exc)


class AllOf(Event):
    """Fires when every sub-event has fired; value is the list of values."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev.value for ev in self.events])


class Countdown(Event):
    """A counted dependence: fires once each of ``n`` slots has been marked.

    It stands in for ``n`` events that are each succeeded once and only
    ever waited on together: :meth:`mark` is the ``succeed`` of slot
    ``slot``, and only the last mark schedules an entry, where the last of
    those events would have scheduled its own.  Waiting on
    ``env.all_of([countdown])`` therefore resumes at the entry where
    ``env.all_of(events)`` would have; the entries dropped are those whose
    only effect was to count down.  Marking a slot twice (or one outside
    ``range(n)``) raises :class:`SimulationError`, as succeeding an event
    twice does.  With ``n == 0`` it fires at once, as an empty
    :class:`AllOf` does.
    """

    __slots__ = ("_open",)

    def __init__(self, env: "Environment", n: int):
        super().__init__(env)
        self._open = (1 << n) - 1  # bit i is set until slot i is marked
        if n == 0:
            self.succeed()

    def mark(self, slot: int) -> None:
        bit = 1 << slot
        if not self._open & bit:
            raise SimulationError(
                f"countdown slot {slot} already marked or out of range"
            )
        self._open ^= bit
        if not self._open:
            self.succeed()


class AnyOf(Event):
    """Fires when the first sub-event fires; value is ``(index, value)``.

    Late stragglers are ignored (their values are simply dropped), so the
    classic receive-with-timeout pattern is::

        which, value = yield env.any_of([data_event, env.timeout(1.0)])
        if which == 1: ...  # timed out
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            raise SimulationError("any_of needs at least one event")
        for index, ev in enumerate(self.events):
            ev.add_callback(self._make_callback(index))

    def _make_callback(self, index: int):
        def on_child(event: Event) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self.succeed((index, event.value))

        return on_child


class Environment:
    """The simulation driver: virtual clock plus the event queues.

    Scheduling state is split three ways (see the module docstring):

    * ``_queue``  -- heap of future entries ``(time, priority, seq, event)``,
    * ``_imm0``   -- deque of ``(seq, event, fn)`` callback hand-offs at the
      current instant (priority 0),
    * ``_imm1``   -- deque of ``(seq, event)`` triggered events at the
      current instant (priority 1).

    The split preserves the exact ``(time, priority, sequence)`` total order
    of the single-heap implementation: deque entries are always stamped with
    the current time, the clock only advances when both deques are empty, and
    :meth:`step` compares sequence numbers against the heap top to interleave
    same-instant heap entries correctly.
    """

    __slots__ = ("_now", "_queue", "_imm0", "_imm1", "_seq", "_active_proc",
                 "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Any] = []
        self._imm0: deque = deque()
        self._imm1: deque = deque()
        self._seq = itertools.count()
        self._active_proc: Optional[Process] = None
        #: number of queue entries processed so far (wall-clock perf metric)
        self.events_processed = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> "AnyOf":
        return AnyOf(self, events)

    # -- scheduling internals ---------------------------------------------
    def _start(self, fn: Callable[[Event], None]) -> None:
        """Schedule ``fn`` as a start entry at the current instant.

        Equivalent to creating an Event, succeeding it and registering
        ``fn``, without the method-call overhead: process and task starts
        are among the hottest schedule sites.
        """
        init = Event(self)
        init.triggered = True
        init._value = None
        init.callbacks.append(fn)
        self._imm1.append((next(self._seq), init))

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay == 0.0 and priority == 1:
            # Zero-delay fast path: never touches the heap.
            self._imm1.append((next(self._seq), event))
        else:
            heapq.heappush(
                self._queue, (self._now + delay, priority, next(self._seq), event)
            )

    def _schedule_callback(self, fn: Callable, event: Event) -> None:
        # Callback hand-offs always run at the current instant, priority 0.
        self._imm0.append((next(self._seq), event, fn))

    # -- running ----------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled entry in ``(time, priority, seq)`` order."""
        imm0 = self._imm0
        if imm0:
            # Priority-0 hand-offs at the current instant always sort ahead
            # of priority-1 entries, and the heap never holds priority 0.
            _seq, event, fn = imm0.popleft()
            self.events_processed += 1
            fn(event)
            return
        imm1 = self._imm1
        queue = self._queue
        event = None
        if imm1:
            if queue:
                head = queue[0]
                # A same-instant heap entry with a smaller key was scheduled
                # before the deque head and must fire first.
                if head[0] <= self._now and (head[1], head[2]) < (1, imm1[0][0]):
                    heapq.heappop(queue)
                    self._now = head[0]
                    event = head[3]
            if event is None:
                event = imm1.popleft()[1]
        else:
            if not queue:
                raise SimulationError("no more events")
            when, _prio, _seq, event = heapq.heappop(queue)
            self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event.processed = True
        for cb in callbacks or ():
            cb(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain all events), a number (run up to that
        virtual time), or an :class:`Event` (run until it fires, returning its
        value / raising its exception).
        """
        step = self.step
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not (self._imm0 or self._imm1 or self._queue):
                    raise SimulationError(
                        "simulation ran out of events before 'until' fired "
                        "(deadlock: a process is waiting on an event nobody "
                        "will trigger)"
                    )
                step()
            if stop.ok:
                return stop.value
            raise stop.value
        if until is None:
            while self._imm0 or self._imm1 or self._queue:
                step()
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("'until' is in the past")
        while (self._imm0 or self._imm1
               or (self._queue and self._queue[0][0] <= horizon)):
            step()
        self._now = horizon
        return None


class Store:
    """Unbounded FIFO channel with blocking ``get`` (and optional capacity)."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[Event] = []
        self._putters: List[tuple] = []  # (event, item)

    def put(self, item: Any) -> Event:
        """Return an event that fires once the item is accepted."""
        ev = Event(self.env)
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._putters.append((ev, item))
            return ev
        self._accept(item)
        ev.succeed()
        return ev

    def get(self) -> Event:
        """Return an event carrying the next item once one is available."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    # -- internals --------------------------------------------------------
    def _accept(self, item: Any) -> None:
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            ev, item = self._putters.pop(0)
            self._accept(item)
            ev.succeed()

    def __len__(self) -> int:
        return len(self.items)


class Resource:
    """A counted lock: at most ``capacity`` holders at a time (FIFO queue)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Event] = []

    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when the caller holds the resource."""
        env = self.env
        ev = Event(env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.triggered = True  # inlined succeed(): the grant entry
            ev._value = None
            env._imm1.append((next(env._seq), ev))
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use == 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.pop(0).succeed()
        else:
            self._in_use -= 1

    def cancel(self, request: Event) -> None:
        """Abandon a pending or granted (but unconsumed) request.

        Needed when the requesting process is interrupted while suspended on
        the request event: a granted slot must be released and a queued
        request withdrawn, or the resource leaks and every later requester
        deadlocks.
        """
        if request.triggered:
            # The slot was granted (possibly not yet observed): give it back.
            self.release()
            return
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def reset(self) -> int:
        """Forcibly return the resource to its idle state.

        Used when the hardware behind the resource is removed (a node pulled
        mid-transfer): holders never release, and queued requests belong to
        processes that are being torn down.  Pending waiter events fail with
        :class:`SimulationError` so any still-live requester surfaces the
        removal instead of deadlocking.  Returns the number of slots and
        queued requests that were dropped, for diagnostics.
        """
        dropped = self._in_use + len(self._waiters)
        self._in_use = 0
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.fail(SimulationError("resource reset: node removed"))
        return dropped

    def use(self, duration: float):
        """Generator helper: hold the resource for ``duration``.

        Interrupt-safe: an :class:`Interrupt` (or any exception) thrown while
        suspended on the request is translated into a cancellation, so the
        slot is never leaked.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()
