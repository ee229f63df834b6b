"""Discrete-event simulation engine.

A compact, deterministic, generator-based engine in the style of SimPy:
simulated activities are Python generators that ``yield`` events; the
:class:`Environment` owns a priority queue of scheduled events and advances
virtual time event by event.

Design points that matter for this reproduction:

* **Determinism.** Ties in the event queue are broken by a monotonically
  increasing sequence number, so two runs with the same seed produce the
  *identical* timeline (asserted by tests). No wall-clock anywhere.
* **Failure propagation.** An event may *fail* with an exception; waiting
  processes get the exception thrown into their generator at the yield point,
  so simulated RPC errors surface exactly like real ones.
* **Interrupts.** ``process.interrupt(cause)`` models external cancellation
  (e.g. premature VM termination during the boot phase, §2.3 of the paper).
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..common.errors import InterruptedError_, SimulationError

#: Type of the generators driving simulated processes.
ProcessGen = Generator["Event", Any, Any]

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Life cycle: *pending* -> *triggered* (scheduled with a value or an error)
    -> *processed* (callbacks ran). Processes subscribe by yielding the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False

    # ---- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    # ---- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully at the current simulated time."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        env = self.env
        env._seq += 1
        heappush(env._queue, (env.now, env._seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception (propagates to waiters)."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._value = exc
        self._ok = False
        env = self.env
        env._seq += 1
        heappush(env._queue, (env.now, env._seq, self))
        return self

    def on_waiter_cancelled(self) -> None:
        """Hook: a process waiting on this event was interrupted away.

        Subclasses whose pending state lives in a queue (notably
        :class:`~repro.simkit.resources.Request`) override this to withdraw
        themselves, so no capacity is ever granted to a dead waiter.
        """


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Hot path (one per simulated I/O, CPU burst, or control message):
        # initialize fields inline instead of chaining to Event.__init__.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.delay = delay
        env._seq += 1
        heappush(env._queue, (env.now + delay, env._seq, self))


class Process(Event):
    """A running activity; also an event firing when the generator returns."""

    __slots__ = ("gen", "name", "_waiting_on", "_send")

    def __init__(
        self,
        env: "Environment",
        gen: ProcessGen,
        name: str = "",
        _boot: "Event | None" = None,
    ):
        # Hot path (one per parallel fetch group / spawned activity):
        # initialize Event fields inline and build the bootstrap event
        # without going through the factory helpers.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self.gen = gen
        self._send = gen.send
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Observability hook: propagate the spawner's trace context into the
        # child (None unless a tracer is installed; spans never schedule
        # events, so the timeline is untouched either way).
        tracer = env._tracer
        if tracer is not None:
            tracer.on_spawn(self)
        if _boot is not None:
            # Shared bootstrap (see Environment.process_batch): resumes run
            # in callback (creation) order, which is exactly the order K
            # individual boot events would pop — they'd be heap-adjacent
            # with consecutive sequence numbers at the same timestamp.
            _boot.callbacks.append(self._resume)
            return
        # Bootstrap: resume the generator at time `now` without payload.
        boot = Event.__new__(Event)
        boot.env = env
        boot.callbacks = [self._resume]
        boot._value = None
        boot._ok = True
        boot._processed = False
        env._seq += 1
        heappush(env._queue, (env.now, env._seq, boot))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptedError_` into the process at its yield point."""
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                target.on_waiter_cancelled()
        self._waiting_on = None
        kick = Event(self.env)
        kick._value = InterruptedError_(cause)
        kick._ok = False
        kick.callbacks.append(self._resume_interrupt)
        self.env._schedule(kick, 0.0)

    # ---- internals ----------------------------------------------------------
    # The resume path runs once per processed event; it deliberately avoids
    # allocating a closure per resume (advance-thunk style) and instead
    # dispatches on a throw flag.
    def _resume(self, trigger: Event) -> None:
        # Hot path — runs once per processed event. The _step body is inlined
        # here (with the cached bound `gen.send`) so a resume costs a single
        # Python-level call; the rare throw path delegates to _step.
        if not trigger._ok:
            self._step(trigger._value, True)
            return
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            target = self._send(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(exc)
            return
        finally:
            env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target._processed:
            # Already-fired event: resume immediately (still via the queue so
            # ordering stays deterministic).
            kick = Event(env)
            kick._value = target._value
            kick._ok = target._ok
            kick.callbacks.append(self._resume)
            env._schedule(kick, 0.0)
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def _resume_interrupt(self, trigger: Event) -> None:
        if self.triggered:
            return  # finished before the interrupt was delivered
        self._step(trigger._value, True)

    def _step(self, value: Any, throw: bool) -> None:
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if throw:
                target = self.gen.throw(value)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(exc)
            return
        finally:
            env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target._processed:
            kick = Event(env)
            kick._value = target._value
            kick._ok = target._ok
            kick.callbacks.append(self._resume)
            env._schedule(kick, 0.0)
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._processed:
                self._on_fire(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every constituent event has fired; value = list of values.

    Fails fast if any constituent fails.
    """

    __slots__ = ()

    def _on_fire(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(Condition):
    """Fires when the first constituent event fires; value = (event, value)."""

    __slots__ = ()

    def _on_fire(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed((ev, ev._value))


class Environment:
    """Owner of simulated time and the event queue."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.event_count = 0  # processed events, for perf introspection
        #: installed :class:`repro.obs.span.Tracer`, or None (the default);
        #: checked once per Process creation for context propagation
        self._tracer = None

    # ---- factory helpers ------------------------------------------------- #
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        return Process(self, gen, name)

    def process_batch(self, gens: Iterable[ProcessGen], name: str = "") -> List[Process]:
        """Spawn several processes sharing ONE bootstrap event.

        Timeline-identical to spawning them one by one (individual boot
        events would sit adjacently in the heap and pop consecutively), but
        a K-way fan-out costs one scheduled event instead of K. This is the
        fast path under every parallel RPC scatter in the storage client.
        """
        boot = Event.__new__(Event)
        boot.env = self
        boot.callbacks = []
        boot._value = None
        boot._ok = True
        boot._processed = False
        procs = [Process(self, gen, name, _boot=boot) for gen in gens]
        if procs:
            self._seq += 1
            heappush(self._queue, (self.now, self._seq, boot))
        return procs

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # ---- scheduling ------------------------------------------------------- #
    def _schedule(self, event: Event, delay: float) -> None:
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, event))

    def call_later(self, delay: float, callback: Callable[[Event], None]) -> Event:
        """Run ``callback(event)`` ``delay`` seconds from now.

        A plain one-callback event with no :class:`Process` behind it, for
        state machines that act at a future instant without a generator
        (the page cache's write-back drain). Its place among same-instant
        ties is fixed now, exactly as for a :class:`Timeout` created here.
        """
        ev = Event.__new__(Event)
        ev.env = self
        ev.callbacks = [callback]
        ev._value = None
        ev._ok = True
        ev._processed = False
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, ev))
        return ev

    def schedule_at(self, event: Event, when: float, value: Any = None) -> Event:
        """Trigger ``event`` with ``value`` at absolute simulated time ``when``.

        Fast path for hot callers (the flow network's completion sentinel and
        control-message delivery): it avoids allocating an intermediate
        :class:`Timeout` plus a relay callback, and the event fires at exactly
        the float ``when`` rather than ``now + (when - now)``.
        """
        if event._value is not _PENDING:
            raise SimulationError("event already triggered")
        if when < self.now:
            raise SimulationError(f"schedule_at({when}) is in the past (now={self.now})")
        event._value = value
        self._seq += 1
        heappush(self._queue, (when, self._seq, event))
        return event

    def step(self) -> None:
        """Process the next scheduled event (advances ``now``)."""
        queue = self._queue
        if not queue:
            raise SimulationError(
                "step() on an empty event queue: the simulation has drained "
                "(or deadlocked) and no further event can be processed"
            )
        when, _, event = queue[0]
        # Validate *before* popping so a failure leaves the queue and `now`
        # consistent (the event is not silently lost).
        if when < self.now - 1e-12:
            raise SimulationError("time went backwards")
        heappop(queue)
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        self.event_count += 1
        if callbacks:
            for cb in callbacks:
                cb(event)

    def run(self, until: "Event | float | None" = None) -> Any:
        """Run until an event fires, a time is reached, or the queue drains.

        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (re-raising its failure).
        * ``until`` is a number: run until simulated time reaches it.
        * ``until`` is None: run until no events remain.
        """
        # The loops below inline step()'s body: one Python-level call per
        # processed event is measurable at the event rates the paper sweeps
        # drive (hundreds of thousands of events per run).
        # (The "time went backwards" sanity check lives in step(); the
        # schedulers already reject past times, so the inlined loops skip it.)
        #
        # Cyclic GC is paused for the duration of the loop: the engine
        # allocates hundreds of thousands of short-lived events per run and
        # collector passes cost a measurable slice of wall time, while the
        # simulator creates no mid-run garbage cycles it needs collected
        # (events free by refcount; process<->generator cycles are reclaimed
        # once the run returns and GC is re-enabled).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run_inner(until)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_inner(self, until: "Event | float | None") -> Any:
        queue = self._queue
        pop = heappop  # local binding: one global lookup saved per event
        if isinstance(until, Event):
            stop = until
            count = 0
            try:
                while not stop._processed:
                    if not queue:
                        raise SimulationError(
                            f"deadlock: event queue empty before {stop!r} fired"
                        )
                    when, _, event = pop(queue)
                    self.now = when
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    count += 1
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
            finally:
                self.event_count += count
            if not stop.ok:
                raise stop._value
            return stop._value
        if until is None:
            count = 0
            try:
                while queue:
                    when, _, event = pop(queue)
                    self.now = when
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    count += 1
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
            finally:
                self.event_count += count
            return None
        horizon = float(until)
        # Exception-safe horizon handling: if a callback raises mid-loop,
        # `now` still reflects the last event actually processed (step()
        # validates before popping, so no event is lost either); only on a
        # clean drain is the clock advanced to the horizon.
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            self.step()
        if self.now < horizon:
            self.now = horizon
        return None
