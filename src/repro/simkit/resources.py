"""Queued resources for the discrete-event engine.

Three classic primitives:

* :class:`Resource` — a capacity-limited server pool with a FIFO wait queue
  (models disk queues, RPC worker pools, hypervisor launch slots, ...);
* :class:`Store` — an unbounded FIFO of items with blocking ``get`` (models
  message queues between services);
* :class:`Container` — a continuous-level reservoir (models buffer space for
  the asynchronous write pipeline).

All follow the engine's event discipline: acquiring returns an
:class:`~repro.simkit.core.Event` to be yielded by the calling process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..common.errors import SimulationError
from .core import Environment, Event, _PENDING


class Request(Event):
    """A pending acquisition of one :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the resource's queue."""
        waiters = self.resource._waiters
        if self._value is _PENDING and waiters:
            try:
                waiters.remove(self)
            except ValueError:
                pass

    def on_waiter_cancelled(self) -> None:
        # An interrupted process detached from this request. If the slot was
        # never granted, leave the queue; if it was granted but the grant
        # will never be consumed, pass the slot straight on — otherwise the
        # resource would leak capacity on every interrupted waiter.
        if self._value is _PENDING:
            if not self.callbacks:
                self.cancel()
        else:
            self.resource.release()


class Resource:
    """``capacity`` identical servers with a FIFO queue of waiters."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        #: FIFO of waiting requests, made on the first wait: most resources
        #: (idle hosts' disks and pools) never queue anyone
        self._waiters: Optional[Deque[Request]] = None

    def request(self) -> Request:
        """Acquire one slot; the returned event fires when granted."""
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed()
        else:
            if self._waiters is None:
                self._waiters = deque()
            self._waiters.append(req)
        return req

    def try_acquire(self) -> bool:
        """Grab a free slot synchronously; ``False`` if the pool is busy.

        Fast path for hot callers (e.g. uncontended disk I/O): a successful
        grab costs no event. Pair with :meth:`release` exactly as ``request``.
        """
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed()  # slot transfers directly; in_use unchanged
        else:
            self.in_use -= 1

    def acquire(self):
        """Process-style helper: ``yield from resource.acquire()``."""
        yield self.request()

    @property
    def queue_length(self) -> int:
        return len(self._waiters) if self._waiters else 0


class Store:
    """Unbounded FIFO of arbitrary items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (immediately if one is queued)."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class _ContainerOp(Event):
    """A pending ``get``/``put`` on a :class:`Container` (cancel-aware)."""

    __slots__ = ("container", "amount", "is_get")

    def __init__(self, container: "Container", amount: float, is_get: bool):
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        self.is_get = is_get

    def on_waiter_cancelled(self) -> None:
        # The waiting process was interrupted away. Pending op: withdraw from
        # the queue. Granted-but-unconsumed get: the level was already
        # deducted for a process that will never use it — put it back.
        con = self.container
        if self._value is _PENDING:
            if not self.callbacks:
                queue = con._getters if self.is_get else con._putters
                try:
                    queue.remove((self.amount, self))
                except ValueError:
                    pass
        elif self.is_get and self._ok:
            con.level += self.amount
            con._drain()


class Container:
    """A continuous reservoir with blocking ``get`` of arbitrary amounts."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if init > capacity:
            raise SimulationError("initial level exceeds capacity")
        self.env = env
        self.capacity = capacity
        self.level = init
        self._getters: Deque[tuple[float, Event]] = deque()
        self._putters: Deque[tuple[float, Event]] = deque()

    def put(self, amount: float) -> Event:
        """Deposit ``amount``; blocks while it would overflow capacity."""
        ev = _ContainerOp(self, amount, is_get=False)
        self._putters.append((amount, ev))
        self._drain()
        return ev

    def get(self, amount: float) -> Event:
        """Withdraw ``amount``; blocks until the level suffices."""
        ev = _ContainerOp(self, amount, is_get=True)
        self._getters.append((amount, ev))
        self._drain()
        return ev

    def fail_waiters(self, exc: BaseException) -> None:
        """Fail every blocked ``get``/``put`` (host crash: the reservoir died).

        Waiters whose process was already interrupted hold events with no
        callbacks left; failing those is a harmless no-op delivery.
        """
        for _amount, ev in self._getters:
            ev.fail(exc)
        self._getters.clear()
        for _amount, ev in self._putters:
            ev.fail(exc)
        self._putters.clear()

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, ev = self._putters[0]
                if self.level + amount <= self.capacity + 1e-9:
                    self.level += amount
                    self._putters.popleft()
                    ev.succeed()
                    progressed = True
            if self._getters:
                amount, ev = self._getters[0]
                if self.level >= amount - 1e-9:
                    self.level -= amount
                    self._getters.popleft()
                    ev.succeed()
                    progressed = True
