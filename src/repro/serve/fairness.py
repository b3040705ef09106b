"""Priority + round-robin fair admission queueing for the serve daemon.

Under Zipf-skewed multi-tenant load a plain FIFO ``asyncio.Queue``
lets one chatty tenant take every free worker while a light tenant's
single request waits behind hundreds of queued misses.
:class:`FairAdmissionQueue` orders the admission queue instead.  It
only orders a backlog: the daemon dispatches a miss as soon as a
worker is free, so a backlog is the misses that queued while every
worker compiled.  The order holds for every pick:

* **Strict priority classes.**  Higher ``priority`` drains first: a
  free worker takes every higher-priority miss before any lower one.
* **Round-robin across tenants** inside each class: the tenant at the
  head of the ring is served one request, then the ring rotates.  Each
  of ``n`` backlogged tenants therefore gets ``1/n`` of the picks per
  round, so nobody starves no matter how skewed the arrival mix is.

The queue is single-event-loop only (like everything else in the
daemon) and mirrors the small slice of the ``asyncio.Queue`` surface
the dispatcher uses: ``put_nowait`` / ``get`` / ``get_nowait`` /
``qsize`` / ``empty``, raising ``asyncio.QueueFull`` on overflow so
the daemon's backpressure path is unchanged.  Control items (the stop
sentinel) bypass fairness through :meth:`put_control`.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List

#: priorities are small ints; the protocol clamps to this range
MIN_PRIORITY = 0
MAX_PRIORITY = 9

_MISSING = object()


class _PriorityClass:
    """One priority level: per-tenant FIFOs served round-robin."""

    __slots__ = ("queues", "ring")

    def __init__(self):
        self.queues: "OrderedDict[str, Deque[Any]]" = OrderedDict()
        self.ring: Deque[str] = deque()   # tenants with a backlog

    def push(self, tenant: str, item: Any) -> None:
        queue = self.queues.get(tenant)
        if queue is None:
            queue = self.queues[tenant] = deque()
        if not queue:
            self.ring.append(tenant)
        queue.append(item)

    def pop(self) -> Any:
        tenant = self.ring[0]
        queue = self.queues[tenant]
        item = queue.popleft()
        if not queue:
            del self.queues[tenant]
            self.ring.popleft()
        else:
            self.ring.rotate(-1)  # head's turn is over: to the back
        return item

    @property
    def empty(self) -> bool:
        return not self.ring


class FairAdmissionQueue:
    """See the module docstring.  Items are opaque to the queue; the
    caller supplies ``(priority, tenant)`` at ``put`` time."""

    def __init__(self, maxsize: int = 0):
        self.maxsize = maxsize
        self._classes: Dict[int, _PriorityClass] = {}
        self._order: List[int] = []       # priorities, descending
        self._control: Deque[Any] = deque()
        self._size = 0
        self._waiters: Deque["asyncio.Future"] = deque()

    # ------------------------------------------------------------- puts
    def put_nowait(self, item: Any, priority: int = 0,
                   tenant: str = "") -> None:
        if self.maxsize and self._size >= self.maxsize:
            raise asyncio.QueueFull
        cls = self._classes.get(priority)
        if cls is None:
            cls = self._classes[priority] = _PriorityClass()
            self._order = sorted(self._classes, reverse=True)
        cls.push(tenant, item)
        self._size += 1
        self._wake_next()

    def put_control(self, item: Any) -> None:
        """Enqueue a control sentinel (served before any request, never
        counted against ``maxsize``)."""
        self._control.append(item)
        self._wake_next()

    # ------------------------------------------------------------- gets
    def _pop(self) -> Any:
        if self._control:
            return self._control.popleft()
        for priority in self._order:
            cls = self._classes[priority]
            if not cls.empty:
                self._size -= 1
                return cls.pop()
        return _MISSING

    def get_nowait(self) -> Any:
        item = self._pop()
        if item is _MISSING:
            raise asyncio.QueueEmpty
        return item

    async def get(self) -> Any:
        while True:
            item = self._pop()
            if item is not _MISSING:
                return item
            future = asyncio.get_running_loop().create_future()
            self._waiters.append(future)
            try:
                await future
            except asyncio.CancelledError:
                if future.done() and not future.cancelled():
                    # we consumed a wakeup but will not take the item:
                    # pass the baton or the item strands in the queue
                    self._wake_next()
                else:
                    try:
                        self._waiters.remove(future)
                    except ValueError:
                        pass
                raise

    def _wake_next(self) -> None:
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                future.set_result(True)
                return

    # ------------------------------------------------------ introspection
    def qsize(self) -> int:
        return self._size + len(self._control)

    def empty(self) -> bool:
        return self.qsize() == 0
