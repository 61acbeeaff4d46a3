"""Waitable containers: stores, filtered stores and counted resources.

These are the coordination primitives the simulated OS and the managed
systems are built from: a listener's accept backlog and an app's inbox are
:class:`Store` queues, a CPU slot is a :class:`Resource`, a tuple space is a
:class:`FilterStore`.  A socket is *not* one: a connection endpoint is its
own mailbox (:class:`repro.cluster.network.Connection`), because ten thousand
mostly idle sockets cannot each afford a queue object.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class StoreFull(Exception):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""


class StorePut(Event):
    """Pending put operation; succeeds when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending get operation; succeeds with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class FilterStoreGet(StoreGet):
    """Pending filtered get; succeeds with the first matching item."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Callable[[Any], bool]) -> None:
        super().__init__(store)
        self.predicate = predicate


class Store:
    """An unordered-producer, FIFO-consumer buffer of Python objects.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of buffered items; ``float('inf')`` (the default)
        means unbounded.
    """

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        #: Puts waiting for room; made by the first put that has to wait
        #: (most stores are unbounded and never have one).
        self._putters: Optional[Deque[StorePut]] = None
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    # -- operations ---------------------------------------------------------

    def put(self, item: Any) -> StorePut:
        """Event that succeeds once ``item`` has been stored."""
        event = StorePut(self, item)
        putters = self._putters
        if putters is None and len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            if putters is None:
                putters = self._putters = deque()
            putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Store ``item`` immediately or raise :class:`StoreFull`."""
        if len(self.items) >= self.capacity:
            raise StoreFull(f"store at capacity {self.capacity}")
        self.items.append(item)
        self._dispatch()

    def get(self) -> StoreGet:
        """Event that succeeds with the oldest available item."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def cancel(self, event: Event) -> None:
        """Withdraw a pending put/get (no-op if already satisfied)."""
        putters = self._putters
        if isinstance(event, StorePut) and putters and event in putters:
            putters.remove(event)
        elif isinstance(event, StoreGet) and event in self._getters:
            self._getters.remove(event)

    # -- engine ---------------------------------------------------------------

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move buffered puts in while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters.
            if self._getters and self.items:
                if self._match_getters():
                    progress = True

    def _match_getters(self) -> bool:
        matched = False
        getters = self._getters
        items = self.items
        while getters and items:
            getters.popleft().succeed(items.popleft())
            matched = True
        return matched


class FilterStore(Store):
    """A store whose consumers may wait for items matching a predicate.

    Used for tuple spaces (:mod:`repro.systems.plinda`) and for
    tag/source-selective message receives.
    """

    __slots__ = ()

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> FilterStoreGet:  # type: ignore[override]
        """Event yielding the first buffered item matching ``predicate``."""
        event = FilterStoreGet(self, predicate or (lambda item: True))
        self._getters.append(event)
        self._dispatch()
        return event

    def peek_matching(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Snapshot of currently-buffered items matching ``predicate``."""
        return [item for item in self.items if predicate(item)]

    def _match_getters(self) -> bool:
        matched = False
        getters = self._getters
        items = self.items
        # One pass over the getters in arrival order; one left unserved goes
        # back on the right, so after a full pass the order is as it was.
        for _ in range(len(getters)):
            get = getters.popleft()
            assert isinstance(get, FilterStoreGet)
            for idx, item in enumerate(items):
                if get.predicate(item):
                    del items[idx]
                    get.succeed(item)
                    matched = True
                    break
            else:
                getters.append(get)
        return matched


class ResourceRequest(Event):
    """A pending claim on one unit of a :class:`Resource`."""

    __slots__ = ()


class Resource:
    """A counted resource with FIFO queuing.

    Usage from a process generator::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    __slots__ = ("env", "capacity", "users", "queue")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self.queue: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        """Event that succeeds when a unit is granted to the caller."""
        event = ResourceRequest(self.env)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request: ResourceRequest) -> None:
        """Return a previously granted unit."""
        if request in self.users:
            self.users.remove(request)
        else:
            # Releasing a never-granted (or cancelled) request withdraws it.
            if request in self.queue:
                self.queue.remove(request)
        self._grant()

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()
