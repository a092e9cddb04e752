"""A deterministic discrete-event simulation kernel.

Processes are Python generators that ``yield`` *waitables*:

* :class:`Timeout` — resume after a simulated delay;
* :class:`Signal` — resume when the signal fires (carries a value);
* :class:`Process` — resume when another process finishes (receives its
  return value, or re-raises its exception);
* :class:`AllOf` — resume when every child waitable has fired.

Resources (:class:`Resource`) grant FIFO access to a shared facility (a NIC
DMA engine, a memory channel); stores (:class:`Store`) are unbounded FIFO
queues with blocking ``get``.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run is
a pure function of the initial state.

Scheduling is backed by one binary heap of timed events next to a FIFO
deque of zero-delay ones; a cancelled timer stays in the heap as a
tombstone until it surfaces.  See :class:`Simulator` for the structure,
and ``docs/performance.md`` for the design rationale and measured numbers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError

ProcessGen = Generator[Any, Any, Any]

# A scheduled event is a 5-slot entry ``[when, seq, proc, value_or_cb,
# exc_or_args]``:
#
# * process resumptions carry the Process in slot 2 (value in 3, pending
#   exception in 4) and are dispatched by stepping the generator directly;
# * plain callbacks carry None in slot 2, the callable in 3 and its args
#   tuple in 4.
#
# Zero-delay events go on the ready deque, timed events on the heap.
# Entries are lists, compared as lists by (when, seq) — seq is unique, so
# a comparison never reaches slot 2 — and mutable, so a cancellation token
# can turn a timed entry into a tombstone in place: a callback entry (slot
# 2 None) whose callback slot 3 is None.


class Waitable:
    """Anything a process can yield.  Subclasses implement ``_subscribe``."""

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        raise NotImplementedError

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional["_CancelHandle"]:
        """Subscribe and return a cancellation handle, or None.

        Racers (:class:`FirstOf`) use this so losing children can be
        dropped from the queue instead of lingering until they fire into
        a no-op.  The default is a plain subscription with no handle —
        cancellation is an optimisation, never a semantic requirement.
        """
        self._subscribe(sim, callback)
        return None


class _CancelHandle:
    """Base for cancellation tokens.  ``cancel()`` returns True iff the
    subscription was still live and has now been dropped."""

    __slots__ = ()

    def cancel(self) -> bool:
        raise NotImplementedError


class _TimerHandle(_CancelHandle):
    """Cancellation token for a timed heap entry.

    Cancelling sets the entry's callback slot to None, leaving a tombstone
    the run loop drops without moving the clock, so a dead timer (an RTO
    that lost its race to the ACK) never fires and stops counting as
    pending.  Cancelling an entry that already fired is a no-op returning
    False.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: list):
        self._sim = sim
        self._entry = entry

    def cancel(self) -> bool:
        entry = self._entry
        if entry is None:
            return False
        self._entry = None
        sim = self._sim
        heap = sim._heap
        # Entries leave the heap in (when, seq) order and the clock follows
        # them, so only a same-instant entry can have fired unseen.
        if entry[0] < sim._now or (entry[0] == sim._now and entry not in heap):
            return False
        entry[3] = None
        sim.cancelled_events += 1
        # Keep the heap top live so a heap holding only tombstones does not
        # block the sole-runnable chain.
        while heap and heap[0][2] is None and heap[0][3] is None:
            heappop(heap)
        return True


class _WaiterHandle(_CancelHandle):
    """Cancellation token for a signal subscription: drops the callback
    from the waiter list so a lost race stops holding a reference."""

    __slots__ = ("_waiters", "_callback")

    def __init__(self, waiters: list, callback: Callable):
        self._waiters = waiters
        self._callback = callback

    def cancel(self) -> bool:
        waiters = self._waiters
        if waiters is None:
            return False
        self._waiters = None
        callback = self._callback
        self._callback = None
        for i, cb in enumerate(waiters):
            if cb is callback:
                del waiters[i]
                return True
        return False


class Timeout(Waitable):
    """Resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"cannot wait a negative delay: {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        sim._schedule(self.delay, None, callback, (self.value, None))

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        entry = sim._schedule(self.delay, None, callback, (self.value, None))
        # Ready-deque entries fire within the current instant anyway; not
        # worth a token.
        return None if entry is None else _TimerHandle(sim, entry)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Signal(Waitable):
    """A one-shot event.  ``fire(value)`` wakes every waiter with ``value``.

    Firing twice raises; waiting on an already-fired signal resumes
    immediately with the stored value.  ``fail(exc)`` wakes waiters with an
    exception instead.
    """

    __slots__ = ("_fired", "_value", "_exc", "_waiters", "name")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: list[Callable[[Any, Optional[BaseException]], None]] = []

    @property
    def fired(self) -> bool:
        """Whether the signal has already fired (or failed)."""
        return self._fired

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all current and future waiters."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value, None)

    def fail(self, exc: BaseException) -> None:
        """Fail the signal: waiters receive ``exc`` instead of a value."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(None, exc)

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        if self._fired:
            sim.call_in(0.0, callback, self._value, self._exc)
        else:
            self._waiters.append(callback)

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        if self._fired:
            sim.call_in(0.0, callback, self._value, self._exc)
            return None
        self._waiters.append(callback)
        return _WaiterHandle(self._waiters, callback)

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


class AllOf(Waitable):
    """Fires when all child waitables have fired; value is their value list."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        pending = len(self.children)
        results: list[Any] = [None] * pending
        if pending == 0:
            sim.call_in(0.0, callback, [], None)
            return
        done = {"count": 0, "failed": False}

        def make_child_callback(index: int) -> Callable[[Any, Optional[BaseException]], None]:
            def child_done(value: Any, exc: Optional[BaseException]) -> None:
                if done["failed"]:
                    return
                if exc is not None:
                    done["failed"] = True
                    callback(None, exc)
                    return
                results[index] = value
                done["count"] += 1
                if done["count"] == len(self.children):
                    callback(results, None)

            return child_done

        for i, child in enumerate(self.children):
            child._subscribe(sim, make_child_callback(i))


class FirstOf(Waitable):
    """Fires when the *first* child waitable fires; later children are ignored.

    The value is ``(index, value)`` of the winning child.  A child that
    *fails* first propagates its exception instead.  This is the race
    primitive behind every timeout-guarded wait (e.g. "completion ACK or
    retransmission timer, whichever comes first").  When the winner fires,
    the losers' subscriptions are *cancelled*: a losing timer becomes a
    tombstone that never fires instead of surviving to its deadline as a
    live event, and a losing signal subscription is dropped from the
    waiter list — so one-shot signals remain usable by other waiters, and
    RTO-heavy runs stop accumulating doomed timers.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("FirstOf needs at least one child")

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        done = {"fired": False}
        handles: list[Optional[_CancelHandle]] = [None] * len(self.children)

        def make_child_callback(index: int) -> Callable[[Any, Optional[BaseException]], None]:
            def child_done(value: Any, exc: Optional[BaseException]) -> None:
                if done["fired"]:
                    return
                done["fired"] = True
                for i, handle in enumerate(handles):
                    if handle is not None and i != index:
                        handle.cancel()
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((index, value), None)

            return child_done

        for i, child in enumerate(self.children):
            handles[i] = child._subscribe_cancellable(sim, make_child_callback(i))


class Process(Waitable):
    """A running simulation process wrapping a generator.

    The generator's ``return`` value becomes :attr:`value`; an uncaught
    exception is stored and re-raised in any process that waits on this one
    (and by :meth:`Simulator.run` if nobody does).
    """

    __slots__ = ("sim", "gen", "name", "_done", "_failure_observed")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget a yield?"
            )
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._done = Signal(name=f"{self.name}.done")
        self._failure_observed = False
        sim._schedule(0.0, self, None, None)

    # -- public ----------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the process has run to completion (or raised)."""
        return self._done.fired

    @property
    def value(self) -> Any:
        """Return value of the process; raises if it failed or is running."""
        if not self._done.fired:
            raise SimulationError(f"process {self.name!r} still running")
        if self._done._exc is not None:
            raise self._done._exc
        return self._done._value

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        self._failure_observed = True
        self._done._subscribe(sim, callback)

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        self._failure_observed = True
        return self._done._subscribe_cancellable(sim, callback)

    # -- stepping ----------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                item = self.gen.throw(exc)
            else:
                item = self.gen.send(value)
        except StopIteration as stop:
            self._done.fire(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - deliberate capture
            self.sim._note_failure(self, failure)
            self._done.fail(failure)
            return
        if type(item) is Timeout:
            # The overwhelmingly common yield: schedule the resumption as a
            # process entry directly, skipping the generic subscribe path.
            self.sim._schedule(item.delay, self, item.value, None)
            return
        if not isinstance(item, Waitable):
            self._step(None, SimulationError(
                f"process {self.name!r} yielded {item!r}, expected a Waitable"
            ))
            return
        item._subscribe(self.sim, self._step)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class Resource:
    """A FIFO shared resource with integer capacity (default 1).

    Usage inside a process::

        grant = yield resource.acquire()
        ...   # hold the resource
        resource.release()

    ``acquire`` returns a :class:`Signal` that fires when the resource is
    granted.  Releases wake waiters in FIFO order, which keeps the kernel
    deterministic.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Signal] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held units."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a grant."""
        return len(self._queue)

    def acquire(self) -> Signal:
        """Request one unit; returns a signal that fires on grant."""
        grant = Signal(name=f"{self.name}.grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.fire(self)
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Return one unit, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of un-acquired resource {self.name!r}")
        if self._queue:
            grant = self._queue.popleft()
            grant.fire(self)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue with blocking ``get`` and immediate ``put``."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; hands it straight to a blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.fire(item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        """Return a signal that fires with the next item (FIFO)."""
        ticket = Signal(name=f"{self.name}.get")
        if self._items:
            ticket.fire(self._items.popleft())
        else:
            self._getters.append(ticket)
        return ticket

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class Simulator:
    """The event loop: one binary heap of timed events plus a ready deque.

    Two scheduling structures back the loop:

    * a FIFO **ready deque** for zero-delay events (signal wake-ups,
      process launches, store hand-offs).  Since simulated time never goes
      backwards and sequence numbers grow monotonically, the deque is
      always sorted by ``(when, seq)``;
    * a **heap** of timed entries ordered by ``(when, seq)``.  Cancelling
      a timer leaves a tombstone in place (see :class:`_TimerHandle`); the
      loop drops tombstones as they surface, without moving the clock.

    Each step of the loop fires the earlier of the two queue heads by
    ``(when, seq)``.  When a dispatched process yields a :class:`Timeout`
    and is provably the *sole runnable* (both queues empty, no pending
    failures, no sanitizer, no ``until``/``limit`` horizon), the loop
    resumes the generator directly — the scheduled event is accounted for
    in ``scheduled_events`` but never materialised, which is where the
    multi-million events/s headline comes from.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._ready: deque = deque()
        self._heap: list[list] = []
        self._unobserved_failures: list[tuple[Process, BaseException]] = []
        self._watch: Optional[Process] = None
        #: Timers dropped early by cancellation (FirstOf losers).
        self.cancelled_events = 0
        #: Optional repro.simnet.trace.Tracer; instrumented components
        #: emit events here when attached.
        self.tracer = None
        #: Optional repro.faults.injector.FaultInjector; when attached,
        #: the RDMA/channel/executor layers consult it for deterministic
        #: fault decisions and switch to their fault-tolerant code paths.
        self.faults = None
        #: Optional repro.sanitizer.invariants.Sanitizer; when attached,
        #: instrumented components report protocol events for runtime
        #: invariant checking.  Off (None) by default: every hook site
        #: pays a single attribute test.  Attaching it also disables the
        #: sole-runnable fast path so every event passes the hooks.
        self.sanitize = None
        #: Optional repro.elastic migration coordinator; when attached,
        #: executors consult it at their merge/trigger/finalize hook
        #: points so live partition migration can intercept in-flight
        #: deltas and gate window firing during a handoff.
        self.elastic = None
        #: Optional repro.overload coordinator; when attached, executor
        #: worker loops consult it before each batch for source-level
        #: admission control (pacing, queueing-delay estimation, load
        #: shedding) and feed it per-batch service times for straggler
        #: detection.
        self.overload = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (the wall-clock benches' event count)."""
        return self._seq

    @property
    def pending_timers(self) -> int:
        """Live timed entries in the heap; tombstones do not count."""
        return sum(1 for entry in self._heap if entry[2] is not None or entry[3] is not None)

    # -- scheduling --------------------------------------------------------
    def call_in(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        self._schedule(delay, None, callback, args)

    def _schedule(
        self, delay: float, proc: Optional[Process], value_or_cb: Any, exc_or_args: Any
    ) -> Optional[list]:
        """Queue one entry ``delay`` seconds from now.

        Returns the heap entry of a timed event (the target of a
        cancellation token), or None for a zero-delay one.
        """
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._ready.append([self._now, seq, proc, value_or_cb, exc_or_args])
            return None
        entry = [self._now + delay, seq, proc, value_or_cb, exc_or_args]
        heappush(self._heap, entry)
        return entry

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Launch a generator as a simulation process."""
        return Process(self, gen, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Convenience constructor mirroring SimPy's ``env.timeout``."""
        return Timeout(delay, value)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot signal."""
        return Signal(name=name)

    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        """Create a FIFO resource bound to this simulator."""
        return Resource(self, capacity=capacity, name=name)

    def store(self, name: str = "") -> Store:
        """Create a FIFO store bound to this simulator."""
        return Store(self, name=name)

    # -- dispatch ----------------------------------------------------------
    def _resume(self, proc: Process, value: Any, exc: Optional[BaseException], chain: bool) -> None:
        """Step a process whose entry was just popped.

        While ``chain`` is true and the process is the sole runnable — it
        yielded a Timeout, both queues are empty, nothing failed, no
        sanitizer — the loop keeps driving the same generator without ever
        materialising the event, advancing ``_now``/``_seq`` exactly as the
        queue would have.  The chain breaks out to a normal subscription
        the moment any condition stops holding, so ordering is untouched.
        """
        gen = proc.gen
        send = gen.send
        ready = self._ready
        heap = self._heap
        failures = self._unobserved_failures
        watch = self._watch
        while True:
            try:
                if exc is None:
                    item = send(value)
                else:
                    item = gen.throw(exc)
            except StopIteration as stop:
                proc._done.fire(stop.value)
                return
            except BaseException as failure:  # noqa: BLE001 - deliberate capture
                self._note_failure(proc, failure)
                proc._done.fail(failure)
                return
            is_timeout = type(item) is Timeout
            if (
                is_timeout
                and chain
                and not ready
                and not heap
                and not failures
                and self.sanitize is None
                and (watch is None or not watch._done._fired)
            ):
                self._seq += 1
                delay = item.delay
                if delay != 0.0:
                    self._now += delay
                value = item.value
                exc = None
                continue
            # Something else is pending (or chaining is off): fall back
            # to an ordinary subscription and return to the run loop.
            if is_timeout:
                self._schedule(item.delay, proc, item.value, None)
            elif isinstance(item, Waitable):
                item._subscribe(self, proc._step)
            else:
                proc._step(None, SimulationError(
                    f"process {proc.name!r} yielded {item!r}, expected a Waitable"
                ))
            return

    # -- running -----------------------------------------------------------
    def _drive(self, horizon: Optional[float], done: Optional[Signal]) -> Optional[float]:
        """Fire events one at a time in global ``(when, seq)`` order.

        Stops when ``done`` fires, when both queues drain (returning None)
        or when the next event lies beyond ``horizon`` (returning its time,
        with the event left queued).  A raising callback or process leaves
        every unfired event queued, so the next run picks up where this
        one stopped.
        """
        ready = self._ready
        heap = self._heap
        resume = self._resume
        san = self.sanitize
        failures = self._unobserved_failures
        chain = horizon is None
        while done is None or not done._fired:
            if ready and (not heap or ready[0] < heap[0]):
                entry = ready.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                return None
            when, _seq, proc, value_or_cb, exc_or_args = entry
            if proc is None and value_or_cb is None:
                continue  # a cancelled timer's tombstone
            if horizon is not None and when > horizon:
                # Leave it queued.  A zero-delay entry lies past the
                # horizon only when ``until`` is behind the clock; the heap
                # orders it by (when, seq) just as well.
                heappush(heap, entry)
                return when
            if san is not None:
                san.note_event(when, self._now)
            self._now = when
            if proc is None:
                value_or_cb(*exc_or_args)
            else:
                resume(proc, value_or_cb, exc_or_args, chain)
            if failures:
                self._raise_unobserved()
        return None

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queues drain or simulated time passes ``until``.

        Returns the final simulated time.  Re-raises the first exception of
        any process that failed without being waited on, so errors never
        pass silently.
        """
        if self._drive(until, None) is not None:
            self._now = until
        if self._unobserved_failures:
            self._raise_unobserved()
        return self._now

    def run_until_process(self, proc: Process, limit: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value (or re-raise).

        Like :meth:`run`, re-raises the first exception of any *other*
        process that failed without being waited on — the awaited process
        itself is observed here (its failure surfaces through ``value``).
        """
        proc._failure_observed = True
        prev_watch = self._watch
        self._watch = proc
        try:
            past = self._drive(limit, proc._done)
        finally:
            self._watch = prev_watch
        if not proc.finished:
            if past is None:
                raise SimulationError(
                    f"deadlock: no pending events but process {proc.name!r} unfinished"
                )
            raise SimulationError(f"process {proc.name!r} exceeded time limit {limit}")
        return proc.value

    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        if not proc._failure_observed:
            self._unobserved_failures.append((proc, exc))

    def _raise_unobserved(self) -> None:
        # Cleared in place: the run loop (and the sole-runnable chain)
        # holds a direct reference to this list.
        failures = self._unobserved_failures
        for proc, exc in failures:
            if proc._failure_observed:
                continue
            del failures[:]
            raise exc
        del failures[:]
