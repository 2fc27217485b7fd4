"""The load generator: one seeded Poisson open loop and one closed loop.

All load comes from one process: the calling thread generates and sends,
and in the open loop one more thread collects completions.

* **Open loop.** Send times follow a seeded Poisson schedule at a fixed
  rate, regardless of how fast answers come back, so queueing shows up as
  latency.  Latency runs from each request's *scheduled* send time to its
  observed completion, which charges a stall to every request it delays.
  The collector observes completions in submission order (like a pipelined
  client reading replies in order).  How late each send went out is kept as
  the generator's lag; a run whose generator fell behind is not a valid
  measurement.
* **Closed loop.** The sending thread keeps a fixed window of requests
  outstanding, waiting for the oldest before sending the next; completed
  requests per second is the throughput.

Writes are synchronous calls on the sending thread in both loops.
"""

from __future__ import annotations

import collections
import queue
import random
import threading
import time
from typing import Any, Callable

#: Longest a collector waits on one answer before counting it as timed out.
ANSWER_TIMEOUT_S = 30.0

clock = time.perf_counter


def poisson_schedule(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Send offsets, in seconds from the start, of a Poisson process at ``rate``/s."""
    offsets = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


class Reservoir:
    """A seeded uniform sample of fixed size over a stream (Algorithm R)."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size = size
        self.items: list[Any] = []
        self.seen = 0
        self._rng = rng

    def offer(self, item: Any) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.size:
            self.items[slot] = item


class Collector:
    """The one completion thread of the open loop.

    ``finish(handle)`` is called for each handle in submission order; it waits
    on the handle's answer and records it.
    """

    def __init__(self, finish: Callable[[Any], None]) -> None:
        self._finish = finish
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="bench-collector",
                                        daemon=True)
        self._error: BaseException | None = None
        self._thread.start()

    def put(self, handle: Any) -> None:
        self._queue.put(handle)

    def _run(self) -> None:
        try:
            while True:
                handle = self._queue.get()
                if handle is None:
                    return
                self._finish(handle)
        except BaseException as error:  # re-raised on the sending thread by close()
            self._error = error

    def close(self) -> None:
        """Wait until every queued handle has been finished."""
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            raise self._error


def open_loop(
    offsets: list[float],
    send: Callable[[float, float], Any],
    finish: Callable[[Any], None],
) -> list[float]:
    """Send one operation at each offset; return each send's lag in seconds.

    ``send(due, sent)`` issues the next operation and returns a handle to
    collect, or ``None`` when the operation completed synchronously.
    """
    collector = Collector(finish)
    lags = []
    try:
        start = clock()
        for offset in offsets:
            due = start + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            lags.append(sent - due)
            handle = send(due, sent)
            if handle is not None:
                collector.put(handle)
    finally:
        collector.close()
    return lags


def closed_loop(
    duration: float,
    window: int,
    send: Callable[[float, float], Any],
    finish: Callable[[Any], None],
) -> float:
    """Keep ``window`` operations outstanding for ``duration`` seconds.

    Returns the wall time from the first send to the last completion.
    """
    pending: collections.deque = collections.deque()
    start = clock()
    stop = start + duration
    while True:
        now = clock()
        if now >= stop:
            break
        if len(pending) >= window:
            finish(pending.popleft())
            continue
        handle = send(now, now)
        if handle is not None:
            pending.append(handle)
    while pending:
        finish(pending.popleft())
    return clock() - start
