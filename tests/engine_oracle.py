"""Reference semantics for :class:`repro.core.engine.Engine`.

A next-event loop over one ``heapq`` of ``[when, seq, callback, args]``
records, FIFO ties, no bucket queue, group handlers or free list.  The
engine must match its dispatch order, ``now``, ``events_processed``,
``pending()`` and ``cancel`` results; machine tests swap it in.
"""

import heapq
import itertools

from repro.core.engine import SimulationError


class HeapOracle:
    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self._now = 0.0
        self._cancelled = 0
        self._stop = False
        self.events_processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, when, callback, *args):
        if when < self._now:
            raise SimulationError(f"cannot schedule event at {when} "
                                  f"before current time {self._now}")
        record = [when, next(self._seq), callback, args]
        heapq.heappush(self._heap, record)
        return record

    def schedule_after(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, *args)

    def cancel(self, handle):
        if handle[2] is None:
            return False
        handle[2] = None
        self._cancelled += 1
        return True

    def request_stop(self):
        self._stop = True

    def pending(self):
        return len(self._heap) - self._cancelled

    def run(self):
        self._stop = False
        while self._heap:
            record = heapq.heappop(self._heap)
            self._now = record[0]
            callback, args = record[2], record[3]
            if callback is None:
                self._cancelled -= 1
                continue
            record[2] = None  # spent: a raising callback is not retried
            callback(*args)
            self.events_processed += 1
            if self._stop:
                break
        return self._now
