"""Load-Store Log occupancy model.

The LSL is a dual-way FIFO bank in each little core (Sec. III-C) that
buffers forwarded run-time records and stands in for the D-cache during
replay.  Because F2 forwards records immediately on collection and the
checker consumes them while the segment is still running (footnote 4),
occupancy at any instant is::

    delivered(<= t)  -  consumed(<= t)

The controller asks :meth:`occupancy` at every potential push to decide
whether the log is full — the LSL-full RCP trigger.
"""

import bisect

from repro.common.errors import SimulationError


class LoadStoreLog:
    """Occupancy bookkeeping for one little core's LSL."""

    def __init__(self, config, core_id):
        self.config = config
        self.core_id = core_id
        self.capacity = config.entries
        self._delivery_times = []
        self._consume_times = []
        self.total_entries = 0
        self.peak_occupancy = 0

    def bind_segment(self):
        """Reset per-segment bookkeeping (the log is reserved for a
        single checker thread at a time, Sec. IV-B)."""
        self._delivery_times = []
        self._consume_times = []

    def record_delivery(self, cycle):
        """A forwarded entry arrives at ``cycle``."""
        if self._delivery_times and cycle < self._delivery_times[-1]:
            # Fabric preserves ordering; deliveries are monotonic.
            cycle = self._delivery_times[-1]
        self._delivery_times.append(cycle)
        self.total_entries += 1

    def record_consumption(self, cycle):
        """The checker consumed the next entry at ``cycle``."""
        if len(self._consume_times) >= len(self._delivery_times):
            raise SimulationError(
                f"LSL {self.core_id}: consumed more entries than delivered")
        if self._consume_times and cycle < self._consume_times[-1]:
            cycle = self._consume_times[-1]
        self._consume_times.append(cycle)

    def occupancy(self, now):
        """Unconsumed entries resident in the log at cycle ``now``."""
        delivered = bisect.bisect_right(self._delivery_times, now)
        consumed = bisect.bisect_right(self._consume_times, now)
        occupancy = delivered - consumed
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return occupancy

    def would_overflow(self, now):
        """Whether accepting one more entry at ``now`` exceeds capacity."""
        return self.occupancy(now) >= self.capacity

    def outstanding(self, now):
        """Credit-based occupancy: every entry *sent* (even if still in
        flight) counts against capacity until the checker has consumed
        it by cycle ``now``.  This is the big core's flow-control view,
        used for the LSL-full RCP trigger."""
        outstanding = self.outstanding_bound(now)
        if outstanding > self.peak_occupancy:
            self.peak_occupancy = outstanding
        return outstanding

    def outstanding_bound(self, now):
        """:meth:`outstanding` without the peak update: an upper bound
        on it for as long as consumptions are still to be recorded."""
        return (len(self._delivery_times)
                - bisect.bisect_right(self._consume_times, now))

    def stats(self):
        return {
            "core": self.core_id,
            "capacity": self.capacity,
            "total_entries": self.total_entries,
            "peak_occupancy": self.peak_occupancy,
        }
