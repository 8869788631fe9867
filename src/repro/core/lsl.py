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
        #: Arrival and consumption times of the bound segment's entries,
        #: both non-decreasing.  The controller's fused record path and
        #: the checker's replay loop append to them directly.
        self.delivery_times = []
        self.consume_times = []
        self._earlier_entries = 0   # entries of earlier segments
        self.peak_occupancy = 0

    @property
    def total_entries(self):
        """Entries delivered over the log's lifetime."""
        return self._earlier_entries + len(self.delivery_times)

    def bind_segment(self, deliveries=None):
        """Reset per-segment bookkeeping (the log is reserved for a
        single checker thread at a time, Sec. IV-B).

        ``deliveries`` adopts the segment's own delivery-time list as
        the log's, for a caller that appends each delivery there once
        instead of calling :meth:`record_delivery` (the controller's
        fused record path: deliveries to one core are monotone within a
        segment, so the clamp below could never fire)."""
        self._earlier_entries += len(self.delivery_times)
        self.delivery_times = [] if deliveries is None else deliveries
        self.consume_times = []

    def record_delivery(self, cycle):
        """A forwarded entry arrives at ``cycle``."""
        if self.delivery_times and cycle < self.delivery_times[-1]:
            # Fabric preserves ordering; deliveries are monotonic.
            cycle = self.delivery_times[-1]
        self.delivery_times.append(cycle)

    def record_consumption(self, cycle):
        """The checker consumed the next entry at ``cycle``."""
        if len(self.consume_times) >= len(self.delivery_times):
            raise SimulationError(
                f"LSL {self.core_id}: consumed more entries than delivered")
        if self.consume_times and cycle < self.consume_times[-1]:
            cycle = self.consume_times[-1]
        self.consume_times.append(cycle)

    def occupancy(self, now):
        """Unconsumed entries resident in the log at cycle ``now``."""
        delivered = bisect.bisect_right(self.delivery_times, now)
        consumed = bisect.bisect_right(self.consume_times, now)
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
        outstanding = (len(self.delivery_times)
                       - bisect.bisect_right(self.consume_times, now))
        if outstanding > self.peak_occupancy:
            self.peak_occupancy = outstanding
        return outstanding

    def stats(self):
        return {
            "core": self.core_id,
            "capacity": self.capacity,
            "total_entries": self.total_entries,
            "peak_occupancy": self.peak_occupancy,
        }
