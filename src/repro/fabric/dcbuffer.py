"""DC-Buffer occupancy model.

One DC-Buffer sits on each big-core commit path (Sec. III-B), holding
status and run-time flits independently until the fabric accepts them.
The model tracks, per channel, the fabric-accept times of buffered
flits; pushing into a full channel returns the cycle at which enough
flits will have drained — that is the commit-stall MEEK's controller
applies to the big core (the "Data Forwarding" component of Fig. 9).
"""

from collections import deque


class DcBufferModel:
    """Flit-level occupancy tracking for one commit path.

    On the fast kernel the MEEK controller's fused record path performs
    :meth:`push` on the runtime channel inline, on the same deque and
    counters (see :mod:`repro.core.controller`).
    """

    def __init__(self, status_depth, runtime_depth, name="dcbuf"):
        self.name = name
        self.status_depth = status_depth
        self.runtime_depth = runtime_depth
        self._queues = {"status": deque(), "runtime": deque()}
        self._depths = {"status": status_depth, "runtime": runtime_depth}
        self.stall_cycles = 0
        self.flits_pushed = {"status": 0, "runtime": 0}
        #: Fault-injection hook ``(channel, payload, now)`` — installed
        #: by the controller when a campaign targets ``dcbuf.runtime``;
        #: corrupts the buffered payload without touching timing.
        self.fault_hook = None

    def _purge(self, channel, now):
        queue = self._queues[channel]
        while queue and queue[0] <= now:
            queue.popleft()

    def occupancy(self, channel, now):
        """Flits still waiting in ``channel`` at cycle ``now``."""
        self._purge(channel, now)
        return len(self._queues[channel])

    def push(self, channel, accept_times, now, payload=None):
        """Buffer flits whose fabric-accept times are ``accept_times``.

        Returns the earliest cycle at which the *pushing commit* may
        proceed: ``now`` if there is room, otherwise the cycle when
        the overflow has drained.  Accept times must be sorted
        (the fabric hands them out in order).  ``payload`` is the
        buffered record, exposed to the fault hook only — occupancy
        tracking stays flit-times-only.
        """
        if self.fault_hook is not None and payload is not None:
            self.fault_hook(channel, payload, now)
        self._purge(channel, now)
        queue = self._queues[channel]
        depth = self._depths[channel]
        queue.extend(accept_times)
        self.flits_pushed[channel] += len(accept_times)
        overflow = len(queue) - depth
        if overflow <= 0:
            return now
        # The commit waits until `overflow` flits have been accepted.
        stall_until = queue[overflow - 1]
        if stall_until > now:
            self.stall_cycles += stall_until - now
            return stall_until
        return now

    def stats(self):
        return {
            "name": self.name,
            "stall_cycles": self.stall_cycles,
            "status_flits": self.flits_pushed["status"],
            "runtime_flits": self.flits_pushed["runtime"],
        }
