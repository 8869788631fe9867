"""Fabric interface and shared resource-counter machinery.

A fabric accepts a packet's flits (bandwidth-limited by a shared
next-free-slot counter) and delivers the payload to each destination
after a routing latency.  Contention is modelled exactly where the
paper found it: on the shared transfer slots — when the big core
commits multiple memory operations per cycle, or bursts a multi-flit
RCP, accept times queue up and the DC-Buffers fill.
"""

from repro.common.errors import ConfigError
from repro.fabric.packets import RUNTIME_RECORD_BITS


class DeliveryReport:
    """Outcome of submitting one packet to the fabric."""

    __slots__ = ("accept_times", "delivery_times", "last_accept")

    def __init__(self, accept_times, delivery_times):
        self.accept_times = accept_times
        self.delivery_times = delivery_times  # dest core id -> cycle
        self.last_accept = accept_times[-1] if accept_times else 0


class ForwardingFabric:
    """Base class: shared-bandwidth acceptance + per-dest delivery."""

    def __init__(self, config, num_little_cores, clock_ratio=2):
        if config.packets_per_cycle < 1:
            raise ConfigError("fabric needs at least one slot per cycle")
        self.config = config
        self.num_little_cores = num_little_cores
        self.clock_ratio = clock_ratio
        self._next_slot = 0.0
        self.flits_carried = 0
        self.packets_carried = 0
        self.busy_time = 0.0
        #: Fault-injection hook ``(packet, now)`` — installed by the
        #: controller when a campaign targets ``fabric.status``;
        #: corrupts the in-flight payload without touching timing.
        self.fault_hook = None

    # -- hooks for subclasses -------------------------------------------

    def _slot_interval(self):
        """Big-core cycles between two flit-accept slots."""
        raise NotImplementedError

    def _route_latency(self, dest):
        """Big-core cycles from last accept to delivery at ``dest``."""
        raise NotImplementedError

    def _transfers_for(self, packet):
        """How many times the flits traverse the fabric.

        A multicast fabric sends once regardless of destination count;
        a unicast bus repeats the transfer per destination.
        """
        if self.config.multicast:
            return 1
        return max(1, len(packet.dests))

    # -- public API ------------------------------------------------------

    def send(self, packet, now):
        """Accept ``packet`` starting at ``now``; return the report."""
        if self.fault_hook is not None:
            self.fault_hook(packet, now)
        flits = packet.flit_count(self.config.width_bits)
        transfers = self._transfers_for(packet)
        interval = self._slot_interval()
        # The first slot cannot start before either the shared counter
        # or ``now``; after that every slot is exactly one interval
        # later, so the whole accept schedule fast-forwards from the
        # start cursor without re-arbitrating per flit.  (Repeated
        # addition, not multiplication, to keep the float sequence
        # bit-identical to the original per-slot loop.)
        total = flits * transfers
        cursor = self._next_slot
        fnow = float(now)
        if fnow > cursor:
            cursor = fnow
        accept_times = []
        append = accept_times.append
        for _ in range(total):
            cursor += interval
            append(cursor)
        self._next_slot = cursor
        self.flits_carried += total
        self.packets_carried += 1
        self.busy_time += total * interval

        last = accept_times[-1]
        delivery_times = {}
        for dest in packet.dests:
            delivery_times[dest] = last + self._route_latency(dest)
        return DeliveryReport(accept_times, delivery_times)

    def send_runtime(self, dest, now):
        """Fast path for the continuous run-time record stream.

        A run-time packet always has exactly one destination (the
        active segment's core), so the transfer count is 1 on every
        fabric kind.  Returns ``(accept_times, delivery_time)`` with
        values identical to :meth:`send` on an equivalent packet — a
        subclass that overrides :meth:`send` or ``_transfers_for``
        keeps its behavior, because this path falls back to the real
        ``send`` for it.  The ``_slot_interval``/``_route_latency``
        hooks are still consulted per call.  On the fast kernel the
        MEEK controller inlines this method for a fabric class that
        overrides none of ``send``, ``_transfers_for`` and
        ``send_runtime`` (see :mod:`repro.core.controller`).
        """
        flits = getattr(self, "_runtime_flits", None)
        if flits is None:
            flits = -(-RUNTIME_RECORD_BITS // self.config.width_bits)
            self._runtime_flits = flits
            cls = type(self)
            self._runtime_fast_ok = (
                cls.send is ForwardingFabric.send
                and cls._transfers_for is ForwardingFabric._transfers_for)
        if not self._runtime_fast_ok:
            from repro.fabric.packets import Packet, PacketKind
            packet = Packet(PacketKind.RUNTIME, None, 0, now, dests=(dest,))
            report = self.send(packet, now)
            return report.accept_times, report.delivery_times[dest]
        interval = self._slot_interval()
        cursor = self._next_slot
        fnow = float(now)
        if fnow > cursor:
            cursor = fnow
        if flits == 1:
            cursor += interval
            accept_times = [cursor]
        else:
            accept_times = []
            append = accept_times.append
            for _ in range(flits):
                cursor += interval
                append(cursor)
        self._next_slot = cursor
        self.flits_carried += flits
        self.packets_carried += 1
        self.busy_time += flits * interval
        return accept_times, cursor + self._route_latency(dest)

    def utilization(self, elapsed_cycles):
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_cycles)

    def stats(self):
        return {
            "kind": self.config.kind,
            "packets": self.packets_carried,
            "flits": self.flits_carried,
            "busy_time": self.busy_time,
        }


def build_fabric(config, num_little_cores, clock_ratio=2):
    """Factory: construct the fabric matching ``config.kind``."""
    from repro.fabric.axi import AxiInterconnect
    from repro.fabric.hmnoc import HmNocFabric, IdealFabric

    if config.kind == "axi":
        return AxiInterconnect(config, num_little_cores, clock_ratio)
    if config.kind == "ideal":
        return IdealFabric(config, num_little_cores, clock_ratio)
    return HmNocFabric(config, num_little_cores, clock_ratio)
