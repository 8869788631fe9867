"""The chained memory hierarchy: L1 → L2 → LLC → DRAM.

Each access walks down until it hits, accumulating the hit latency of
every level it touches plus MSHR queueing at the level that missed.
Fills happen on the way back up (inclusive hierarchy).  Instruction
and data accesses share L2 and below but use separate L1s, exactly as
in Table II.
"""

import enum

from repro.common.config import MemoryHierarchyConfig
from repro.mem.cache import CacheModel
from repro.mem.dram import DramModel


class AccessKind(enum.Enum):
    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"


#: Tag-walk result codes: the level that served the access.  The code
#: is a pure function of cache *contents* (which evolve by access order
#: alone, never by access timing), so identically-ordered access
#: streams see identical codes — the invariant the batched campaign
#: kernel (:mod:`repro.perf.batch`) builds on.
L1_HIT = 0
L2_HIT = 1
LLC_HIT = 2
DRAM = 3


class MemoryHierarchy:
    """Timing for one core's view of the memory system.

    ``shared_l2`` lets several cores (the big core and the little
    cores' instruction paths) sit behind one L2/LLC/DRAM instance, as
    on the Rocket Chip SoC.  ``tags=False`` builds a hierarchy that
    only answers :meth:`latency_for_code` (miss queueing): a batch
    lane's, whose tag walks the lanes share.
    """

    def __init__(self, config=None, shared_l2=None, tags=True):
        self.config = config if config is not None else MemoryHierarchyConfig()
        self.l1i = CacheModel(self.config.l1i, tags)
        self.l1d = CacheModel(self.config.l1d, tags)
        if shared_l2 is not None:
            self.l2 = shared_l2.l2
            self.llc = shared_l2.llc
            self.dram = shared_l2.dram
        else:
            self.l2 = CacheModel(self.config.l2, tags)
            self.llc = CacheModel(self.config.llc, tags)
            self.dram = DramModel(self.config.dram_latency,
                                  self.config.dram_max_requests)
        # Hit latencies and line size are config constants; resolve the
        # attribute chains once instead of on every access.
        self._l1i_hit = self.l1i.config.hit_latency
        self._l1d_hit = self.l1d.config.hit_latency
        self._l2_hit = self.l2.config.hit_latency
        self._llc_hit = self.llc.config.hit_latency
        self._l1d_line = self.l1d.config.line_bytes

    def access(self, addr, now, kind=AccessKind.LOAD):
        """Latency in cycles of an access issued at cycle ``now``."""
        return self.latency_for_code(self.lookup_code(addr, kind), now, kind)

    def lookup_code(self, addr, kind=AccessKind.LOAD):
        """Walk the tags for one access and return the serving level.

        This is the *content* half of :meth:`access`: lookups, prefetch
        fills, and demand fills mutate LRU state exactly as the fused
        method always did, but nothing here depends on ``now`` — the
        result is determined by the access stream alone.  The *timing*
        half (DRAM queueing, MSHR backpressure) lives in
        :meth:`latency_for_code`.
        """
        if kind is AccessKind.IFETCH:
            l1 = self.l1i
        else:
            l1 = self.l1d
        if l1.lookup(addr):
            return L1_HIT
        l2 = self.l2
        llc = self.llc
        if kind is not AccessKind.IFETCH:
            # Next-line prefetcher: on a demand miss, pull the adjacent
            # line into the hierarchy so streaming patterns (libquantum,
            # streamcluster) hide most of their miss latency, as the
            # hardware prefetchers on BOOM-class cores do.  Pointer
            # chasing gets no benefit, exactly as on real hardware.
            line = self._l1d_line
            for ahead in (1, 2):
                next_line = addr + ahead * line
                llc.fill(next_line)
                l2.fill(next_line)
                l1.fill(next_line)
        if l2.lookup(addr):
            code = L2_HIT
        elif llc.lookup(addr):
            code = LLC_HIT
        else:
            code = DRAM
        # Fill upward (inclusive hierarchy).
        llc.fill(addr)
        l2.fill(addr)
        l1.fill(addr)
        return code

    def latency_for_code(self, code, now, kind=AccessKind.LOAD):
        """Latency of an access issued at ``now`` served at ``code``.

        Touches only per-core queueing state (DRAM window, L1 MSHRs) —
        never the tags — so a batch of lanes sharing one tag walk can
        each resolve their own latency here.
        """
        if kind is AccessKind.IFETCH:
            l1 = self.l1i
            latency = self._l1i_hit
        else:
            l1 = self.l1d
            latency = self._l1d_hit
        if code == L1_HIT:
            return latency
        # L1 miss: charge each level's hit latency on the way down.
        latency += self._l2_hit
        if code != L2_HIT:
            latency += self._llc_hit
            if code == DRAM:
                completion = self.dram.access(now + latency)
                latency = completion - now
        # Charge MSHR queueing at the L1.
        completion = l1.mshr_allocate(now, now + latency)
        return completion - now

    def stats(self):
        return {
            "l1i": self.l1i.stats(),
            "l1d": self.l1d.stats(),
            "l2": self.l2.stats(),
            "llc": self.llc.stats(),
            "dram": self.dram.stats(),
        }
