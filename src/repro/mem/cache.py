"""Set-associative cache timing model with MSHR accounting.

This models *timing*, not data: the functional executor keeps the
authoritative memory contents, while the cache decides hit/miss and how
long a miss stalls.  MSHRs bound the number of misses in flight — when
all are busy a new miss queues behind the oldest, which is how the
narrow little-core caches (2 MSHRs) throttle and the big L2 (12 MSHRs)
does not.

MSHR completion times live in a min-heap: instead of rescanning and
rebuilding the in-flight list on every miss ("ticking" each entry), an
allocation fast-forwards by popping only the entries that have already
retired — the earliest outstanding completion is always ``heap[0]``.
"""

from heapq import heappop, heappush

from repro.common.errors import SimulationError


class CacheModel:
    """One cache level."""

    def __init__(self, config, tags=True):
        self.config = config
        self.num_sets = config.num_sets
        self._offset_bits = config.line_bytes.bit_length() - 1
        # Per-set list of tags, most-recently-used last.  A cache built
        # without tags only queues misses (mshr_allocate): the private
        # hierarchy of a batch lane, whose tag walk the lanes share.
        self._sets = [[] for _ in range(self.num_sets)] if tags else None
        # Completion cycles of in-flight misses (MSHR min-heap).
        self._mshr_busy_until = []
        self._ways = config.ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.mshr_stall_cycles = 0

    def _index_tag(self, addr):
        line = addr >> self._offset_bits
        return line % self.num_sets, line // self.num_sets

    def probe(self, addr):
        """Whether ``addr`` currently hits, without updating state."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def lookup(self, addr):
        """Access the cache: returns ``True`` on hit and updates LRU."""
        line = addr >> self._offset_bits
        tag, index = divmod(line, self.num_sets)
        ways = self._sets[index]
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr):
        """Install the line containing ``addr``, evicting LRU if needed."""
        line = addr >> self._offset_bits
        tag, index = divmod(line, self.num_sets)
        ways = self._sets[index]
        if tag in ways:
            return
        if len(ways) >= self._ways:
            ways.pop(0)
            self.evictions += 1
        ways.append(tag)

    def invalidate(self, addr):
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)

    def flush(self):
        for ways in self._sets:
            ways.clear()
        self._mshr_busy_until.clear()

    def mshr_allocate(self, now, completion):
        """Reserve an MSHR for a miss issued at ``now``.

        Returns the (possibly delayed) completion cycle: if every MSHR
        is still busy at ``now``, the miss waits for the earliest one
        to free.
        """
        if completion < now:
            raise SimulationError("miss cannot complete before it starts")
        busy = self._mshr_busy_until
        # Fast-forward: retire every miss already complete by ``now``.
        while busy and busy[0] <= now:
            heappop(busy)
        if len(busy) >= self.config.mshrs:
            earliest = busy[0]
            delay = earliest - now
            self.mshr_stall_cycles += delay
            completion += delay
        heappush(busy, completion)
        return completion

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def stats(self):
        return {
            "name": self.config.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "miss_rate": self.miss_rate,
            "mshr_stall_cycles": self.mshr_stall_cycles,
        }
