"""Packet formats carried by the forwarding fabric.

Two kinds, mirroring the DC-Buffer's two channels (Sec. III-B):

* **status** packets carry a Register Checkpoint — the architectural
  integer and FP register files, CSR file and next PC captured at an
  RCP.  They are large (kilobits) and bursty.
* **run-time** packets carry one load/store/CSR record — address,
  data, size, and the parity bit copied from the cache (Sec. III-A
  footnote).  They are small and continuous.

Sizes in bits are computed from the real field widths so that flit
counts over a 128-bit AXI bus vs the 256-bit F2 differ exactly as in
the paper's bottleneck analysis.
"""

import enum

from repro.common.bitops import parity as parity_of
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS


class PacketKind(enum.Enum):
    STATUS = "status"
    RUNTIME = "runtime"


class RuntimeKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    CSR = "csr"


#: Field widths (bits) for a run-time record: kind+size metadata,
#: 64-bit address, 64-bit data, parity.
RUNTIME_RECORD_BITS = 8 + 64 + 64 + 1

#: The 64-bit data field of a run-time record.
_DATA_MASK = (1 << 64) - 1

#: Metadata bits on a status packet (RCP id, segment id, PC).
STATUS_HEADER_BITS = 32 + 32 + 64

#: CSRs captured per checkpoint (address + value each).
STATUS_CSR_SLOTS = 4
STATUS_CSR_BITS = STATUS_CSR_SLOTS * (12 + 64)

STATUS_RECORD_BITS = (STATUS_HEADER_BITS
                      + (NUM_INT_REGS + NUM_FP_REGS) * 64
                      + STATUS_CSR_BITS)


class RuntimeEntry:
    """One load/store/CSR record as stored in the LSL."""

    __slots__ = ("rkind", "addr", "data", "size", "parity", "seq")

    def __init__(self, rkind, addr, data, size, seq=0):
        self.rkind = rkind
        self.addr = addr
        self.data = data
        self.size = size
        self.seq = seq
        # parity_of(data), inlined: one entry is built per forwarded
        # record.
        self.parity = (data & _DATA_MASK).bit_count() & 1

    def recompute_parity(self):
        """Parity over the (possibly corrupted) data field."""
        return parity_of(self.data)

    @property
    def parity_ok(self):
        return self.recompute_parity() == self.parity

    def copy(self):
        # Bypass __init__: the parity field is copied, not recomputed
        # (a copy of a corrupted entry must keep the stale parity bit).
        clone = RuntimeEntry.__new__(RuntimeEntry)
        clone.rkind = self.rkind
        clone.addr = self.addr
        clone.data = self.data
        clone.size = self.size
        clone.seq = self.seq
        clone.parity = self.parity
        return clone

    def __repr__(self):
        return (f"RuntimeEntry({self.rkind.value}, addr={self.addr:#x}, "
                f"data={self.data:#x}, size={self.size}, seq={self.seq})")


class StatusSnapshot:
    """A Register Checkpoint payload."""

    __slots__ = ("rcp_id", "seg_id", "pc", "int_regs", "fp_regs", "csrs")

    def __init__(self, rcp_id, seg_id, pc, int_regs, fp_regs, csrs):
        self.rcp_id = rcp_id
        self.seg_id = seg_id
        self.pc = pc
        self.int_regs = tuple(int_regs)
        self.fp_regs = tuple(fp_regs)
        self.csrs = dict(csrs)

    def copy(self):
        return StatusSnapshot(self.rcp_id, self.seg_id, self.pc,
                              self.int_regs, self.fp_regs, self.csrs)

    def matches(self, int_regs, fp_regs, csrs, pc):
        """Register-file comparison performed at an ERCP."""
        if tuple(int_regs) != self.int_regs:
            return False
        if tuple(fp_regs) != self.fp_regs:
            return False
        if pc != self.pc:
            return False
        for addr, value in self.csrs.items():
            if csrs.get(addr, 0) != value:
                return False
        return True

    def __repr__(self):
        return (f"StatusSnapshot(rcp={self.rcp_id}, seg={self.seg_id}, "
                f"pc={self.pc:#x})")


class Packet:
    """A fabric transfer unit: one payload plus routing metadata."""

    __slots__ = ("kind", "payload", "seg_id", "created_cycle", "dests",
                 "size_bits", "seq")

    _SEQ = 0

    def __init__(self, kind, payload, seg_id, created_cycle, dests):
        self.kind = kind
        self.payload = payload
        self.seg_id = seg_id
        self.created_cycle = created_cycle
        self.dests = tuple(dests)
        if kind is PacketKind.STATUS:
            self.size_bits = STATUS_RECORD_BITS
        else:
            self.size_bits = RUNTIME_RECORD_BITS
        Packet._SEQ += 1
        self.seq = Packet._SEQ

    def flit_count(self, width_bits):
        """Number of ``width_bits``-wide flits needed for this packet."""
        return -(-self.size_bits // width_bits)

    def __repr__(self):
        return (f"Packet({self.kind.value}, seg={self.seg_id}, "
                f"dests={self.dests}, {self.size_bits} bits)")
