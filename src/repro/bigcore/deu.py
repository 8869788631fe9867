"""Data Extraction Unit (DEU, Fig. 3).

A non-intrusive observation channel at the big core's commit stage.
The Commit Detector (CD) watches each instruction's opcode/function
code as it commits and selects the bypass circuits:

* between RCPs it extracts *run-time data* — addresses and data of
  loads, stores and CSR (non-repeatable) operations — straight from
  the LSQ top and CSR file;
* at an RCP it preempts the PRF controllers to read the architectural
  register files (*status data*), which costs a few cycles of commit
  gating because the PRF read ports are time-shared with the ROB.

Per the Sec. III-A footnote, load data sits unprotected in the LSQ
between cache read and LSL duplication, so the cache's parity bit is
copied alongside and re-checked when the data is forwarded.
"""

from repro.fabric.packets import (
    RuntimeEntry,
    RuntimeKind,
    STATUS_CSR_SLOTS,
    StatusSnapshot,
)
class DataExtractionUnit:
    """Commit-stage extraction logic for one big core."""

    def __init__(self, prf_read_ports=4, name="deu"):
        self.name = name
        self.prf_read_ports = prf_read_ports
        self.enabled = True
        #: Sequence number of the last run-time record; every record is
        #: counted and parity-checked exactly once, so it is also the
        #: record and parity-check count.
        self._seq = 0
        # Statistics.
        self.status_records = 0
        self.parity_errors = 0

    @property
    def runtime_records(self):
        return self._seq

    @property
    def parity_checks(self):
        return self._seq

    def set_enabled(self, enabled):
        """``b.check``: switch the observation channel on or off."""
        self.enabled = bool(enabled)

    @property
    def status_extraction_cycles(self):
        """Commit-gating cycles to read 64 registers + CSR slots
        through ``prf_read_ports`` time-shared ports."""
        registers = 64  # 32 int + 32 fp
        reg_cycles = -(-registers // self.prf_read_ports)
        csr_cycles = -(-STATUS_CSR_SLOTS // self.prf_read_ports)
        return reg_cycles + csr_cycles

    def classify(self, result):
        """Commit Detector decision: the ``(kind, addr, data, size)``
        of the run-time record this commit produces, or ``None`` when
        the instruction needs no logging.

        The single source of truth for which commits are logged —
        shared by :meth:`extract_runtime` and the controller's commit
        paths.  (The exec-compiled steppers in :mod:`repro.perf.jit`
        bake the same mapping into their source; they cross-reference
        this method.)
        """
        if result.is_load:
            return (RuntimeKind.LOAD, result.mem_addr, result.mem_value,
                    result.mem_size)
        if result.is_store:
            return (RuntimeKind.STORE, result.mem_addr, result.mem_value,
                    result.mem_size)
        if result.csr_addr is not None:
            return RuntimeKind.CSR, result.csr_addr, result.rd_value, 8
        return None

    def extract_runtime(self, event):
        """Produce a run-time record for this commit, or ``None`` when
        the instruction needs no logging."""
        if not self.enabled:
            return None
        record = self.classify(event.result)
        if record is None:
            return None
        return self.record_runtime(*record)

    def record_runtime(self, kind, addr, data, size):
        """Stamp and account one run-time record.

        The single source of truth for sequence numbers and record
        counting on the classic CommitEvent path above and the
        controller's classic record path; the controller's fused record
        path stamps ``_seq`` the same way inline.  The parity copied
        from the cache is double-checked once the data is forwarded
        (Sec. III-A footnote): the entry computes it from the data it
        was just built from, so the check is counted, not repeated.
        """
        self._seq += 1
        return RuntimeEntry(kind, addr, data, size, seq=self._seq)

    def adopt_runtime(self, entry):
        """Stamp and account a record built elsewhere.

        The batched kernel constructs one template entry per committed
        instruction (the record fields are lane-invariant) and hands
        each lane's DEU a copy: the parity computation happens once
        instead of per lane, while sequence numbering and record
        accounting stay per-DEU, exactly as :meth:`record_runtime`
        would have left them.
        """
        self._seq += 1
        entry.seq = self._seq
        return entry

    def extract_status(self, state, rcp_id, seg_id, next_pc):
        """Read the architectural register files at an RCP."""
        if not self.enabled:
            return None
        int_regs, fp_regs = state.register_file_snapshot()
        self.status_records += 1
        return StatusSnapshot(rcp_id=rcp_id, seg_id=seg_id, pc=next_pc,
                              int_regs=int_regs, fp_regs=fp_regs,
                              csrs=state.csrs)

    def stats(self):
        return {
            "runtime_records": self.runtime_records,
            "status_records": self.status_records,
            "parity_checks": self.parity_checks,
            "parity_errors": self.parity_errors,
        }
