"""Decoded-instruction cache: per-program closure tables.

:func:`repro.isa.semantics.execute` is the single functional executor
shared by every model in the repository.  It is correct and readable —
and it re-derives everything about an instruction on every call: spec
lookups, an ``if/elif`` chain over the timing class, then a second
chain of string compares inside ``_int_alu``/``_branch_taken``/
``_exec_fp``.  On the hot path that decode work dominates the
simulation.

:func:`compile_instruction` performs that decode **once**, producing a
closure ``fn(state, mem_port, meek_handler) -> ExecResult`` that is
observably identical to ``execute(instr, state, mem_port,
meek_handler)``: same state mutations in the same order, same
:class:`~repro.isa.semantics.ExecResult` fields, same exceptions.  The
closures are ``exec``-generated from the per-op source fragments in
:mod:`repro.perf.ops` — the same single expression table the
specialized steppers in :mod:`repro.perf.jit` are assembled from —
plus a per-class ExecResult-assembly template, so the arithmetic
exists exactly once in the repository; the fragments reuse the
semantics module's own arithmetic helpers (``_div_signed``,
``_fp_div``, ...) so edge-case behavior is shared by construction,
not duplicated.  Compiled maker code objects are memoized on disk
through :mod:`repro.perf.cache`, so a fresh process starts warm.

:func:`decode_program` caches one closure table per
:class:`~repro.isa.program.Program`, keyed weakly by program identity,
so the big core, the checker replay, the golden model, and the Nzdc
baseline all hit the same decoded image.

``REPRO_SLOW_KERNEL=1`` disables the fast kernel everywhere
(:func:`slow_kernel_enabled`); the naive loop is kept alive precisely
so the differential equivalence suite can prove the two kernels
bit-identical.
"""

import os
import weakref

from repro.common.errors import PrivilegeError, SimulationError
from repro.isa.instructions import SPECS, InstrClass
from repro.isa.semantics import (ExecResult, _div_signed, _fcvt_l, _fp_div,
                                 _fp_sqrt, _rem_signed)
from repro.perf.cache import cached_compile
from repro.perf.ops import (exec_fragment, indent, mem_consts, trap_expr)
# One float codec for the whole repository: the pre-bound Structs live
# in isa.state, so the bit patterns here cannot drift from the
# interpreter's.
from repro.isa.state import bits_to_float as _b2f
from repro.isa.state import float_to_bits as _f2b

_WORD = (1 << 64) - 1
_SIGN = 1 << 63
_TWO64 = 1 << 64


def slow_kernel_enabled():
    """Whether ``REPRO_SLOW_KERNEL`` forces the naive decode-per-tick
    loop (the pre-optimization kernel, kept for A/B checking)."""
    return os.environ.get("REPRO_SLOW_KERNEL", "") not in ("", "0")


def _signed(value):
    return value - _TWO64 if value & _SIGN else value


# -- the exec-generating compiler --------------------------------------------
#
# One maker per op, source-assembled from ops.exec_fragment plus the
# per-class ExecResult-assembly template below, compiled once per
# process (and memoized on disk across processes).  Calling the maker
# with an instruction's decoded fields binds the constants and returns
# the drop-in ``fn`` closure.

_DECODE_GLOBALS = {
    "WORD": _WORD,
    "SGN": _signed,
    "B2F": _b2f,
    "F2B": _f2b,
    "DIVS": _div_signed,
    "REMS": _rem_signed,
    "FPDIV": _fp_div,
    "FPSQRT": _fp_sqrt,
    "FCVTL": _fcvt_l,
    "ExecResult": ExecResult,
    "PrivilegeError": PrivilegeError,
    "SimulationError": SimulationError,
}


def _result_src(op):
    """ExecResult-assembly source for ``op`` (runs after the fragment,
    which left ``next_pc`` and its class's locals defined)."""
    spec = SPECS[op]
    iclass = spec.iclass
    if iclass is InstrClass.LOAD:
        wrote = ("res.wrote_fp_rd = True" if spec.writes_fp_rd
                 else "res.wrote_int_rd = True")
        return ("res = ExecResult(next_pc)\n"
                "res.is_load = True\n"
                "res.mem_addr = addr\n"
                "res.mem_size = MEM_SIZE\n"
                "unsigned = value & WORD\n"
                "res.mem_value = unsigned\n"
                f"{wrote}\n"
                "res.rd_value = unsigned")
    if iclass is InstrClass.STORE:
        return ("res = ExecResult(next_pc)\n"
                "res.is_store = True\n"
                "res.mem_addr = addr\n"
                "res.mem_size = MEM_SIZE\n"
                "res.mem_value = value & MEM_MASK")
    if iclass is InstrClass.BRANCH:
        return ("res = ExecResult(next_pc)\n"
                "res.taken = taken")
    if iclass is InstrClass.JUMP:
        return ("res = ExecResult(next_pc)\n"
                "res.taken = True\n"
                "res.wrote_int_rd = WROTE\n"
                "res.rd_value = link")
    if iclass is InstrClass.CSR:
        return ("res = ExecResult(next_pc)\n"
                "res.csr_addr = IMM\n"
                "res.csr_value = new\n"
                "res.wrote_int_rd = WROTE\n"
                "res.rd_value = old")
    if iclass is InstrClass.SYSTEM:
        return ("res = ExecResult(next_pc)\n"
                f"res.trap = {trap_expr(op)}")
    if iclass is InstrClass.MEEK:
        return ("res = ExecResult(next_pc)\n"
                f"res.meek_op = {op!r}\n"
                "res.taken = taken")
    if spec.writes_fp_rd:
        # FP arithmetic writing an FP destination.
        return ("res = ExecResult(next_pc)\n"
                "res.wrote_fp_rd = True\n"
                "res.rd_value = value")
    # Integer-writing ops: ALU/MUL/DIV and the FP compares/moves.
    return ("res = ExecResult(next_pc)\n"
            "res.wrote_int_rd = True\n"
            "res.rd_value = value")


def _build_decode_source(op):
    iclass = SPECS[op].iclass
    port_lines = ""
    if iclass is InstrClass.LOAD:
        port_lines = ("        port = mem if mem is not None "
                      "else state.memory\n"
                      "        LOADFN = port.load\n")
    elif iclass is InstrClass.STORE:
        port_lines = ("        port = mem if mem is not None "
                      "else state.memory\n"
                      "        STOREFN = port.store\n")
    return f"""\
def maker(RD, RS1, RS2, IMM, OP_INSTR):
    UIMM = IMM & WORD
    IMM12 = IMM << 12
    LUI_VALUE = (IMM << 12) & WORD
    WROTE = RD != 0
{mem_consts(op)}\
    def fn(state, mem, MH):
        regs = state.int_regs
        fregs = state.fp_regs
        pc = state.pc
{port_lines}{indent(exec_fragment(op, mem_mode="direct"), 8)}
{indent(_result_src(op), 8)}
        state.pc = next_pc
        return res
    return fn
"""


_decode_makers = {}


def _decode_maker(op):
    maker = _decode_makers.get(op)
    if maker is None:
        code = cached_compile(f"decode:{op}",
                              lambda: _build_decode_source(op),
                              f"<repro.perf.decode:{op}>")
        namespace = dict(_DECODE_GLOBALS)
        exec(code, namespace)
        maker = namespace["maker"]
        _decode_makers[op] = maker
    return maker


def compile_instruction(instr):
    """Compile ``instr`` into ``fn(state, mem_port, meek_handler)``.

    The closure is a drop-in replacement for
    ``execute(instr, state, mem_port, meek_handler)``.
    """
    return _decode_maker(instr.op)(instr.rd, instr.rs1, instr.rs2,
                                   instr.imm, instr)


# -- decoded programs --------------------------------------------------------

#: Stable small-integer index per timing class, so hot loops can use
#: list indexing instead of hashing enum members.
CLASS_LIST = tuple(InstrClass)
CLASS_INDEX = {cls: i for i, cls in enumerate(CLASS_LIST)}


class DecodedInstr:
    """One instruction's precomputed hot-path facts."""

    __slots__ = ("instr", "fn", "iclass", "needs_entry")

    def __init__(self, instr):
        self.instr = instr
        self.fn = compile_instruction(instr)
        self.iclass = instr.spec.iclass
        self.needs_entry = self.iclass in (InstrClass.LOAD, InstrClass.STORE,
                                           InstrClass.CSR)


class DecodedProgram:
    """Closure table for one :class:`~repro.isa.program.Program`.

    :meth:`lookup` has exactly the contract of ``Program.fetch``:
    ``None`` past the end, :class:`SimulationError` on a misaligned or
    negative address — so the checker's ``pc-misaligned`` /
    ``pc-out-of-program`` detections behave identically on both
    kernels.
    """

    __slots__ = ("base", "entries", "replay_tables", "_n", "_source")

    def __init__(self, program):
        self.base = program.base
        self._source = program.instructions
        self.entries = [DecodedInstr(instr) for instr in program.instructions]
        self._n = len(self.entries)
        #: Checker replay closure tables, one per little-core timing
        #: configuration (:func:`repro.perf.jit.replay_table`).
        self.replay_tables = {}

    def stale_for(self, program):
        """Whether the program's instruction list changed under us."""
        return (self._source is not program.instructions
                or self._n != len(program.instructions))

    def lookup(self, pc):
        offset = pc - self.base
        if offset < 0 or offset & 3:
            raise SimulationError(f"bad fetch address {pc:#x} "
                                  f"(base {self.base:#x})")
        index = offset >> 2
        if index >= self._n:
            return None
        return self.entries[index]


_decoded_cache = weakref.WeakKeyDictionary()


def decode_program(program):
    """The cached :class:`DecodedProgram` for ``program``.

    Keyed by program identity (weakly, so decoded images die with
    their programs).  A program whose ``instructions`` list was swapped
    out after decoding is re-decoded rather than served stale.
    """
    cached = _decoded_cache.get(program)
    if cached is None or cached.stale_for(program):
        cached = DecodedProgram(program)
        _decoded_cache[program] = cached
    return cached
