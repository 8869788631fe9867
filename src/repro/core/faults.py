"""Fault injection into forwarded data (Sec. V-B) — fault-model layer.

The paper injects errors "in the forwarded data from the F2 connected
to the big core, e.g., data and address of memory operations and
architectural register data, simulating the hardware faults without
disrupting the big core's normal execution".  This module does that —
and generalizes it into a pluggable **fault model** layer:

* ``single`` — independent single-bit upsets (the paper's model);
* ``burst:width=K`` — one multi-bit burst of K adjacent bits, the
  signature of a high-energy particle strike across neighbouring
  cells;
* ``correlated:span=N`` — a spatially-correlated upset: the *same*
  bit line flipped across N adjacent words of one record (both the
  address and data of a run-time record, or N adjacent registers of a
  status checkpoint), modelling a shared driver/line fault;
* ``stuckat[:bit=B,value=V]`` — a **permanent** stuck-at line: once
  armed, the chosen bit of the chosen structure is forced to V on
  every subsequent forwarded packet for the rest of the run.

Faults land on the *transmitted copies* of run-time records and status
snapshots — or, through the :class:`~repro.fabric.dcbuffer.DcBufferModel`
and :class:`~repro.fabric.base.ForwardingFabric` fault hooks, on
payloads traversing the DC-Buffer and fabric paths — leaving the big
core's architectural state untouched.  Detection then happens (or not)
through the normal checking machinery, and the campaign records
injection-to-detection latency per structure and per model (see
:mod:`repro.analysis.coverage`).

Determinism contract: every model draws from the injector's single
:class:`~repro.common.prng.DeterministicRng` stream in a fixed order,
so for a given seed the :class:`InjectionRecord` stream is identical
across kernels, shards, and serve/serial execution.  The default
``single`` model reproduces the historical draw sequence bit-for-bit.
"""

import enum

from repro.common.bitops import flip_bit
from repro.common.errors import ConfigError


class FaultTarget(enum.Enum):
    RUNTIME_ADDR = "runtime.addr"
    RUNTIME_DATA = "runtime.data"
    STATUS_INT_REG = "status.int_reg"
    STATUS_FP_REG = "status.fp_reg"
    STATUS_PC = "status.pc"
    #: Corruption of a run-time record while it waits in the DC-Buffer.
    DCBUF_RUNTIME = "dcbuf.runtime"
    #: Corruption of a status checkpoint traversing the fabric.
    FABRIC_STATUS = "fabric.status"


#: Campaign default: memory-operation faults dominate (they are the
#: bulk of forwarded traffic), with register-checkpoint faults mixed in.
#: The DC-Buffer/fabric targets are opt-in (``--fault-targets``) so the
#: historical injection streams stay bit-identical.
DEFAULT_TARGET_WEIGHTS = {
    FaultTarget.RUNTIME_ADDR: 3,
    FaultTarget.RUNTIME_DATA: 3,
    FaultTarget.STATUS_INT_REG: 2,
    FaultTarget.STATUS_FP_REG: 1,
    FaultTarget.STATUS_PC: 1,
}

#: Weights used when a target is named explicitly or through the
#: ``dcbuf``/``fabric``/``all`` groups.
ALL_TARGET_WEIGHTS = dict(DEFAULT_TARGET_WEIGHTS)
ALL_TARGET_WEIGHTS[FaultTarget.DCBUF_RUNTIME] = 2
ALL_TARGET_WEIGHTS[FaultTarget.FABRIC_STATUS] = 2

_TARGET_GROUPS = {
    "runtime": (FaultTarget.RUNTIME_ADDR, FaultTarget.RUNTIME_DATA),
    "status": (FaultTarget.STATUS_INT_REG, FaultTarget.STATUS_FP_REG,
               FaultTarget.STATUS_PC),
    "dcbuf": (FaultTarget.DCBUF_RUNTIME,),
    "fabric": (FaultTarget.FABRIC_STATUS,),
}

_RUNTIME_TARGETS = (FaultTarget.RUNTIME_ADDR, FaultTarget.RUNTIME_DATA)
_STATUS_TARGETS = (FaultTarget.STATUS_INT_REG, FaultTarget.STATUS_FP_REG,
                   FaultTarget.STATUS_PC)

#: The forwarded PC is a 32-bit instruction address; flips land inside
#: bits [2, 31] so the corrupted value stays a plausible PC.
PC_BIT_LO, PC_BIT_HI = 2, 31


def parse_fault_targets(text):
    """A target-weight dict from a declarative spec string.

    ``None``/``""``/``"default"`` is the historical five-target mix;
    otherwise a comma-separated list of group names (``runtime``,
    ``status``, ``dcbuf``, ``fabric``, ``all``) and/or exact target
    values (``runtime.addr``, ``fabric.status``, ...).
    """
    if not text or text == "default":
        return dict(DEFAULT_TARGET_WEIGHTS)
    if isinstance(text, dict):
        return dict(text)
    by_value = {t.value: t for t in FaultTarget}
    weights = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            weights.update(ALL_TARGET_WEIGHTS)
        elif token in _TARGET_GROUPS:
            for target in _TARGET_GROUPS[token]:
                weights[target] = ALL_TARGET_WEIGHTS[target]
        elif token in by_value:
            target = by_value[token]
            weights[target] = ALL_TARGET_WEIGHTS[target]
        else:
            raise ConfigError(
                f"unknown fault target {token!r}; choose groups "
                f"{sorted(_TARGET_GROUPS)} / 'all' or exact targets "
                f"{sorted(by_value)}")
    if not weights:
        raise ConfigError(f"fault target spec {text!r} names no targets")
    return weights


# -- fault models ----------------------------------------------------------

class FaultModel:
    """How one injection corrupts a word (or group of words).

    Models are stateless except for stuck-at arming; all randomness
    flows through the injector's RNG in a fixed draw order.
    """

    name = "model"
    #: Adjacent words of a record corrupted per injection (correlated
    #: models span several; everything else touches one word).
    span = 1
    #: Permanent models keep corrupting every later packet of the
    #: faulted structure after the single arming injection.
    permanent = False

    @property
    def spec(self):
        """Canonical declarative spec string (the coverage-map key)."""
        return self.name

    def plan_bits(self, rng, width=64):
        """Bit indices to flip in one ``width``-wide word."""
        raise NotImplementedError

    def plan_pc_bits(self, rng):
        """Bit indices for a PC flip (inside the 32-bit PC window)."""
        raise NotImplementedError

    def apply(self, value, bits, width=64):
        """Corrupt ``value`` at ``bits``; default is XOR (upset)."""
        for bit in bits:
            value = flip_bit(value, bit, width)
        return value

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"


class SingleBitModel(FaultModel):
    """Independent single-bit upsets — the paper's Sec. V-B model.

    Draw order is bit-for-bit identical to the historical injector.
    """

    name = "single"

    def plan_bits(self, rng, width=64):
        return (rng.bit_index(width),)

    def plan_pc_bits(self, rng):
        return (rng.randint(PC_BIT_LO, PC_BIT_HI),)


class BurstModel(FaultModel):
    """A multi-bit burst: ``width`` adjacent bits of one word flip
    together.  The burst always stays inside the declared word width."""

    name = "burst"

    def __init__(self, width=2):
        width = int(width)
        if not 1 <= width <= 64:
            raise ConfigError(f"burst width must be in [1, 64], "
                              f"got {width}")
        self.width = width

    @property
    def spec(self):
        return f"burst:width={self.width}"

    def plan_bits(self, rng, width=64):
        burst = min(self.width, width)
        start = rng.bit_index(width - burst + 1)
        return tuple(range(start, start + burst))

    def plan_pc_bits(self, rng):
        window = PC_BIT_HI - PC_BIT_LO + 1
        burst = min(self.width, window)
        start = rng.randint(PC_BIT_LO, PC_BIT_HI - burst + 1)
        return tuple(range(start, start + burst))


class CorrelatedModel(FaultModel):
    """A spatially-correlated upset: the same bit line flips across
    ``span`` adjacent words of one record — both fields of a run-time
    record, or ``span`` adjacent registers of a status checkpoint."""

    name = "correlated"

    def __init__(self, span=2):
        span = int(span)
        if not 2 <= span <= 32:
            raise ConfigError(f"correlated span must be in [2, 32], "
                              f"got {span}")
        self.span = span

    @property
    def spec(self):
        return f"correlated:span={self.span}"

    def plan_bits(self, rng, width=64):
        return (rng.bit_index(width),)

    def plan_pc_bits(self, rng):
        return (rng.randint(PC_BIT_LO, PC_BIT_HI),)


class StuckAtModel(FaultModel):
    """A permanent stuck-at line.

    The single arming injection chooses the structure, bit and level;
    from then on **every** forwarded packet of that structure has the
    bit forced (via the injector's stuck-line table) until the run
    ends.  ``bit=None`` draws the line position from the RNG.
    """

    name = "stuckat"
    permanent = True

    def __init__(self, bit=None, value=0):
        if bit is not None:
            bit = int(bit)
            if not 0 <= bit < 64:
                raise ConfigError(f"stuckat bit must be in [0, 64), "
                                  f"got {bit}")
        value = int(value)
        if value not in (0, 1):
            raise ConfigError(f"stuckat value must be 0 or 1, got {value}")
        self.bit = bit
        self.value = value

    @property
    def spec(self):
        if self.bit is None:
            return f"stuckat:value={self.value}"
        return f"stuckat:bit={self.bit},value={self.value}"

    def plan_bits(self, rng, width=64):
        if self.bit is not None:
            return (min(self.bit, width - 1),)
        return (rng.bit_index(width),)

    def plan_pc_bits(self, rng):
        if self.bit is not None:
            return (min(max(self.bit, PC_BIT_LO), PC_BIT_HI),)
        return (rng.randint(PC_BIT_LO, PC_BIT_HI),)

    def apply(self, value, bits, width=64):
        return force_bits(value, bits, self.value, width)


def force_bits(value, bits, level, width=64):
    """Force ``bits`` of ``value`` to ``level`` (stuck-at semantics)."""
    for bit in bits:
        if level:
            value |= (1 << bit)
        else:
            value &= ~(1 << bit)
    return value & ((1 << width) - 1)


#: Declarative model registry: name (plus aliases) -> constructor.
FAULT_MODELS = {
    "single": SingleBitModel,
    "single-bit": SingleBitModel,
    "burst": BurstModel,
    "correlated": CorrelatedModel,
    "stuckat": StuckAtModel,
    "stuck-at": StuckAtModel,
}

#: One canonical instance spec per model kind (CLI/docs/tests sweep).
CANONICAL_MODEL_SPECS = ("single", "burst:width=3", "correlated:span=2",
                         "stuckat:value=0")


def parse_fault_model(spec):
    """Build a :class:`FaultModel` from a declarative spec string.

    ``"burst:width=3"`` style: a registered model name, optionally
    followed by ``:key=value[,key=value...]``.  ``None``/``""`` is the
    ``single`` default.  An already-built model passes through.
    """
    if spec is None or spec == "":
        return SingleBitModel()
    if isinstance(spec, FaultModel):
        return spec
    text = str(spec).strip()
    name, _, params_text = text.partition(":")
    name = name.strip().lower()
    try:
        factory = FAULT_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault model {name!r}; "
            f"registered: {sorted(set(FAULT_MODELS))}") from None
    kwargs = {}
    if params_text:
        for pair in params_text.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(
                    f"bad fault-model parameter {pair!r} in {text!r} "
                    f"(expected key=value)")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"fault-model parameter {key}={value!r} is not an "
                    f"integer") from None
    try:
        return factory(**kwargs)
    except TypeError:
        raise ConfigError(
            f"fault model {name!r} does not accept parameters "
            f"{sorted(kwargs)}") from None


# -- injection records -----------------------------------------------------

class InjectionRecord:
    """One injected fault."""

    __slots__ = ("injection_id", "cycle", "seg_id", "target", "bit",
                 "detail", "detect_cycle", "detect_reason", "model",
                 "bits", "permanent")

    def __init__(self, injection_id, cycle, seg_id, target, bit, detail,
                 model="single", bits=None, permanent=False):
        self.injection_id = injection_id
        self.cycle = cycle
        self.seg_id = seg_id
        self.target = target
        self.bit = bit
        self.detail = detail
        self.model = model
        self.bits = tuple(bits) if bits is not None else (bit,)
        self.permanent = permanent
        self.detect_cycle = None
        self.detect_reason = None

    @property
    def structure(self):
        """The per-structure coverage key (``runtime.addr``, ...)."""
        return self.target.value

    @property
    def detected(self):
        return self.detect_cycle is not None

    @property
    def latency_cycles(self):
        if not self.detected:
            return None
        return self.detect_cycle - self.cycle

    def __repr__(self):
        status = (f"detected +{self.latency_cycles}cyc" if self.detected
                  else "undetected")
        return (f"InjectionRecord(seg={self.seg_id}, {self.target.value}, "
                f"model={self.model}, bits={self.bits}, {status})")


class FaultInjector:
    """Randomized fault campaign under one :class:`FaultModel`.

    ``rate`` is the injection probability per forwarded packet.  At
    most one fault lands per segment, with a guard gap of
    ``segment_gap`` segments after each injection so a corrupted SRCP
    propagating into the following segment cannot be confused with a
    fresh fault.  A permanent (stuck-at) model arms exactly once and
    then forces its line on every later packet of the same structure.
    """

    def __init__(self, rng, rate=0.0, targets=None, segment_gap=1,
                 model=None):
        self.rng = rng
        self.rate = rate
        self.model = parse_fault_model(model)
        weights = parse_fault_targets(targets)
        self._targets = list(weights.keys())
        self._weights = [weights[t] for t in self._targets]
        self.segment_gap = segment_gap
        self.injections = []
        self._last_injected_seg = None
        #: Armed permanent lines: target -> (detail-kind, bits, level).
        self._stuck_lines = {}
        # The armed lines of each forwarding path, in target order,
        # rebuilt by _arm_stuck: the per-packet paths read these and
        # hash no FaultTarget (Enum hashing runs in Python).
        self._stuck_runtime = ()
        self._stuck_status = ()
        self._stuck_dcbuf = ()
        self._stuck_fabric = ()

    # -- target topology --------------------------------------------------

    @property
    def wants_dcbuf(self):
        """Whether the DC-Buffer payload hook should be installed."""
        return FaultTarget.DCBUF_RUNTIME in self._targets

    @property
    def wants_fabric(self):
        """Whether the fabric payload hook should be installed."""
        return FaultTarget.FABRIC_STATUS in self._targets

    # -- eligibility ----------------------------------------------------

    def _eligible(self, seg_id):
        if self.rate <= 0.0:
            return False
        if self.model.permanent and self._stuck_lines:
            return False  # a permanent fault arms exactly once
        if self._last_injected_seg is not None:
            if seg_id - self._last_injected_seg <= self.segment_gap:
                return False
        return self.rng.bernoulli(self.rate)

    def _record(self, cycle, seg_id, target, bits, detail):
        record = InjectionRecord(len(self.injections), cycle, seg_id,
                                 target, bits[0], detail,
                                 model=self.model.spec, bits=bits,
                                 permanent=self.model.permanent)
        self.injections.append(record)
        self._last_injected_seg = seg_id
        return record

    def _choose(self, candidates):
        """Weighted target choice among ``candidates`` (``None`` when
        the configured target set excludes them all — the caller must
        skip injection, never index an empty draw)."""
        if not candidates:
            return None
        if len(candidates) == 1:
            # A degenerate choice is still a draw in random.Random's
            # choices(), so keep the call for stream stability.
            pass
        return self.rng.choices(
            candidates,
            weights=[self._weights[self._targets.index(t)]
                     for t in candidates])[0]

    # -- stuck-at line machinery -------------------------------------------

    def _arm_stuck(self, target, kind, bits):
        """Register a permanent line so later packets keep the fault."""
        lines = self._stuck_lines
        lines[target] = (kind, bits, self.model.value)

        def armed(targets):
            return tuple(lines[t] for t in targets if t in lines)

        self._stuck_runtime = armed(_RUNTIME_TARGETS)
        self._stuck_status = armed(_STATUS_TARGETS)
        self._stuck_dcbuf = armed((FaultTarget.DCBUF_RUNTIME,))
        self._stuck_fabric = armed((FaultTarget.FABRIC_STATUS,))

    @staticmethod
    def _force_runtime(entry, lines):
        """Apply armed run-time stuck ``lines`` to ``entry``."""
        for kind, bits, level in lines:
            if kind == "addr":
                entry.addr = force_bits(entry.addr, bits, level)
            else:
                entry.data = force_bits(entry.data, bits, level)

    @staticmethod
    def _force_status(snapshot, lines):
        """Apply armed status stuck ``lines`` to ``snapshot``."""
        for kind, bits, level in lines:
            if kind == "pc":
                snapshot.pc = force_bits(snapshot.pc, bits, level)
            else:
                which, reg = kind
                regs = list(snapshot.int_regs if which == "int"
                            else snapshot.fp_regs)
                regs[reg] = force_bits(regs[reg], bits, level)
                if which == "int":
                    snapshot.int_regs = tuple(regs)
                else:
                    snapshot.fp_regs = tuple(regs)

    # -- injection points -------------------------------------------------

    def maybe_inject_runtime(self, entry, cycle, seg_id):
        """Possibly corrupt a run-time record at forward time."""
        if self._stuck_runtime:
            self._force_runtime(entry, self._stuck_runtime)
        if not self._eligible(seg_id):
            return None
        target = self._choose([t for t in self._targets
                               if t in _RUNTIME_TARGETS])
        if target is None:
            return None
        bits = self.model.plan_bits(self.rng, 64)
        if self.model.span > 1:
            # Correlated within the record: the same line crosses both
            # the address and the data word.
            entry.addr = self.model.apply(entry.addr, bits)
            entry.data = self.model.apply(entry.data, bits)
            detail = f"{entry.rkind.value}#{entry.seq}+addr+data"
        elif target is FaultTarget.RUNTIME_ADDR:
            entry.addr = self.model.apply(entry.addr, bits)
            detail = f"{entry.rkind.value}#{entry.seq}"
        else:
            entry.data = self.model.apply(entry.data, bits)
            detail = f"{entry.rkind.value}#{entry.seq}"
        if self.model.permanent:
            kind = "addr" if target is FaultTarget.RUNTIME_ADDR else "data"
            self._arm_stuck(target, kind, bits)
        return self._record(cycle, seg_id, target, bits, detail)

    def maybe_inject_status(self, snapshot, cycle, seg_id):
        """Possibly corrupt a status (RCP) packet at forward time.

        The same wire feeds the ERCP consumer and the next segment's
        SRCP consumer, so one flip corrupts both views.
        """
        if self._stuck_status:
            self._force_status(snapshot, self._stuck_status)
        if not self._eligible(seg_id):
            return None
        target = self._choose([t for t in self._targets
                               if t in _STATUS_TARGETS])
        if target is None:
            return None
        bits = self.model.plan_bits(self.rng, 64)
        if target is FaultTarget.STATUS_INT_REG:
            reg = self.rng.randint(0, 31)
            detail = self._corrupt_regs(snapshot, "int", reg, bits)
        elif target is FaultTarget.STATUS_FP_REG:
            reg = self.rng.randint(0, 31)
            detail = self._corrupt_regs(snapshot, "fp", reg, bits)
        else:
            # Corrupt plausible instruction-address bits so the flip
            # lands inside the 32-bit PC space.
            bits = self.model.plan_pc_bits(self.rng)
            snapshot.pc = self.model.apply(snapshot.pc, bits)
            detail = "pc"
            if self.model.permanent:
                self._arm_stuck(target, "pc", bits)
        return self._record(cycle, seg_id, target, bits, detail)

    def _corrupt_regs(self, snapshot, which, reg, bits):
        """Corrupt ``span`` adjacent registers starting at ``reg``."""
        regs = list(snapshot.int_regs if which == "int"
                    else snapshot.fp_regs)
        span = min(self.model.span, len(regs) - reg)
        for offset in range(span):
            regs[reg + offset] = self.model.apply(regs[reg + offset], bits)
        if which == "int":
            snapshot.int_regs = tuple(regs)
            prefix = "x"
            target = FaultTarget.STATUS_INT_REG
        else:
            snapshot.fp_regs = tuple(regs)
            prefix = "f"
            target = FaultTarget.STATUS_FP_REG
        if self.model.permanent:
            self._arm_stuck(target, (which, reg), bits)
        if span > 1:
            return f"{prefix}{reg}..{prefix}{reg + span - 1}"
        return f"{prefix}{reg}"

    def maybe_inject_dcbuf(self, entry, cycle, seg_id):
        """Possibly corrupt a run-time record waiting in the DC-Buffer.

        Reached through the :class:`~repro.fabric.dcbuffer.DcBufferModel`
        fault hook — the record was already captured correctly by the
        DEU; the upset happens while it sits buffered for the fabric.
        """
        if self._stuck_dcbuf:
            self._force_runtime(entry, self._stuck_dcbuf)
        if not self._eligible(seg_id):
            return None
        target = self._choose([t for t in self._targets
                               if t is FaultTarget.DCBUF_RUNTIME])
        if target is None:
            return None
        bits = self.model.plan_bits(self.rng, 64)
        field = "addr" if self.rng.bernoulli(0.5) else "data"
        if self.model.span > 1:
            entry.addr = self.model.apply(entry.addr, bits)
            entry.data = self.model.apply(entry.data, bits)
            detail = f"dcbuf:{entry.rkind.value}#{entry.seq}+addr+data"
        elif field == "addr":
            entry.addr = self.model.apply(entry.addr, bits)
            detail = f"dcbuf:{entry.rkind.value}#{entry.seq}.addr"
        else:
            entry.data = self.model.apply(entry.data, bits)
            detail = f"dcbuf:{entry.rkind.value}#{entry.seq}.data"
        if self.model.permanent:
            self._arm_stuck(target, field, bits)
        return self._record(cycle, seg_id, target, bits, detail)

    def maybe_inject_fabric(self, packet, cycle):
        """Possibly corrupt a status checkpoint traversing the fabric.

        Reached through the :class:`~repro.fabric.base.ForwardingFabric`
        fault hook; corrupts one register lane of the in-flight
        :class:`~repro.fabric.packets.StatusSnapshot` payload.
        """
        snapshot = packet.payload
        if snapshot is None or not hasattr(snapshot, "int_regs"):
            return None
        if self._stuck_fabric:
            self._force_status(snapshot, self._stuck_fabric)
        seg_id = packet.seg_id
        if not self._eligible(seg_id):
            return None
        target = self._choose([t for t in self._targets
                               if t is FaultTarget.FABRIC_STATUS])
        if target is None:
            return None
        bits = self.model.plan_bits(self.rng, 64)
        reg = self.rng.randint(0, 31)
        regs = list(snapshot.int_regs)
        span = min(self.model.span, len(regs) - reg)
        for offset in range(span):
            regs[reg + offset] = self.model.apply(regs[reg + offset], bits)
        snapshot.int_regs = tuple(regs)
        if self.model.permanent:
            self._arm_stuck(target, ("int", reg), bits)
        detail = (f"fabric:x{reg}" if span == 1
                  else f"fabric:x{reg}..x{reg + span - 1}")
        return self._record(cycle, seg_id, target, bits, detail)

    # -- resolution --------------------------------------------------------

    def resolve_detections(self, detections):
        """Match detection events to injections.

        ``detections`` is a list of ``(seg_id, cycle, reason)``.  A
        detection matches the injection in the same or the following
        segment (a corrupted boundary RCP is both an ERCP and an
        SRCP).  A *permanent* fault keeps corrupting later segments,
        so any detection at or after its arming cycle matches.
        """
        events = sorted(detections, key=lambda d: d[1])
        used = set()
        for record in self.injections:
            for i, (seg_id, cycle, reason) in enumerate(events):
                if i in used:
                    continue
                if cycle < record.cycle:
                    continue
                if (record.permanent
                        or seg_id in (record.seg_id, record.seg_id + 1)):
                    record.detect_cycle = cycle
                    record.detect_reason = reason
                    used.add(i)
                    break
        return self.injections

    # -- summaries -----------------------------------------------------------

    @property
    def detected_count(self):
        return sum(1 for r in self.injections if r.detected)

    def latencies_cycles(self):
        return [r.latency_cycles for r in self.injections if r.detected]
