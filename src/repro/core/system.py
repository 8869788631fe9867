"""The full MEEK system: big core + little cores + fabric + controller.

:class:`MeekSystem` assembles everything from a
:class:`~repro.common.config.MeekConfig`, runs a program, and returns a
:class:`MeekRunResult` with the big-core timing, segment/stall/fault
statistics, and (for campaigns) detection-latency samples.  A matching
:func:`run_vanilla` executes the same program on an unmodified big core
— the denominator of every slowdown number in the paper.
"""

from repro.bigcore.core import BigCore
from repro.common.clock import Clock, ClockDomain
from repro.common.config import default_meek_config
from repro.core.controller import MeekController, StallReason
from repro.fabric.base import build_fabric
from repro.isa.state import ArchState
from repro.littlecore.msu import Mode, ModeSwitchUnit
from repro.littlecore.pipeline import LittleCorePipeline


class MeekRunResult:
    """Everything one MEEK execution produced."""

    def __init__(self, big_result, controller, drain_cycle, injector,
                 frequency_hz):
        self.big = big_result
        self.controller = controller
        self.drain_cycle = drain_cycle
        self.injector = injector
        self.frequency_hz = frequency_hz

    @property
    def cycles(self):
        """Big-core cycles to commit the whole program (the paper's
        slowdown metric measures the big core, not the drain)."""
        return self.big.cycles

    @property
    def instructions(self):
        return self.big.instructions

    @property
    def segments(self):
        return self.controller.segments

    @property
    def verdicts(self):
        return self.controller.verdicts

    @property
    def detections(self):
        return self.controller.detections

    @property
    def all_segments_verified(self):
        return all(v.ok for v in self.controller.verdicts)

    def stall_cycles(self, reason=None):
        if reason is None:
            return self.controller.total_stall_cycles()
        return self.controller.stall_cycles[reason]

    def cycles_to_ns(self, cycles):
        return cycles * 1e9 / self.frequency_hz

    def detection_latencies_ns(self):
        """Injection-to-detection latencies, in nanoseconds."""
        if self.injector is None:
            return []
        return [self.cycles_to_ns(c)
                for c in self.injector.latencies_cycles()]

    def stats(self):
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.big.ipc,
            "drain_cycle": self.drain_cycle,
            # Fault outcomes ride along (zero without an injector) so
            # campaign rows carry them without reaching into the
            # injector object.
            "injections": (len(self.injector.injections)
                           if self.injector is not None else 0),
            "detected": (self.injector.detected_count
                         if self.injector is not None else 0),
            "controller": self.controller.stats(),
        }

    def __repr__(self):
        return (f"MeekRunResult({self.instructions} instrs, "
                f"{self.cycles} cycles, {len(self.segments)} segments)")


class MeekSystem:
    """One MEEK SoC instance.

    Build a fresh system per run: caches, predictor and fabric state are
    warm run state, exactly as a FireSim trial boots a fresh image.
    ``hierarchy`` is the big core's memory hierarchy, built from the
    config when omitted.
    """

    def __init__(self, config=None, injector=None, hierarchy=None):
        self.config = config if config is not None else default_meek_config()
        self.injector = injector
        big = ClockDomain("big", self.config.big_core.frequency_hz)
        little = ClockDomain("little", self.config.little_core.frequency_hz)
        self.clock = Clock(big, [little])
        ratio = self.clock.ratio("little")
        self.big_core = BigCore(self.config.big_core, hierarchy)
        self.pipelines = [
            LittleCorePipeline(self.config.little_core, clock_ratio=ratio)
            for _ in range(self.config.num_little_cores)]
        self.msus = [ModeSwitchUnit(core_id=i)
                     for i in range(self.config.num_little_cores)]
        self.fabric = build_fabric(self.config.fabric,
                                   self.config.num_little_cores,
                                   clock_ratio=ratio)
        self.controller = None

    def hook_little_cores(self, big_core_id=0):
        """Model Algorithm 1's ``b.hook`` loop: reserve every little
        core for this big core and put it in check mode."""
        for msu in self.msus:
            msu.hook(big_core_id)
            msu.set_mode(Mode.CHECK)

    def attach(self, program, state, cycle=0):
        """Hook the little cores and stand up an initialized controller
        observing ``state``.

        The front half of :meth:`run`, split out so the batched kernel
        (:mod:`repro.perf.batch`) can assemble per-lane systems around
        a shared architectural state through the exact same path.
        """
        self.hook_little_cores()
        self.controller = MeekController(
            self.config, program, state, self.fabric, self.pipelines,
            injector=self.injector)
        self.controller.initialize(cycle=cycle)
        return self.controller

    def finish(self, big_result):
        """Drain the controller and package a :class:`MeekRunResult` —
        the back half of :meth:`run`."""
        drain = self.controller.finalize(big_result.cycles)
        if self.injector is not None:
            self.injector.resolve_detections(self.controller.detections)
        return MeekRunResult(big_result, self.controller, drain,
                             self.injector,
                             self.config.big_core.frequency_hz)

    def run(self, program, max_instructions=None):
        """Execute ``program`` under MEEK checking."""
        state = ArchState(pc=program.entry_pc)
        program.data.apply(state.memory)
        self.attach(program, state)
        try:
            big_result = self.big_core.run(
                program, max_instructions=max_instructions,
                commit_hook=self.controller.commit_hook,
                initial_state=state)
            return self.finish(big_result)
        finally:
            # A run that unwinds (an error, the per-point timeout)
            # leaves no memo recording in flight; after finish() there
            # is none left to retire.
            self.controller.abandon_recording()


def run_vanilla(program, big_config=None, max_instructions=None):
    """Run ``program`` on an unmodified big core (no MEEK attached)."""
    core = BigCore(big_config)
    return core.run(program, max_instructions=max_instructions)


def slowdown(meek_result, vanilla_result):
    """The paper's slowdown metric: MEEK cycles over vanilla cycles."""
    if vanilla_result.cycles == 0:
        return 1.0
    return meek_result.cycles / vanilla_result.cycles
