"""Branch prediction: a TAGE-style predictor with BTB and RAS.

Table II specifies "TAGE algorithm, 256-entry BTB, 32-entry RAS, 6 TAGE
tables with 2 - 64 bits history".  This is a faithful small TAGE: a
bimodal base predictor plus tagged tables with geometrically growing
history lengths; the longest matching tagged entry provides the
prediction, with standard useful-bit guided allocation on mispredicts.

Because the simulator executes functionally at commit, the predictor is
consulted with the *true* outcome available: the timing model asks
"would you have predicted this correctly?" and charges the redirect
penalty when the answer is no.
"""

from repro.common.bitops import mask

#: Global history register width (Table II: up to 64 bits).
_HISTORY_MASK = mask(64)


def xor_fold_expr(name, width, length):
    """Source of ``BranchPredictor._fold(name, width)`` for ``0 <= name
    < 2**length``: the XOR of the value shifted by every multiple of
    ``width`` below ``length``, masked once (no mask when the value
    already fits in ``width`` bits)."""
    terms = " ^ ".join([name] + [f"({name} >> {shift})"
                                 for shift in range(width, length, width)])
    if length > width:
        return f"({terms}) & {(1 << width) - 1}"
    return terms


_direction_makers = {}


def _direction_maker(table_bits, lengths):
    """A maker for the longest-match TAGE scan, unrolled over the
    tables with every fold inlined as :func:`xor_fold_expr` (PCs and
    history are at most 64 bits).  ``maker(tables, base, base_mask)``
    returns ``direction(pc, history) -> (taken?, provider table or
    None, provider index)``."""
    key = (table_bits, tuple(lengths))
    maker = _direction_makers.get(key)
    if maker is not None:
        return maker
    index_mask = (1 << table_bits) - 1
    lines = [
        "def maker(tables, base, base_mask):",
        f"    ({''.join(f'T{t}, ' for t in range(len(lengths)))}) = tables",
        "    def direction(pc, history):",
        "        word = pc >> 2",
        f"        pc_index = {xor_fold_expr('word', table_bits, 64)}",
        f"        pc_tag = {xor_fold_expr('word', 8, 64)}",
    ]
    for table in reversed(range(len(lengths))):
        length = lengths[table]
        lines += [
            f"        hist = history & {(1 << length) - 1}",
            f"        index = (pc_index ^ "
            f"{xor_fold_expr('hist', table_bits, length)} ^ {table})"
            f" & {index_mask}",
            f"        entry = T{table}.get(index)",
            "        if entry is not None and entry.tag == ("
            f"pc_tag ^ {xor_fold_expr('hist', 8, length)} ^ {table << 1})"
            " & 0xFF:",
            f"            return entry.counter >= 4, {table}, index",
        ]
    lines += [
        "        counter = base.get(word & base_mask, 2)",
        "        return counter >= 2, None, None",
        "    return direction",
    ]
    namespace = {}
    exec("\n".join(lines), namespace)
    maker = _direction_makers[key] = namespace["maker"]
    return maker


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self, tag=0, counter=4, useful=0):
        self.tag = tag
        self.counter = counter  # 3-bit: >=4 predicts taken
        self.useful = useful


class BranchPredictor:
    """TAGE + BTB + RAS, sized from a :class:`BigCoreConfig`."""

    BASE_BITS = 12  # 4096-entry bimodal base table

    def __init__(self, config, table_bits=10):
        self.config = config
        self._base = {}
        num_tables = config.tage_tables
        # Geometric history lengths from 2 to 64 bits (Table II).
        self._history_lengths = []
        length = 2
        for _ in range(num_tables):
            self._history_lengths.append(min(length, 64))
            length *= 2
        self._tables = [{} for _ in range(num_tables)]
        self._table_bits = table_bits
        # Precomputed masks: the folds below run once or twice per
        # committed branch, so per-call mask() construction is pure
        # hot-path waste.
        self._index_mask = mask(table_bits)
        self._base_mask = mask(self.BASE_BITS)
        self._history_masks = [mask(length)
                               for length in self._history_lengths]
        #: ``(pc, history) -> (taken?, provider table or None, index)``.
        self._predict_direction = _direction_maker(
            table_bits, self._history_lengths)(
                self._tables, self._base, self._base_mask)
        self._history = 0
        self._btb = {}
        self._btb_order = []
        self._ras = []
        # Statistics.
        self.branches = 0
        self.mispredicts = 0
        self.btb_misses = 0
        self.ras_mispredicts = 0

    # -- internals ---------------------------------------------------

    @staticmethod
    def _fold(value, bits):
        """XOR of ``value``'s ``bits``-bit words (the reference for
        :func:`xor_fold_expr`)."""
        folded = 0
        chunk = (1 << bits) - 1
        while value:
            folded ^= value & chunk
            value >>= bits
        return folded

    def _index(self, pc, table):
        hist = self._history & self._history_masks[table]
        return (self._fold(pc >> 2, self._table_bits)
                ^ self._fold(hist, self._table_bits)
                ^ table) & self._index_mask

    def _tag(self, pc, table):
        hist = self._history & self._history_masks[table]
        return (self._fold(pc >> 2, 8) ^ self._fold(hist, 8)
                ^ (table << 1)) & 0xFF

    def _base_index(self, pc):
        return (pc >> 2) & self._base_mask

    # -- public API ----------------------------------------------------

    def predict_and_update(self, pc, taken, target=None):
        """Consult and train the predictor for a conditional branch.

        Returns the redirect class:

        * ``"correct"`` — direction predicted, target known;
        * ``"btb_bubble"`` — direction correct but the BTB missed; the
          decode stage computes the direct target and redirects with a
          short front-end bubble, not a full flush;
        * ``"mispredict"`` — wrong direction, full pipeline redirect at
          branch resolution.
        """
        self.branches += 1
        predicted_taken, provider, index = self._predict_direction(
            pc, self._history)
        correct = predicted_taken == taken

        outcome = "correct" if correct else "mispredict"
        # A direction-correct taken branch still needs a target; on a
        # BTB miss the decode stage redirects (cheap, direct target).
        if taken and correct and target is not None:
            if self._btb.get(pc) != target:
                self.btb_misses += 1
                outcome = "btb_bubble"

        self._train(pc, taken, provider, index, predicted_taken)
        if taken and target is not None:
            self._btb_insert(pc, target)
        self._push_history(taken)
        if outcome == "mispredict":
            self.mispredicts += 1
        return outcome

    def predict_call(self, pc, return_address):
        """A call (jal/jalr with link): push the RAS, always predicted."""
        if len(self._ras) >= self.config.ras_entries:
            self._ras.pop(0)
        self._ras.append(return_address)
        self._push_history(True)
        return True

    def predict_return(self, pc, target):
        """A return (jalr through ra): pop the RAS and compare."""
        self.branches += 1
        predicted = self._ras.pop() if self._ras else None
        self._push_history(True)
        if predicted != target:
            self.ras_mispredicts += 1
            self.mispredicts += 1
            return False
        return True

    def predict_indirect(self, pc, target):
        """An indirect jump: predicted through the BTB."""
        self.branches += 1
        correct = self._btb.get(pc) == target
        self._btb_insert(pc, target)
        self._push_history(True)
        if not correct:
            self.btb_misses += 1
            self.mispredicts += 1
        return correct

    @property
    def mispredict_rate(self):
        if not self.branches:
            return 0.0
        return self.mispredicts / self.branches

    def stats(self):
        return {
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "mispredict_rate": self.mispredict_rate,
            "btb_misses": self.btb_misses,
            "ras_mispredicts": self.ras_mispredicts,
        }

    # -- training ------------------------------------------------------

    def _push_history(self, taken):
        self._history = ((self._history << 1) | int(taken)) & _HISTORY_MASK

    def _btb_insert(self, pc, target):
        if pc not in self._btb and len(self._btb) >= self.config.btb_entries:
            victim = self._btb_order.pop(0)
            self._btb.pop(victim, None)
        if pc not in self._btb:
            self._btb_order.append(pc)
        self._btb[pc] = target

    def _train(self, pc, taken, provider, index, predicted_taken):
        if provider is not None:
            entry = self._tables[provider][index]
            if taken and entry.counter < 7:
                entry.counter += 1
            elif not taken and entry.counter > 0:
                entry.counter -= 1
            if predicted_taken == taken:
                entry.useful = min(3, entry.useful + 1)
        else:
            base_index = self._base_index(pc)
            counter = self._base.get(base_index, 2)
            if taken and counter < 3:
                counter += 1
            elif not taken and counter > 0:
                counter -= 1
            self._base[base_index] = counter

        # On a mispredict, allocate in a longer-history table.
        if predicted_taken != taken:
            start = (provider + 1) if provider is not None else 0
            for table in range(start, len(self._tables)):
                new_index = self._index(pc, table)
                existing = self._tables[table].get(new_index)
                if existing is None or existing.useful == 0:
                    self._tables[table][new_index] = _TaggedEntry(
                        tag=self._tag(pc, table),
                        counter=4 if taken else 3)
                    break
                existing.useful -= 1
