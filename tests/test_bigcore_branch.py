"""Unit tests for the TAGE-style branch predictor."""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.bigcore.branch import BranchPredictor, xor_fold_expr
from repro.common.bitops import mask
from repro.common.config import BigCoreConfig
from repro.common.prng import DeterministicRng


def make_predictor():
    return BranchPredictor(BigCoreConfig())


class TestDirectionPrediction:
    def test_learns_always_taken(self):
        p = make_predictor()
        outcomes = [p.predict_and_update(0x1000, True, target=0x2000)
                    for _ in range(50)]
        # After warmup, the branch is predicted correctly.
        assert outcomes[-10:] == ["correct"] * 10

    def test_learns_always_not_taken(self):
        p = make_predictor()
        outcomes = [p.predict_and_update(0x1000, False) for _ in range(50)]
        assert outcomes[-10:] == ["correct"] * 10

    def test_learns_short_pattern(self):
        # T T T N repeating: the tagged tables capture it.
        p = make_predictor()
        outcomes = []
        for i in range(400):
            taken = (i % 4) != 3
            outcomes.append(p.predict_and_update(0x1000, taken,
                                                 target=0x2000 if taken
                                                 else None))
        tail = outcomes[-100:]
        accuracy = tail.count("correct") / len(tail)
        assert accuracy > 0.9

    def test_random_stream_mispredicts(self):
        import random
        rng = random.Random(1)
        p = make_predictor()
        mispredicts = 0
        for _ in range(600):
            taken = rng.random() < 0.5
            out = p.predict_and_update(0x1000, taken,
                                       target=0x2000 if taken else None)
            mispredicts += out == "mispredict"
        # Should hover near 50%; definitely not learnable.
        assert mispredicts > 150

    def test_independent_sites(self):
        p = make_predictor()
        for _ in range(60):
            p.predict_and_update(0x1000, True, target=0x2000)
            p.predict_and_update(0x3000, False)
        assert p.predict_and_update(0x1000, True, target=0x2000) == "correct"
        assert p.predict_and_update(0x3000, False) == "correct"


class TestBtb:
    def test_cold_taken_branch_is_bubble_not_mispredict(self):
        p = make_predictor()
        # Train direction first with the same target so the direction
        # is right but the BTB is evicted.
        for _ in range(10):
            p.predict_and_update(0x1000, True, target=0x2000)
        # Thrash the BTB with many other branches.
        for i in range(BigCoreConfig().btb_entries + 10):
            p.predict_and_update(0x100000 + i * 8, True,
                                 target=0x200000 + i * 8)
        outcome = p.predict_and_update(0x1000, True, target=0x2000)
        assert outcome == "btb_bubble"

    def test_btb_capacity_enforced(self):
        p = make_predictor()
        for i in range(600):
            p.predict_and_update(0x1000 + i * 8, True, target=0x2000)
        assert len(p._btb) <= BigCoreConfig().btb_entries


class TestRas:
    def test_call_return_pairs(self):
        p = make_predictor()
        p.predict_call(0x1000, 0x1004)
        assert p.predict_return(0x5000, 0x1004)

    def test_nested_calls(self):
        p = make_predictor()
        p.predict_call(0x1000, 0x1004)
        p.predict_call(0x2000, 0x2004)
        assert p.predict_return(0x6000, 0x2004)
        assert p.predict_return(0x7000, 0x1004)

    def test_wrong_return_mispredicts(self):
        p = make_predictor()
        p.predict_call(0x1000, 0x1004)
        assert not p.predict_return(0x5000, 0x9999)
        assert p.ras_mispredicts == 1

    def test_empty_ras_mispredicts(self):
        p = make_predictor()
        assert not p.predict_return(0x5000, 0x1004)

    def test_ras_overflow_drops_oldest(self):
        config = BigCoreConfig()
        p = BranchPredictor(config)
        for i in range(config.ras_entries + 5):
            p.predict_call(0x1000 + 8 * i, 0x1004 + 8 * i)
        # The newest return addresses still predict correctly.
        assert p.predict_return(0x5000,
                                0x1004 + 8 * (config.ras_entries + 4))


class TestIndirect:
    def test_learns_stable_target(self):
        p = make_predictor()
        p.predict_indirect(0x1000, 0x4000)
        assert p.predict_indirect(0x1000, 0x4000)

    def test_changed_target_mispredicts(self):
        p = make_predictor()
        p.predict_indirect(0x1000, 0x4000)
        assert not p.predict_indirect(0x1000, 0x5000)


class TestStats:
    def test_rate_computation(self):
        p = make_predictor()
        for _ in range(10):
            p.predict_and_update(0x1000, True, target=0x2000)
        stats = p.stats()
        assert stats["branches"] == 10
        assert 0.0 <= stats["mispredict_rate"] <= 1.0


class TestFolds:
    """The XOR-of-shifts folds against the reference ``_fold`` loop."""

    FOLDS = {(width, length): eval(
                 f"lambda v: {xor_fold_expr('v', width, length)}")
             for width in (8, 9, 10, 12) for length in (2, 4, 8, 16, 32, 64)}

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_xor_fold_expr_matches_reference_fold(self, value):
        # Index widths (the default 10 and others) and the 8-bit tag, at
        # every history length the tables use and for 64-bit words.
        for (width, length), fold in self.FOLDS.items():
            masked = value & mask(length)
            assert fold(masked) == BranchPredictor._fold(masked, width), \
                (width, length)

    @staticmethod
    def reference_direction(p, pc):
        """The longest-match scan written with ``_fold`` loops."""
        fold = BranchPredictor._fold
        for table in range(len(p._tables) - 1, -1, -1):
            hist = p._history & mask(p._history_lengths[table])
            index = (fold(pc >> 2, p._table_bits) ^ fold(hist, p._table_bits)
                     ^ table) & mask(p._table_bits)
            entry = p._tables[table].get(index)
            if entry is not None and entry.tag == (
                    fold(pc >> 2, 8) ^ fold(hist, 8) ^ (table << 1)) & 0xFF:
                return entry.counter >= 4, table, index
        return p._base.get((pc >> 2) & mask(p.BASE_BITS), 2) >= 2, None, None

    def test_unrolled_scan_matches_reference(self):
        """On trained predictors of several shapes (8 tables cap the
        history at 64 bits), every prediction equals the reference
        scan's, tagged-table hits included."""
        rng = DeterministicRng("tage-scan")
        for tables, table_bits in ((6, 10), (4, 9), (8, 12)):
            config = replace(BigCoreConfig(), tage_tables=tables)
            p = BranchPredictor(config, table_bits=table_bits)
            providers = set()
            pcs = [0x1000 + 4 * rng.randint(0, 1 << 20) for _ in range(16)]
            pcs.append((1 << 64) - 4)
            for step in range(3_000):
                pc = pcs[rng.randint(0, len(pcs) - 1)]
                expected = self.reference_direction(p, pc)
                assert p._predict_direction(pc, p._history) == expected
                providers.add(expected[1])
                taken = rng.bernoulli(0.3 if pc & 8 else 0.8)
                p.predict_and_update(pc, taken,
                                     target=pc + 64 if taken else None)
            assert len(providers) > 2, "no tagged table ever provided"
