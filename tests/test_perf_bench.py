"""Benchmark harness tests: perf-floor smoke, regression logic, and
``repro bench`` CLI acceptance.

The floor tests (marked ``bench``) are canaries for *catastrophic*
slowdowns: thresholds sit far below what any supported machine
delivers (the committed ``BENCH_perf.json`` records >100k MEEK
instrs/sec; the floors are 25-50x lower), so they only trip when a
change fundamentally breaks the fast kernel — which should fail CI
loudly rather than surface as a mysteriously slow suite.
"""

import json
import time

import pytest

from repro.cli import main
from repro.perf.bench import run_bench
from repro.perf.regress import (Violation, check_regression, load_baseline,
                                write_result)


def _throughput(fn, instructions):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return instructions / best


@pytest.fixture(scope="module")
def swaptions_program():
    from repro.workloads import generate_program, get_profile
    return generate_program(get_profile("swaptions"),
                            dynamic_instructions=8_000, seed=0)


@pytest.mark.bench
def test_perf_floor_golden_model(swaptions_program):
    from repro.difftest.golden import run_golden
    rate = _throughput(lambda: run_golden(swaptions_program), 8_000)
    assert rate > 50_000, (
        f"golden model sustained only {rate:,.0f} instrs/s — the fast "
        "kernel has catastrophically regressed")


@pytest.mark.bench
def test_perf_floor_meek_system(swaptions_program):
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem
    config = default_meek_config(num_little_cores=4)
    rate = _throughput(
        lambda: MeekSystem(config).run(swaptions_program), 8_000)
    assert rate > 4_000, (
        f"MEEK end-to-end sustained only {rate:,.0f} instrs/s — the "
        "checked-execution path has catastrophically regressed")


@pytest.mark.bench
def test_perf_floor_vanilla_big_core(swaptions_program):
    from repro.core.system import run_vanilla
    rate = _throughput(lambda: run_vanilla(swaptions_program), 8_000)
    assert rate > 10_000, (
        f"vanilla big core sustained only {rate:,.0f} instrs/s")


# -- regression-harness logic ------------------------------------------------

def _fake_result(rate=100_000.0, speedup=2.0):
    from repro.perf.bench import BENCH_SCHEMA
    return {
        "schema": BENCH_SCHEMA,
        "config": {"instructions": 1000},
        "workloads": {
            "swaptions": {
                "meek": {"wall_s": 0.01, "instructions": 1000,
                         "instrs_per_s": rate},
            },
        },
        "figures": {},
        "kernels": {"workload": "swaptions", "meek_speedup": speedup,
                    "vanilla_speedup": speedup},
    }


class TestCheckRegression:
    def test_identical_results_pass(self):
        base = _fake_result()
        assert check_regression(base, base) == []

    def test_within_tolerance_passes(self):
        base = _fake_result(rate=100_000)
        current = _fake_result(rate=60_000)
        assert check_regression(current, base, tolerance=0.5) == []

    def test_throughput_drop_flagged(self):
        base = _fake_result(rate=100_000)
        current = _fake_result(rate=40_000)
        violations = check_regression(current, base, tolerance=0.5)
        assert len(violations) == 1
        assert "swaptions/meek" in str(violations[0])

    def test_missing_workload_flagged(self):
        base = _fake_result()
        current = _fake_result()
        current["workloads"] = {}
        assert check_regression(current, base)

    def test_kernel_speedup_drop_flagged(self):
        base = _fake_result(speedup=2.0)
        current = _fake_result(speedup=0.9)
        violations = check_regression(current, base, kernel_tolerance=0.25)
        names = [v.metric for v in violations]
        assert "kernels/meek_speedup" in names

    def test_kernel_floor_never_below_one(self):
        # Even with a huge tolerance, dropping below parity with the
        # naive loop is always a regression.
        base = _fake_result(speedup=1.2)
        current = _fake_result(speedup=0.95)
        assert check_regression(current, base, kernel_tolerance=0.9)

    def test_violation_repr(self):
        violation = Violation("m", 100.0, 10.0, 50.0)
        assert "below floor" in str(violation)

    def test_warm_path_ratio_drop_flagged(self):
        base = _fake_result()
        base["warm_start"] = {"warm_speedup": 2.0}
        current = _fake_result()
        current["warm_start"] = {"warm_speedup": 0.8}
        violations = check_regression(current, base, kernel_tolerance=0.5)
        assert "warm_start/warm_speedup" in [v.metric for v in violations]

    def test_skipped_warm_sections_not_flagged(self):
        """--skip-warm-start/--skip-campaign runs leave the sections
        None; --check must treat that as unmeasured, not regressed."""
        base = _fake_result()
        base["warm_start"] = {"warm_speedup": 2.0}
        base["batch"] = {"batch_speedup": 2.0}
        base["campaign"] = {"pool_speedup": 1.5}
        current = _fake_result()  # sections absent entirely
        current["warm_start"] = None
        assert check_regression(current, base) == []


class TestBaselineIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        result = _fake_result()
        write_result(result, path)
        assert load_baseline(path) == result

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        result = _fake_result()
        result["schema"] = 99
        path.write_text(json.dumps(result))
        with pytest.raises(ValueError):
            load_baseline(path)


# -- CLI acceptance ----------------------------------------------------------

_BENCH_SECTIONS_ARGS = ["bench", "--workloads", "mcf", "--instructions",
                        "1500", "--repeat", "1", "--skip-figures",
                        "--skip-kernels", "--skip-warm-start",
                        "--skip-campaign"]
#: The --check tests exercise the check logic, not the batch kernel:
#: its section is ~95% of a bench run.  test_bench_writes_result keeps
#: running it.
_BENCH_ARGS = _BENCH_SECTIONS_ARGS + ["--skip-batch-kernel"]


def _scale_baseline(path, factor):
    """Multiply every recorded instrs_per_s in the baseline file."""
    baseline = json.loads(path.read_text())
    for systems in baseline["workloads"].values():
        for metrics in systems.values():
            metrics["instrs_per_s"] *= factor
    path.write_text(json.dumps(baseline))


@pytest.mark.bench
class TestBenchCli:
    def test_bench_writes_result(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_perf.json")
        assert main(_BENCH_SECTIONS_ARGS + ["--out", out]) == 0
        text = capsys.readouterr().out
        assert "Simulation throughput" in text
        assert "batch kernel (mcf" in text
        written = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert written["workloads"]["mcf"]["meek"]["instrs_per_s"] > 0
        assert written["batch_kernel"]["batch_speedup"] > 0

    def test_bench_check_passes_against_own_baseline(self, tmp_path,
                                                     capsys):
        """The passing side of --check.  The baseline is deflated, the
        mirror of the inflated-baseline test, so two single-sample
        wall clocks are never compared against each other."""
        out = tmp_path / "BENCH_perf.json"
        assert main(_BENCH_ARGS + ["--out", str(out)]) == 0
        _scale_baseline(out, 1 / 1_000)
        code = main(_BENCH_ARGS + ["--out", "", "--baseline", str(out),
                                   "--check", "--tolerance", "0.9"])
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_passing_check_leaves_baseline_untouched(self, tmp_path):
        """--check is read-only on the baseline even when it passes —
        otherwise each run ratchets the floor down by the tolerance."""
        out = tmp_path / "BENCH_perf.json"
        assert main(_BENCH_ARGS + ["--out", str(out)]) == 0
        _scale_baseline(out, 1 / 1_000)
        before = out.read_text()
        code = main(_BENCH_ARGS + ["--out", str(out), "--baseline",
                                   str(out), "--check", "--tolerance",
                                   "0.9"])
        assert code == 0
        assert out.read_text() == before

    def test_bench_check_fails_on_inflated_baseline(self, tmp_path,
                                                    capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(_BENCH_ARGS + ["--out", str(out)]) == 0
        _scale_baseline(out, 1_000)
        code = main(_BENCH_ARGS + ["--out", "", "--baseline", str(out),
                                   "--check"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_check_missing_baseline_is_usage_error(self, tmp_path):
        code = main(_BENCH_ARGS + ["--out", "", "--check", "--baseline",
                                   str(tmp_path / "nope.json")])
        assert code == 2

    def test_failed_check_never_overwrites_its_own_baseline(self,
                                                            tmp_path):
        """Regression: --check + --out on the same file must not
        launder a regression into the new baseline."""
        out = tmp_path / "BENCH_perf.json"
        assert main(_BENCH_ARGS + ["--out", str(out)]) == 0
        _scale_baseline(out, 1_000)
        before = out.read_text()
        code = main(_BENCH_ARGS + ["--out", str(out), "--baseline",
                                   str(out), "--check"])
        assert code == 1
        assert out.read_text() == before, "baseline was overwritten"


def test_run_bench_kernel_consistency_guard():
    """run_bench's kernel A/B asserts cycle equality between kernels —
    the bench itself is an equivalence check."""
    result = run_bench(workloads=("mcf",), instructions=1_200, repeat=1,
                       figures=(), kernels=True, batch_kernel=False)
    kernels = result["kernels"]
    assert kernels["fast_meek_s"] > 0 and kernels["slow_meek_s"] > 0
    assert kernels["meek_speedup"] == (kernels["slow_meek_s"]
                                       / kernels["fast_meek_s"])


def test_batch_kernel_bench_times_warm_memo_batches(monkeypatch):
    """Every timed batched rep runs on the memo the warm-up batch
    built: the memo-off scalar loop between them must not discard
    the warmed program, so each timed batch counts memo hits."""
    from repro.campaign import tasks
    from repro.obs.metrics import get_registry
    from repro.perf.bench import _bench_batch_kernel

    hits = []
    real = tasks.run_inject_batch

    def counted(points, campaign_name):
        counter = get_registry().counter("segmemo.hit")
        before = counter.value
        outcome = real(points, campaign_name)
        hits.append(counter.value - before)
        return outcome
    monkeypatch.setattr(tasks, "run_inject_batch", counted)
    tasks._PROGRAM_CACHE.clear()
    _bench_batch_kernel("swaptions", 8_000, 0, lanes=8, reps=2,
                        scalar_points=2)
    assert len(hits) == 3  # the warm-up batch, then one per rep
    assert all(count > 0 for count in hits[1:]), hits
