"""Per-structure detection-coverage maps.

A :class:`CoverageMap` counts, per ``(structure, fault-model)`` cell,
how many injected faults were detected vs. missed and how the
injection-to-detection latencies distribute over fixed buckets.  The
inject task folds each run's :class:`~repro.core.faults.InjectionRecord`
stream into one map, ships it as plain-JSON cells in the point metrics,
and the campaign layer merges cells across points — merging is
commutative integer addition, so serial, sharded (``--jobs N``),
serve-submitted and resumed campaigns all produce **byte-identical**
persisted coverage artifacts for the same point set.

The persisted form (``<store>.coverage.json``, written next to the
campaign's result store) is sorted-key JSON with no timestamps; the
``repro coverage`` report and the ``repro watch`` gauges both render
from it.
"""

import json

from repro.common.files import atomic_write

#: Upper edges (ns) of the latency buckets; the last bucket is open.
BUCKET_BOUNDS_NS = (100.0, 1_000.0, 10_000.0, 100_000.0)
BUCKET_LABELS = ("<100ns", "<1us", "<10us", "<100us", ">=100us")
NUM_BUCKETS = len(BUCKET_LABELS)

COVERAGE_SCHEMA = 1

#: Suffix appended to a result-store path to name its coverage map.
COVERAGE_SUFFIX = ".coverage.json"

__all__ = ["BUCKET_BOUNDS_NS", "BUCKET_LABELS", "COVERAGE_SUFFIX",
           "CoverageMap", "coverage_from_store", "coverage_path_for",
           "format_coverage", "load_coverage", "save_coverage"]


def coverage_path_for(store_path):
    """Where a campaign writing ``store_path`` persists its coverage."""
    return store_path + COVERAGE_SUFFIX


def latency_bucket(latency_ns):
    """Index of the bucket holding ``latency_ns``."""
    for i, bound in enumerate(BUCKET_BOUNDS_NS):
        if latency_ns < bound:
            return i
    return NUM_BUCKETS - 1


class CoverageMap:
    """Structure × fault-model detection-coverage counters."""

    def __init__(self):
        # (structure, model) -> [detected, undetected, [bucket counts]]
        self._cells = {}

    def _cell(self, structure, model):
        key = (str(structure), str(model))
        cell = self._cells.get(key)
        if cell is None:
            cell = [0, 0, [0] * NUM_BUCKETS]
            self._cells[key] = cell
        return cell

    # -- ingestion ---------------------------------------------------------

    def observe(self, structure, model, detected, latency_ns=None):
        """Count one injection outcome."""
        cell = self._cell(structure, model)
        if detected:
            cell[0] += 1
            if latency_ns is not None:
                cell[2][latency_bucket(latency_ns)] += 1
        else:
            cell[1] += 1

    def observe_records(self, records, cycles_to_ns):
        """Fold a run's :class:`InjectionRecord` stream.

        ``cycles_to_ns`` converts a latency in big-core cycles to
        nanoseconds (see ``MeekRunResult.cycles_to_ns``).
        """
        for record in records:
            latency = record.latency_cycles
            self.observe(record.structure, record.model, record.detected,
                         cycles_to_ns(latency) if latency is not None
                         else None)
        return self

    def merge_cells(self, cells):
        """Merge wire-format cells (``to_cells`` output) into this map.

        Commutative and associative, so fold order — worker arrival
        order, resume order — cannot change the result.
        """
        if not cells:
            return self
        for structure, models in cells.items():
            for model, data in models.items():
                cell = self._cell(structure, model)
                cell[0] += int(data.get("detected", 0))
                cell[1] += int(data.get("undetected", 0))
                buckets = data.get("latency_buckets") or ()
                for i, count in enumerate(buckets[:NUM_BUCKETS]):
                    cell[2][i] += int(count)
        return self

    def merge(self, other):
        return self.merge_cells(other.to_cells())

    # -- output ------------------------------------------------------------

    def __bool__(self):
        return bool(self._cells)

    def to_cells(self):
        """Wire format: ``{structure: {model: {counts...}}}``, sorted."""
        cells = {}
        for (structure, model) in sorted(self._cells):
            detected, undetected, buckets = self._cells[(structure, model)]
            cells.setdefault(structure, {})[model] = {
                "detected": detected,
                "undetected": undetected,
                "latency_buckets": list(buckets),
            }
        return cells

    @classmethod
    def from_cells(cls, cells):
        return cls().merge_cells(cells or {})

    def to_dict(self):
        return {
            "schema": COVERAGE_SCHEMA,
            "bucket_bounds_ns": list(BUCKET_BOUNDS_NS),
            "bucket_labels": list(BUCKET_LABELS),
            "cells": self.to_cells(),
        }

    def totals(self):
        detected = sum(cell[0] for cell in self._cells.values())
        undetected = sum(cell[1] for cell in self._cells.values())
        return detected, undetected

    def structure_rates(self):
        """``{structure: detection rate}`` aggregated over models."""
        per_structure = {}
        for (structure, _model), cell in self._cells.items():
            agg = per_structure.setdefault(structure, [0, 0])
            agg[0] += cell[0]
            agg[1] += cell[1]
        return {
            structure: (agg[0] / (agg[0] + agg[1])
                        if (agg[0] + agg[1]) else None)
            for structure, agg in sorted(per_structure.items())
        }


def save_coverage(coverage, path):
    """Atomically persist ``coverage`` as deterministic sorted JSON."""
    payload = json.dumps(coverage.to_dict(), sort_keys=True,
                         separators=(",", ":")) + "\n"
    return atomic_write(path, payload)


def load_coverage(path):
    """Read a persisted coverage map; ``None`` if absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "cells" not in payload:
        return None
    return CoverageMap.from_cells(payload["cells"])


def coverage_from_store(store_path):
    """Rebuild a coverage map by replaying a result store's rows.

    The fallback when no ``<store>.coverage.json`` was persisted (an
    old run, or a store copied without its sibling): merges every OK
    row's ``metrics["coverage"]`` cells — the same commutative fold the
    live path performs, so the result is identical to the persisted
    artifact.
    """
    from repro.campaign.results import ResultStore

    coverage = CoverageMap()
    for result in ResultStore.load(store_path).values():
        if result.ok and result.metrics:
            coverage.merge_cells(result.metrics.get("coverage"))
    return coverage


def format_coverage(coverage, title=None):
    """The ``repro coverage`` report: one row per (structure, model)."""
    from repro.analysis.report import format_table

    lines = []
    if title:
        lines.append(title)
    cells = coverage.to_cells()
    if not cells:
        lines.append("no injections recorded")
        return "\n".join(lines)
    rows = []
    for structure, models in cells.items():
        for model, data in models.items():
            detected = data["detected"]
            undetected = data["undetected"]
            total = detected + undetected
            rate = f"{detected / total:.1%}" if total else "-"
            rows.append([structure, model, total, detected, rate]
                        + list(data["latency_buckets"]))
    headers = (["structure", "model", "inj", "det", "coverage"]
               + list(BUCKET_LABELS))
    lines.append(format_table(headers, rows))
    detected, undetected = coverage.totals()
    total = detected + undetected
    overall = f"{detected / total:.1%}" if total else "-"
    lines.append(f"overall   : {detected}/{total} detected ({overall})")
    return "\n".join(lines)
