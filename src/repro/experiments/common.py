"""Shared experiment machinery.

Every figure/table module describes its measurements as one campaign
spec (``points``) and builds its rows from the finished campaign
(``reduce``), looking each metric up by point id.  Whatever runs the
spec — ``repro figure`` under any execution flags, or
:func:`repro.experiments.run` — therefore yields the same rows.
"""

from repro.campaign import CampaignPoint, CampaignSpec

#: Committed instructions per experiment run.  The paper runs full
#: SPEC/PARSEC inputs on FPGA; the cycle-level model uses statistically
#: stable synthetic slices instead (every run is deterministic in the
#: seed, so results are exactly reproducible).
DEFAULT_DYNAMIC_INSTRUCTIONS = 20_000


class PointsFailed(RuntimeError):
    """A figure's campaign finished with failed points.  A figure with
    holes is never drawn; ``failed`` holds the failed results (their
    rows stay in any ``--out`` store, so ``--resume`` retries them)."""

    def __init__(self, spec, failed):
        self.failed = failed
        first = failed[0]
        error = (first.error or "error").splitlines()[0]
        super().__init__(
            f"{len(failed)}/{len(spec.points)} points failed; "
            f"first failure at {first.point_id}: {error}")


def spec_of(name, points):
    """Campaign ``name`` over ``points``, each distinct point once (two
    sweeps may share a baseline; the rows look it up by id)."""
    unique = {}
    for point in points:
        unique.setdefault(point.point_id, point)
    return CampaignSpec(name=name, points=list(unique.values()))


def sibling_id(point, task, **params):
    """Point id of the ``task`` run on ``point``'s workload, budget and
    seed (e.g. the vanilla baseline a slowdown divides by)."""
    return CampaignPoint(task=task, workload=point.workload,
                         instructions=point.instructions, seed=point.seed,
                         params=params).point_id


def metrics_by_id(spec, result):
    """Point id -> metrics of a finished campaign; raises
    :class:`PointsFailed` if any point failed."""
    failed = result.failed
    if failed:
        raise PointsFailed(spec, failed)
    return {r.point_id: r.metrics for r in result.results}
