"""Experiment drivers: one module per table/figure of the paper.

Each module splits its figure into a campaign and a reduction:

* ``points(...)`` returns one deduplicated
  :class:`~repro.campaign.CampaignSpec` holding every simulation the
  figure needs;
* ``reduce(spec, result)`` builds the rows from the finished
  :class:`~repro.campaign.CampaignResult`, looking each metric up by
  point id, and raises
  :class:`~repro.experiments.common.PointsFailed` naming the failed
  points rather than draw a figure with holes;
* ``format_results(rows)`` renders the table the paper reports.

:data:`FIGURES` maps each ``repro figure`` name to its module.
``repro figure`` runs the spec like any other campaign, so every
execution flag applies (a finished ``--out`` store re-reduces under
``--resume`` without simulating); :func:`run` is the in-process path
for tests, ``benchmarks/`` and ``repro bench``.  Each module's
docstring quotes the paper's numbers; ``benchmarks/`` regenerates
every figure at full size and checks the paper's qualitative claims.
"""

import importlib

#: ``repro figure`` name -> module of this package.  Names, imported on
#: first use: the CLI reads the keys to build its parser, and importing
#: every driver would add ~0.1 s to the start of each command.
FIGURES = {
    "fig6": "fig6_performance",
    "fig7": "fig7_latency",
    "fig8": "fig8_scalability",
    "fig9": "fig9_backpressure",
    "fig10": "fig10_perf_area",
    "tab3": "tab3_area",
    "ablations": "ablations",
}


def figure(name):
    """The module that regenerates figure ``name``."""
    return importlib.import_module(f"{__name__}.{FIGURES[name]}")


def run(name, jobs=None, **params):
    """Regenerate figure ``name`` through the warm execution service and
    return its rows; ``params`` go to the module's ``points``."""
    from repro.perf.service import get_service

    module = figure(name)
    spec = module.points(**params)
    return module.reduce(spec, get_service().run_campaign(spec, jobs=jobs))


__all__ = ["FIGURES", "figure", "run"]
