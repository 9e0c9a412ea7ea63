"""Regenerators for every table and figure of the paper's evaluation.

Modules map one-to-one onto the paper (see DESIGN.md's experiment
index); each exposes ``run(quick=False, seed=0) -> ExperimentResult``.

The gridded experiments (``parallel.GRIDS``: fig6, table1, table1_aqm,
table1_l4s, fig_adaptation) are independent cells of one recipe and
share three names:

* ``plan_cells(quick, **grid) -> [(key, kwargs), ...]``;
* ``measure_cell(seed=..., **kwargs)`` — one cell, built from the seed;
* ``run(quick, seed, cell_results=None, **grid)`` — a render step over
  ``cell_results``, or over the cells that
  :func:`.common.grid_cells` measures when none are given.
"""

from .common import ExperimentResult, GarnetDeployment, build_deployment

__all__ = ["ExperimentResult", "GarnetDeployment", "build_deployment"]
