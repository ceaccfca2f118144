"""Branching Gaussian ensembles in a box, with density-matrix cross checks.

A particle in a 1-d box is modeled as an ensemble of tagged Gaussian
packets: each packet spreads for one decoherence period, splits into
localized offspring on a fixed position lattice, and never recombines.
The package provides the branching engine (``branching``), ensemble
statistics against classical oracles (``stats``), an independent grid
density-matrix oracle (``density``) and a seeded scenario runner
(``config``, ``runner``, ``cli``).  The root exports the four names that
code reads from it; everything else is imported from its module.
"""

from .branching import evolve_ensemble_step, midbox_ensemble
from .config import parse_config
from .runner import run_scenario

__all__ = ["evolve_ensemble_step", "midbox_ensemble", "parse_config", "run_scenario"]
