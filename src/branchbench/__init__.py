"""Branching schemes for constraint solving, plus a small benchmark harness.

The library models finite-domain CSPs, enforces generalized arc consistency
with a weight-tracking propagation queue, and searches with dom/wdeg variable
selection under seven interchangeable branching schemes: d-way, 2-way,
dichotomic domain splitting, and set branching driven either by exact score
ties or by x-means clustering of value scores.

Import each name from the module that defines it, for example
``branchbench.search.solve``, ``branchbench.branching.parse_scheme`` and
``branchbench.generators.GenSpec``. The package re-exports only
``SCHEME_NAMES``, which the benchmark harness reads from the package to check
that it imported the intended checkout.
"""

from .branching import SCHEME_NAMES
