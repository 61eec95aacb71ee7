"""Hypothesis profiles of the test suite, chosen with HYPOTHESIS_PROFILE.

``tier1``, the default, derandomizes the draws, so that a run is a
function of the tree; each property test keeps its ``max_examples``.
``explore`` draws at random and runs 20 times each test's examples
(``helpers.examples``):

    HYPOTHESIS_PROFILE=explore python -m pytest -q

A failure that ``explore`` finds is added to its test as an ``@example``.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
