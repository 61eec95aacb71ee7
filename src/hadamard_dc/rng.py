"""Seeded random streams.

All sampling in the package goes through Philox, a counter-based generator
whose output is documented and reproducible across platforms and numpy
releases for a fixed key.
"""

import numpy as np


def make_rng(seed):
    """Return a Generator backed by Philox keyed with ``seed``."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def check_seeds(base_seed, runs=1):
    """Raise ValueError unless every run seed base_seed + i, 0 <= i < runs,
    is a Philox key, an integer in [0, 2^64)."""
    if not 0 <= base_seed <= 2**64 - runs:
        raise ValueError(f"the seeds of {runs} run(s) from {base_seed} "
                         "must lie in [0, 2^64)")


def run_seed(base_seed, run_index):
    """Derive the per-run seed used by the benchmark harness."""
    return int(base_seed) + int(run_index)
