"""Pure helpers of the benchmark: percentiles, spreads, reference rows.

Nothing here imports numpy or the package, so the helpers can be tested
and used (by ``spread.py``) without a working build.
"""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10       # samples a reported percentile must leave above it


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    the two closest ranks, numpy's default rule."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q, min_beyond=TAIL_SAMPLES):
    """``percentile(values, q)``, refused unless at least ``min_beyond``
    samples lie above it: a tail figure resting on fewer is noise."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples leaves {beyond:g} above it, "
            f"fewer than {min_beyond}")
    return percentile(values, q)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def strip_time_column(csv_text):
    """CSV rows of the package's run records without the ``time_s``
    column, which is the only column that may differ between runs."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header) if col != "time_s"]
    return [",".join(row.split(",")[i] for i in keep) for row in lines]


def rows_for_seeds(rows, seeds):
    """Header plus the data rows whose ``seed`` column is in ``seeds``."""
    header = rows[0].split(",")
    col = header.index("seed")
    wanted = {str(s) for s in seeds}
    return [rows[0]] + [r for r in rows[1:] if r.split(",")[col] in wanted]


def count_differing_rows(rows, reference):
    """Data rows that differ position by position from the reference,
    counting rows present on one side only.  Headers must agree."""
    if rows[0] != reference[0]:
        raise ValueError(f"header {rows[0]!r} differs from reference "
                         f"{reference[0]!r}")
    got, want = rows[1:], reference[1:]
    differing = sum(1 for a, b in zip(got, want) if a != b)
    return differing + abs(len(got) - len(want))
