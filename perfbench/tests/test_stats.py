import statistics

import numpy as np
import pytest

from stats import (count_differing_rows, percentile, quartile_spread,
                   rows_for_seeds, strip_time_column, tail_percentile)


@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
def test_percentile_matches_linear_interpolation(q):
    xs = [7.0, 1.0, 3.5, 2.0, 9.0, 4.0, 4.0]
    assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)
    assert percentile([5.0], 90) == 5.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(100))
    assert tail_percentile(xs, 90) == percentile(xs, 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        tail_percentile(xs[:99], 90)
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)


def test_quartile_spread_uses_statistics_quantiles():
    xs = [10.0, 11.0, 12.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.4, 30.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == (q3 - q1) / statistics.median(xs)
    assert quartile_spread([2.0] * 10) == 0.0


CSV = ("problem,algorithm,run,seed,k,inn,inn_per_k,fval,grad_norm,time_s\n"
       "p,b,0,8,10,20,2,0.5,1e-05,0.123\n"
       "p,b,1,9,11,22,2,0.25,2e-05,0.456\n"
       "p,cr,0,8,12,24,2,0.5,1e-05,0.789\n")


def test_strip_time_column_keeps_every_other_column():
    rows = strip_time_column(CSV)
    assert rows[0] == "problem,algorithm,run,seed,k,inn,inn_per_k,fval," \
                      "grad_norm"
    assert rows[1] == "p,b,0,8,10,20,2,0.5,1e-05"
    assert len(rows) == 4


def test_rows_for_seeds_filters_on_the_seed_column():
    rows = strip_time_column(CSV)
    assert rows_for_seeds(rows, [8]) == [rows[0], rows[1], rows[3]]
    assert rows_for_seeds(rows, [7]) == [rows[0]]


def test_count_differing_rows():
    rows = strip_time_column(CSV)
    assert count_differing_rows(rows, rows) == 0
    changed = rows[:2] + ["p,b,1,9,11,23,2,0.25,2e-05"] + rows[3:]
    assert count_differing_rows(changed, rows) == 1
    assert count_differing_rows(rows[:2], rows) == 2      # rows missing
    assert count_differing_rows(rows + [rows[1]], rows) == 1
    with pytest.raises(ValueError, match="header"):
        count_differing_rows(["a,b"] + rows[1:], rows)


def test_time_column_alone_never_counts_as_a_difference():
    other = CSV.replace("0.123", "9.999").replace("0.789", "0.001")
    assert count_differing_rows(strip_time_column(other),
                                strip_time_column(CSV)) == 0
