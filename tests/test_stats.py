"""Distance statistics, empirical laws, and the experiment harness glue."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gtpatterns.experiments import ComparisonReport
from gtpatterns.stats import (
    empirical_law,
    exact_law_to_floats,
    ks_two_sample,
    rows_to_tuples,
    tv_distance,
)

Q = Fraction


class TestEmpiricalLaw:
    def test_frequencies(self):
        law = empirical_law(["a", "b", "a", "a"])
        assert law == {"a": 0.75, "b": 0.25}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_law([])

    def test_rows_to_tuples(self):
        arr = np.array([[1, 2], [3, 4]])
        assert rows_to_tuples(arr) == [(1, 2), (3, 4)]

    def test_rows_to_tuples_gives_python_ints(self):
        rows = rows_to_tuples(np.array([[5, 0], [2, 1], [7, 7]], dtype=np.int64))
        assert rows == [(5, 0), (2, 1), (7, 7)]
        assert all(type(v) is int for row in rows for v in row)
        assert rows_to_tuples(np.zeros((0, 3), dtype=np.int64)) == []


class TestTv:
    def test_identical(self):
        assert tv_distance({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0

    def test_disjoint(self):
        assert tv_distance({1: 1.0}, {2: 1.0}) == 1.0

    def test_partial(self):
        assert abs(tv_distance({1: 0.7, 2: 0.3}, {1: 0.4, 2: 0.6}) - 0.3) < 1e-12

    def test_handles_fractions(self):
        assert tv_distance({1: Q(1, 2), 2: Q(1, 2)}, {1: 0.5, 2: 0.5}) == 0.0


class TestKs:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=500)
        ys = rng.normal(0.3, size=700)
        ours = ks_two_sample(xs, ys)
        ref = ks_2samp(xs, ys).statistic
        assert abs(ours - ref) < 1e-12

    def test_identical_samples(self):
        xs = np.arange(10.0)
        assert ks_two_sample(xs, xs) == 0.0


class TestComparisonReport:
    def test_pass_fail(self):
        good = ComparisonReport("x", "tv", 0.01, 0.05, (10,))
        bad = ComparisonReport("x", "tv", 0.2, 0.05, (10,))
        leaky = ComparisonReport("x", "tv", 0.01, 0.05, (10,), truncation_deficit=0.2)
        assert good.passed
        assert not bad.passed
        assert not leaky.passed
        assert good.summary().startswith("[PASS]")
        assert bad.summary().startswith("[FAIL]")

    def test_round_trip_dict(self):
        rep = ComparisonReport("n", "ks", 0.02, 0.05, (3, 4), details={"a": 1})
        d = rep.to_dict()
        assert d["passed"] and d["sample_sizes"] == [3, 4]


class TestPairLaw:
    def test_exact_law_to_floats(self):
        out = exact_law_to_floats({(0,): Q(1, 4)})
        assert out == {(0,): 0.25}
