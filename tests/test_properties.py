"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import Ecdf, pearson_correlation
from repro.cluster.cgroup import Cgroup
from repro.core.aggregator import CpiAggregator
from repro.core.config import CpiConfig
from repro.core.correlation import antagonist_correlation
from repro.core.identify import rank_suspects_matrix
from repro.core.samplebatch import SampleColumns
from repro.records import CpiSample
from tests.conftest import make_sample

positive_floats = st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False, allow_infinity=False)
usage_floats = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)


class TestCorrelationProperties:
    @given(
        cpis=st.lists(positive_floats, min_size=1, max_size=50),
        usages=st.lists(usage_floats, min_size=1, max_size=50),
        threshold=positive_floats,
    )
    def test_score_always_in_unit_interval(self, cpis, usages, threshold):
        n = min(len(cpis), len(usages))
        score = antagonist_correlation(cpis[:n], usages[:n], threshold)
        assert -1.0 <= score <= 1.0

    @given(
        cpis=st.lists(positive_floats, min_size=2, max_size=30),
        usages=st.lists(usage_floats, min_size=2, max_size=30),
        threshold=positive_floats,
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance_in_usage(self, cpis, usages, threshold, scale):
        n = min(len(cpis), len(usages))
        cpis, usages = cpis[:n], usages[:n]
        assume(sum(usages) > 0)
        s1 = antagonist_correlation(cpis, usages, threshold)
        s2 = antagonist_correlation(cpis, [u * scale for u in usages], threshold)
        assert math.isclose(s1, s2, rel_tol=1e-9, abs_tol=1e-12)

    @given(
        cpis=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                allow_nan=False), min_size=1, max_size=30),
        threshold=positive_floats,
    )
    def test_all_cpi_above_threshold_nonnegative_score(self, cpis, threshold):
        cpis = [c + threshold for c in cpis]  # strictly >= threshold
        usages = [1.0] * len(cpis)
        score = antagonist_correlation(cpis, usages, threshold)
        assert score >= 0.0

    @given(st.data())
    def test_ranking_is_sorted_descending(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        cpis = data.draw(st.lists(positive_floats, min_size=n, max_size=n))
        labels, rows = [], []
        for i in range(data.draw(st.integers(min_value=1, max_value=6))):
            rows.append(data.draw(st.lists(usage_floats, min_size=n,
                                           max_size=n)))
            labels.append((f"task{i}", f"job{i}"))
        ranked = rank_suspects_matrix(cpis, 1.0, labels, np.asarray(rows))
        correlations = [s.correlation for s in ranked]
        assert correlations == sorted(correlations, reverse=True)
        assert len(ranked) == len(labels)


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=100))
    # Random search found this one: the product of the two sums of squares
    # underflowed into the subnormals and r came out as -1.0000000014.
    @example(xs=[0.0, 1.39e-79])
    def test_pearson_in_unit_interval(self, xs):
        ys = xs[::-1]
        r = pearson_correlation(xs, ys)
        assert -1.0 <= r <= 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_ecdf_monotone_and_bounded(self, samples):
        ecdf = Ecdf(samples)
        points = sorted(samples)
        values = [ecdf(x) for x in points]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert ecdf(max(samples)) == 1.0


class TestCgroupProperties:
    @given(st.lists(usage_floats, min_size=1, max_size=100))
    def test_total_equals_sum_of_charges(self, usages):
        cg = Cgroup("j/0", cpu_limit=1000.0)
        for t, u in enumerate(usages):
            cg.charge(t, u)
        n = len(usages)
        assert math.isclose(cg.usage_between(0, n) * n, sum(usages),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(demand=usage_floats, limit=positive_floats,
           quota=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_allowance_never_exceeds_any_constraint(self, demand, limit, quota):
        cg = Cgroup("j/0", cpu_limit=limit)
        cg.apply_cap(quota, now=0, duration=10)
        allowed = cg.allowed_usage(demand, t=0)
        assert allowed <= demand + 1e-12
        assert allowed <= limit + 1e-12
        assert allowed <= quota + 1e-12
        assert allowed >= 0.0


class TestAggregatorProperties:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(positive_floats, usage_floats),
                    min_size=6, max_size=80))
    def test_spec_mean_within_sample_range(self, pairs):
        config = CpiConfig(min_tasks_for_spec=1, min_samples_per_task=1)
        agg = CpiAggregator(config)
        cpis = [cpi for cpi, _ in pairs]
        agg.ingest_batch(SampleColumns.from_samples([
            make_sample(t=60 * i, cpi=cpi, cpu_usage=usage,
                        taskname=f"job/{i % 3}")
            for i, (cpi, usage) in enumerate(pairs)]))
        specs = agg.recompute(0)
        spec = next(iter(specs.values()))
        assert min(cpis) - 1e-9 <= spec.cpi_mean <= max(cpis) + 1e-9
        assert spec.cpi_stddev >= 0.0
        assert spec.num_samples == len(pairs)

    @settings(max_examples=30)
    @given(st.lists(positive_floats, min_size=6, max_size=40),
           st.lists(positive_floats, min_size=6, max_size=40))
    def test_blended_mean_between_old_and_new(self, old_cpis, new_cpis):
        config = CpiConfig(min_tasks_for_spec=1, min_samples_per_task=1)
        agg = CpiAggregator(config)
        agg.ingest_batch(SampleColumns.from_samples([
            make_sample(t=60 * i, cpi=cpi, taskname="job/0")
            for i, cpi in enumerate(old_cpis)]))
        old_spec = agg.recompute(0)[next(iter(agg.specs()))]
        agg.ingest_batch(SampleColumns.from_samples([
            make_sample(t=86400 + 60 * i, cpi=cpi, taskname="job/0")
            for i, cpi in enumerate(new_cpis)]))
        new_spec = agg.recompute(86400)[next(iter(agg.specs()))]
        fresh_mean = float(np.mean(new_cpis))
        lo = min(old_spec.cpi_mean, fresh_mean) - 1e-9
        hi = max(old_spec.cpi_mean, fresh_mean) + 1e-9
        assert lo <= new_spec.cpi_mean <= hi


class TestSampleProperties:
    @given(cpi=usage_floats, usage=usage_floats,
           t=st.integers(min_value=0, max_value=10**7))
    def test_sample_roundtrip(self, cpi, usage, t):
        sample = CpiSample("j", "p", t * 1_000_000, usage, cpi, "j/0")
        assert sample.timestamp_seconds == t
        assert sample.key() == ("j", "p")
