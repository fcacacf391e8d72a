"""Online quantile sketches and exemplar reservoirs: accuracy bounds,
merge algebra, determinism, and serialization."""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import AwaitStream, GlobalLoad, StartPrefetch
from repro.monitor.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ERROR,
    ExemplarReservoir,
    QuantileSketch,
    SKETCH_VERSION,
    chained_sum,
)
from repro.monitor.spans import SpanCollector
from tests.span_oracle import loop_sum


def exact_quantile(values, q):
    """The order statistic both backends estimate: ``sorted[rank - 1]``
    with ``rank = ceil(q * n)`` (floored at 1), i.e. the smallest sample
    whose cumulative count reaches ``q * n``."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def assert_within_bound(sketch, values, q):
    exact = exact_quantile(values, q)
    est = sketch.quantile(q)
    if exact == 0.0:
        assert est == 0.0
    else:
        rel = abs(est - exact) / abs(exact)
        # the DDSketch bound is alpha exactly (bucket-boundary samples
        # report the adjacent midpoint at precisely alpha); leave room
        # only for float noise in the log/pow round trip.
        assert rel <= sketch.relative_error * (1.0 + 1e-9) + 1e-12


positive_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


class TestQuantileAccuracy:
    @given(
        values=positive_samples,
        q=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.sampled_from([0.005, 0.01, 0.05]),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantiles_within_relative_error_of_exact(self, values, q, alpha):
        sketch = QuantileSketch(relative_error=alpha)
        for value in values:
            sketch.record(value)
        assert_within_bound(sketch, values, q)

    def test_workload_latencies_within_bound(self):
        """The bound holds on real tier-1 workload latencies (the exact
        population a buffered collector would have retained), at every
        quantile column the analyses print."""
        latencies = _workload_latencies()
        assert len(latencies) >= 100
        sketch = QuantileSketch(relative_error=DEFAULT_RELATIVE_ERROR)
        for value in latencies:
            sketch.record(value)
        assert sketch.count == len(latencies)
        assert sketch.sum == pytest.approx(sum(latencies), rel=1e-12)
        assert sketch.min == min(latencies)
        assert sketch.max == max(latencies)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            assert_within_bound(sketch, latencies, q)

    def test_exact_moments_are_exact(self):
        sketch = QuantileSketch()
        values = [3.25, 1.5, 9.75, 1.5]
        for value in values:
            sketch.record(value)
        assert sketch.mean() == pytest.approx(sum(values) / 4, abs=1e-12)
        assert (sketch.min, sketch.max) == (1.5, 9.75)

    def test_zero_and_negative_values_report_as_zero(self):
        sketch = QuantileSketch()
        for value in (0.0, -1.0, 0.0, 5.0):
            sketch.record(value)
        assert sketch.count == 4
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.01)

    def test_misuse_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_buckets=1)
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)  # empty
        with pytest.raises(ValueError):
            sketch.mean()
        sketch.record(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)


def _same_extremum(a, b):
    """Equal and of one type, with one sign (``-0.0`` vs ``0.0``)."""
    assert (a is None) == (b is None)
    if a is not None:
        assert type(a) is type(b)
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


#: duplicates, both zeros, negatives, ints and a wide positive range
batch_values = st.lists(
    st.one_of(
        st.sampled_from((0.0, -0.0, -1.5, 1.0, 1.0000001, 2.5, 0.1, 1e-3, 7e6)),
        st.integers(-3, 10**6),
        st.floats(min_value=-1e9, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


class TestRecordMany:
    @given(prior=batch_values, batches=st.lists(batch_values, max_size=4),
           max_buckets=st.sampled_from((2, 3, 5, 8, DEFAULT_MAX_BUCKETS)))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_record_loop(self, prior, batches, max_buckets):
        """``record_many`` leaves the state a ``record`` loop leaves:
        the serialized sketch, bucket insertion order, the exact sum
        and the first extremum, from any prior state — including past
        a small bucket cap, where both collapse at the same points."""
        one = QuantileSketch(max_buckets=max_buckets)
        many = QuantileSketch(max_buckets=max_buckets)
        for value in prior:
            one.record(value)
            many.record(value)
        for batch in batches:
            for value in batch:
                one.record(value)
            many.record_many(batch)
            assert json.dumps(many.to_dict()) == json.dumps(one.to_dict())
            assert list(many._buckets.items()) == list(one._buckets.items())
            assert many.collapsed == one.collapsed
            _same_extremum(many.min, one.min)
            _same_extremum(many.max, one.max)
            _same_extremum(many.sum, one.sum)

    def test_keeps_the_first_extremum(self):
        sketch = QuantileSketch()
        sketch.record_many([0.0, 3, -0.0, 3.0])
        _same_extremum(sketch.min, 0.0)
        _same_extremum(sketch.max, 3)

    def test_collapses_where_a_record_loop_does(self):
        one = QuantileSketch(max_buckets=4)
        many = QuantileSketch(max_buckets=4)
        values = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 5.0]
        for value in values:
            one.record(value)
        many.record_many(values)
        assert one.collapsed and many.collapsed
        assert list(many._buckets.items()) == list(one._buckets.items())


class TestChainedSum:
    """``chained_sum`` is the ``+=`` loop, bit for bit, on every
    interpreter.  The inputs are ones where Python 3.12's compensated
    builtin ``sum`` returns something else."""

    CASES = (
        [0.1] * 10,  # the loop leaves 0.9999999999999999
        [1e16, 1.0, -1e16],  # the loop loses the 1.0
        [0.1, 0.2, 0.3, -0.6, 1e-17] * 7,
    )

    @pytest.mark.parametrize("values", CASES)
    def test_is_the_loop(self, values):
        assert chained_sum(values) == loop_sum(values)
        assert chained_sum(values, 2.5) == loop_sum(values, 2.5)

    def test_pins_the_loop_values(self):
        assert chained_sum([0.1] * 10) == 0.9999999999999999
        assert chained_sum([1e16, 1.0, -1e16]) == 0.0

    def test_folds_columns(self):
        rows = [[0.1, 1e16, 1.0]] * 10 + [[0.0, -1e16, 0.5]]
        assert chained_sum(rows, (0.0, 0.0, 0.0)) == [
            loop_sum(column) for column in zip(*rows)
        ]

    @pytest.mark.parametrize("values", CASES)
    def test_record_many_sums_like_the_loop(self, values):
        sketch = QuantileSketch()
        sketch.record_many(values)
        assert sketch.sum == loop_sum(values)


class TestMerge:
    @given(values=positive_samples, cut=st.integers(min_value=0, max_value=400))
    @settings(max_examples=50, deadline=None)
    def test_merge_of_halves_equals_whole(self, values, cut):
        cut = min(cut, len(values))
        whole = QuantileSketch()
        left, right = QuantileSketch(), QuantileSketch()
        for value in values:
            whole.record(value)
        for value in values[:cut]:
            left.record(value)
        for value in values[cut:]:
            right.record(value)
        merged = left.merge(right)
        merged_doc, whole_doc = merged.to_dict(), whole.to_dict()
        # float addition is not associative: merging two half-sums can
        # differ from sequential accumulation by one ulp, so `sum` is
        # compared approximately; everything else must match exactly.
        assert merged_doc.pop("sum") == pytest.approx(whole_doc.pop("sum"))
        assert merged_doc == whole_doc

    def test_merge_is_associative(self):
        parts = ([1.0, 2.0, 400.0], [3.0, 90.0], [0.5, 7.0, 7.0, 1e6])

        def sketch_of(values):
            s = QuantileSketch()
            for v in values:
                s.record(v)
            return s

        a, b, c = (sketch_of(p) for p in parts)
        left = sketch_of(parts[0]).merge(sketch_of(parts[1])).merge(c.copy())
        right = a.copy().merge(sketch_of(parts[1]).merge(sketch_of(parts[2])))
        whole = sketch_of([v for part in parts for v in part])
        assert left.to_dict() == right.to_dict() == whole.to_dict()

    def test_merge_requires_matching_relative_error(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.01).merge(
                QuantileSketch(relative_error=0.02)
            )


class TestSerialization:
    def test_round_trip_is_exact(self):
        sketch = QuantileSketch()
        for value in (0.0, 1.5, 1.5, 80.0, 1e7):
            sketch.record(value)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        for q in (0.1, 0.5, 0.99):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_version_is_checked(self):
        payload = QuantileSketch().to_dict()
        assert payload["version"] == SKETCH_VERSION
        payload["version"] = 99
        with pytest.raises(ValueError):
            QuantileSketch.from_dict(payload)


class TestBucketCap:
    def test_collapse_preserves_the_upper_tail(self):
        """Past the bucket cap the *lowest* buckets collapse: memory is
        bounded and only the extreme-low quantiles lose accuracy."""
        sketch = QuantileSketch(relative_error=0.01, max_buckets=32)
        values = [math.pow(10.0, i / 25.0) for i in range(2000)]
        for value in values:
            sketch.record(value)
        assert sketch.collapsed
        assert sketch.bucket_count() <= 32
        # ranks above the collapsed spill keep the alpha guarantee
        for q in (0.99, 1.0):
            assert_within_bound(sketch, values, q)
        # collapsed quantiles are over-estimates, never under
        for q in (0.01, 0.5, 0.95):
            assert sketch.quantile(q) >= exact_quantile(values, q)


def _span(request_id, latency, birth=0.0):
    return SimpleNamespace(request_id=request_id, latency=latency, birth=birth)


class TestExemplarReservoir:
    def test_retains_the_k_slowest_completes(self):
        reservoir = ExemplarReservoir(k=4, seed=0)
        for rid in range(100):
            reservoir.offer_complete(_span(rid, latency=float(rid % 50)), rid)
        kept = reservoir.slowest()
        assert [s.latency for s in kept] == [49.0, 49.0, 48.0, 48.0]
        assert reservoir.offered_complete == 100

    def test_retains_the_k_most_recent_incompletes(self):
        reservoir = ExemplarReservoir(k=3, seed=0)
        for rid in range(20):
            reservoir.offer_incomplete(_span(rid, 0.0, birth=float(rid)), rid)
        assert [s.birth for s in reservoir.incompletes()] == [19.0, 18.0, 17.0]
        assert len(reservoir) == 3

    def test_equal_births_keep_the_latest_keys(self):
        """Incompletes born at the same time rank on their keys: the
        latest admitted win, whatever their request ids."""
        reservoir = ExemplarReservoir(k=2, seed=0)
        for key, rid in enumerate((90, 10, 50, 30)):
            reservoir.offer_incomplete(_span(rid, 0.0, birth=1.0), key)
        assert [s.request_id for s in reservoir.incompletes()] == [30, 50]

    def test_equal_latency_retention_is_seed_deterministic(self):
        """Two reservoirs with the same seed retain the same subset of
        an all-equal-latency population in the same order; the subset is
        a pure function of (seed, keys), not offer order."""

        def retained(seed, order):
            reservoir = ExemplarReservoir(k=8, seed=seed)
            for rid in order:
                reservoir.offer_complete(_span(rid, latency=5.0), rid)
            return [s.request_id for s in reservoir.slowest()]

        ids = list(range(64))
        assert retained(7, ids) == retained(7, ids)
        assert retained(7, ids) == retained(7, list(reversed(ids)))
        assert retained(7, ids) != ids[:8]  # not simply first-k
        sets = {tuple(retained(seed, ids)) for seed in range(4)}
        assert len(sets) > 1  # the seed actually perturbs retention

    def test_offer_ranked_builds_only_what_it_keeps(self):
        """The lazy offer keeps what offer_complete keeps, ties included,
        and builds a span only when it is retained."""
        eager = ExemplarReservoir(k=4, seed=3)
        lazy = ExemplarReservoir(k=4, seed=3)
        built = []

        def build(span):
            built.append(span.request_id)
            return span

        for rid in range(200):
            span = _span(rid, latency=float(rid % 7))
            kept = eager.offer_complete(span, rid)
            assert lazy.offer_ranked(
                span.latency, rid, lambda span=span: build(span)
            ) == kept
            assert (built[-1:] == [rid]) == kept
        assert lazy.slowest() == eager.slowest()
        assert lazy.offered_complete == eager.offered_complete == 200

    def test_misuse_raises(self):
        with pytest.raises(ValueError):
            ExemplarReservoir(k=0)


def _workload_latencies():
    """End-to-end request latencies from a small tier-1 workload run,
    recorded by the buffered collector (the exact population)."""

    def prefetcher(base):
        def program():
            stream = yield StartPrefetch(length=48, stride=1, address=base)
            yield AwaitStream(stream)

        return program()

    def demander(base):
        def program():
            for i in range(4):
                yield GlobalLoad(length=8, stride=1, address=base + 64 * i)

        return program()

    machine = CedarMachine(CedarConfig())
    collector = SpanCollector().attach(machine.bus)
    programs = {port: prefetcher(port * 512) for port in range(6)}
    programs.update({port: demander(port * 256) for port in range(6, 10)})
    machine.run_programs(programs)
    latencies = [span.latency for span in collector.complete_spans()]
    collector.detach()
    return latencies
