"""Local-sharing makespan bound: exactness and achievability.

The bound is cross-checked against a brute-force evaluation of every
window (the Hall certificate) and the EDF transport construction proves
achievability — together they pin the bound from both sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel.localshare
from repro.accel.localshare import (
    _share_effective_loads_reference,
    share_effective_loads,
    share_makespan,
    share_makespan_batch,
    share_window_bounds,
    share_window_bounds_batch,
)
from repro.errors import ConfigError


def brute_force_bound(loads, hop):
    """max over all windows of ceil(work / receivers)."""
    n = len(loads)
    best = 0
    prefix = np.concatenate(([0], np.cumsum(loads)))
    for i in range(n):
        for j in range(i, n):
            work = prefix[j + 1] - prefix[i]
            receivers = min(n - 1, j + hop) - max(0, i - hop) + 1
            best = max(best, -(-int(work) // receivers))
    return best


class TestBasicCases:
    def test_hop_zero_is_max(self):
        assert share_makespan([5, 1, 9, 2], 0) == 9

    def test_uniform_loads_unchanged(self):
        assert share_makespan([4, 4, 4, 4], 2) == 4

    def test_single_hot_pe_spreads(self):
        # 30 units on one of 7 PEs: 1-hop -> 3 receivers.
        loads = [0, 0, 0, 30, 0, 0, 0]
        assert share_makespan(loads, 1) == 10
        assert share_makespan(loads, 2) == 6
        assert share_makespan(loads, 3) == -(-30 // 7)

    def test_boundary_pe_has_fewer_receivers(self):
        loads = [30, 0, 0, 0, 0, 0, 0]
        assert share_makespan(loads, 1) == 15  # only PEs 0 and 1

    def test_total_over_pes_lower_bound(self):
        loads = [10, 10, 10, 10]
        assert share_makespan(loads, 3) == 10

    def test_single_pe(self):
        assert share_makespan([7], 2) == 7

    def test_efficiency_inflates(self):
        loads = [0, 0, 30, 0, 0]
        ideal = share_makespan(loads, 1)
        lossy = share_makespan(loads, 1, efficiency=0.5)
        assert lossy == 2 * ideal

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([], 1)

    def test_negative_hop_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([1], -1)

    def test_bad_efficiency_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([1], 1, efficiency=0.0)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("hop", [0, 1, 2, 3])
    def test_random_instances(self, hop, rng):
        for _ in range(40):
            n = int(rng.integers(1, 24))
            loads = rng.integers(0, 40, size=n)
            if rng.random() < 0.4:
                loads[rng.integers(0, n)] += int(rng.integers(100, 500))
            assert share_makespan(loads, hop) == brute_force_bound(loads, hop)

    def test_window_bounds_components(self):
        loads = np.array([100, 0, 0, 0, 50, 0])
        interior, prefix, suffix = share_window_bounds(loads, 1)
        assert max(interior, prefix, suffix) == brute_force_bound(loads, 1)


class TestEffectiveLoads:
    def test_conservation_and_cap(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            hop = int(rng.integers(0, 4))
            loads = rng.integers(0, 60, size=n)
            cap = share_makespan(loads, hop)
            effective = share_effective_loads(loads, hop)
            assert effective.sum() == pytest.approx(float(loads.sum()))
            assert effective.max() <= cap + 1e-9

    def test_hop_zero_identity(self):
        loads = np.array([3, 7, 1])
        assert np.allclose(share_effective_loads(loads, 0), loads)

    def test_locality_respected(self):
        # Work can only appear within hop distance of some original owner.
        loads = np.array([0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0])
        effective = share_effective_loads(loads, 2)
        outside = np.concatenate([effective[:4], effective[9:]])
        assert np.all(outside == 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=20),
    st.integers(0, 4),
)
def test_property_bound_matches_brute_force(loads, hop):
    assert share_makespan(loads, hop) == brute_force_bound(loads, hop)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=16),
    st.integers(0, 3),
)
def test_property_construction_achieves_bound(loads, hop):
    loads = np.asarray(loads)
    cap = share_makespan(loads, hop)
    effective = share_effective_loads(loads, hop)
    assert effective.sum() == pytest.approx(float(loads.sum()))
    assert effective.max() <= cap + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=16),
    st.integers(0, 3),
)
def test_property_monotone_in_hop(loads, hop):
    # More hops can never make the makespan worse.
    assert share_makespan(loads, hop + 1) <= share_makespan(loads, hop)


class TestCapValidation:
    """A caller-supplied cap must equal the Hall bound — no silent trust."""

    def test_exact_cap_accepted(self):
        loads = np.array([0, 0, 30, 0, 0, 7, 1])
        cap = share_makespan(loads, 1)
        expected = share_effective_loads(loads, 1)
        assert np.array_equal(
            share_effective_loads(loads, 1, cap=cap), expected
        )

    def test_float_cap_within_tolerance_accepted(self):
        loads = np.array([0, 0, 30, 0, 0])
        cap = share_makespan(loads, 1)
        share_effective_loads(loads, 1, cap=cap + 5e-10)

    @pytest.mark.parametrize("delta", [-1, 1, 7, 0.5])
    def test_wrong_cap_raises(self, delta):
        loads = np.array([4, 0, 30, 2, 0, 0, 9])
        cap = share_makespan(loads, 2) + delta
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 2, cap=cap)

    def test_negative_and_non_numeric_cap_raise(self):
        loads = np.array([1, 2, 3])
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap=-1)
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap="big")

    def test_zero_cap_only_for_zero_loads(self):
        assert np.array_equal(
            share_effective_loads(np.zeros(4, dtype=int), 1, cap=0),
            np.zeros(4),
        )
        with pytest.raises(ConfigError):
            share_effective_loads(np.array([0, 1, 0]), 1, cap=0)


class TestVectorizedAgainstReference:
    """The NumPy sweep must reproduce the retired heap EDF exactly."""

    def test_reference_is_heap_based(self, rng):
        # Elementwise identity on a skewed instance, both cap modes.
        loads = rng.integers(0, 50, size=40)
        loads[7] += 1000
        for hop in (0, 1, 3):
            cap = share_makespan(loads, hop)
            ref = _share_effective_loads_reference(loads, hop)
            assert np.array_equal(share_effective_loads(loads, hop), ref)
            assert np.array_equal(
                share_effective_loads(loads, hop, cap=cap), ref
            )

    def test_infeasible_cap_fails_both(self):
        loads = np.array([0, 0, 50, 0, 0])
        bad = share_makespan(loads, 1) - 1
        with pytest.raises(AssertionError):
            _share_effective_loads_reference(loads, 1, cap=bad)
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap=bad)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=40),
    st.integers(0, 5),
    st.booleans(),
)
def test_property_vectorized_equals_reference(loads, hop, pass_cap):
    """Elementwise equality + conservation + feasibility, random inputs.

    Runs both with the Hall bound recomputed internally and with it
    passed as ``cap`` (the cycle model's hot-path contract).
    """
    loads = np.asarray(loads)
    cap = share_makespan(loads, hop)
    reference = _share_effective_loads_reference(loads, hop)
    effective = (
        share_effective_loads(loads, hop, cap=cap)
        if pass_cap else share_effective_loads(loads, hop)
    )
    assert np.array_equal(effective, reference)
    assert effective.sum() == pytest.approx(float(loads.sum()))
    assert effective.max() <= cap + 1e-9
    assert effective.min() >= 0.0


class TestBatchedKernel:
    """share_makespan_batch rows must match the scalar entry point."""

    def test_rows_match_scalar(self, rng):
        for _ in range(20):
            n_rounds = int(rng.integers(1, 8))
            n = int(rng.integers(1, 40))
            hop = int(rng.integers(0, 5))
            matrix = rng.integers(0, 300, size=(n_rounds, n))
            batch = share_makespan_batch(matrix, hop)
            assert batch.dtype == np.int64
            assert list(batch) == [
                share_makespan(matrix[r], hop) for r in range(n_rounds)
            ]

    def test_efficiency_forwarded(self):
        matrix = np.array([[0, 30, 0], [10, 10, 10]])
        lossy = share_makespan_batch(matrix, 1, efficiency=0.5)
        assert list(lossy) == [
            share_makespan(matrix[0], 1, efficiency=0.5),
            share_makespan(matrix[1], 1, efficiency=0.5),
        ]

    def test_empty_batch_allowed(self):
        assert share_makespan_batch(np.zeros((0, 5), dtype=int), 1).size == 0

    def test_zero_pes_rejected(self):
        with pytest.raises(ConfigError):
            share_makespan_batch(np.zeros((2, 0), dtype=int), 1)

    def test_bad_hop_and_efficiency_rejected(self):
        with pytest.raises(ConfigError):
            share_makespan_batch(np.ones((1, 3), dtype=int), -1)
        with pytest.raises(ConfigError):
            share_makespan_batch(np.ones((1, 3), dtype=int), 1,
                                 efficiency=0.0)

    def test_window_bounds_batch_max_matches_brute(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 20))
            hop = int(rng.integers(1, 4))
            matrix = rng.integers(0, 80, size=(3, n))
            interior, prefix, suffix = share_window_bounds_batch(matrix, hop)
            for r in range(3):
                assert max(
                    int(interior[r]), int(prefix[r]), int(suffix[r])
                ) == brute_force_bound(matrix[r], hop)


class TestSeedAndSearch:
    """The seed-and-verify interior search against the brute-force oracle."""

    def test_makespan_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 28))
            hop = int(rng.integers(0, 5))
            loads = rng.integers(0, 100, size=n)
            if rng.random() < 0.4:
                loads[rng.integers(0, n)] += int(rng.integers(100, 900))
            assert share_makespan(loads, hop) == brute_force_bound(loads, hop)

    def test_transport_matches_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 24))
            hop = int(rng.integers(0, 4))
            loads = rng.integers(0, 60, size=n)
            assert np.array_equal(
                share_effective_loads(loads, hop),
                _share_effective_loads_reference(loads, hop),
            )

    @pytest.mark.parametrize(
        "n, hot, hop, single, pair",
        [
            (192, 77, 1, 1011, 1509),
            (192, 77, 2, 607, 1006),
            (192, 77, 3, 434, 755),
            (64, 21, 1, 1006, 1509),
            (64, 21, 2, 604, 1006),
            (64, 21, 3, 431, 755),
        ],
    )
    def test_pinned_hot_pe_vectors(self, n, hot, hop, single, pair):
        # The PE counts the serving workloads run. One hot PE is priced
        # by its singleton window (the seed); two adjacent hot PEs make
        # the pair window bind, which only the search finds.
        base = np.random.default_rng(n).integers(0, 40, size=n)
        one = base.copy()
        one[hot] += 3000
        two = one.copy()
        two[hot + 1] += 3000
        bounds = share_window_bounds_batch(np.stack([one, two]), hop)
        makespans = np.maximum.reduce(bounds)
        assert list(makespans) == [single, pair]
        assert single == brute_force_bound(one, hop)
        assert pair == brute_force_bound(two, hop)
        assert int(bounds[0][1]) == pair  # the interior entry binds


@st.composite
def _hot_batches(draw):
    """(matrix, hop): 1-6 rows of 1-40 PEs with one hot PE per row."""
    n = draw(st.integers(1, 40))
    hop = draw(st.integers(0, 5))
    rows = draw(st.lists(
        st.lists(st.integers(0, 60), min_size=n, max_size=n),
        min_size=1, max_size=6,
    ))
    matrix = np.array(rows, dtype=np.int64)
    for row in matrix:
        row[draw(st.integers(0, n - 1))] += draw(st.integers(0, 2000))
    return matrix, hop


@settings(max_examples=150, deadline=None)
@given(_hot_batches())
def test_property_batch_rows_match_brute_force(case):
    matrix, hop = case
    bounds = share_window_bounds_batch(matrix, hop)
    makespans = np.maximum.reduce(bounds)
    for r, row in enumerate(matrix):
        assert int(makespans[r]) == brute_force_bound(row, hop)


def test_mixed_batch_searches_only_failing_rows(monkeypatch):
    # Row 0 is flat (the seed is exact); row 1 has a hot pair whose
    # window beats every singleton, prefix and suffix (the seed is 34,
    # the bound 50). Only row 1 may reach the binary search.
    flat = [5] * 20
    hot_pair = [0] * 8 + [100, 100] + [0] * 10
    scanned = _count_scans(monkeypatch)
    interior, prefix, suffix = share_window_bounds_batch(
        np.array([flat, hot_pair]), 1
    )
    assert list(np.maximum.reduce([interior, prefix, suffix])) == [
        brute_force_bound(flat, 1), brute_force_bound(hot_pair, 1)
    ] == [5, 50]
    assert interior[1] == 50
    assert scanned[0] == 2  # the verify scan covers the whole batch
    assert len(scanned) > 1 and set(scanned[1:]) == {1}


class TestScanCounter:
    """Work counters for the interior search (gate on counts, not time)."""

    def test_exact_seed_costs_one_scan(self, monkeypatch):
        # Flat rows, lone hot PEs and an all-zero row: the singleton,
        # prefix and suffix windows already price every row.
        matrix = np.array([
            [4, 4, 4, 4, 4, 4, 4, 4],
            [0, 0, 0, 30, 0, 0, 0, 0],
            [30, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ])
        scanned = _count_scans(monkeypatch)
        bounds = share_window_bounds_batch(matrix, 1)
        assert scanned == [4]
        assert list(np.maximum.reduce(bounds)) == [
            brute_force_bound(row, 1) for row in matrix
        ]

    def test_hop_zero_needs_no_scan(self, monkeypatch):
        scanned = _count_scans(monkeypatch)
        interior, _, _ = share_window_bounds_batch(
            np.array([[5, 1, 9, 2], [0, 0, 0, 0]]), 0
        )
        assert list(interior) == [9, 0]
        assert scanned == []


def _count_scans(monkeypatch):
    """Record the row count of every interior scan the kernel runs."""
    scanned = []
    scan = repro.accel.localshare._interior_exceeds

    def counting(cumsum, bound, hop):
        scanned.append(len(cumsum))
        return scan(cumsum, bound, hop)

    monkeypatch.setattr(
        repro.accel.localshare, "_interior_exceeds", counting
    )
    return scanned
