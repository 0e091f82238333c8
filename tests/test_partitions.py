import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import partitions
from rrlab.partitions import PartitionPredicate, count_partitions
from rrlab.qseries import series_G, series_H

DN = PartitionPredicate.DISTINCT_NONCONSECUTIVE
DN2 = PartitionPredicate.DISTINCT_NONCONSECUTIVE_MIN2
P14 = PartitionPredicate.PARTS_1_4_MOD_5
P23 = PartitionPredicate.PARTS_2_3_MOD_5


# The definition, kept here as the test's independent brute force: every
# partition of n, and the predicate decided on an explicit partition.
def iter_partitions(n, max_part=None):
    """All partitions of n with parts <= max_part, weakly decreasing."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(max_part, 0, -1):
        for rest in iter_partitions(n - p, p):
            yield (p,) + rest


def satisfies(parts, predicate):
    """Decide the predicate on an explicit partition (decreasing parts)."""
    if predicate is P14:
        return all(p % 5 in (1, 4) for p in parts)
    if predicate is P23:
        return all(p % 5 in (2, 3) for p in parts)
    min_part = 1 if predicate is DN else 2
    if parts and parts[-1] < min_part:
        return False
    return all(parts[i] - parts[i + 1] >= 2 for i in range(len(parts) - 1))


def matching(n, predicate):
    return [p for p in iter_partitions(n) if satisfies(p, predicate)]


def test_examples():
    assert count_partitions(3, DN) == 1  # {3}
    assert count_partitions(3, P14) == 1  # {1+1+1}
    assert count_partitions(4, DN) == 2  # {4}, {3+1}


def test_edge_cases():
    for pred in PartitionPredicate:
        with pytest.raises(ValueError):
            count_partitions(-1, pred)
        assert count_partitions(0, pred) == 1  # empty partition
    assert count_partitions(1, DN) == count_partitions(1, P14) == 1  # {1}
    assert count_partitions(1, DN2) == count_partitions(1, P23) == 0


def test_explicit_partitions():
    assert sorted(matching(4, DN)) == [(3, 1), (4,)]
    assert sorted(matching(4, P14)) == [(1, 1, 1, 1), (4,)]
    assert sorted(matching(4, P23)) == [(2, 2)]
    assert sorted(matching(5, DN2)) == [(5,)]


def test_satisfies():
    assert satisfies((7, 4, 1), DN)
    assert not satisfies((7, 6), DN)  # consecutive
    assert not satisfies((4, 4), DN)  # repeated
    assert satisfies((7, 4), DN2)
    assert not satisfies((7, 4, 1), DN2)  # part below 2
    assert satisfies((9, 6, 1), P14)
    assert not satisfies((5,), P14)
    assert satisfies((8, 3, 2), P23)


def test_iter_partitions_total_count():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(expected):
        assert sum(1 for _ in iter_partitions(n)) == want


@pytest.mark.parametrize("pred", list(PartitionPredicate))
def test_walk_matches_the_definition(pred):
    for n in range(0, 31):
        assert count_partitions(n, pred) == len(matching(n, pred))


def test_macmahon_small():
    g = series_G(30)
    h = series_H(30)
    for n in range(0, 31):
        assert count_partitions(n, DN) == g.coeff(n)
        assert count_partitions(n, P14) == g.coeff(n)
        assert count_partitions(n, DN2) == h.coeff(n)
        assert count_partitions(n, P23) == h.coeff(n)


@pytest.mark.parametrize("pred, nodes", [(DN, 2.32), (P14, 1.92), (DN2, 2.37), (P23, 2.59)])
def test_walk_visits_each_partition_once(pred, nodes, monkeypatch):
    # every counted partition is one leaf, every walk call reaches a leaf, and
    # the nodes (walk calls plus leaves) stay under the measured count per
    # partition at n = 62 (2.313, 1.912, 2.366 and 2.589); a second count
    # makes as many calls as the first, so nothing is remembered between counts
    calls = []
    walk = partitions._walk

    def counted(*args):
        calls.append(walk(*args))
        return calls[-1]

    monkeypatch.setattr(partitions, "_walk", counted)
    count = count_partitions(62, pred)
    first_calls = len(calls)
    assert count_partitions(62, pred) == count == (3345 if pred in (DN, P14) else 2108)
    assert len(calls) == 2 * first_calls
    assert 0 not in calls
    assert first_calls + count < nodes * count


@given(n=st.integers(0, 18))
@settings(max_examples=20, deadline=None)
def test_brute_force_lists_each_partition_once(n):
    listed = list(iter_partitions(n))
    assert len(set(listed)) == len(listed)
    for parts in listed:
        assert sum(parts) == n
        assert list(parts) == sorted(parts, reverse=True)
        assert all(p > 0 for p in parts)
