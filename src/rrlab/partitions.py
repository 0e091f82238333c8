"""Brute-force partition counting, the combinatorial oracle for G and H.

In MacMahon's and Schur's form of the Rogers-Ramanujan identities, the
partitions of n into parts = +-1 (mod 5) are as many as the partitions into
parts that differ by at least 2, and both numbers are the coefficients of G;
with +-2 (mod 5) and parts >= 2 they are those of H.  count_partitions counts
such partitions one by one, as the leaves of one pruned walk, so it shares no
recurrence with the q-series it confirms.

Each predicate is data for the walk: its allowed part sizes in decreasing
order; a skip, 0 where a part may repeat (the residue predicates) and 2 where
the next part must be at least 2 smaller (the gap predicates, whose sizes are
consecutive); and a reach bound per size, the largest sum that size and the
parts allowed after it can make (a suffix sum for the gap predicates; n, which
no remainder exceeds, for the residue predicates).  A node of the walk is a
remainder and the first size it may use.  A part equal to the remainder is a
leaf, a smaller part leads to a node for what is left unless that is below
the smallest size (no leaf lies there), and the scan stops once the
remainder exceeds the reach.  When only one size is left, the remainder is
one leaf if that size divides it.  So every matching partition is visited
exactly once, as one leaf.  The walk deliberately keeps no memo: a table of
counts keyed by (remainder, size) would turn it into the coefficient
recurrence of prod 1/(1 - q^p), which is no longer an oracle.
"""

from __future__ import annotations

import enum

__all__ = ["PartitionPredicate", "count_partitions"]


class PartitionPredicate(enum.Enum):
    DISTINCT_NONCONSECUTIVE = "distinct-nonconsecutive"
    PARTS_1_4_MOD_5 = "parts-1-4-mod-5"
    DISTINCT_NONCONSECUTIVE_MIN2 = "distinct-nonconsecutive-min2"
    PARTS_2_3_MOD_5 = "parts-2-3-mod-5"


_RESIDUES = {PartitionPredicate.PARTS_1_4_MOD_5: (1, 4), PartitionPredicate.PARTS_2_3_MOD_5: (2, 3)}
_MIN_PART = {PartitionPredicate.DISTINCT_NONCONSECUTIVE: 1, PartitionPredicate.DISTINCT_NONCONSECUTIVE_MIN2: 2}


def _walk(rem, j, sizes, skip, reach, leaf, start, last):
    # leaves below the node (rem, j): partitions of rem into sizes[j:] in which
    # a part sizes[i] is followed by parts from sizes[i + skip:]; leaf[rem] is
    # the index of the size rem (-1 if none), and start[rem] that of the
    # largest size whose part leaves no remainder below the smallest size
    count = 1 if j <= leaf[rem] < last else 0
    if j < start[rem]:
        j = start[rem]
    while j < last and reach[j] >= rem:
        count += _walk(rem - sizes[j], j + skip, sizes, skip, reach, leaf, start, last)
        j += 1
    if j == last and reach[j] >= rem and rem % sizes[j] == 0:
        count += 1
    return count


def count_partitions(n: int, predicate: PartitionPredicate) -> int:
    """Number of partitions of n satisfying the predicate (n = 0 counts 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if predicate in _RESIDUES:
        sizes = [p for p in range(n, 0, -1) if p % 5 in _RESIDUES[predicate]]
        skip, reach = 0, [n] * len(sizes)
    else:
        sizes = list(range(n, _MIN_PART[predicate] - 1, -1))
        skip, reach = 2, sizes[:]
        for j in range(len(sizes) - 3, -1, -1):
            reach[j] += reach[j + 2]
    if not sizes:  # n is below the smallest allowed part
        return 0
    first, j = [], len(sizes)  # first[r]: the index of the largest size <= r
    for r in range(n + 1):
        while j and sizes[j - 1] <= r:
            j -= 1
        first.append(j)
    last, low = len(sizes) - 1, sizes[-1]
    leaf = [f if f <= last and sizes[f] == r else -1 for r, f in enumerate(first)]
    start = [min(first[r - low], last) if r > low else f for r, f in enumerate(first)]
    return _walk(n, 0, sizes, skip, reach, leaf, start, last)
