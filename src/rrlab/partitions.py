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
consecutive); and, per remainder, where the scan of its parts stops and how
many leaves the smallest size alone makes of it.  A node of the walk is a
remainder and the first size it may use.  A part equal to the remainder is a
leaf, and a smaller part leads to a node for what is left unless that is
below the smallest size (no leaf lies there).  The scan stops before the
first part that cannot be the largest of the remainder, for the residue
predicates at the smallest size, whose parts only repeat (1 or 2 and 3 make
every remainder from the smallest size up).  For the gap predicates the
largest parts of a remainder's partitions run from the least one up to every
part that leaves at least the smallest size: from a partition whose largest
part is s, lowering another part by 1 gives one whose largest part is s + 1,
unless the others are the tightest run low, low + 2, ..., of k parts; then
k - 1 parts up to s - 1 make every sum up to (k - 1)(s - k + 1), which is at
least k low + k(k - 1) - 1 when k >= low.  So every matching partition is visited exactly
once, as one leaf, and every node of the walk leads to a leaf.  The walk
deliberately keeps no memo: a table of counts keyed by (remainder, size)
would turn it into the coefficient recurrence of prod 1/(1 - q^p), which is
no longer an oracle.
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


def _walk(rem, j, sizes, skip, leaf, start, stop, tail, last):
    # leaves below the node (rem, j): partitions of rem into sizes[j:] in which
    # a part sizes[i] is followed by parts from sizes[i + skip:]; leaf[rem] is
    # the index of the size rem (-1 if none), start[rem] that of the largest
    # size whose part leaves no remainder below the smallest size, stop[rem]
    # one past that of the smallest that can be rem's largest part (at most
    # last), and tail[rem] the leaves of rem in the last size alone
    count = 1 if j <= leaf[rem] < last else 0
    if j < start[rem]:
        j = start[rem]
    end = stop[rem]
    while j < end:
        count += _walk(rem - sizes[j], j + skip, sizes, skip, leaf, start, stop, tail, last)
        j += 1
    if j == last:
        count += tail[rem]
    return count


def count_partitions(n: int, predicate: PartitionPredicate) -> int:
    """Number of partitions of n satisfying the predicate (n = 0 counts 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if predicate in _RESIDUES:
        sizes = [p for p in range(n, 0, -1) if p % 5 in _RESIDUES[predicate]]
        if not sizes:  # n is below the smallest allowed part
            return 0
        skip, stop = 0, [len(sizes) - 1] * (n + 1)
        tail = [int(r % sizes[-1] == 0) for r in range(n + 1)]
    else:
        low = _MIN_PART[predicate]
        if n < low:
            return 0
        sizes, skip, stop, k = list(range(n, low - 1, -1)), 2, [0], 0
        # k parts from low up with gaps of 2 sum to every r from k low + k(k-1)
        # to k s - k(k-1) when the largest is at most s, so the least such s is
        # the least ceil(r/k) + k - 1 over those k with k low + k(k-1) <= r;
        # that falls while k(k+1) <= r, so the most parts, k, reach it.  The
        # size s has index n - s.
        for r in range(1, n + 1):
            if (k + 1) * (low + k) <= r:
                k += 1
            stop.append(min(n + 1 - (-(-r // k) + k - 1), n - low) if k else 0)
        tail = [int(r == low) for r in range(n + 1)]
    first, j = [], len(sizes)  # first[r]: the index of the largest size <= r
    for r in range(n + 1):
        while j and sizes[j - 1] <= r:
            j -= 1
        first.append(j)
    last, low = len(sizes) - 1, sizes[-1]
    leaf = [f if f <= last and sizes[f] == r else -1 for r, f in enumerate(first)]
    start = [min(first[r - low], last) if r > low else f for r, f in enumerate(first)]
    return _walk(n, 0, sizes, skip, leaf, start, stop, tail, last)
