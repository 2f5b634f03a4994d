"""Brute-force partition counting oracles.

These never touch the series machinery: they count by direct enumeration
over the smallest part plus a bounded-coin DP on what remains, so they can
serve as an independent route against the generating-function expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidDistance


def divisor_count(n: int) -> int:
    """Number of positive divisors of n, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count = 0
    root = math.isqrt(n)
    for d in range(1, root + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def total_partition_count(n: int) -> int:
    """The unrestricted partition number p(n); p(0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for j in range(part, n + 1):
            ways[j] += ways[j - part]
    return ways[n]


def _multiset_sums(parts: Sequence[int], total: int) -> list[int]:
    # ways[j] = # multisets drawn from `parts` summing to j (unbounded coin DP)
    ways = [0] * (total + 1)
    ways[0] = 1
    for part in parts:
        for j in range(part, total + 1):
            ways[j] += ways[j - part]
    return ways


def _check_distances(distances: Sequence[int]) -> tuple[int, ...]:
    distances = tuple(distances)
    if not distances:
        raise InvalidDistance("distance vector must be non-empty")
    for d in distances:
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidDistance(f"distances must be integers, got {d!r}")
        if d < 1:
            raise InvalidDistance(f"distances must be >= 1, got {d}")
    return distances


def _weighted_total(distances: Sequence[int]) -> int:
    k = len(distances)
    return sum((k + 1 - i) * d for i, d in enumerate(distances, start=1))


def fixed_diff_table(t: int, n_max: int) -> list[int]:
    """Counts of partitions with largest-smallest difference t, for all
    n = 0..n_max at once (index n).  Entry 0 is always 0."""
    if t < 0:
        raise ValueError(f"difference must be >= 0, got {t}")
    counts = [0] * (n_max + 1)
    if t == 0:
        # all parts equal some divisor of n: sieve over part values
        for part in range(1, n_max + 1):
            for n in range(part, n_max + 1, part):
                counts[n] += 1
        return counts
    s = 1
    while 2 * s + t <= n_max:
        base = 2 * s + t  # one forced copy each of s and s+t
        ways = _multiset_sums(range(s, s + t + 1), n_max - base)
        for r, w in enumerate(ways):
            counts[base + r] += w
        s += 1
    return counts


def specified_table(distances: Sequence[int], n_max: int) -> list[int]:
    """Counts of partitions with the given milestone distances, n = 0..n_max.

    With smallest part s, the k+1 milestones s, s+t1, s+t1+t2, ... each occur
    at least once and every other part lies in [s, s+t]; the forced milestones
    weigh (k+1)s + sum_i (k+1-i) t_i.
    """
    distances = _check_distances(distances)
    t = sum(distances)
    k = len(distances)
    weighted = _weighted_total(distances)
    counts = [0] * (n_max + 1)
    s = 1
    while (k + 1) * s + weighted <= n_max:
        base = (k + 1) * s + weighted
        ways = _multiset_sums(range(s, s + t + 1), n_max - base)
        for r, w in enumerate(ways):
            counts[base + r] += w
        s += 1
    return counts


def count_fixed_diff(n: int, t: int) -> int:
    """# partitions of n whose largest part exceeds its smallest by exactly t."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t == 0:
        return divisor_count(n)
    return fixed_diff_table(t, n)[n]


def count_specified(n: int, distances: Sequence[int]) -> int:
    """# partitions of n realizing the milestone distances (see specified_table)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return specified_table(distances, n)[n]


@dataclass(frozen=True)
class PartitionCountQuery:
    """A single counting question: spec distances, or None for difference zero."""

    n: int
    distances: tuple[int, ...] | None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.distances is not None:
            _check_distances(self.distances)


def count(query: PartitionCountQuery) -> int:
    if query.distances is None:
        return divisor_count(query.n)
    if len(query.distances) == 1:
        return count_fixed_diff(query.n, query.distances[0])
    return count_specified(query.n, query.distances)


def iter_specified(n: int, distances: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield the counted partitions themselves, nonincreasing tuples.

    Diagnostic helper for tests; exponential in spirit but only used at small n.
    """
    distances = _check_distances(distances)
    t = sum(distances)
    k = len(distances)
    weighted = _weighted_total(distances)
    s = 1
    while (k + 1) * s + weighted <= n:
        milestones = [s]
        for d in distances:
            milestones.append(milestones[-1] + d)
        remainder = n - sum(milestones)
        allowed = list(range(s, s + t + 1))

        def extend(rem: int, idx: int, extra: list[int]):
            if rem == 0:
                yield tuple(sorted(milestones + extra, reverse=True))
                return
            for i in range(idx, len(allowed)):
                part = allowed[i]
                if part > rem:
                    break
                yield from extend(rem - part, i, extra + [part])

        yield from extend(remainder, 0, [])
        s += 1
