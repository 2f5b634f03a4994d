"""Reference computations that only the tests read: the counted partitions
listed one by one, the unrestricted partition numbers, Gaussian binomials by
the q-Pascal recurrence, and the paper's difference-3 and distance-(2,2) case
tables as quasipolynomials."""

from __future__ import annotations

from typing import Iterator, Sequence

from partition_gf.counting import _coerce_spec
from partition_gf.quasipoly import _P3_CASES, _P22_CASES, QuasiPolynomial


def total_partition_count(n: int) -> int:
    """The unrestricted partition number p(n); p(0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return multiset_sums(range(1, n + 1), n)[n]


def multiset_sums(parts: Sequence[int], total: int) -> list[int]:
    # ways[j] = # multisets drawn from `parts` summing to j (unbounded coin DP)
    ways = [0] * (total + 1)
    ways[0] = 1
    for part in parts:
        for j in range(part, total + 1):
            ways[j] += ways[j - part]
    return ways


def gauss_binomial_pascal(top: int, bottom: int) -> tuple[int, ...]:
    """The Gaussian binomial [top, bottom] as a coefficient tuple, by the
    q-Pascal recurrence: an independent check on `qseries.gauss_binomial`."""
    if top < 0:
        raise ValueError(f"top index must be >= 0, got {top}")
    if bottom < 0 or bottom > top:
        return ()
    # [A,B] = [A-1,B-1] + q^B [A-1,B]
    row = [[1]]
    for a in range(1, top + 1):
        new_row = [[1]]
        for b in range(1, a):
            entry = [0] * b + row[b]
            for i, c in enumerate(row[b - 1]):
                entry[i] += c
            new_row.append(entry)
        new_row.append([1])
        row = new_row
    return tuple(row[bottom])


def iter_specified(n: int, spec) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n that realize the milestone distances,
    nonincreasing tuples, by listing them: exponential, for small n only."""
    spec = _coerce_spec(spec)
    distances, t, k, weighted = spec.distances, spec.total, spec.k, spec.weighted_total
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


def p3_quasipolynomial() -> QuasiPolynomial:
    """The difference-3 case table as a QuasiPolynomial (period 6, degree 3)."""
    return QuasiPolynomial(6, 3, tuple(_P3_CASES[r] for r in range(6)), 108)


def p22_quasipolynomial() -> QuasiPolynomial:
    """The distance-(2,2) case table as a QuasiPolynomial (period 12, degree 4)."""
    return QuasiPolynomial(12, 4, tuple(_P22_CASES[r] for r in range(12)), 6912)
