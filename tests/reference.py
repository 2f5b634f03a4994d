"""Reference computations that only the tests read: the counted partitions
listed one by one, the unrestricted partition numbers, Gaussian binomials by
the q-Pascal recurrence, the paper's difference-3 and distance-(2,2) case
tables as quasipolynomials, and the closed form built for one spec and the
2phi1 sum with full-length terms, against which genfun's shared (t, k) cores
and cut terms are checked."""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from partition_gf.counting import _coerce_spec
from partition_gf.genfun import _alternating_sum
from partition_gf.qseries import (
    FactoredRational,
    _divide_by_one_minus_q_power,
    _multiply_by_one_minus_q_power,
    _times_one_minus_q_powers,
    pochhammer_q,
)
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


def closed_form_specified_one_spec(spec) -> FactoredRational:
    """`genfun.closed_form_specified` built for this one spec, the shift
    q^{W - C(k+1,2)} applied to the numerator before the (1-q^m) passes and
    the reduction, with no form shared between specs."""
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    partial, poch = _alternating_sum(t, range(k + 1)), pochhammer_q(t)
    core = [(-1) ** k * (a - p) for a, p in zip(partial, poch)]
    lead_exp = spec.weighted_total - math.comb(k + 1, 2)
    numerator = _times_one_minus_q_powers([0] * lead_exp + core, [*range(1, k + 1), *range(1, t - k)])
    denominator = [(m, 1) for m in range(1, t)] + [(t, 1)] + [(m, 1) for m in range(1, t + 1)]
    return FactoredRational(numerator, denominator).reduce()


def two_phi_one_full_length(a: int, b: int, c: int, z: int, order: int) -> list[int]:
    """`genfun._two_phi_one` with every term carried at full length order + 1
    and added index by index."""
    total = [0] * (order + 1)
    term = [1] + [0] * order
    offset, sign = 0, 1
    for j in range(order + 2):
        if j > 0:
            e = a + j - 1
            offset += z + min(e, 0)
            if e == 0 or offset > order:
                break
            if e < 0:
                sign = -sign
            _multiply_by_one_minus_q_power(term, abs(e))
            _multiply_by_one_minus_q_power(term, b + j - 1)
            _divide_by_one_minus_q_power(term, j)
            _divide_by_one_minus_q_power(term, c + j - 1)
        for idx in range(order + 1 - offset):
            total[offset + idx] += sign * term[idx]
    return total
