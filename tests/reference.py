"""Reference computations that only the tests read: the counted partitions
listed one by one, the unrestricted partition numbers, Gaussian binomials by
the q-Pascal recurrence, the (1-q^m) passes one coefficient at a time, the
divisor counts with no bound on a count, the alternating q-binomial sum of
the closed forms, the closed form built for one spec, against which
genfun's shared (t, k) cores are checked, a grid of 78 distance vectors on
which the tests run every route, Heine's transformation of basic
hypergeometric series, a check of the qseries (1-q^m) passes that no route of
the package sums, the packed slot width with its simplex bound always computed
exactly, and a b-file cross-check through a dict of the fixture's entries."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from partition_gf.counting import _coerce_spec
from partition_gf.errors import InvalidExponent
from partition_gf.qseries import FactoredRational, pochhammer_q


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


def divide_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by 1/(1-q^m), one coefficient at a time; the reference for
    qseries' slice kernels."""
    for j in range(m, len(coeffs)):
        coeffs[j] += coeffs[j - m]


def multiply_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by (1 - q^m), one coefficient at a time, from the top down."""
    for j in range(len(coeffs) - 1, m - 1, -1):
        coeffs[j] -= coeffs[j - m]


def divisor_counts(n_max: int) -> list[int]:
    """d(n) for n = 0..n_max (entry 0 is 0), one list pass per divisor d <= sqrt(n_max) with
    no bound on a count; the reference for the byte sieve of `counting.fixed_diff_table`."""
    counts = [0] * (n_max + 1)
    for d in range(1, math.isqrt(n_max) + 1):
        counts[d * d] += 1
        for n in range(d * (d + 1), n_max + 1, d):
            counts[n] += 2
    return counts


def slot_bits(n_max: int, t: int, summed: bool = True) -> int:
    """`counting._slot_bits` with the simplex bound V always computed exactly: the reference for
    its shortcut, which skips V where V cannot be the smaller bound."""
    m = min(t, n_max) + 1
    numerator = (n_max + m * (m + 1) // 2 - 1) ** (m - 1)
    simplex = -(-numerator // math.factorial(m - 1) // math.factorial(m))
    partition = math.isqrt(14 * n_max) + 1
    return -(-min(partition, ((n_max + 1 if summed else 1) * simplex).bit_length()) // 8) * 8


def cross_check(entries, offset: int, computed) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(checked, mismatches) of computed {n: value} against b-file (index, value) entries whose
    value for n sits at index n + offset, by a dict of the entries read at each computed n in
    sorted order: the reference for `oeis.cross_check`'s one pass over the entries."""
    by_index = dict(entries)
    mismatches = []
    checked = 0
    for n in sorted(computed):
        expected = by_index.get(n + offset)
        if expected is None:
            continue
        checked += 1
        if expected != computed[n]:
            mismatches.append((n, expected, computed[n]))
    return checked, tuple(mismatches)


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


def alternating_sum(t: int, js, row=gauss_binomial_pascal) -> list[int]:
    """sum_{j in js} [t,j] (-1)^j q^{C(j+1,2)} at the length C(t+1,2) + 1 of (q)_t, which the sum
    over j = 0..t equals (the finite q-binomial theorem); each row [t,j] is read from `row`."""
    out = [0] * (math.comb(t + 1, 2) + 1)  # term j has degree C(j+1,2) + j(t-j) <= C(t+1,2)
    for j in js:
        for i, c in enumerate(row(t, j), math.comb(j + 1, 2)):
            out[i] += (-1) ** j * c
    return out


def closed_form_specified_one_spec(spec) -> FactoredRational:
    """`genfun.closed_form_specified` built for this one spec, the shift
    q^{W - C(k+1,2)} applied to the numerator before the (1-q^m) passes and
    the reduction, with no form shared between specs.  The numerator is the
    paper's literal prefix sum over j <= k less (q)_t, from q-Pascal rows,
    where `genfun` sums the tail over j > k."""
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    partial, poch = alternating_sum(t, range(k + 1)), pochhammer_q(t)
    core = [(-1) ** k * (a - p) for a, p in zip(partial, poch)]
    lead_exp = spec.weighted_total - math.comb(k + 1, 2)
    factors = [*range(1, k + 1), *range(1, t - k)]
    numerator = [0] * lead_exp + core + [0] * sum(factors)
    for m in factors:
        multiply_by_one_minus_q_power(numerator, m)
    denominator = [(m, 1) for m in range(1, t)] + [(t, 1)] + [(m, 1) for m in range(1, t + 1)]
    return FactoredRational(numerator, denominator).reduce()


def specified_grid():
    """Every (t1..tk) with k = 2 or 3, each ti in 1..4 and t > k: 78 specs."""
    for k in (2, 3):
        for distances in itertools.product(range(1, 5), repeat=k):
            if sum(distances) > k:
                yield distances


def heine_check(a_exp: int, b_exp: int, c_exp: int, z_exp: int, order: int) -> bool:
    """Heine's transformation at a = q^a_exp, b = q^b_exp, c = q^c_exp, z = q^z_exp
    through q^order:

        2phi1(a, b; c; z) = (c/b)_oo (bz)_oo / ((c)_oo (z)_oo) * 2phi1(abz/c, b; bz; c/b)

    Both sides are summed by `two_phi_one`.  At integer exponents the infinite
    products telescope to prod_{e=c-b}^{c-1} (1-q^e) / prod_{e=z}^{z+b-1} (1-q^e).
    """
    for name, e in (("a_exp", a_exp), ("b_exp", b_exp), ("c_exp", c_exp), ("z_exp", z_exp)):
        if e < 1:
            raise InvalidExponent(f"{name} must be >= 1, got {e}")
    if c_exp <= b_exp:
        raise InvalidExponent(
            f"need c_exp > b_exp for the (c/b) infinite product, got {c_exp} <= {b_exp}"
        )
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    args = (a_exp, b_exp, c_exp, z_exp, order)
    return two_phi_one(*args) == _heine_right_side(*args)


def _heine_right_side(a_exp: int, b_exp: int, c_exp: int, z_exp: int, order: int) -> list[int]:
    """The transformed side of `heine_check` through q^order."""
    s, cb = a_exp + b_exp + z_exp - c_exp, c_exp - b_exp  # exponents of abz/c and c/b
    total = two_phi_one(s, b_exp, b_exp + z_exp, cb, order)
    for e in range(cb, c_exp):
        multiply_by_one_minus_q_power(total, e)
    for e in range(z_exp, z_exp + b_exp):
        divide_by_one_minus_q_power(total, e)
    return total


def two_phi_one(a: int, b: int, c: int, z: int, order: int) -> list[int]:
    """2phi1(q^a, q^b; q^c; q^z) = sum_{j>=0} (q^a)_j (q^b)_j q^{zj} / ((q)_j (q^c)_j)
    through q^order, for b, c, z >= 1 and a + z >= 1.  Term j is sign * q^offset * P_j,
    P_j stepped from P_{j-1} by one (1-q^e) pass per factor at full length order + 1.
    A factor 1 - q^e of (q^a)_j with e < 0 is -q^e (1 - q^{-e}), and 1 - q^0 zeroes
    every later term; the offset grows by z + min(e, 0) >= 1 per term."""
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
            multiply_by_one_minus_q_power(term, abs(e))
            multiply_by_one_minus_q_power(term, b + j - 1)
            divide_by_one_minus_q_power(term, j)
            divide_by_one_minus_q_power(term, c + j - 1)
        for idx in range(order + 1 - offset):
            total[offset + idx] += sign * term[idx]
    return total
