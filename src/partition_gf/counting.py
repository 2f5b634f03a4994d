"""Partition counting by a coin DP over the smallest part, and the packed
big-int kernels it shares with `genfun.direct_series_specified`.

The table slides one coin DP along the smallest part s: the window for s
counts the multisets of parts in [s, s+t] by their sum, and s -> s+1 drops
coin s and adds coin s+t+1.  The DP and the counts are each one integer, the
polynomial evaluated at q = 2^w, so a pass over the window is a few big-int
shifts, masks and adds rather than a loop over coefficients.  The slot width
`_slot_bits`, the packed geometric division `_packed_divide` and `_unpack`
are shared with the direct series sum, which the table is checked against.
genfun's closed form (t > k) and partial-fraction form share none of them;
at t = k the latter adds this module's divisor sieve, `fixed_diff_table(0, n)`.

A point count reads the windows' top slots for s up to a cut near cbrt(n t)
and, above it, one packed Gaussian row [r+t, t] per number r of free parts
(Andrews, The Theory of Partitions, Thm 3.1).
"""

from __future__ import annotations

import math
import operator
import struct
from itertools import islice, repeat
from typing import Sequence

from .errors import InvalidDistance, TooLarge

MAX_DIVISOR_N = 10**14  # trial division to sqrt(n): 10^7 steps there, about 0.8 s
# The largest n or order of a route that holds O(n) coefficients: the point count,
# `genfun.series` and the quasipolynomial fit's expansion, whose default order
# W + lcm(1..t) * (t+1) passes it from t = 13 on (at t = 12 it is 27720 * 13 + W).
MAX_ORDER = 10**6


def divisor_count(n: int) -> int:
    """Number of positive divisors of n <= MAX_DIVISOR_N, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_DIVISOR_N:
        raise TooLarge(f"n={n} is above the divisor-count cap {MAX_DIVISOR_N} = 10^14 (trial division)")
    count = 0
    root = math.isqrt(n)
    for d in range(1, root + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


class DistanceSpec:
    """A non-empty vector of positive distances (t1..tk); a fixed difference
    t is the one-distance spec (t,).

    With smallest part s, the milestones s, s+t1, s+t1+t2, ..., s+t must all
    occur; t = sum of distances is the largest-smallest difference and the
    weighted total sum_i (k+1-i) t_i is the exponent offset contributed by
    the forced milestones.
    """

    __slots__ = ("distances",)

    def __init__(self, distances: Sequence[int]):
        distances = tuple(distances)
        if not distances:
            raise InvalidDistance("distance vector must be non-empty")
        for d in distances:
            if isinstance(d, bool) or not isinstance(d, int):
                raise InvalidDistance(f"distances must be integers, got {d!r}")
            if d < 1:
                raise InvalidDistance(f"distances must be >= 1, got {d}")
        self.distances: tuple[int, ...] = distances

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistanceSpec) and self.distances == other.distances

    def __hash__(self) -> int:
        return hash((self.distances,))

    def __repr__(self) -> str:
        return f"DistanceSpec(distances={self.distances!r})"

    @property
    def total(self) -> int:
        """t: the difference between largest and smallest parts."""
        return sum(self.distances)

    @property
    def k(self) -> int:
        return len(self.distances)

    @property
    def weighted_total(self) -> int:
        """sum_i (k+1-i) t_i: total weight of the forced milestones above k+1 copies of s."""
        k = self.k
        return sum((k + 1 - i) * d for i, d in enumerate(self.distances, start=1))

    @property
    def min_weight(self) -> int:
        """Smallest n with a counted partition (take smallest part 1)."""
        return (self.k + 1) + self.weighted_total

    @property
    def has_closed_form(self) -> bool:
        """t > k: the generating function is rational (t > 1 when k = 1)."""
        return self.total > self.k


def _coerce_spec(spec) -> DistanceSpec:
    return spec if isinstance(spec, DistanceSpec) else DistanceSpec(spec)


def fixed_diff_table(t: int, n_max: int) -> list[int]:
    """Counts of partitions with largest-smallest difference t, for all
    n = 0..n_max at once (index n).  Entry 0 is always 0."""
    if t < 0:
        raise ValueError(f"difference must be >= 0, got {t}")
    if t > 0:
        return specified_table((t,), n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # All parts equal one divisor of n.  Divisors pair up as d < n/d, so each
    # d <= sqrt(n_max) counts once at d*d and twice at every n = d*e with e > d.
    counts = [0] * (n_max + 1)
    for d in range(1, math.isqrt(n_max) + 1):
        counts[d * d] += 1
        counts[d * (d + 1) :: d] = map(operator.add, counts[d * (d + 1) :: d], repeat(2))
    return counts


def specified_table(spec, n_max: int) -> list[int]:
    """Counts of partitions with the given milestone distances, n = 0..n_max.

    With smallest part s, the k+1 milestones s, s+t1, s+t1+t2, ... each occur
    at least once and every other part lies in [s, s+t]; the forced milestones
    weigh base = (k+1)s + sum_i (k+1-i) t_i.  `counts` packs coefficient j
    into bits [j*w, (j+1)*w) and adds each coin window (_windows) at its base.
    """
    spec = _coerce_spec(spec)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    w = _slot_bits(n_max, spec.total)
    counts = sum(ways << base * w for base, ways in _windows(spec, n_max, w))
    return _unpack(counts, n_max + 1, w)


def _windows(spec: DistanceSpec, n_max: int, w: int):
    """(base, ways) for each smallest part s with base <= n_max: `ways` packs the multisets
    of coins s..s+t by sum j <= n_max - base.  For s = 1 it adds coins 1..t+1; each next s
    cuts it, drops coin s by a masked shifted subtract and adds coin s+t+1 (_packed_divide)."""
    t, step, base = spec.total, spec.k + 1, spec.min_weight
    ways, coins, s = 1, range(1, t + 2), 1
    while base <= n_max:
        mask = (1 << (n_max - base + 1) * w) - 1
        ways = _packed_divide(ways & mask, coins, mask, w)
        yield base, ways
        ways -= (ways << s * w) & mask
        coins = (s + t + 1,)
        base, s = base + step, s + 1


def _packed_divide(packed: int, powers, mask: int, w: int) -> int:
    """packed / prod_{c in powers} (1-q^c) mod 2^(size*w) = mask + 1, w bits a slot: each
    factor is (1+q^c)(1+q^2c)(1+q^4c)... through the window; carries past it are kept."""
    for c in powers:
        while c * w < mask.bit_length():
            packed += (packed << c * w) & mask
            c *= 2
    return packed


def _unpack(packed: int, size: int, w: int) -> list[int]:
    """The low `size` slots of `packed`, w bits each (a multiple of 8), lowest first.  Each
    64-bit limb of every slot, low limb first, is gathered by strided byte-slice copies into
    one little-endian 8-byte word a slot and read at once by `struct`; `map` shifts each
    higher limb into place."""
    step = w // 8
    raw = (packed & ((1 << size * w) - 1)).to_bytes(size * step, "little")
    for low in range(0, step, 8):
        limb = bytearray(8 * size)
        for byte in range(low, min(low + 8, step)):
            limb[byte - low :: 8] = raw[byte::step]
        words, shifts = struct.unpack(f"<{size}Q", limb), [8 * low] * size
        slots = list(words) if low == 0 else list(map(operator.or_, slots, map(operator.lshift, words, shifts)))
    return slots


def _slot_bits(n_max: int, t: int) -> int:
    """Bits per slot, a multiple of 8, so that no carry or borrow crosses a slot.
    A count of partitions of j <= n_max into t+1 consecutive part values is at most
    p(n_max) < e^(pi sqrt(2n/3)) < 2^sqrt(14n) (Apostol, Introduction to Analytic Number
    Theory, Thm 14.5) and, with m = min(t, n_max) + 1, at most (n_max+1) ceil(V) for
    V = (n_max + m(m+1)/2 - 1)^(m-1) / ((m-1)! m!), the volume in step 2 at j = n_max:
    1. A window for smallest part s counts at most p_{<=m}(j): x_i copies of s+i
       (none above j) map one to one to x_i copies of i+1 plus (s-1) sum x_i ones.
    2. p_{<=m}(j) <= vol {y >= 0 : sum_{i=2..m} i y_i <= j + sum_{i=2..m} i}: x_1 is
       fixed by the others, and their unit cubes are disjoint, inside it (Nathanson 2000).
    3. The doubling's partial products, a window after dropping coin s and the partial
       sums of the counts are >= 0 and at most a final count, <= n_max+1 window entries.
    4. count_specified reads a Gaussian row [r+t, t] only if (cut+1)(k+1+r) <= n_max with
       cut >= t, so rt < n_max: coefficient j counts partitions of j < n_max into parts <= t,
       at most p_{<=m}(j) (m > min(t, j)); its passes are exact mod 2^((rt+1)w).
    It sizes genfun's direct sum too: exact mod 2^(size*w), only its final counts must fit."""
    m = min(t, n_max) + 1  # no part exceeds n_max
    numerator = (n_max + m * (m + 1) // 2 - 1) ** (m - 1)
    simplex = -(-numerator // math.factorial(m - 1) // math.factorial(m))
    partition = math.isqrt(14 * n_max) + 1
    return -(-min(partition, ((n_max + 1) * simplex).bit_length()) // 8) * 8


def count_specified(n: int, spec) -> int:
    """# partitions of n realizing the milestone distances, split at a smallest part near
    cbrt(n t), where the windows' work (n slots each) meets the rows' ((n/cut)^2 t slots)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise TooLarge(f"n={n} is above the point-count cap {MAX_ORDER}")
    spec = _coerce_spec(spec)
    t = spec.total
    return _count(n, spec, max(t, 1 << (n * t).bit_length() // 3))


def _count(n: int, spec: DistanceSpec, cut: int) -> int:
    """count_specified summed over the smallest part s: the top slot of each window for s <= cut,
    and for s > cut by the number r of free parts.  They are s+i over a partition of the offsets i
    into at most r parts <= t, so [q^M] [r+t, t] (_gauss_rows) counts them at M = N - (k+1+r)s,
    N = n - weighted_total; for each r, 0 <= M <= rt holds for at most t+1 values of s.  cut >= t
    keeps rt < n, inside the windows' slot width (_slot_bits, step 4)."""
    t, k, N = spec.total, spec.k, n - spec.weighted_total
    w = _slot_bits(n, t)
    # No window has base > n, and islice's stop must fit a C ssize_t (t may reach 2^63).
    count = sum(ways >> (n - base) * w for base, ways in islice(_windows(spec, n, w), min(cut, n)))
    top = (1 << w) - 1
    # Row r is read while some s > cut has (k+1+r)s <= N, which keeps rt < n.
    for r, row in zip(range(N // (cut + 1) - k), _gauss_rows(t, w)):
        d = k + 1 + r
        count += sum((row >> m * w) & top for m in range(N % d, min(r * t + 1, N - d * cut), d))
    return count


def _gauss_rows(t: int, w: int):
    """[r+t, t] for r = 0, 1, 2, ..., each packed in rt+1 slots of w bits: row r is row r-1 times
    (1-q^(r+t)) by a masked shifted subtract, then divided by (1-q^r); the last mask drops what
    _packed_divide carries past the row, which the next row's wider mask would read."""
    row, r = 1, 0
    while True:
        yield row
        r += 1
        mask = (1 << (r * t + 1) * w) - 1
        row = _packed_divide(row - ((row << (r + t) * w) & mask), (r,), mask, w) & mask
