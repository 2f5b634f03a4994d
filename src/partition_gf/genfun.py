"""Generating functions for partitions with specified milestone distances
(t1..tk); a fixed largest-smallest difference t is the one-distance case (t,).

Every generating function is available by two routes that must agree:

* a direct sum over the smallest part m, nested from the last summand that
  reaches the order down to m = 1 in one packed integer, a few big-int shifts
  a level (summand m+1 is summand m times q^{k+1}(1-q^m)/(1-q^{m+t+1})), and
* a closed rational form with a (1-q^m)-product denominator.

The closed form exists when the total distance t exceeds k (t > 1 for a
fixed difference); below that the series is not rational and only the
direct route applies.  It is P_spec = q^{W - C(k+1,2)} R_{t,k}, W the
weighted total, and each R_{t,k} is built once per process.  `series` picks
the route.  `closed_form_fixed_diff` is the paper's displayed form for one
distance, kept as an independent check on `closed_form_specified`.

The module also verifies, at truncated-series level, the two classical
identities the closed forms rest on: Heine's transformation of basic
hypergeometric series, specialized to integer powers of q, and the finite
q-binomial theorem.
"""

from __future__ import annotations

import functools
import math
import operator

from .counting import DistanceSpec  # re-exported
from .counting import _coerce_spec, _packed_divide, _slot_bits, _unpack, divisor_count, fixed_diff_table
from .errors import InvalidExponent, OutOfRange
from .qseries import (
    FactoredRational,
    TruncatedSeries,
    _divide_by_one_minus_q_power,
    _multiply_by_one_minus_q_power,
    _times_one_minus_q_powers,
    _times_ratio,
    _trim,
    gauss_binomial,
    pochhammer_q,
)


def direct_series_specified(spec, order: int) -> TruncatedSeries:
    """Sum over the smallest part m of q^{(k+1)m + W} / prod_{j=0}^{t} (1-q^{m+j}),
    W the weighted milestone total; truncated at `order`.  Nested from the largest m
    that reaches the order: V_M = 1, V_m = 1 + q^{k+1}(1-q^m)/(1-q^{m+t+1}) V_{m+1},
    V_m kept to size = order - (k+1)m - W + 1 terms; the sum is q^{k+1+W} V_1 / (q)_{t+1}.
    V is one integer, V(2^w) mod 2^{size*w}: q -> 2^w maps Z[q]/(q^size) onto
    Z/2^{size*w} as a ring homomorphism and every step is a ring operation (the shift
    by q^{k+1} lifts the residue to the larger size), so V's slots may go negative and
    only the final counts, those `specified_table` returns, must fit w = _slot_bits."""
    spec = _coerce_spec(spec)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    t, step, first = spec.total, spec.k + 1, spec.min_weight
    if first > order:
        return TruncatedSeries([0] * (order + 1))
    w = _slot_bits(order, t)
    nested, size = 1, (order - first) % step + 1  # V_M, M = (order - first) // step + 1
    for m in range((order - first) // step, 0, -1):
        if m < size:  # else (1-q^m)/(1-q^{m+t+1}) is 1 mod q^size
            mask = (1 << size * w) - 1
            nested = (nested - ((nested << m * w) & mask)) & mask
            nested = _packed_divide(nested, (m + t + 1,), mask, w)
        nested, size = (nested << step * w) + 1, size + step
    nested = _packed_divide(nested, range(1, t + 2), (1 << size * w) - 1, w)
    return TruncatedSeries([0] * first + _unpack(nested, size, w))


def closed_form_fixed_diff(t: int) -> FactoredRational:
    """The rational form of the fixed-difference generating function, t >= 2:

        q^{t-1}(1-q) / ((1-q^t)(1-q^{t-1}))
      - q^{t-1}(1-q) / ((1-q^t)(1-q^{t-1}) (q)_t)
      + q^t / ((1-q^{t-1}) (q)_t)

    built as one numerator over the one denominator the three terms share,

        ( q^{t-1}(1-q)((q)_t - 1) + q^t(1-q^t) ) / ( (1-q^{t-1})(1-q^t)(q)_t ),

    and reduced.  For t = 0, 1 the series is not rational and this raises
    OutOfRange.
    """
    if t <= 1:
        raise OutOfRange(
            f"closed form requires difference > 1 (got {t}); the t=0 and t=1 "
            "series have non-polar singularities and stay non-rational"
        )
    poch_minus_one = [0, *pochhammer_q(t)[1:]]  # (q)_t has constant term 1
    numerator = [0] * (t - 1) + _times_one_minus_q_powers(poch_minus_one, (1,))
    numerator[t] += 1  # + q^t(1-q^t); degree t-1 + C(t+1,2) + 1 exceeds 2t
    numerator[2 * t] -= 1
    poch = [(m, 1) for m in range(1, t + 1)]
    return FactoredRational(numerator, [(t - 1, 1), (t, 1)] + poch).reduce()


def closed_form_specified(spec) -> FactoredRational:
    """The rational form for specified distances, total t > k, W the weighted total:

        P_spec = q^{W - C(k+1,2)} R_{t,k},
        R_{t,k} = (-1)^k ( sum_{j=0}^{k} [t,j] (-1)^j q^{C(j+1,2)} - (q)_t ) / ( [t-1,k] (1-q^t) (q)_t )

    R_{t,k} (`_closed_core`) is built and reduced once per process; the shift
    is prepended to its numerator, as exact division by 1-q^m commutes with it.
    """
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    if not spec.has_closed_form:
        raise OutOfRange(f"closed form requires total distance > k, got t={t}, k={k}")
    core, lead_exp = _closed_core(t, k), spec.weighted_total - math.comb(k + 1, 2)  # >= 0
    return FactoredRational([0] * lead_exp + list(core.numerator), core.denominator)


@functools.cache
def _closed_core(t: int, k: int) -> FactoredRational:
    """R_{t,k}, reduced.  The Gaussian binomial in the denominator is cleared through
    [t-1,k] = (q)_{t-1} / ((q)_k (q)_{t-1-k}): the complementary Pochhammers join the
    numerator as one in-place (1-q^m) pass each, (q)_{t-1} joins the (1-q^m) denominator
    multiset, and common factors are cancelled by exact division.  The rows [t,j] of the
    sum are stepped from one to the next."""
    partial, poch = _alternating_sum(t, range(k + 1)), pochhammer_q(t)
    core = [(-1) ** k * (a - p) for a, p in zip(partial, poch)]  # of equal length
    numerator = _times_one_minus_q_powers(core, [*range(1, k + 1), *range(1, t - k)])
    denominator = (
        [(m, 1) for m in range(1, t)]      # (q)_{t-1}
        + [(t, 1)]                         # 1 - q^t
        + [(m, 1) for m in range(1, t + 1)]  # (q)_t
    )
    return FactoredRational(numerator, denominator).reduce()


def series(spec, order: int) -> TruncatedSeries:
    """The generating function for `spec` through q^order: the closed form's expansion
    where one exists and order >= spec.min_weight and C(t+1, 2), else the direct sum,
    which is cheaper than the closed form's O(t^3) build below C(t+1, 2)."""
    spec = _coerce_spec(spec)
    if spec.has_closed_form and order >= max(spec.min_weight, math.comb(spec.total + 1, 2)):
        return closed_form_specified(spec).expand(order)
    return direct_series_specified(spec, order)


def qbinomial_alternating_sum(t: int) -> tuple[int, ...]:
    """sum_{j=0}^{t} [t,j] (-1)^j q^{C(j+1,2)} as an exact polynomial, which
    the q-binomial theorem collapses to (q)_t.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return _trim(_alternating_sum(t, range(t + 1)))


def _alternating_sum(t: int, js: range) -> list[int]:
    """sum_{j in js} [t,j] (-1)^j q^{C(j+1,2)} as a list as long as (q)_t's, each row
    after the first stepped by [t,j+1] = [t,j] (1-q^{t-j}) / (1-q^{j+1}).  Private: perfbench
    times public genfun functions, and the closed form's sum is not an identity check."""
    out = [0] * (math.comb(t + 1, 2) + 1)  # term j has degree jt - C(j,2) <= C(t+1,2)
    row = gauss_binomial(t, js.start)
    for j in js:
        if j > js.start:
            row = _times_ratio(row, t - j + 1, j)
        for i, c in enumerate(row, math.comb(j + 1, 2)):
            out[i] += (-1) ** j * c
    return out


def p1_identity_check(order: int) -> bool:
    """Check the three routes to the difference-1 series through q^order:
    the sum over the smallest part, q/(1-q)^2 minus the divisor-generating
    sum, and the nondivisor counts n - d(n) themselves."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    summed = direct_series_specified((1,), order)
    rational = FactoredRational((0, 1), [(1, 2)]).expand(order).coeffs
    # fixed_diff_table(0, n) sieves the divisor counts: sum_m q^m/(1-q^m)
    subtracted = TruncatedSeries([r - d for r, d in zip(rational, fixed_diff_table(0, order))])
    counted = TruncatedSeries([0] + [n - divisor_count(n) for n in range(1, order + 1)])
    return summed == subtracted == counted


def heine_check(a_exp: int, b_exp: int, c_exp: int, z_exp: int, order: int) -> bool:
    """Verify Heine's transformation at a = q^a_exp, b = q^b_exp, c = q^c_exp,
    z = q^z_exp through q^order:

        2phi1(a, b; c; z) = (c/b)_oo (bz)_oo / ((c)_oo (z)_oo) * 2phi1(abz/c, b; bz; c/b)

    Both sides are summed by `_two_phi_one`.  At integer exponents the
    infinite products telescope to
    prod_{e=c-b}^{c-1} (1-q^e) / prod_{e=z}^{z+b-1} (1-q^e), 2b passes.
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
    return _two_phi_one(*args) == _heine_right_side(*args)


def _heine_right_side(a_exp: int, b_exp: int, c_exp: int, z_exp: int, order: int) -> list[int]:
    """The transformed side of `heine_check` through q^order."""
    s, cb = a_exp + b_exp + z_exp - c_exp, c_exp - b_exp  # exponents of abz/c and c/b
    total = _two_phi_one(s, b_exp, b_exp + z_exp, cb, order)
    for e in range(cb, c_exp):
        _multiply_by_one_minus_q_power(total, e)
    for e in range(z_exp, z_exp + b_exp):
        _divide_by_one_minus_q_power(total, e)
    return total


def _two_phi_one(a: int, b: int, c: int, z: int, order: int) -> list[int]:
    """2phi1(q^a, q^b; q^c; q^z) = sum_{j>=0} (q^a)_j (q^b)_j q^{zj} / ((q)_j (q^c)_j)
    through q^order, for b, c, z >= 1 and a + z >= 1.

    Term j is sign * q^offset * P_j, each P_j stepped from P_{j-1} by one
    in-place (1-q^e) pass per factor.  A factor 1 - q^e of (q^a)_j with e < 0
    is rewritten as -q^e (1 - q^{-e}), and 1 - q^0 zeroes every later term.
    The offset grows by z + min(e, 0) >= 1 per term, as e >= a, so every term
    is a power series and the sum stops at the first term past the order.
    P_j is cut to order + 1 - offset coefficients, the length of total[offset:]
    it is added to, before its passes: each (1-q^m) pass is exact on a prefix.
    """
    total = [0] * (order + 1)
    term = [1] + [0] * order  # P_0
    offset, sign = 0, 1
    for j in range(order + 2):  # offset >= j, so term order + 1 is past the order
        if j > 0:
            # P_j = P_{j-1} (1-q^{|a+j-1|})(1-q^{b+j-1}) / ((1-q^j)(1-q^{c+j-1}))
            e = a + j - 1
            offset += z + min(e, 0)
            if e == 0 or offset > order:
                break
            if e < 0:
                sign = -sign
            del term[order + 1 - offset :]
            _multiply_by_one_minus_q_power(term, abs(e))
            _multiply_by_one_minus_q_power(term, b + j - 1)
            _divide_by_one_minus_q_power(term, j)
            _divide_by_one_minus_q_power(term, c + j - 1)
        total[offset:] = map(operator.add if sign > 0 else operator.sub, total[offset:], term)
    return total
