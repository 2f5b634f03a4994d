"""Generating functions for partitions with specified milestone distances
(t1..tk); a fixed largest-smallest difference t is the one-distance case (t,).

Every generating function is available by routes that must agree:

* a direct sum over the smallest part m, nested from the last summand that
  reaches the order down to m = 1 in one packed integer, a few big-int shifts
  a level (summand m+1 is summand m times q^{k+1}(1-q^m)/(1-q^{m+t+1})),
* a partial-fraction form, plus the divisor series at t = k, by list passes, and
* a closed rational form with a (1-q^m)-product denominator.

The closed form exists when the total distance t exceeds k (t > 1 for a
fixed difference); at t = k the series is not rational.  It is
P_spec = q^{W - C(k+1,2)} R_{t,k}, W the weighted total, and each R_{t,k} is
built once per process.  `routes` lists the routes that apply to a spec and
`series` picks one.  `closed_form_fixed_diff`, the paper's displayed form for
one distance, checks `closed_form_specified` independently; `core_identity_check`
proves each core R_{t,k} equal to the partial-fraction form's rational part.
"""

from __future__ import annotations

import functools
import math
import operator

from . import counting
from .counting import DistanceSpec  # re-exported
from .counting import MAX_ORDER, _coerce_spec, _packed_divide, _slot_bits, _unpack, divisor_count, fixed_diff_table
from .errors import OutOfRange, TooLarge
from .qseries import (
    FactoredRational,
    TruncatedSeries,
    _divide_by_one_minus_q_power,
    _times_one_minus_q_powers,
    _times_ratio,
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

    The numerator is the tail (-1)^{k+1} sum_{j=k+1}^{t} [t,j] (-1)^j q^{C(j+1,2)}, as the full
    sum is (q)_t by the finite q-binomial theorem.  R_{t,k} (`_closed_core`) is built and reduced
    once per process; the shift is prepended to its numerator (exact division by 1-q^m commutes).
    """
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    if not spec.has_closed_form:
        raise OutOfRange(f"closed form requires total distance > k, got t={t}, k={k}")
    core, lead_exp = _closed_core(t, k), spec.weighted_total - math.comb(k + 1, 2)  # >= 0
    return FactoredRational([0] * lead_exp + list(core.numerator), core.denominator)


@functools.cache
def _closed_core(t: int, k: int) -> FactoredRational:
    """R_{t,k}, reduced.  Its numerator is the q-binomial tail, one `gauss_binomial` row [t,j]
    per term j = k+1..t.  The Gaussian binomial in the denominator is cleared through
    [t-1,k] = (q)_{t-1} / ((q)_k (q)_{t-1-k}): the complementary Pochhammers join the numerator
    as one in-place (1-q^m) pass each, (q)_{t-1} joins the (1-q^m) denominator multiset, and
    common factors are cancelled by exact division."""
    core = [0] * (math.comb(t + 1, 2) + 1)  # term j has degree C(j+1,2) + j(t-j) <= C(t+1,2)
    for j in range(k + 1, t + 1):
        for i, c in enumerate(gauss_binomial(t, j), math.comb(j + 1, 2)):
            core[i] += (-1) ** (k + 1 + j) * c
    numerator = _times_one_minus_q_powers(core, [*range(1, k + 1), *range(1, t - k)])
    denominator = (
        [(m, 1) for m in range(1, t)]      # (q)_{t-1}
        + [(t, 1)]                         # 1 - q^t
        + [(m, 1) for m in range(1, t + 1)]  # (q)_t
    )
    return FactoredRational(numerator, denominator).reduce()


def partial_fraction_series(spec, order: int) -> TruncatedSeries:
    """The generating function for `spec` through q^order, W the weighted total, from

        P_spec = [t = k] (-1)^k sum_{n>=1} d(n) q^n - q^W / (q)_t sum_{m=1}^{t} q^m S_m / (1-q^m),
        S_m = sum_{j=m}^{t} (-1)^j q^{C(j,2) - kj} [t,j]:

    the direct sum's summand in a = q^s, q^W a^{k+1} / prod_{j=0}^{t} (1-q^j a), in partial
    fractions in a, summed over s >= 1; its polynomial part is a constant only at t = k.
    The rational part (`_partial_fraction_rational`) also serves the core proofs
    (`core_identity_check`).  No packed kernel of `counting` is used."""
    spec = _coerce_spec(spec)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    t, k = spec.total, spec.k
    rational = _partial_fraction_rational(t, k, spec.weighted_total, order)
    if t > k:
        return TruncatedSeries(rational)
    return TruncatedSeries(map(operator.sub if k % 2 else operator.add, rational, fixed_diff_table(0, order)))


def _partial_fraction_rational(t: int, k: int, lead: int, order: int) -> list[int]:
    """-q^lead / (q)_t sum_{m=1}^{t} q^m S_m / (1-q^m) through q^order, for lead >= C(k+1,2):
    every exponent lead + C(j,2) - kj is then >= 0.  The suffix sums -q^lead S_m step the rows
    [t,j] down from [t,t] = 1; q^m (-q^lead S_m) / (1-q^m) is one pass over that polynomial,
    then repeats with period m; (q)_t takes t passes."""
    suffix, total, row = [], [0] * (order + 1), [1]  # -q^lead S_{j+1}, the sum, [t,t]
    for j in range(t, 0, -1):
        if j < t:
            row = _times_ratio(row, j + 1, t - j)  # [t,j] = [t,j+1] (1-q^{j+1}) / (1-q^{t-j})
        start = lead + math.comb(j, 2) - k * j
        end = min(start + len(row), order + 1)
        suffix += [0] * (end - len(suffix))
        suffix[start:end] = map(operator.add if j % 2 else operator.sub, suffix[start:end], row)
        piece = ([0] * j + suffix)[: order + 1]
        _divide_by_one_minus_q_power(piece, j)
        piece += piece[-j:] * ((order + 1 - len(piece)) // j + 1)  # period j past the polynomial
        total = list(map(operator.add, total, piece))
    for m in range(1, t + 1):
        _divide_by_one_minus_q_power(total, m)
    return total


def routes(spec) -> dict:
    """name -> (order -> the series through q^order) for each route that applies to `spec`, in
    `verify`'s column order.  A route looks its function up when it runs: a later patch holds."""
    spec, listed = _coerce_spec(spec), {}
    if spec.has_closed_form:
        listed["closed"] = lambda order: closed_form_specified(spec).expand(order)
    listed["direct"] = lambda order: direct_series_specified(spec, order)
    listed["table"] = lambda order: TruncatedSeries(counting.specified_table(spec, order))
    listed["partial"] = lambda order: partial_fraction_series(spec, order)
    if spec.has_closed_form and spec.k == 1:
        listed["displayed"] = lambda order: closed_form_fixed_diff(spec.total).expand(order)
    return listed


def series(spec, order: int) -> TruncatedSeries:
    """The generating function for `spec` through q^order <= MAX_ORDER, by one of its `routes`:
    the closed form where t > k from order C(t+1, 2), the partial-fraction form at t = k from order
    100 t, each from order spec.min_weight on; below those the direct sum costs less."""
    spec = _coerce_spec(spec)
    if order > MAX_ORDER:
        raise TooLarge(f"order {order} is above the series-order cap {MAX_ORDER}")
    rational, t = spec.has_closed_form, spec.total
    turn = max(spec.min_weight, math.comb(t + 1, 2) if rational else 100 * t)
    return routes(spec)["direct" if order < turn else "closed" if rational else "partial"](order)


def p1_identity_check(order: int) -> bool:
    """Check three routes to the difference-1 series q/(1-q)^2 - sum_n d(n) q^n through
    q^order: the packed nest over the smallest part, list passes plus the divisor sieve
    (the partial-fraction form at k = 1), and n - d(n) by trial division."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    counted = TruncatedSeries([0] + [n - divisor_count(n) for n in range(1, order + 1)])
    return direct_series_specified((1,), order) == partial_fraction_series((1,), order) == counted


def core_identity_check(t: int, k: int) -> bool:
    """Prove the core R_{t,k} = N1/D1 (`_closed_core`) equal to the partial-fraction form's
    rational part at lead W = C(k+1,2), N2/D2 with D2 = (q)_t^2 of degree t(t+1).  Both are
    rational with integer coefficients, so agreement through q^M, M = max(deg N1 + deg D2,
    deg N2 + deg D1), makes them equal: N1 D2 - N2 D1 has degree <= M and vanishes mod
    q^{M+1} (Zeilberger, "The C-finite ansatz", Ramanujan J. 31, 2013).  The term j of
    q^m q^W S_m (q)_t / (1-q^m) has degree W + C(j,2) - kj + j(t-j) + C(t+1,2) at most, so
    deg N2 <= W + C(t-k,2) + C(t+1,2), the bound at j = t-k."""
    if not 1 <= k < t:
        raise OutOfRange(f"a core needs 1 <= k < t, got t={t}, k={k}")
    core, lead = _closed_core(t, k), math.comb(k + 1, 2)
    top = lead + math.comb(t + 1, 2) + math.comb(t - k, 2)
    order = max(len(core.numerator) - 1 + t * (t + 1), top + sum(m * e for m, e in core.denominator))
    return list(core.expand(order).coeffs) == _partial_fraction_rational(t, k, lead, order)
