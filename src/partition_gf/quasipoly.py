"""Quasipolynomials with exact rational coefficients: evaluation, exact
interpolation from a coefficient list, fits driven by the closed-form series,
and the explicit residue-class formulas for difference 3 and distances (2,2).

A quasipolynomial of period P and degree d keeps one row of d+1 integer
numerators per residue class mod P over one common denominator; evaluation
picks the row for n mod P and evaluates the polynomial at n.  Fitting reads a
coefficient list, the count at n at index n (index 0 not read), cut into
sample rows of P: row j holds n = jP+1 .. (j+1)P, so position p holds class
p+1 mod P at n = p+1 + jP.  Integer forward differences down the rows take
every class at once: the first d+1 give each class's Newton form in j, one
Horner pass over whole rows turns them into numerators in n over
d! * P^d, and every (d+1)-th difference must vanish.  A nonzero one raises
instead of being averaged away, because an inconsistency falsifies the
degree/period hypothesis rather than being noise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import (
    InconsistentSamples,
    InsufficientSamples,
    InternalError,
    InternalMismatch,
    NonConstantLeading,
    OutOfRange,
    PeriodTooLarge,
    TooLarge,
)
from .counting import MAX_ORDER, _coerce_spec
from .genfun import closed_form_specified

# The largest period fitted, lcm(1..12).  At t = 13 the period is 360360 and
# the expansion order about 5.0M.
MAX_PERIOD = 27720


class QuasiPolynomial:
    """period P, degree d, and P rows of d+1 integer numerators over one
    denominator, row r giving n -> sum_j rows[r][j] n^j / denominator for
    n == r (mod P).  The numerators and the denominator are divided by their
    common gcd, so equal quasipolynomials have equal fields."""

    __slots__ = ("period", "degree", "rows", "denominator")

    def __init__(
        self, period: int, degree: int, rows: tuple[tuple[int, ...], ...], denominator: int
    ):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        if len(rows) != period:
            raise ValueError(f"expected {period} rows, got {len(rows)}")
        for row in rows:
            if len(row) != degree + 1:
                raise ValueError(f"every row needs {degree + 1} coefficients, got {len(row)}")
        # A fitted quasipolynomial repeats few numerators across its rows, so
        # each distinct one is divided once and the rows share the results.
        distinct = set(chain.from_iterable(rows))
        g = math.gcd(denominator, *distinct)
        if g != 1:
            reduced = {c: c // g for c in distinct}
            rows = tuple(tuple(map(reduced.__getitem__, row)) for row in rows)
            denominator //= g
        self.period, self.degree, self.rows, self.denominator = period, degree, rows, denominator

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuasiPolynomial) and (
            (self.period, self.degree, self.denominator, self.rows)
            == (other.period, other.degree, other.denominator, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.period, self.degree, self.denominator, self.rows))

    def __repr__(self) -> str:
        return (
            f"QuasiPolynomial(period={self.period!r}, degree={self.degree!r}, "
            f"rows={self.rows!r}, denominator={self.denominator!r})"
        )

    def evaluate(self, n: int) -> Fraction:
        """Exact value at n >= 1."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        acc = 0
        for c in reversed(self.rows[n % self.period]):
            acc = acc * n + c
        return Fraction(acc, self.denominator)

    def leading_coefficient(self) -> Fraction:
        """The degree-d coefficient, required to be identical in every row."""
        leads = {row[self.degree] for row in self.rows}
        if len(leads) != 1:
            raise NonConstantLeading(
                f"rows disagree at degree {self.degree}: "
                f"{sorted(Fraction(c, self.denominator) for c in leads)}"
            )
        return Fraction(leads.pop(), self.denominator)

    def to_json_dict(self) -> dict:
        """Each coefficient as the string "p/q" in lowest terms."""
        d = self.denominator
        text = {
            c: f"{c // g}/{d // g}"
            for c in set(chain.from_iterable(self.rows))
            for g in (math.gcd(c, d),)
        }
        return {
            "period": self.period,
            "degree": self.degree,
            "rows": [[text[c] for c in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> QuasiPolynomial:
        try:
            rows = [[Fraction(entry) for entry in row] for row in data["rows"]]
            d = math.lcm(*(c.denominator for c in chain.from_iterable(rows)))
            rows = tuple(tuple(c.numerator * d // c.denominator for c in row) for row in rows)
            period, degree = data["period"], data["degree"]
            if not type(period) is type(degree) is int:  # not truncated: 2.9, "2", True refused
                raise TypeError(f"period and degree must be integers, got {period!r}, {degree!r}")
            return cls(period, degree, rows, d)
        except (KeyError, TypeError) as exc:  # a missing key, a non-list, a None entry, a non-int
            raise ValueError(f"malformed document: {exc!r}") from exc
        except ZeroDivisionError as exc:
            raise ValueError("a coefficient has denominator 0") from exc


def fit(values: Sequence[int], degree: int, period: int) -> QuasiPolynomial:
    """Interpolate a quasipolynomial of the given degree and period from the
    coefficient list: values[n] is the count at n, and index 0 is not read.
    Residue class r is values[r or period::period], from n = r or period on.

    Each residue class needs degree+1 samples or more (InsufficientSamples);
    a nonzero (degree+1)-th forward difference raises InconsistentSamples at
    the first sample it falsifies, taking the classes in the order 0, 1, ...
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    P, d = period, degree
    # Class 0 starts last, at n = P, so it has the fewest samples.
    fewest = len(range(P, len(values), P))
    if fewest < d + 1:
        raise InsufficientSamples(
            f"residue class 0 mod {P} has {fewest} samples, needs {d + 1}"
        )
    # The last row may be short; zip truncation keeps it aligned by position.
    # Each pass replaces row j by row j+1 minus row j, in place, so only one
    # level of differences is held at a time.
    level = [values[i + 1 : i + P + 1] for i in range(0, len(values) - 1, P)]
    newton = []
    for _ in range(d + 1):
        newton.append(level[0])
        for j in range(len(level) - 1):
            level[j] = [b - a for a, b in zip(level[j], level[j + 1])]
        level.pop()
    if any(map(any, level)):
        # level[j][p] is the (d+1)-th difference ending at sample j+d+1 of
        # position p: name the least class r = p+1 mod P, then the least j.
        r, j, p = min(
            ((p + 1) % P, j, p)
            for j, row in enumerate(level)
            for p, delta in enumerate(row)
            if delta
        )
        n = p + 1 + (j + d + 1) * P
        raise InconsistentSamples(
            f"degree {d}, period {P} cannot hold: at n={n} "
            f"the residue-{r} fit gives {values[n] - level[j][p]}, sample says {values[n]}"
        )
    # Horner over the Newton form sum_i newton[i] * C(j, i), j = (n - p - 1)/P,
    # times D = d! * P^d: acc <- acc * (n - (p + 1 + i*P)) + newton[i] * d!/i! * P^(d-i),
    # acc[e] holding the n^e numerators of every position, updated from the
    # top power down so that each acc[e-1] is read before it is replaced.
    acc = [newton.pop()]
    scale = 1
    for i in range(d - 1, -1, -1):
        scale *= (i + 1) * P
        roots = range(i * P + 1, (i + 1) * P + 1)
        acc.append(acc[-1])
        for e in range(len(acc) - 2, 0, -1):
            acc[e] = [b - r * a for b, r, a in zip(acc[e - 1], roots, acc[e])]
        acc[0] = [delta * scale - r * a for delta, r, a in zip(newton.pop(), roots, acc[0])]
    columns = list(zip(*acc))
    del acc  # the per-power lists, before the constructor reduces the rows
    return QuasiPolynomial(P, d, (columns[-1], *columns[:-1]), math.factorial(d) * P**d)


def _period(t: int) -> int:
    """lcm(1..t), or PeriodTooLarge as soon as the running lcm passes
    MAX_PERIOD, before any larger integer is built."""
    period = 1
    for m in range(2, t + 1):
        period = math.lcm(period, m)
        if period > MAX_PERIOD:
            bound = "" if m == t else f" >= lcm(1..{m})"
            raise PeriodTooLarge(
                f"t={t} needs quasipolynomial period lcm(1..{t}){bound} = {period}, "
                f"above the cap {MAX_PERIOD} = lcm(1..12)"
            )
    return period


def required_order(spec) -> int:
    """The least order `from_closed_form` takes: t+1 samples per class.

    Raises PeriodTooLarge when the period lcm(1..t) exceeds MAX_PERIOD.
    """
    spec = _coerce_spec(spec)
    return spec.min_weight + _period(spec.total) * (spec.total + 1)


def from_closed_form(spec, order: int | None = None) -> QuasiPolynomial:
    """Expand the closed form for `spec` through q^order (default
    `required_order(spec)`, at most MAX_ORDER) and fit a quasipolynomial of
    degree t and period lcm(1..t).

    The fit consumes the earliest samples of each residue class and validates
    against every remaining coefficient up to `order`; a failure would falsify
    the degree/period hypothesis and surfaces as InconsistentSamples.
    """
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    if not spec.has_closed_form:
        raise OutOfRange(f"no closed form for t={t}, k={k}; need t > k")
    required = required_order(spec)
    period = _period(t)
    if order is None:
        order = required
    elif order < required:
        raise ValueError(
            f"order {order} cannot feed {t + 1} samples to every residue class "
            f"mod {period}; need >= {required}"
        )
    elif order > MAX_ORDER:
        raise TooLarge(f"order {order} is above the fit-order cap {MAX_ORDER}")
    return fit(closed_form_specified(spec).expand(order).coeffs, t, period)


def expected_leading(t: int) -> Fraction:
    """Leading coefficient 1 / (t * (t!)^2) of the degree-t quasipolynomial."""
    if t < 2:
        raise OutOfRange(f"leading-coefficient law needs t >= 2, got {t}")
    return Fraction(1, t * math.factorial(t) ** 2)


# Residue-class numerators over 108 for the difference-3 counting function.
_P3_CASES = {
    0: (0, -18, 0, 1),
    1: (2, -3, 0, 1),
    2: (52, -30, 0, 1),
    3: (-54, 9, 0, 1),
    4: (56, -30, 0, 1),
    5: (-2, -3, 0, 1),
}


def _p3_polynomial_form(n: int) -> int:
    c0, c1, c2, c3 = _P3_CASES[n % 6]
    value, rem = divmod(n**3 * c3 + n**2 * c2 + n * c1 + c0, 108)
    if rem:
        raise InternalError(f"difference-3 case value at n={n} is not divisible by 108")
    return value


def _p3_factored_form(n: int) -> int:
    m, r = divmod(n, 6)
    if r == 0:
        return m * (2 * m**2 - 1)
    if r == 1:
        return m**2 * (2 * m + 1)
    if r == 2:
        return m * (2 * m**2 + 2 * m - 1)
    if r == 3:
        return m * (2 * m**2 + 3 * m + 2)
    if r == 4:  # n = 6(m+1) - 2
        return m * (2 * (m + 1) ** 2 - 1)
    # r == 5: n = 6(m+1) - 1
    return (m + 1) ** 2 * (2 * m + 1)


def p3_explicit(n: int) -> int:
    """p(n,3) from the explicit residue formulas, in both shapes.

    Evaluates the cubic-over-108 cases and the factored cases independently
    and insists they agree, guarding the coefficient tables against
    transcription drift.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    polynomial = _p3_polynomial_form(n)
    factored = _p3_factored_form(n)
    if polynomial != factored:
        raise InternalMismatch(
            f"difference-3 forms disagree at n={n}: {polynomial} vs {factored}"
        )
    return polynomial


# Residue-class numerators over 6912 for the distance-(2,2) counting function.
_P22_CASES = {
    0: (0, 288, -24, -20, 3),
    1: (-397, 492, -78, -20, 3),
    2: (304, -48, -24, -20, 3),
    3: (-2781, 1260, -78, -20, 3),
    4: (2816, -480, -24, -20, 3),
    5: (115, 492, -78, -20, 3),
    6: (-3024, 720, -24, -20, 3),
    7: (35, 492, -78, -20, 3),
    8: (3328, -480, -24, -20, 3),
    9: (-3213, 1260, -78, -20, 3),
    10: (-208, -48, -24, -20, 3),
    11: (547, 492, -78, -20, 3),
}


def p22_explicit(n: int) -> int:
    """p(n,2,2) from the explicit twelve-case quartic table over 6912."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c0, c1, c2, c3, c4 = _P22_CASES[n % 12]
    value, rem = divmod(n**4 * c4 + n**3 * c3 + n**2 * c2 + n * c1 + c0, 6912)
    if rem:
        raise InternalError(f"distance-(2,2) case value at n={n} is not divisible by 6912")
    return value
