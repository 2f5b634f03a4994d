"""Quasipolynomials with exact rational coefficients: evaluation, exact
interpolation from a coefficient list, fits driven by the closed-form series,
and the explicit residue-class formulas for difference 3 and distances (2,2).

A quasipolynomial of period P and degree d keeps one coefficient row per
residue class mod P; evaluation picks the row for n mod P and evaluates the
polynomial at n.  Fitting reads a coefficient list, the count at n at index
n (index 0 not read), and takes integer forward differences along each class
n = r + jP, r in 1..P: the first d+1 give the Newton form in j, which `fit`
turns into that class's row of rational coefficients in n as soon as the
class is fitted, and every (d+1)-th difference must vanish.  A nonzero
one raises instead of being averaged away, because an inconsistency falsifies
the degree/period hypothesis rather than being noise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    InconsistentSamples,
    InsufficientSamples,
    InternalError,
    InternalMismatch,
    NonConstantLeading,
    OutOfRange,
    PeriodTooLarge,
)
from .counting import _coerce_spec
from .genfun import closed_form_specified

# The largest period fitted, lcm(1..12).  At t = 13 the period is 360360 and
# the expansion order about 5.0M.
MAX_PERIOD = 27720


class QuasiPolynomial:
    """period P, degree d, and P rows of d+1 exact rational coefficients,
    row r giving n -> sum_j c[r][j] n^j for n == r (mod P)."""

    __slots__ = ("period", "degree", "rows")

    def __init__(self, period: int, degree: int, rows: tuple[tuple[Fraction, ...], ...]):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if len(rows) != period:
            raise ValueError(f"expected {period} rows, got {len(rows)}")
        for row in rows:
            if len(row) != degree + 1:
                raise ValueError(f"every row needs {degree + 1} coefficients, got {len(row)}")
        self.period, self.degree, self.rows = period, degree, rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuasiPolynomial) and (
            (self.period, self.degree, self.rows) == (other.period, other.degree, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.period, self.degree, self.rows))

    def __repr__(self) -> str:
        return f"QuasiPolynomial(period={self.period!r}, degree={self.degree!r}, rows={self.rows!r})"

    def evaluate(self, n: int) -> Fraction:
        """Exact value at n >= 1."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        row = self.rows[n % self.period]
        acc = Fraction(0)
        for c in reversed(row):
            acc = acc * n + c
        return acc

    def leading_coefficient(self) -> Fraction:
        """The degree-d coefficient, required to be identical in every row."""
        leads = {row[self.degree] for row in self.rows}
        if len(leads) != 1:
            raise NonConstantLeading(
                f"rows disagree at degree {self.degree}: {sorted(leads)}"
            )
        return next(iter(leads))

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "rows": [
                [f"{c.numerator}/{c.denominator}" for c in row] for row in self.rows
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> QuasiPolynomial:
        rows = tuple(
            tuple(Fraction(entry) for entry in row) for row in data["rows"]
        )
        return cls(period=int(data["period"]), degree=int(data["degree"]), rows=rows)


def _newton_row(start: int, step: int, diffs: Sequence[int]) -> tuple[Fraction, ...]:
    # Newton form sum_i diffs[i] * C(j, i) with n = start + j*step, rewritten
    # in powers of n over the common denominator t! * step^t (t = len(diffs)-1).
    t = len(diffs) - 1
    numer = [0] * (t + 1)
    basis = [1]  # prod_{m<i} (n - start - m*step), lowest power first
    for i, delta in enumerate(diffs):
        scale = delta * (math.factorial(t) // math.factorial(i)) * step ** (t - i)
        for power, c in enumerate(basis):
            numer[power] += scale * c
        root = start + i * step
        basis = [a - root * b for a, b in zip([0, *basis], [*basis, 0])]
    denom = math.factorial(t) * step**t
    return tuple(Fraction(c, denom) for c in numer)


def fit(values: Sequence[int], degree: int, period: int) -> QuasiPolynomial:
    """Interpolate a quasipolynomial of the given degree and period from the
    coefficient list: values[n] is the count at n, and index 0 is not read.
    Residue class r is values[r or period::period], from n = r or period on.

    Each residue class needs degree+1 samples or more (InsufficientSamples);
    a nonzero (degree+1)-th forward difference raises InconsistentSamples at
    the first sample it falsifies.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    rows = []
    for r in range(period):
        start = r or period
        samples = values[start::period]
        if len(samples) < degree + 1:
            raise InsufficientSamples(
                f"residue class {r} mod {period} has {len(samples)} samples, "
                f"needs {degree + 1}"
            )
        level = samples
        leading = []
        for _ in range(degree + 1):
            leading.append(level[0])
            level = [b - a for a, b in zip(level, level[1:])]
        for j, delta in enumerate(level):
            if delta:
                n, v = start + (j + degree + 1) * period, samples[j + degree + 1]
                raise InconsistentSamples(
                    f"degree {degree}, period {period} cannot hold: at n={n} "
                    f"the residue-{r} fit gives {v - delta}, sample says {v}"
                )
        rows.append(_newton_row(start, period, leading))
    return QuasiPolynomial(period, degree, tuple(rows))


def required_order(spec) -> int:
    """The least order `from_closed_form` takes: t+1 samples per class.

    Raises PeriodTooLarge when the period lcm(1..t) exceeds MAX_PERIOD.
    """
    spec = _coerce_spec(spec)
    t = spec.total
    period = math.lcm(*range(1, t + 1))
    if period > MAX_PERIOD:
        raise PeriodTooLarge(
            f"t={t} needs quasipolynomial period lcm(1..{t}) = {period}, "
            f"above the cap {MAX_PERIOD} = lcm(1..12)"
        )
    return spec.min_weight + period * (t + 1)


def from_closed_form(spec, order: int | None = None) -> QuasiPolynomial:
    """Expand the closed form for `spec` through q^order (default
    `required_order(spec)`) and fit a quasipolynomial of degree t and period
    lcm(1..t).

    The fit consumes the earliest samples of each residue class and validates
    against every remaining coefficient up to `order`; a failure would falsify
    the degree/period hypothesis and surfaces as InconsistentSamples.
    """
    spec = _coerce_spec(spec)
    t, k = spec.total, spec.k
    if not spec.has_closed_form:
        raise OutOfRange(f"no closed form for t={t}, k={k}; need t > k")
    period = math.lcm(*range(1, t + 1))
    required = required_order(spec)
    if order is None:
        order = required
    elif order < required:
        raise ValueError(
            f"order {order} cannot feed {t + 1} samples to every residue class "
            f"mod {period}; need >= {required}"
        )
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
