"""Exact arithmetic in one variable q: integer polynomials, truncated power
series, and rational functions with (1-q^m)-product denominators.

Conventions:

* ``IntPolynomial`` stores dense integer coefficients, index i holding the
  coefficient of q^i.  Trailing zeros are trimmed; the zero polynomial is the
  empty tuple and has degree -1.
* ``TruncatedSeries`` of order N stores coefficients of q^0..q^N inclusive and
  guarantees them exactly.  Coefficients beyond N are unknown, not zero, so
  indexing past the order raises instead of returning 0.
* ``FactoredRational`` is numerator / prod (1 - q^m)^e.  Each factor inverts
  to an integer geometric series, so expansion to any order stays in Z.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    ExactDivisionError,
    InternalError,
    InvalidExponent,
    NonUnitDivisor,
    OrderTooLarge,
)


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial:
    """A polynomial over Z, canonical form (no trailing zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = _trim([int(c) for c in coeffs])

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> IntPolynomial:
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls([0] * exponent + [coefficient])

    @classmethod
    def one_minus_q_power(cls, m: int) -> IntPolynomial:
        """The factor 1 - q^m, m >= 1."""
        if m < 1:
            raise InvalidExponent(f"exponent must be >= 1, got {m}")
        return cls([1] + [0] * (m - 1) + [-1])

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        return poly_mul(self, other)

    def shift(self, exponent: int) -> IntPolynomial:
        """Multiply by q^exponent, exponent >= 0."""
        if exponent < 0:
            raise ValueError("shift exponent must be >= 0")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * exponent + self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = "q" if i == 1 else f"q^{i}"
                body = power if mag == 1 else f"{mag}*{power}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return f"IntPolynomial({text})"


POLY_ZERO = IntPolynomial()
POLY_ONE = IntPolynomial([1])


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact product; degree adds when both factors are nonzero."""
    if a.is_zero() or b.is_zero():
        return POLY_ZERO
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb != 0:
                out[i + j] += ca * cb
    return IntPolynomial(out)


def poly_divmod(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division over Z; requires b's leading coefficient to be +-1.

    Every divisor used in this package ((1-q^m) factors, Pochhammer products,
    Gaussian binomials) has unit leading coefficient, which keeps each step
    exact over the integers.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = b.coeffs[-1]
    if lead not in (1, -1):
        raise ExactDivisionError(f"divisor leading coefficient must be +-1, got {lead}")
    rem = list(a.coeffs)
    db = b.degree
    if a.degree < db:
        return POLY_ZERO, a
    quot = [0] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        factor = c * lead  # c // lead since lead is a unit
        quot[i] = factor
        for j, cb in enumerate(b.coeffs):
            rem[i + j] -= factor * cb
    return IntPolynomial(quot), IntPolynomial(rem)


class TruncatedSeries:
    """A power series known exactly through q^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs: tuple[int, ...] = tuple(int(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise OrderTooLarge(f"coefficient {n} outside guaranteed range 0..{self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        # Strict: same order and same coefficients.
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries(order={self.order}, coeffs=[{head}{tail}])"


def series_mul(a: TruncatedSeries, b: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """Product through q^order (default min of the input orders)."""
    if order is None:
        order = min(a.order, b.order)
    if order > a.order or order > b.order:
        raise OrderTooLarge(
            f"order {order} exceeds input orders {a.order}, {b.order}"
        )
    out = [0] * (order + 1)
    for i in range(order + 1):
        ca = a.coeffs[i]
        if ca == 0:
            continue
        for j in range(order + 1 - i):
            cb = b.coeffs[j]
            if cb != 0:
                out[i + j] += ca * cb
    return TruncatedSeries(out)


def series_div_unit(a: TruncatedSeries, b: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """Quotient c with c*b == a through q^order; b must have constant term +-1."""
    if order is None:
        order = min(a.order, b.order)
    if order > a.order or order > b.order:
        raise OrderTooLarge(
            f"order {order} exceeds input orders {a.order}, {b.order}"
        )
    b0 = b.coeffs[0]
    if b0 not in (1, -1):
        raise NonUnitDivisor(f"divisor constant term must be +-1, got {b0}")
    # c[n] = (a[n] - sum_{j>=1} b[j] c[n-j]) / b[0]; iterate nonzero b[j] only.
    nonzero = [(j, b.coeffs[j]) for j in range(1, order + 1) if b.coeffs[j] != 0]
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = a.coeffs[n]
        for j, bj in nonzero:
            if j > n:
                break
            acc -= bj * out[n - j]
        out[n] = acc * b0  # divide by +-1
    return TruncatedSeries(out)


def _divide_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by the geometric expansion of 1/(1-q^m)."""
    for j in range(m, len(coeffs)):
        coeffs[j] += coeffs[j - m]


def _multiply_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by (1 - q^m)."""
    for j in range(len(coeffs) - 1, m - 1, -1):
        coeffs[j] -= coeffs[j - m]


def pochhammer_q(m: int) -> IntPolynomial:
    """(1-q)(1-q^2)...(1-q^m); the empty product 1 for m=0.  Degree m(m+1)/2."""
    return pochhammer_shifted(1, m)


def pochhammer_shifted(a: int, m: int) -> IntPolynomial:
    """prod_{j=0}^{m-1} (1 - q^{a+j}) for a >= 1; specializes to pochhammer_q at a=1."""
    if a < 1:
        raise InvalidExponent(f"starting exponent must be >= 1, got {a}")
    if m < 0:
        raise ValueError(f"number of factors must be >= 0, got {m}")
    out = [1] + [0] * (m * a + m * (m - 1) // 2)
    for j in range(m):
        _multiply_by_one_minus_q_power(out, a + j)
    return IntPolynomial(out)


def pochhammer_infinite(a: int, order: int) -> TruncatedSeries:
    """prod_{j>=0} (1 - q^{a+j}) modulo q^{order+1}, a >= 1.

    Only factors with exponent <= order differ from 1 modulo the truncation,
    so the product is finite.
    """
    if a < 1:
        raise InvalidExponent(f"starting exponent must be >= 1, got {a}")
    out = [1] + [0] * order
    for e in range(a, order + 1):
        _multiply_by_one_minus_q_power(out, e)
    return TruncatedSeries(out)


def gauss_binomial(top: int, bottom: int) -> IntPolynomial:
    """Gaussian binomial [top, bottom] as an exact polynomial.

    Computed as (q)_top / ((q)_bottom (q)_{top-bottom}) by polynomial long
    division; a nonzero remainder would mean the arithmetic is broken, so it
    raises InternalError rather than a value error.  Out-of-range bottom
    yields the zero polynomial.
    """
    if top < 0:
        raise ValueError(f"top index must be >= 0, got {top}")
    if bottom < 0 or bottom > top:
        return POLY_ZERO
    numerator = pochhammer_q(top)
    denominator = pochhammer_q(bottom) * pochhammer_q(top - bottom)
    quot, rem = poly_divmod(numerator, denominator)
    if not rem.is_zero():
        raise InternalError(
            f"gauss_binomial({top},{bottom}): Pochhammer division left remainder {rem!r}"
        )
    return quot


def gauss_binomial_pascal(top: int, bottom: int) -> IntPolynomial:
    """Same value via the q-Pascal recurrence; kept as an independent check."""
    if top < 0:
        raise ValueError(f"top index must be >= 0, got {top}")
    if bottom < 0 or bottom > top:
        return POLY_ZERO
    # [A,B] = [A-1,B-1] + q^B [A-1,B]
    row = [POLY_ONE]
    for a in range(1, top + 1):
        new_row = [POLY_ONE]
        for b in range(1, a):
            new_row.append(row[b - 1] + row[b].shift(b))
        new_row.append(POLY_ONE)
        row = new_row
    return row[bottom]


def _normalize_denominator(denominator) -> tuple[tuple[int, int], ...]:
    merged: dict[int, int] = {}
    for m, e in denominator:
        m, e = int(m), int(e)
        if m < 1:
            raise InvalidExponent(f"denominator exponent must be >= 1, got {m}")
        if e < 1:
            raise ValueError(f"denominator multiplicity must be >= 1, got {e}")
        merged[m] = merged.get(m, 0) + e
    return tuple(sorted(merged.items()))


class FactoredRational:
    """numerator / prod (1 - q^m)^e, the denominator a sorted, merged multiset.

    The display forms (1-q)^3 (1+q)^2 style denominators are rewritten into
    this shape before storage, e.g. (1-q)^3(1+q)^2 = (1-q)(1-q^2)^2, so that
    inversion stays a matter of integer geometric series.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: IntPolynomial, denominator=()):
        self.numerator = numerator
        # Zero has one canonical encoding: zero numerator, empty denominator.
        self.denominator = () if numerator.is_zero() else _normalize_denominator(denominator)

    def expand(self, order: int) -> TruncatedSeries:
        out = [self.numerator[i] for i in range(order + 1)]
        for m, e in self.denominator:
            for _ in range(e):
                _divide_by_one_minus_q_power(out, m)
        return TruncatedSeries(out)

    def __mul__(self, other: FactoredRational) -> FactoredRational:
        return FactoredRational(
            self.numerator * other.numerator,
            list(self.denominator) + list(other.denominator),
        )

    def __add__(self, other: FactoredRational) -> FactoredRational:
        mine = dict(self.denominator)
        theirs = dict(other.denominator)
        common = {m: max(mine.get(m, 0), theirs.get(m, 0)) for m in set(mine) | set(theirs)}
        left = self.numerator * _cofactor(common, mine)
        right = other.numerator * _cofactor(common, theirs)
        return FactoredRational(left + right, [(m, e) for m, e in common.items() if e > 0])

    def __neg__(self) -> FactoredRational:
        return FactoredRational(-self.numerator, self.denominator)

    def __sub__(self, other: FactoredRational) -> FactoredRational:
        return self + (-other)

    def reduce(self) -> FactoredRational:
        """Cancel denominator factors that divide the numerator exactly.

        Greedy per factor, smallest m first; enough to recover the familiar
        display shapes, with no claim of global minimality.
        """
        numerator = self.numerator
        remaining: list[tuple[int, int]] = []
        for m, e in self.denominator:
            factor = IntPolynomial.one_minus_q_power(m)
            while e > 0:
                quot, rem = poly_divmod(numerator, factor)
                if not rem.is_zero():
                    break
                numerator = quot
                e -= 1
            if e > 0:
                remaining.append((m, e))
        return FactoredRational(numerator, remaining)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FactoredRational)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        return hash(("FactoredRational", self.numerator, self.denominator))

    def __repr__(self) -> str:
        if not self.denominator:
            return f"FactoredRational({self.numerator!r})"
        factors = "".join(
            f"(1-q^{m})" + (f"^{e}" if e > 1 else "") for m, e in self.denominator
        )
        return f"FactoredRational({self.numerator!r} / {factors})"


def _cofactor(common: dict[int, int], part: dict[int, int]) -> IntPolynomial:
    out = POLY_ONE
    for m, e in common.items():
        for _ in range(e - part.get(m, 0)):
            out = out * IntPolynomial.one_minus_q_power(m)
    return out
