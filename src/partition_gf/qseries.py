"""Exact arithmetic in one variable q over plain coefficient lists, and the
immutable values that carry the results: truncated power series, and rational
functions with (1-q^m)-product denominators.  The value types hold and
compare coefficients; they have no arithmetic operators, and callers build a
value's coefficients as a list before storing it once.

Conventions:

* An integer polynomial is a tuple of its coefficients, index i holding the
  coefficient of q^i, with trailing zeros trimmed; the zero polynomial is the
  empty tuple.  ``pochhammer_q``, ``gauss_binomial`` and a
  ``FactoredRational`` numerator are all in this form.
* ``TruncatedSeries`` of order N stores coefficients of q^0..q^N inclusive and
  guarantees them exactly.  Coefficients beyond N are unknown, not zero, so
  indexing past the order raises instead of returning 0.
* ``FactoredRational`` is numerator / prod (1 - q^m)^e.  Each factor inverts
  to an integer geometric series, so expansion to any order stays in Z.

Every product and quotient by a factor 1 - q^m is one in-place pass over a
coefficient list, never a dense product or a long division: multiplying
subtracts the list shifted by m, dividing adds it back as a geometric series.
A polynomial quotient by 1 - q^m is exact precisely when that geometric pass
leaves the top m entries zero, which is how ``gauss_binomial`` and
``FactoredRational.reduce`` divide.

All values are immutable and all public functions are pure.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InternalError, InvalidExponent, OrderTooLarge


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class TruncatedSeries:
    """A power series known exactly through q^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs: tuple[int, ...] = tuple(map(int, coeffs))
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


def _divide_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by the geometric expansion of 1/(1-q^m)."""
    for j in range(m, len(coeffs)):
        coeffs[j] += coeffs[j - m]


def _multiply_by_one_minus_q_power(coeffs: list[int], m: int) -> None:
    """In place: multiply by (1 - q^m)."""
    for j in range(len(coeffs) - 1, m - 1, -1):
        coeffs[j] -= coeffs[j - m]


def _times_one_minus_q_powers(coeffs, ms) -> list[int]:
    """coeffs * prod_{m in ms} (1 - q^m) as a new list, one pass per factor."""
    out = list(coeffs) + [0] * sum(ms)
    for m in ms:
        _multiply_by_one_minus_q_power(out, m)
    return out


def _exact_quotient(coeffs: list[int], m: int) -> list[int] | None:
    """The polynomial coeffs / (1 - q^m), or None when the division leaves a
    remainder.  The geometric pass divides as a power series; the quotient is
    a polynomial exactly when that pass leaves the top m entries zero."""
    quot = list(coeffs)
    _divide_by_one_minus_q_power(quot, m)
    cut = max(len(quot) - m, 0)
    if any(quot[cut:]):
        return None
    del quot[cut:]
    return quot


def _times_ratio(coeffs, up: int, down: int) -> list[int]:
    """coeffs * (1 - q^up) / (1 - q^down), where the caller knows the quotient
    is a polynomial; a remainder means broken arithmetic (InternalError)."""
    quot = _exact_quotient(_times_one_minus_q_powers(coeffs, (up,)), down)
    if quot is None:
        raise InternalError(f"(1-q^{up})/(1-q^{down}) step left a remainder")
    return quot


def pochhammer_q(m: int) -> tuple[int, ...]:
    """(1-q)(1-q^2)...(1-q^m); the empty product 1 for m=0.  Degree m(m+1)/2."""
    if m < 0:
        raise ValueError(f"number of factors must be >= 0, got {m}")
    return _trim(_times_one_minus_q_powers([1], range(1, m + 1)))


def gauss_binomial(top: int, bottom: int) -> tuple[int, ...]:
    """Gaussian binomial [top, bottom] as an exact polynomial.

    Built as prod_{i=1}^{b} (1-q^{top-b+i}) / (1-q^i) with
    b = min(bottom, top-bottom), one multiply pass and one exact-division pass
    per factor.  The partial product after i factors is the Gaussian
    polynomial [top-b+i, i], so every division is exact; a remainder would
    mean the arithmetic is broken, so it raises InternalError rather than a
    value error.  Out-of-range bottom yields the zero polynomial ().
    """
    if top < 0:
        raise ValueError(f"top index must be >= 0, got {top}")
    if bottom < 0 or bottom > top:
        return ()
    b = min(bottom, top - bottom)
    coeffs = [1]
    for i in range(1, b + 1):
        coeffs = _times_ratio(coeffs, top - b + i, i)
    return _trim(coeffs)


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

    def __init__(self, numerator: Iterable[int], denominator=()):
        self.numerator = _trim(numerator)
        # Zero has one canonical encoding: () over ().
        self.denominator = _normalize_denominator(denominator) if self.numerator else ()

    def expand(self, order: int) -> TruncatedSeries:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        out = list(self.numerator[: order + 1])
        out += [0] * (order + 1 - len(out))
        for m, e in self.denominator:
            for _ in range(e):
                _divide_by_one_minus_q_power(out, m)
        return TruncatedSeries(out)

    def reduce(self) -> FactoredRational:
        """Cancel denominator factors that divide the numerator exactly.

        Greedy per factor, smallest m first, dividing while the division is
        exact; enough to recover the familiar display shapes, with no claim
        of global minimality.  Each trial division is one O(degree) pass.
        """
        numerator = list(self.numerator)
        remaining: list[tuple[int, int]] = []
        for m, e in self.denominator:
            while e > 0:
                quot = _exact_quotient(numerator, m)
                if quot is None:
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
        terms = []
        for i, c in enumerate(self.numerator):
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
        text = "0"
        if terms:
            first_sign, first_body = terms[0]
            text = (first_sign if first_sign == "-" else "") + first_body
            for sign, body in terms[1:]:
                text += f" {sign} {body}"
        factors = "".join(
            f"(1-q^{m})" + (f"^{e}" if e > 1 else "") for m, e in self.denominator
        )
        return f"FactoredRational(({text})" + (f" / {factors})" if factors else ")")
