"""Polynomial, truncated-series, and factored-rational arithmetic."""

import functools
import math
import random

import pytest

from partition_gf import qseries
from partition_gf.errors import InternalError, InvalidExponent, OrderTooLarge
from partition_gf.qseries import (
    FactoredRational,
    TruncatedSeries,
    _divide_by_one_minus_q_power,
    _exact_quotient,
    _multiply_by_one_minus_q_power,
    _times_one_minus_q_powers,
    _trim,
    gauss_binomial,
    pochhammer_q,
)
import reference
from reference import gauss_binomial_pascal


def P(*coeffs):
    """A polynomial: its coefficient tuple, trailing zeros trimmed."""
    return _trim(coeffs)


def times_factors(poly, *ms):
    """poly * prod (1 - q^m) by the in-place kernel, as a polynomial."""
    return _trim(_times_one_minus_q_powers(poly, ms))


def one_minus_q(m):
    return P(1, *[0] * (m - 1), -1)


def schoolbook_product(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def truncated_product(a, b, order):
    """Schoolbook product of two series' coefficients through q^order."""
    return TruncatedSeries(
        [sum(a.coeffs[i] * b.coeffs[n - i] for i in range(n + 1)) for n in range(order + 1)]
    )


class TestPolynomialKernels:
    """Products by factors 1 - q^m, the only products the closed forms take,
    and exact quotients by them, on coefficient tuples through the in-place
    kernels."""

    def test_mul_difference_of_squares(self):
        assert times_factors(P(1, 1), 1) == P(1, 0, -1)

    def test_mul_zero_absorbs(self):
        assert times_factors((), 3) == ()

    def test_mul_hand_expansion(self):
        # (1-q)(1-q^2) = 1 - q - q^2 + q^3
        assert times_factors(P(1), 1, 2) == P(1, -1, -1, 1)

    def test_mul_degree_adds(self):
        a = P(-1, 4, 0, 0, 5)
        assert len(times_factors(a, 2, 3)) - 1 == len(a) - 1 + 5

    def test_mul_commutes(self):
        rng = random.Random(7)
        for _ in range(25):
            a = P(*(rng.randrange(-4, 5) for _ in range(rng.randrange(6))))
            ms = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))]
            assert times_factors(a, *ms) == times_factors(a, *reversed(ms))
            assert times_factors(a, *ms) == functools.reduce(schoolbook_product, map(one_minus_q, ms), a)

    def test_divmod_roundtrip(self):
        # Exact division by 1 - q^m: multiples come back as their cofactor, and
        # a polynomial is a multiple exactly when its coefficient sums over
        # each residue class mod m vanish (it vanishes at every m-th root of 1).
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randrange(1, 6)
            b = one_minus_q(m)
            quot = P(*(rng.randrange(-5, 6) for _ in range(rng.randrange(9))))
            assert _exact_quotient(list(schoolbook_product(quot, b)), m) == list(quot)
            a = P(*(rng.randrange(-2, 3) for _ in range(rng.randrange(9))))
            got = _exact_quotient(list(a), m)
            divisible = all(sum(a[r::m]) == 0 for r in range(m))
            assert (got is not None) == divisible
            if got is not None:
                assert schoolbook_product(got, b) == a


class TestTruncatedSeries:
    def test_equality_is_strict_about_order(self):
        a = TruncatedSeries([1, 2, 3])
        b = TruncatedSeries([1, 2, 3, 0])
        assert a != b
        assert a.coeffs == b.coeffs[: a.order + 1]

    def test_rejects_an_empty_coefficient_list(self):
        with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
            TruncatedSeries([])

    def test_getitem_beyond_order_raises(self):
        s = TruncatedSeries([1, 2])
        assert s[1] == 2
        with pytest.raises(OrderTooLarge):
            s[2]

    def test_mul_geometric_prefix_square(self):
        assert FactoredRational(P(1), [(1, 2)]).expand(2) == TruncatedSeries([1, 2, 3])

    def test_mul_identity(self):
        assert FactoredRational(P(3, -1, 4, 1)).expand(3) == TruncatedSeries([3, -1, 4, 1])

    def test_mul_telescopes_against_inverse(self):
        assert FactoredRational(P(1, -1), [(1, 1)]).expand(5) == TruncatedSeries([1, 0, 0, 0, 0, 0])


class TestSeriesDivision:
    """The in-place (1-q^m) kernels on truncated coefficient lists."""

    def test_by_one_minus_q_matches_geometric(self):
        coeffs = [1, 0, 0, 0, 0]
        _divide_by_one_minus_q_power(coeffs, 1)
        assert coeffs == [1, 1, 1, 1, 1]

    def test_self_division_is_one(self):
        coeffs = list(times_factors(P(1), 2, 3, 4)[:6])
        for m in (2, 3, 4):
            _divide_by_one_minus_q_power(coeffs, m)
        assert coeffs == [1, 0, 0, 0, 0, 0]

    def test_difference_two_denominator(self):
        # q^4 / ((1-q)^3 (1+q)^2) = q^4 / ((1-q)(1-q^2)^2) expanded through q^8
        coeffs = [0, 0, 0, 0, 1, 0, 0, 0, 0]
        for m in (1, 2, 2):
            _divide_by_one_minus_q_power(coeffs, m)
        assert coeffs == [0, 0, 0, 0, 1, 1, 3, 3, 6]

    def test_div_mul_roundtrip(self):
        rng = random.Random(23)
        for _ in range(30):
            order = rng.randrange(3, 12)
            a = [rng.randrange(-6, 7) for _ in range(order + 1)]
            coeffs = list(a)
            m = rng.randrange(1, order + 3)
            _divide_by_one_minus_q_power(coeffs, m)
            _multiply_by_one_minus_q_power(coeffs, m)
            assert coeffs == a


def _slice_edges():
    """(size, m) at every edge of the slice kernels' regimes: one below SLICE_LEN and at it;
    with r = isqrt(SLICE_LEN) + 1, m = r at sizes r^2 + 1 (residue classes, m^2 = len - 1) and
    r^2 - 1 (blocks, m^2 = len + 1); and at each size m = 1, m^2 next to it, len - 1 and m >= len."""
    size, r = qseries.SLICE_LEN, math.isqrt(qseries.SLICE_LEN) + 1
    for length in (size - 1, size, r * r - 1, r * r + 1, 4 * size):
        root = math.isqrt(length)
        for m in sorted({1, 2, root - 1, root, root + 1, length - 1, length, length + 3}):
            yield length, m


class TestSliceKernels:
    """The (1-q^m) passes against the per-coefficient loops of `reference`."""

    @pytest.mark.parametrize("bound", [9, 10**40], ids=["small", "big"])
    @pytest.mark.parametrize(
        "kernel, loop",
        [
            (_divide_by_one_minus_q_power, reference.divide_by_one_minus_q_power),
            (_multiply_by_one_minus_q_power, reference.multiply_by_one_minus_q_power),
        ],
        ids=["divide", "multiply"],
    )
    def test_match_the_loops_at_every_regime_edge(self, kernel, loop, bound):
        rng = random.Random(bound)
        for size, m in _slice_edges():
            got = [rng.randint(-bound, bound) for _ in range(size)]
            want = list(got)
            kernel(got, m)
            loop(want, m)
            assert got == want, (size, m)

    def test_the_edges_cover_both_regimes(self):
        edges = list(_slice_edges())
        assert {size for size, _ in edges} >= {qseries.SLICE_LEN - 1, qseries.SLICE_LEN}
        assert {m * m - size for size, m in edges if size >= qseries.SLICE_LEN} >= {-1, 0, 1}


class TestGeometricInverse:
    """1/(1-q^m) is a FactoredRational with the one denominator factor m."""

    def test_m_one(self):
        assert FactoredRational(P(1), [(1, 1)]).expand(3) == TruncatedSeries([1, 1, 1, 1])

    def test_m_three(self):
        assert FactoredRational(P(1), [(3, 1)]).expand(7).coeffs == (1, 0, 0, 1, 0, 0, 1, 0)

    def test_constant_prefix(self):
        assert FactoredRational(P(1), [(2, 1)]).expand(0) == TruncatedSeries([1])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidExponent):
            FactoredRational(P(1), [(-1, 1)])


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_q(0) == P(1)

    def test_two_factors(self):
        assert pochhammer_q(2) == P(1, -1, -1, 1)

    @pytest.mark.parametrize("m", range(8))
    def test_degree_is_triangular(self, m):
        assert len(pochhammer_q(m)) - 1 == m * (m + 1) // 2

    @pytest.mark.parametrize("m", range(12))
    def test_shifted_specializes_at_one(self, m):
        # the shifted product prod_{j<m} (1 - q^{a+j}) at a = 1, factor by factor
        product = functools.reduce(schoolbook_product, (one_minus_q(1 + j) for j in range(m)), P(1))
        assert pochhammer_q(m) == product

    def test_negative_factor_count_rejected(self):
        with pytest.raises(ValueError):
            pochhammer_q(-1)

    # (q^a; q)_oo modulo q^{N+1} is the finite product of its factors up to q^N.
    def test_infinite_beyond_order_is_one(self):
        assert FactoredRational(times_factors(P(1), 9, 10, 11)).expand(5) == TruncatedSeries([1, 0, 0, 0, 0, 0])

    def test_infinite_pentagonal_prefix(self):
        assert FactoredRational(pochhammer_q(5)).expand(5).coeffs == (1, -1, -1, 0, 0, 1)

    def test_infinite_shifted(self):
        assert FactoredRational(times_factors(P(1), 2, 3)).expand(3).coeffs == (1, 0, -1, -1)


class TestGaussBinomial:
    def test_smallest_nontrivial(self):
        assert gauss_binomial(2, 1) == P(1, 1)

    def test_four_choose_two(self):
        assert gauss_binomial(4, 2) == P(1, 1, 2, 1, 1)

    def test_rejects_a_negative_top(self):
        with pytest.raises(ValueError, match="^top index must be >= 0, got -1$"):
            gauss_binomial(-1, 0)

    def test_out_of_range_is_zero(self):
        assert gauss_binomial(5, 7) == ()
        assert gauss_binomial(5, -1) == ()

    @pytest.mark.parametrize("top", range(9))
    def test_symmetry(self, top):
        for bottom in range(top + 1):
            assert gauss_binomial(top, bottom) == gauss_binomial(top, top - bottom)

    @pytest.mark.parametrize("top", range(9))
    def test_nonnegative_and_sum_is_binomial(self, top):
        import math

        for bottom in range(top + 1):
            poly = gauss_binomial(top, bottom)
            assert all(c >= 0 for c in poly)
            assert sum(poly) == math.comb(top, bottom)
            assert len(poly) - 1 == bottom * (top - bottom)

    @pytest.mark.parametrize("top", range(17))
    def test_matches_pascal_recurrence(self, top):
        for bottom in range(-1, top + 2):
            assert gauss_binomial(top, bottom) == gauss_binomial_pascal(top, bottom)

    def test_remainder_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(qseries, "_exact_quotient", lambda coeffs, m: None)
        with pytest.raises(InternalError, match="left a remainder"):
            gauss_binomial(5, 2)


class TestFactoredRational:
    def test_expand_plain_geometric(self):
        fr = FactoredRational(P(1), [(1, 1)])
        assert fr.expand(3) == TruncatedSeries([1, 1, 1, 1])

    def test_expand_difference_two_display(self):
        # q^4 over (1-q)(1-q^2)^2, the normalized shape of (1-q)^3(1+q)^2
        fr = FactoredRational(P(0, 0, 0, 0, 1), [(1, 1), (2, 2)])
        assert fr.expand(8).coeffs == (0, 0, 0, 0, 1, 1, 3, 3, 6)

    def test_expand_difference_three_display(self):
        from partition_gf.counting import fixed_diff_table

        fr = FactoredRational(P(0, 0, 0, 0, 0, 1, 1, 1, -1), [(2, 2), (3, 2)])
        assert list(fr.expand(12).coeffs) == fixed_diff_table(3, 12)

    def test_denominators_merge_and_sort(self):
        fr = FactoredRational(P(1), [(3, 1), (1, 2), (3, 1)])
        assert fr.denominator == ((1, 2), (3, 2))

    def test_numerator_canonical_zero(self):
        assert FactoredRational([0, 0, 0]).numerator == ()
        assert FactoredRational([]).numerator == ()
        assert FactoredRational([0]).numerator == ()
        assert FactoredRational([0, 0], [(3, 1)]) == FactoredRational([])

    def test_numerator_trailing_zeros_trimmed(self):
        assert FactoredRational([1, 2, 0, 0]).numerator == (1, 2)
        assert FactoredRational([1, 2, 0, 0], [(2, 1)]).numerator == (1, 2)

    @pytest.mark.parametrize(
        "numerator,denominator,text",
        [
            ((), (), "FactoredRational((0))"),
            ((0, 0), [(2, 1)], "FactoredRational((0))"),
            ((1, -1), (), "FactoredRational((1 - q))"),
            ((0, -1, 0, 3, -2), (), "FactoredRational((-q + 3*q^3 - 2*q^4))"),
            ((-2, 1), [(1, 1), (3, 2)], "FactoredRational((-2 + q) / (1-q^1)(1-q^3)^2)"),
        ],
        ids=["zero", "zero-over-factor", "no-denominator", "negative-lead", "signed-constant"],
    )
    def test_repr(self, numerator, denominator, text):
        assert repr(FactoredRational(numerator, denominator)) == text

    def test_zero_normalizes(self):
        fr = FactoredRational((), [(2, 1)])
        assert fr.denominator == ()
        assert fr.expand(5) == TruncatedSeries([0, 0, 0, 0, 0, 0])

    def test_multiplicative(self):
        a = FactoredRational(P(1, 1), [(1, 1), (3, 1)])
        b = FactoredRational(P(0, 1, -1), [(2, 2)])
        left = FactoredRational(
            schoolbook_product(a.numerator, b.numerator), a.denominator + b.denominator
        ).expand(20)
        right = truncated_product(a.expand(20), b.expand(20), 20)
        assert left == right

    def test_expand_rejects_negative_order(self):
        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            FactoredRational(P(1), [(1, 1)]).expand(-1)

    @pytest.mark.parametrize(
        "numerator,denominator,reduced",
        [
            (P(1, 1), [(3, 1)], ((3, 1),)),  # numerator degree below m
            (P(1, 2, 0, -1), [(2, 1)], ((2, 1),)),  # degree >= m, division inexact
            (P(0, 1, 0, -1), [(2, 3)], ((2, 2),)),  # q(1-q^2): one of three factors cancels
            (P(1, -1), [(1, 1), (2, 1)], ((2, 1),)),  # cancels the first factor only
            ((), [(2, 1)], ()),  # zero numerator
        ],
        ids=["below-m", "inexact", "partial-power", "first-only", "zero"],
    )
    def test_reduce_edge_cases(self, numerator, denominator, reduced):
        fr = FactoredRational(numerator, denominator)
        out = fr.reduce()
        assert out.denominator == reduced
        assert out.expand(20) == fr.expand(20)

    def test_reduce_preserves_expansion(self):
        fr = FactoredRational(P(0, 0, 0, 0, 1, -1), [(1, 2), (2, 1)])  # q^4(1-q)/...
        reduced = fr.reduce()
        assert reduced.expand(15) == fr.expand(15)
        assert reduced.denominator == ((1, 1), (2, 1))

    def test_expand_factored_function(self):
        fr = FactoredRational(P(1), [(2, 1)])
        assert fr.expand(5) == TruncatedSeries([1, 0, 1, 0, 1, 0])

    def test_invalid_denominator(self):
        with pytest.raises(InvalidExponent):
            FactoredRational(P(1), [(0, 1)])

    # A non-integer exponent or multiplicity is refused, never truncated.
    @pytest.mark.parametrize(
        "denominator, error, message",
        [
            ([(2.5, 1)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(2, 1.9)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(2, 0)], ValueError, "denominator multiplicity must be >= 1, got 0"),
        ],
        ids=["float-exponent", "float-multiplicity", "zero-multiplicity"],
    )
    def test_rejects_a_bad_denominator_factor(self, denominator, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            FactoredRational((1,), denominator)
