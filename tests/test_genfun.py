"""Generating functions: direct sums, closed forms, and the identities
behind them."""

import functools
import hashlib
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_gf import cli, genfun
from partition_gf.counting import divisor_count, fixed_diff_table, specified_table
from partition_gf.errors import (
    InvalidDistance,
    InvalidExponent,
    OutOfRange,
)
from partition_gf.genfun import (
    DistanceSpec,
    closed_form_fixed_diff,
    closed_form_specified,
    direct_series_specified,
    heine_check,
    p1_identity_check,
    qbinomial_alternating_sum,
    series,
)
from partition_gf.qseries import (
    FactoredRational,
    _times_one_minus_q_powers,
    gauss_binomial,
    pochhammer_q,
)
from reference import (
    closed_form_specified_one_spec,
    gauss_binomial_pascal,
    iter_specified,
    two_phi_one_full_length,
)


class TestDistanceSpec:
    def test_derived_quantities(self):
        spec = DistanceSpec((2, 2))
        assert spec.total == 4
        assert spec.k == 2
        assert spec.weighted_total == 6
        assert spec.min_weight == 9

    def test_three_distances(self):
        spec = DistanceSpec((2, 1, 2))
        assert spec.total == 5
        assert spec.weighted_total == 3 * 2 + 2 * 1 + 1 * 2  # 10
        assert spec.min_weight == 14

    def test_weighted_total_dominates_total(self):
        for k in range(1, 4):
            for distances in itertools.product(range(1, 4), repeat=k):
                spec = DistanceSpec(distances)
                assert spec.weighted_total >= spec.total
                assert (spec.weighted_total == spec.total) == (k == 1)

    def test_closed_form_rule_is_total_above_k(self):
        assert [DistanceSpec((t,)).has_closed_form for t in range(1, 4)] == [False, True, True]
        assert not DistanceSpec((1, 1)).has_closed_form
        assert DistanceSpec((1, 2)).has_closed_form
        assert not DistanceSpec((1, 1, 1)).has_closed_form

    def test_rejects_bad_vectors(self):
        with pytest.raises(InvalidDistance):
            DistanceSpec(())
        with pytest.raises(InvalidDistance):
            DistanceSpec((2, 0))

    @pytest.mark.parametrize("distances", [(2.5,), (True, 2), ("2",)])
    def test_rejects_non_integral_distances(self, distances):
        with pytest.raises(InvalidDistance):
            DistanceSpec(distances)


class TestDirectSeriesFixedDiff:
    def test_difference_one_counts_nondivisors(self):
        series = direct_series_specified((1,), 6)
        assert series.coeffs == (0, 0, 0, 1, 1, 3, 2)
        for n in range(1, 7):
            assert series[n] == n - divisor_count(n)

    def test_difference_two_prefix(self):
        assert direct_series_specified((2,), 8).coeffs == (0, 0, 0, 0, 1, 1, 3, 3, 6)

    def test_minimal_weight_vanishing(self):
        series = direct_series_specified((5,), 7)
        assert series.coeffs[:7] == (0,) * 7
        assert series[7] == 1  # the partition 1 + 6

    def test_rejects_zero_difference(self):
        with pytest.raises(InvalidDistance):
            direct_series_specified((0,), 10)


RECURRENCE_SPECS = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (1, 5, 1), (3, 1, 2, 1)]


@functools.cache
def _brute_counts(spec):
    return [sum(1 for _ in iter_specified(n, spec)) for n in range(41)]


class TestRecurrences:
    """The table's sliding coin window and the direct sum's nesting against
    the listed partitions, at every n_max from below the first counted n
    through many slides of the window."""

    @pytest.mark.parametrize("spec", RECURRENCE_SPECS, ids=str)
    def test_table_matches_brute_force(self, spec):
        brute = _brute_counts(spec)
        for n_max in range(41):
            assert specified_table(spec, n_max) == brute[: n_max + 1], n_max

    @pytest.mark.parametrize("spec", RECURRENCE_SPECS, ids=str)
    def test_direct_series_matches_brute_force(self, spec):
        brute = _brute_counts(spec)
        for n_max in range(41):
            assert list(direct_series_specified(spec, n_max).coeffs) == brute[: n_max + 1], n_max

    @pytest.mark.parametrize("spec", [(5,), (1, 3), (2, 1, 2)], ids=str)
    def test_large_table_matches_closed_form(self, spec):
        assert specified_table(spec, 1500) == list(closed_form_specified(spec).expand(1500).coeffs)

    @pytest.mark.parametrize("spec", [(1,), (1, 1), (1, 1, 1)], ids=str)
    def test_large_table_matches_direct_series(self, spec):
        assert specified_table(spec, 1500) == list(direct_series_specified(spec, 1500).coeffs)

    def test_direct_series_rejects_negative_order(self):
        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            direct_series_specified((2,), -1)


class TestClosedFormFixedDiff:
    def test_difference_two_reduces_to_display_shape(self):
        form = closed_form_fixed_diff(2)
        assert form.numerator == (0, 0, 0, 0, 1)
        assert form.denominator == ((1, 1), (2, 2))

    def test_difference_three_reduces_to_display_shape(self):
        form = closed_form_fixed_diff(3)
        assert form.numerator == (0, 0, 0, 0, 0, 1, 1, 1, -1)
        assert form.denominator == ((2, 2), (3, 2))

    @pytest.mark.parametrize("t", range(2, 9))
    def test_matches_direct_series(self, t):
        assert closed_form_fixed_diff(t).expand(100) == direct_series_specified((t,), 100)

    @pytest.mark.parametrize("t", range(2, 7))
    def test_matches_enumeration(self, t):
        series = closed_form_fixed_diff(t).expand(80)
        assert list(series.coeffs) == fixed_diff_table(t, 80)

    @pytest.mark.parametrize("t", [0, 1])
    def test_rejects_non_rational_cases(self, t):
        with pytest.raises(OutOfRange):
            closed_form_fixed_diff(t)


class TestSeriesDispatch:
    @pytest.mark.parametrize("distances", [(1,), (2,), (5,), (1, 1), (2, 2), (1, 1, 1), (1, 2, 1)])
    def test_matches_counting_table(self, distances):
        assert list(series(distances, 70).coeffs) == specified_table(distances, 70)

    def test_closed_form_route_where_rational(self, monkeypatch):
        monkeypatch.setattr(genfun, "direct_series_specified", None)
        assert series((3,), 20) == closed_form_fixed_diff(3).expand(20)

    def test_direct_route_below_the_threshold(self, monkeypatch):
        monkeypatch.setattr(genfun, "closed_form_specified", None)
        assert series((1, 1), 20) == direct_series_specified((1, 1), 20)

    def test_no_closed_form_below_the_first_count(self, monkeypatch):
        # Coefficients below min_weight (602 here) are 0: no closed form of
        # degree ~ t^2 is built to say so.
        def refuse(spec):
            raise AssertionError("closed form built below min_weight")

        monkeypatch.setattr(genfun, "closed_form_specified", refuse)
        assert series((600,), 5).coeffs == (0,) * 6

    def test_no_closed_form_below_its_numerator_degree(self, monkeypatch):
        # Past min_weight but below C(t+1, 2), the closed form's O(t^3) build
        # costs more than the direct sum: C(401, 2) = 80200 > 410.
        def refuse(spec):
            raise AssertionError("closed form built below C(t+1, 2)")

        monkeypatch.setattr(genfun, "closed_form_specified", refuse)
        assert list(series((400,), 410).coeffs) == specified_table((400,), 410)

    def test_closed_form_from_its_numerator_degree(self, monkeypatch):
        real, built = genfun.closed_form_specified, []
        monkeypatch.setattr(genfun, "closed_form_specified", lambda spec: built.append(spec) or real(spec))
        assert list(series((5,), 2000).coeffs) == specified_table((5,), 2000)
        assert built == [DistanceSpec((5,))]


class TestDirectSeriesSpecified:
    def test_two_two_prefix(self):
        # q^9..q^13 coefficients, frozen from raw enumeration
        series = direct_series_specified(DistanceSpec((2, 2)), 13)
        assert series.coeffs[9:] == (1, 1, 2, 4, 5)

    @pytest.mark.parametrize("t", range(1, 6))
    def test_single_distance_reduces(self, t):
        assert list(direct_series_specified(DistanceSpec((t,)), 60).coeffs) == fixed_diff_table(t, 60)

    def test_low_order_vanishing(self):
        series = direct_series_specified(DistanceSpec((1, 1)), 5)
        assert series.coeffs == (0,) * 6

    def test_low_order_vanishing_grid(self):
        for k in range(1, 4):
            for distances in itertools.product(range(1, 4), repeat=k):
                spec = DistanceSpec(distances)
                series = direct_series_specified(spec, spec.min_weight)
                assert all(series[n] == 0 for n in range(spec.min_weight))
                assert series[spec.min_weight] == 1

    def test_rejects_bad_distances(self):
        with pytest.raises(InvalidDistance):
            direct_series_specified((2, 0), 10)


class TestClosedFormSpecified:
    def test_two_two_reduces_to_display_shape(self):
        form = closed_form_specified(DistanceSpec((2, 2)))
        assert form.numerator == (0,) * 9 + (1, 1, 1, 1, -1)
        assert form.denominator == ((2, 1), (3, 2), (4, 2))

    @pytest.mark.parametrize("t", range(2, 9))
    def test_single_distance_matches_fixed_diff_form(self, t):
        via_specified = closed_form_specified(DistanceSpec((t,))).expand(100)
        via_fixed = closed_form_fixed_diff(t).expand(100)
        assert via_specified == via_fixed

    def test_three_distances_matches_direct(self):
        spec = DistanceSpec((2, 1, 2))
        assert closed_form_specified(spec).expand(40) == direct_series_specified(spec, 40)

    def test_grid_matches_direct_and_counts(self):
        for k in range(2, 4):
            for distances in itertools.product(range(1, 4), repeat=k):
                spec = DistanceSpec(distances)
                if spec.total <= k:
                    continue
                closed = closed_form_specified(spec).expand(60)
                assert closed == direct_series_specified(spec, 60)
                assert list(closed.coeffs) == specified_table(distances, 60)

    def test_rejects_total_at_most_k(self):
        with pytest.raises(OutOfRange):
            closed_form_specified(DistanceSpec((1,)))
        with pytest.raises(OutOfRange):
            closed_form_specified(DistanceSpec((1, 1)))
        with pytest.raises(OutOfRange):
            closed_form_specified(DistanceSpec((1, 1, 1)))

    def test_rejects_bad_distances(self):
        with pytest.raises(InvalidDistance):
            closed_form_specified((0, 2))


class TestQBinomialAlternatingSum:
    @pytest.mark.parametrize("t", range(11))
    def test_full_sum_is_pochhammer(self, t):
        assert qbinomial_alternating_sum(t) == pochhammer_q(t)

    def test_empty_prefix_case(self):
        assert qbinomial_alternating_sum(0) == (1,)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_tail_from_two(self, t):
        # sum_{j=2}^{t} = (q)_t - 1 + q [t,1]: the full sum less the partial
        # sum through j = 1, the kind `closed_form_specified` stops at j = k
        tail = list(qbinomial_alternating_sum(t))
        for i, c in enumerate(genfun._alternating_sum(t, range(2))):
            tail[i] -= c
        expected = [0, *pochhammer_q(t)[1:]]
        for i, c in enumerate(gauss_binomial(t, 1), 1):
            expected[i] += c
        assert tail == expected

    @pytest.mark.parametrize("t", range(11))
    def test_every_prefix_matches_pascal_rows(self, t):
        # Each prefix j <= k the closed forms stop at, coefficient by
        # coefficient from q-Pascal rows, which share no kernel with the
        # stepped rows of the sum.
        rows = [gauss_binomial_pascal(t, j) for j in range(t + 1)]
        for k in range(t + 1):
            expected = [
                sum(
                    (-1) ** j * rows[j][n - math.comb(j + 1, 2)]
                    for j in range(k + 1)
                    if 0 <= n - math.comb(j + 1, 2) < len(rows[j])
                )
                for n in range(math.comb(t + 1, 2) + 1)
            ]
            assert genfun._alternating_sum(t, range(k + 1)) == expected

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            qbinomial_alternating_sum(-1)


@pytest.mark.parametrize("t", range(9))
def test_polynomials_are_trimmed_tuples(t):
    polys = [pochhammer_q(t), qbinomial_alternating_sum(t)]
    polys += [gauss_binomial(t, j) for j in range(-1, t + 2)]
    for poly in polys:
        assert type(poly) is tuple
        assert not poly or poly[-1] != 0


class TestP1Identity:
    @pytest.mark.parametrize("order", [1, 10, 50])
    def test_holds(self, order):
        assert p1_identity_check(order)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            p1_identity_check(0)


class TestHeine:
    def test_proof_specialization_single_difference(self):
        # a = b = q, c = q^{t+2}, z = q^2 with t = 3
        assert heine_check(1, 1, 5, 2, 40)

    def test_proof_specialization_distance_vector(self):
        # a = b = q, c = q^{t+2}, z = q^{k+1} with t = 5, k = 2
        assert heine_check(1, 1, 7, 3, 40)

    @pytest.mark.parametrize(
        "k,t", [(k, t) for t in range(2, 7) for k in range(1, t)]
    )
    def test_proof_grid(self, k, t):
        order = 60
        assert heine_check(1, 1, t + 2, k + 1, order)

    def test_trivial_when_z_exceeds_order(self):
        assert heine_check(1, 1, 5, 50, 10)

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(InvalidExponent):
            heine_check(0, 1, 5, 2, 10)
        with pytest.raises(InvalidExponent):
            heine_check(1, 1, 5, 0, 10)

    def test_rejects_c_not_above_b(self):
        with pytest.raises(InvalidExponent):
            heine_check(1, 2, 2, 1, 10)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            heine_check(1, 1, 5, 2, -1)

    @pytest.mark.parametrize("a,c", [(1, 9), (2, 12), (3, 4)], ids=["s<0", "s<<0", "s>0"])
    def test_negative_exponent_specializations(self, a, c):
        # s = a + b + z - c in (abz/c)_j: for s <= 0 its factors 1 - q^{s+i}
        # with s + i < 0 are rewritten, and 1 - q^0 ends the sum at j = 1 - s.
        assert heine_check(a, 2, c, 3, 50)

    @pytest.mark.parametrize("n", [0, 7, 40])
    def test_fails_when_right_side_is_corrupted(self, monkeypatch, n):
        right_side = genfun._heine_right_side

        def corrupted(*args):
            out = right_side(*args)
            out[n] += 1
            return out

        monkeypatch.setattr(genfun, "_heine_right_side", corrupted)
        assert not heine_check(1, 1, 5, 2, 40)


@pytest.mark.parametrize(
    "n,b,c", [(n, b, c) for n in range(7) for b in range(1, 4) for c in range(b + 1, b + 5)]
)
def test_two_phi_one_q_chu_vandermonde(n, b, c):
    # 2phi1(q^-n, q^b; q^c; q^{c-b+n}) = (q^{c-b})_n / (q^c)_n: a terminating
    # sum whose factors 1 - q^{-n+i} all have negative exponent.
    products = FactoredRational(
        _times_one_minus_q_powers([1], range(c - b, c - b + n)), [(c + i, 1) for i in range(n)]
    )
    for order in (0, 9, 40):
        expected = list(products.expand(order).coeffs)
        assert genfun._two_phi_one(-n, b, c, c - b + n, order) == expected


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(-8, 8),
    b=st.integers(1, 6),
    c=st.integers(1, 8),
    z=st.integers(1, 9),
    order=st.integers(0, 60),
)
@example(a=-3, b=2, c=4, z=5, order=40)  # three sign flips, then 1 - q^0 ends the sum
@example(a=1, b=1, c=9, z=1, order=60)  # every term down to one coefficient
def test_two_phi_one_matches_full_length_terms(a, b, c, z, order):
    assume(a + z >= 1)
    assert genfun._two_phi_one(a, b, c, z, order) == two_phi_one_full_length(a, b, c, z, order)


@pytest.mark.parametrize("spec", [*cli._specified_grid(), *((t,) for t in range(2, 13))], ids=str)
def test_closed_form_matches_one_spec_build(spec):
    assert closed_form_specified(spec) == closed_form_specified_one_spec(spec)


# sha256 over the reprs of the closed forms and Gaussian binomials, one per
# line, captured from the long-division build before the (1-q^m) kernels
# replaced it: a change of factor order, reduction or coefficient shows here.
STRUCTURE_GOLDEN = {
    "specified": "255152fbfe89603be0e0229ccc838ee2a5a734758cf57f220167b0d46a29317a",
    "fixed-diff": "94728457b3c55ff470c3ae2b744b9d7dcb85f52958132439cb29108a95cdf752",
    "gauss": "2635c53ee727e9bc10a4964650549c02b4aa381fe216433e30e0f90ae6c8b2ee",
}

STRUCTURES = {
    "specified": lambda: [
        closed_form_specified(spec)
        for spec in [*cli._specified_grid(), *((t,) for t in range(2, 13))]
    ],
    "fixed-diff": lambda: [closed_form_fixed_diff(t) for t in range(2, 13)],
    "gauss": lambda: [gauss_binomial(a, b) for a in range(17) for b in range(a + 1)],
}


@pytest.mark.parametrize("family", sorted(STRUCTURE_GOLDEN))
def test_closed_form_structure_matches_golden(family):
    text = "\n".join(repr(value) for value in STRUCTURES[family]())
    assert hashlib.sha256(text.encode()).hexdigest() == STRUCTURE_GOLDEN[family]
