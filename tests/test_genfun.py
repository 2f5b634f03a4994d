"""Generating functions: direct sums, closed forms, and the identities
behind them."""

import functools
import hashlib
import inspect
import itertools
import math

import pytest
from hypothesis import strategies as st

from partition_gf import cli, counting, genfun
from partition_gf.counting import divisor_count, fixed_diff_table, specified_table
from partition_gf.errors import InvalidDistance, InvalidExponent, OutOfRange, TooLarge
from partition_gf.genfun import (
    DistanceSpec,
    closed_form_fixed_diff,
    closed_form_specified,
    core_identity_check,
    direct_series_specified,
    p1_identity_check,
    partial_fraction_series,
    series,
)
from partition_gf.qseries import (
    FactoredRational,
    _times_one_minus_q_powers,
    gauss_binomial,
    pochhammer_q,
)
import reference
from reference import (
    closed_form_specified_one_spec,
    gauss_binomial_pascal,
    heine_check,
    iter_specified,
    specified_grid,
    two_phi_one,
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

    # t > k reads the closed form from order max(min_weight, C(t+1, 2)): (5,) from
    # C(6, 2) = 15 (min_weight 7), (2, 1, 1) from its min_weight 13 (C(5, 2) = 10).
    @pytest.mark.parametrize(
        "distances, order, route",
        [
            ((5,), 14, "direct_series_specified"),
            ((5,), 15, "closed_form_specified"),
            ((2, 1, 1), 12, "direct_series_specified"),
            ((2, 1, 1), 13, "closed_form_specified"),
        ],
    )
    def test_closed_form_route_turns_at_its_threshold(self, distances, order, route, monkeypatch):
        called = []

        def spy(name):
            real = getattr(genfun, name)
            return lambda *args: called.append(name) or real(*args)

        for name in ("closed_form_specified", "direct_series_specified", "partial_fraction_series"):
            monkeypatch.setattr(genfun, name, spy(name))
        assert list(series(distances, order).coeffs) == specified_table(distances, order)
        assert called == [route]

    def test_order_cap_is_checked_before_any_route(self, monkeypatch):
        for name in ("closed_form_specified", "direct_series_specified", "partial_fraction_series"):
            monkeypatch.setattr(genfun, name, _refuse(name))
        assert genfun.MAX_ORDER is counting.MAX_ORDER
        for distances in [(5,), (1, 1, 1), (600,)]:
            for order in (counting.MAX_ORDER + 1, 10**20):
                with pytest.raises(TooLarge) as info:
                    series(distances, order)
                assert type(info.value) is TooLarge
                assert str(info.value) == f"order {order} is above the series-order cap 1000000"

    def test_order_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(genfun, "MAX_ORDER", 40)
        assert list(series((2, 2), 40).coeffs) == specified_table((2, 2), 40)
        with pytest.raises(TooLarge, match="^order 41 is above the series-order cap 40$"):
            series((2, 2), 41)


# Each route of `genfun.routes` and the function it runs.
ROUTE_FUNCTIONS = {
    "closed": (genfun, "closed_form_specified"),
    "direct": (genfun, "direct_series_specified"),
    "table": (counting, "specified_table"),
    "partial": (genfun, "partial_fraction_series"),
    "displayed": (genfun, "closed_form_fixed_diff"),
}


class TestRoutes:
    @pytest.mark.parametrize(
        "distances, names",
        [
            ((3,), ["closed", "direct", "table", "partial", "displayed"]),
            ((1,), ["direct", "table", "partial"]),
            ((2, 2), ["closed", "direct", "table", "partial"]),
            ((1, 1, 1), ["direct", "table", "partial"]),
        ],
    )
    def test_every_route_that_applies_in_column_order(self, distances, names):
        table = specified_table(distances, 60)
        routes = genfun.routes(distances)
        assert list(routes) == names
        for route in routes.values():
            assert list(route(60).coeffs) == table

    # A route runs the function its module holds when it runs, not the one it
    # held when `routes` was called: a patch made after the lookup is obeyed.
    @pytest.mark.parametrize("name", list(ROUTE_FUNCTIONS))
    def test_a_route_runs_the_function_patched_after_the_lookup(self, name, monkeypatch):
        routes = genfun.routes((3,))
        module, function = ROUTE_FUNCTIONS[name]
        monkeypatch.setattr(module, function, _refuse(function))
        with pytest.raises(AssertionError, match=f"^{function} called$"):
            routes[name](30)


ROUTE_CHECK_SPECS = [*specified_grid(), *((t,) for t in range(2, 13))]


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    return refuse


def _mutate(monkeypatch, name, old, new):
    """Replace genfun.<name> by its source with `old` replaced once by `new`."""
    source = inspect.getsource(getattr(genfun, name))
    assert source.count(old) == 1
    namespace = dict(vars(genfun))
    exec(compile(source.replace(old, new), genfun.__file__, "exec"), namespace)
    monkeypatch.setattr(genfun, name, namespace[name])


# The Gaussian row [t, 2] added with the wrong sign in the partial-fraction form.
J2_SIGN_FLIP = (
    "operator.add if j % 2 else operator.sub",
    "operator.add if (j % 2) != (j == 2) else operator.sub",
)
DIVISOR_SIGN_FLIP = ("operator.sub if k % 2 else operator.add", "operator.add if k % 2 else operator.sub")


class TestPartialFractionSeries:
    def test_matches_the_closed_form_on_the_route_check_specs(self):
        assert len(ROUTE_CHECK_SPECS) == 89
        for distances in ROUTE_CHECK_SPECS:
            expected = closed_form_specified(distances).expand(200)
            assert partial_fraction_series(distances, 200) == expected, distances

    @pytest.mark.parametrize("k", range(1, 8))
    def test_all_ones_with_the_divisor_term_match_the_table(self, k):
        table = specified_table((1,) * k, 400)
        assert list(partial_fraction_series((1,) * k, 400).coeffs) == table
        # Below, at and just past the first count.
        for order in range(DistanceSpec((1,) * k).min_weight + k + 2):
            assert list(partial_fraction_series((1,) * k, order).coeffs) == table[: order + 1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_ones_series_uses_no_packed_kernel(self, k, monkeypatch):
        table = specified_table((1,) * k, 2000)
        for name in ("direct_series_specified", "_packed_divide", "_slot_bits", "_unpack"):
            for module in (genfun, counting):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _refuse(name))
        assert list(series((1,) * k, 2000).coeffs) == table

    # t = k reads the partial-fraction form from order 100 t: (1, 1) from 200.
    @pytest.mark.parametrize(
        "order, route", [(199, "direct_series_specified"), (200, "partial_fraction_series")]
    )
    def test_all_ones_route_turns_at_one_hundred_t(self, order, route, monkeypatch):
        called = []

        def spy(name):
            real = getattr(genfun, name)
            return lambda *args: called.append(name) or real(*args)

        for name in ("direct_series_specified", "partial_fraction_series"):
            monkeypatch.setattr(genfun, name, spy(name))
        assert list(series((1, 1), order).coeffs) == specified_table((1, 1), order)
        assert called == [route]

    @pytest.mark.parametrize(
        "name, flip",
        [("_partial_fraction_rational", J2_SIGN_FLIP), ("partial_fraction_series", DIVISOR_SIGN_FLIP)],
        ids=["j=2-term-sign", "divisor-term-sign"],
    )
    def test_a_flipped_sign_fails_the_cli_route_check(self, name, flip, capsys, monkeypatch):
        _mutate(monkeypatch, name, *flip)
        assert cli.main(["compute", "--n", "2000", "--distances", "1,1,1", "--method", "all"]) == 1
        assert "METHOD DISAGREEMENT" in capsys.readouterr().err

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            partial_fraction_series((1, 1), -1)


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


CORE_PAIRS = [(t, k) for t in range(2, 13) for k in range(1, t)]


class TestQBinomialAlternatingSum:
    # The finite q-binomial theorem: sum_{j=0}^{t} [t,j] (-1)^j q^{C(j+1,2)} = (q)_t, of degree
    # C(t+1, 2).  So the paper's core numerator, the prefix over j <= k less (q)_t, is the tail
    # over j > k that `_closed_core` sums from `gauss_binomial` rows.
    @pytest.mark.parametrize("t", range(11))
    def test_full_sum_is_pochhammer(self, t):
        assert tuple(reference.alternating_sum(t, range(t + 1), gauss_binomial)) == pochhammer_q(t)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_tail_from_two(self, t):
        # sum_{j=2}^{t} = (q)_t - 1 + q [t,1], the tail of the core at k = 1
        expected = [0, *pochhammer_q(t)[1:]]
        for i, c in enumerate(gauss_binomial_pascal(t, 1), 1):
            expected[i] += c
        assert reference.alternating_sum(t, range(2, t + 1), gauss_binomial) == expected

    @pytest.mark.parametrize("t", range(11))
    def test_every_prefix_matches_pascal_rows(self, t):
        # Each prefix j <= k from q-Pascal rows, which share no kernel with
        # `gauss_binomial`, completed by the tail j > k from `gauss_binomial` rows.
        for k in range(t + 1):
            prefix = reference.alternating_sum(t, range(k + 1))
            tail = reference.alternating_sum(t, range(k + 1, t + 1), gauss_binomial)
            assert tuple(a + b for a, b in zip(prefix, tail)) == pochhammer_q(t)

    @pytest.mark.parametrize("t, k", [(2, 1), (5, 2), (9, 4), (12, 11)])
    def test_a_core_reads_one_gauss_binomial_row_per_tail_term(self, t, k, monkeypatch, fresh_cores):
        rows, real = [], gauss_binomial
        monkeypatch.setattr(genfun, "gauss_binomial", lambda top, j: rows.append((top, j)) or real(top, j))
        genfun._closed_core(t, k)
        assert rows == [(t, j) for j in range(k + 1, t + 1)]

    @pytest.mark.parametrize("t, k", CORE_PAIRS)
    def test_every_core_is_its_pascal_tail_over_the_full_denominator(self, t, k):
        # The reduced core N/D against (-1)^{k+1} tail (q)_k (q)_{t-1-k} / ((q)_{t-1} (1-q^t) (q)_t)
        # with the tail from q-Pascal rows: the two are equal when the cross products are.
        core = genfun._closed_core(t, k)
        tail = [(-1) ** (k + 1) * c for c in reference.alternating_sum(t, range(k + 1, t + 1))]
        numerator = _times_one_minus_q_powers(tail, [*range(1, k + 1), *range(1, t - k)])
        core_factors = [m for m, e in core.denominator for _ in range(e)]
        assert FactoredRational(_times_one_minus_q_powers(numerator, core_factors)) == FactoredRational(
            _times_one_minus_q_powers(core.numerator, [*range(1, t), t, *range(1, t + 1)])
        )


@pytest.mark.parametrize("t", range(9))
def test_polynomials_are_trimmed_tuples(t):
    polys = [pochhammer_q(t)]
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

    # p1's middle route is the all-ones partial-fraction form at k = 1, the
    # route `series` reads from order 100 t.
    def test_a_flipped_divisor_term_fails_the_identities_suite(self, capsys, monkeypatch):
        _mutate(monkeypatch, "partial_fraction_series", *DIVISOR_SIGN_FLIP)
        assert cli.main(["verify", "--suite", "identities", "--t-max", "2", "--order", "60"]) == 1
        assert "FAIL identities/p1/order=60" in capsys.readouterr().out.splitlines()


@pytest.fixture
def fresh_cores():
    """Clear the per-process core cache around a test that corrupts how cores are built."""
    cores = genfun._closed_core
    cores.cache_clear()
    yield
    cores.cache_clear()


def _top_plus_one(t, k, real=genfun._closed_core):
    core = real(t, k)
    return FactoredRational([*core.numerator[:-1], core.numerator[-1] + 1], core.denominator)


def _reduce_keeping_one_more(self, real=FactoredRational.reduce):
    reduced = real(self)
    return FactoredRational(reduced.numerator, [*reduced.denominator, (1, 1)])


def _gauss_binomial_doubled_at_top(top, bottom, real=gauss_binomial):
    return (2,) if bottom == top else real(top, bottom)


class TestCoreIdentity:
    @pytest.mark.parametrize("t, k", CORE_PAIRS)
    def test_every_core_to_the_period_cap_is_proved(self, t, k):
        assert core_identity_check(t, k)

    @pytest.mark.parametrize("t, k", [(1, 1), (3, 3), (4, 5), (3, 0)])
    def test_rejects_pairs_without_a_core(self, t, k):
        with pytest.raises(OutOfRange, match=f"got t={t}, k={k}"):
            core_identity_check(t, k)

    # Each corrupts the core alone; the last one, at the numerator's top
    # coefficient, shows that the proof order M reaches deg N1.
    @pytest.mark.parametrize(
        "target, name, corrupt",
        [
            (genfun, "gauss_binomial", _gauss_binomial_doubled_at_top),
            (FactoredRational, "reduce", _reduce_keeping_one_more),
            (genfun, "_closed_core", _top_plus_one),
        ],
        ids=["gauss-binomial-t-t", "reduce-keeps-1-q", "numerator-top-plus-one"],
    )
    def test_a_corrupted_core_fails_every_pair(self, target, name, corrupt, monkeypatch, fresh_cores):
        monkeypatch.setattr(target, name, corrupt)
        assert [pair for pair in CORE_PAIRS if core_identity_check(*pair)] == []

    @pytest.mark.parametrize("t, k", CORE_PAIRS)
    def test_the_proof_order_covers_the_measured_degrees(self, t, k, monkeypatch):
        # M against the degrees read off the two forms, not from the formula M is built by:
        # N2 is (q)_t^2 times the rational part, expanded to 2M + 10.  M has no slack here: it
        # is deg N1 + deg D2 on every pair, so M - 1 fails them all.
        orders, real = [], genfun._partial_fraction_rational
        monkeypatch.setattr(
            genfun, "_partial_fraction_rational", lambda *a: orders.append(a[-1]) or real(*a)
        )
        assert core_identity_check(t, k)
        (order,), core = orders, genfun._closed_core(t, k)
        rational = real(t, k, math.comb(k + 1, 2), 2 * order + 10)
        n2 = _times_one_minus_q_powers(rational, [*range(1, t + 1)] * 2)[: 2 * order + 11]
        deg_n1, deg_d1 = len(core.numerator) - 1, sum(m * e for m, e in core.denominator)
        deg_n2 = max(i for i, c in enumerate(n2) if c)
        assert order >= max(deg_n1 + t * (t + 1), deg_n2 + deg_d1)

    def test_a_flipped_row_in_the_partial_fraction_form_fails_every_pair(self, monkeypatch):
        _mutate(monkeypatch, "_partial_fraction_rational", *J2_SIGN_FLIP)
        assert [pair for pair in CORE_PAIRS if core_identity_check(*pair)] == []


# Heine's transformation, both sides summed by the reference 2phi1: a check of
# the (1-q^m) passes that the closed forms and series routes run on.
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
        right_side = reference._heine_right_side

        def corrupted(*args):
            out = right_side(*args)
            out[n] += 1
            return out

        monkeypatch.setattr(reference, "_heine_right_side", corrupted)
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
        assert two_phi_one(-n, b, c, c - b + n, order) == expected


@pytest.mark.parametrize("spec", ROUTE_CHECK_SPECS, ids=str)
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
    "specified": lambda: [closed_form_specified(spec) for spec in ROUTE_CHECK_SPECS],
    "fixed-diff": lambda: [closed_form_fixed_diff(t) for t in range(2, 13)],
    "gauss": lambda: [gauss_binomial(a, b) for a in range(17) for b in range(a + 1)],
}


@pytest.mark.parametrize("family", sorted(STRUCTURE_GOLDEN))
def test_closed_form_structure_matches_golden(family):
    text = "\n".join(repr(value) for value in STRUCTURES[family]())
    assert hashlib.sha256(text.encode()).hexdigest() == STRUCTURE_GOLDEN[family]
