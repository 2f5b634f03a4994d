"""Enumeration oracles against values frozen from raw partition listings."""

import functools
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from partition_gf import counting, genfun, qseries
from partition_gf.cli import main
from partition_gf.counting import (
    _count,
    _gauss_rows,
    _slot_bits,
    _unpack,
    count_specified,
    divisor_count,
    fixed_diff_table,
    specified_table,
)
from partition_gf.errors import InvalidDistance, TooLarge
from partition_gf.genfun import DistanceSpec, direct_series_specified
from partition_gf.qseries import gauss_binomial
from reference import (
    divide_by_one_minus_q_power,
    divisor_counts,
    iter_specified,
    multiply_by_one_minus_q_power,
    multiset_sums,
    slot_bits,
    specified_grid,
    total_partition_count,
)

# Frozen from an independent raw enumeration of all partitions (filtering by
# largest-smallest difference / milestone membership), computed before this
# module was written.
RAW_FIXED = {
    1: [0, 0, 1, 1, 3, 2],               # n = 1..6
    2: [0, 0, 0, 1, 1, 3, 3, 6, 6, 10, 10, 15],
    3: [0, 0, 0, 0, 1, 1, 3, 3, 7, 7, 12, 14, 20, 22, 32, 34, 45, 51, 63, 69],
    4: [0, 0, 0, 0, 0, 1, 1, 3, 3, 7, 8, 13, 16, 24, 27, 40],
    5: [0, 0, 0, 0, 0, 0, 1, 1, 3, 3, 7, 8, 14, 17],
}
RAW_SPECIFIED = {
    (2, 2): [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 4, 5, 8, 12, 15],
    (1, 1): [0, 0, 0, 0, 0, 1, 1, 2, 4, 4],
    (1, 2): [0, 0, 0, 0, 0, 0, 1, 1, 2, 4, 5, 7, 11, 13],
    (3, 1): [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 4, 5],
    (2, 1, 2): [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 6, 7, 12],
}
RAW_TOTALS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0)..p(10)


class TestDivisorCount:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 4), (12, 6), (97, 2)])
    def test_values(self, n, expected):
        assert divisor_count(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisor_count(0)

    def test_cap_is_checked_before_any_division(self, monkeypatch):
        def no_division(n):
            raise AssertionError("trial division ran above the cap")

        monkeypatch.setattr(counting, "math", SimpleNamespace(isqrt=no_division))
        for n in (counting.MAX_DIVISOR_N + 1, 10**20):
            with pytest.raises(TooLarge, match=r"divisor-count cap 100000000000000 = 10\^14"):
                divisor_count(n)

    def test_cap_is_inclusive(self, monkeypatch):
        # At a cap of 100 the loop is short: 100 itself is counted, 101 is refused.
        monkeypatch.setattr(counting, "MAX_DIVISOR_N", 100)
        assert divisor_count(100) == 9
        with pytest.raises(TooLarge):
            divisor_count(101)


class TestTotalPartitionCount:
    def test_base_case(self):
        assert total_partition_count(0) == 1

    def test_classical_values(self):
        assert [total_partition_count(n) for n in range(11)] == RAW_TOTALS
        assert total_partition_count(50) == 204226

    def test_matches_row_sum_at_fifty(self):
        assert sum(fixed_diff_table(t, 50)[50] for t in range(50)) == 204226


class TestCountFixedDiff:
    @pytest.mark.parametrize("t", sorted(RAW_FIXED))
    def test_matches_raw_enumeration(self, t):
        values = RAW_FIXED[t]
        assert [count_specified(n, (t,)) for n in range(1, len(values) + 1)] == values

    def test_difference_zero_counts_divisors(self):
        # The sieve counts each d <= sqrt(n_max) once at d*d and twice along
        # d(d+1), d(d+2), ...: short tables check where those passes stop.
        divisors = [0] + [divisor_count(n) for n in range(1, 3001)]
        assert divisors[6] == 4
        assert fixed_diff_table(0, 3000) == divisors
        for n_max in (0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12):
            assert fixed_diff_table(0, n_max) == divisors[: n_max + 1]

    # Every count fits the sieve's byte through its cap, which covers the series-order cap.
    def test_the_byte_sieve_is_exact_through_its_cap(self):
        assert counting.MAX_SIEVE_N == counting.MAX_ORDER == 10**6
        table = fixed_diff_table(0, counting.MAX_SIEVE_N)
        assert table == divisor_counts(counting.MAX_SIEVE_N)
        assert max(table) == table[720720] == divisor_count(720720) == 240

    def test_the_divisor_sieve_cap(self):
        with pytest.raises(TooLarge, match="^n_max=1000001 is above the divisor-sieve cap 1000000$"):
            fixed_diff_table(0, counting.MAX_SIEVE_N + 1)

    def test_difference_one_counts_nondivisors(self):
        table = fixed_diff_table(1, 200)
        assert table[6] == 2
        for n in range(1, 201):
            assert table[n] == n - divisor_count(n)

    def test_first_two_rows_sum_to_n(self):
        zero, one = fixed_diff_table(0, 200), fixed_diff_table(1, 200)
        for n in range(1, 201):
            assert zero[n] + one[n] == n

    def test_difference_two_is_floor_binomial(self):
        assert count_specified(8, (2,)) == 6
        table = fixed_diff_table(2, 200)
        for n in range(1, 201):
            assert table[n] == math.comb(n // 2, 2)

    def test_row_sums_are_partition_numbers(self):
        n_max = 100
        sums = [0] * (n_max + 1)
        for t in range(n_max):
            for n, value in enumerate(fixed_diff_table(t, n_max)):
                sums[n] += value
        for n in range(1, n_max + 1):
            assert sums[n] == total_partition_count(n)

    def test_table_agrees_with_pointwise(self):
        table = fixed_diff_table(3, 40)
        assert [count_specified(n, (3,)) for n in range(1, 41)] == table[1:]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_specified(0, (2,))
        with pytest.raises(ValueError):
            fixed_diff_table(-1, 10)
        with pytest.raises(ValueError):
            fixed_diff_table(-1, 5)


class TestNegativeNMax:
    @pytest.mark.parametrize(
        "table, args",
        [
            pytest.param(specified_table, ((2,), -1), id="specified-t2"),
            pytest.param(specified_table, ((1, 1), -3), id="specified-1,1"),
            pytest.param(fixed_diff_table, (0, -2), id="fixed-t0"),
            pytest.param(fixed_diff_table, (3, -2), id="fixed-t3"),
        ],
    )
    def test_raises_naming_the_value(self, table, args):
        with pytest.raises(ValueError, match=f"n_max must be >= 0, got {args[1]}"):
            table(*args)

    def test_zero_is_the_empty_count(self):
        assert specified_table((2,), 0) == [0]
        assert fixed_diff_table(0, 0) == [0]


# (100,) and (400,) are where the partition-number bound sets the slot
# width; for the others the simplex bound is the smaller.
PACKED_CASES = [((1,), 2000), ((5,), 2000), ((2, 2), 2000), ((1, 1, 1), 2000),
                ((30,), 2000), ((100,), 2000), ((400,), 1000)]


@functools.cache
def _list_nest(spec, order):
    """The direct sum nested in list arithmetic, one in-place pass per
    (1-q^m) factor: a reference that shares no packing with either route."""
    spec = DistanceSpec(spec)
    t, step, first = spec.total, spec.k + 1, spec.min_weight
    if first > order:
        return [0] * (order + 1)
    nested = [1] + [0] * ((order - first) % step)  # V_M, M = (order - first) // step + 1
    for m in range((order - first) // step, 0, -1):
        multiply_by_one_minus_q_power(nested, m)
        divide_by_one_minus_q_power(nested, m + t + 1)
        nested[:0] = [1] + [0] * (step - 1)
    for j in range(1, t + 2):
        divide_by_one_minus_q_power(nested, j)
    return [0] * first + nested


class TestPackedSlots:
    """The packed routes, the table, the point count and the direct sum,
    against the direct sum nested in list arithmetic, where a slot too narrow
    for its counts would corrupt them.  They share the width (_slot_bits), so
    each is checked against the list reference, not only against the others."""

    @pytest.mark.parametrize("spec, n_max", PACKED_CASES, ids=str)
    def test_matches_direct_series(self, spec, n_max):
        reference = _list_nest(spec, n_max)
        assert specified_table(spec, n_max) == reference
        assert list(direct_series_specified(spec, n_max).coeffs) == reference
        assert count_specified(n_max, spec) == reference[n_max]
        assert max(reference).bit_length() <= _slot_bits(n_max, sum(spec))

    @pytest.mark.parametrize("spec", [spec for spec, _ in PACKED_CASES], ids=str)
    def test_edges_of_the_first_window(self, spec):
        first = DistanceSpec(spec).min_weight
        for n_max in (0, 1, first - 1, first):
            reference = _list_nest(spec, n_max)
            assert specified_table(spec, n_max) == reference
            assert list(direct_series_specified(spec, n_max).coeffs) == reference
        assert specified_table(spec, first)[first] == 1

    # step = k+1 runs 2..7.  The orders give the early return, start lengths
    # (order - first) % step + 1 of 1 and step with no level to nest, and
    # start lengths 1 and 2 under one and two levels.
    @pytest.mark.parametrize(
        "spec", [(1,), (1, 1), (1, 1, 1), (1,) * 4, (1,) * 5, (1,) * 6, (2, 1, 1)], ids=str
    )
    def test_direct_series_start_lengths(self, spec):
        first, step = DistanceSpec(spec).min_weight, len(spec) + 1
        for order in (first - 1, first, first + step - 1, first + step, first + 2 * step + 1):
            assert list(direct_series_specified(spec, order).coeffs) == _list_nest(spec, order)

    def test_direct_series_width_is_what_keeps_it_exact(self, monkeypatch):
        monkeypatch.setattr(genfun, "_slot_bits", lambda n_max, t: 8)
        assert list(direct_series_specified((2, 2), 2000).coeffs) != _list_nest((2, 2), 2000)

    def test_narrowed_direct_sum_fails_the_cli_route_check(self, capsys, monkeypatch):
        # `verify --suite routes` reads the direct sum beside the table and the
        # partial-fraction form in every row; genfun's width narrows only the
        # direct sum.  Only the row t = k = 1 keeps every count below 2^8.
        monkeypatch.setattr(genfun, "_slot_bits", lambda n_max, t: 8)
        assert main(["verify", "--suite", "routes"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert len(failed) == 20 and "PASS routes/t=1,k=1" in lines
        for line in failed:
            values = dict(item.split("=") for item in line.split(": ")[-1].split(", "))
            assert values.pop("direct") not in set(values.values()) and len(set(values.values())) == 1

    def test_point_count_width_is_what_keeps_it_exact(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "_slot_bits", lambda n_max, t, summed=True: 8)
        assert count_specified(2000, (5,)) != _list_nest((5,), 2000)[2000]
        assert main(["compute", "--n", "2000", "--distances", "5", "--method", "all"]) == 1
        assert "METHOD DISAGREEMENT" in capsys.readouterr().err
        # With no windows, _count is its Gaussian half: s > 5 at (5,) and n = 600,
        # where rows up to r = 97 hold coefficients far past 8 bits.
        monkeypatch.undo()
        monkeypatch.setattr(counting, "_windows", lambda spec, n_max, w: iter(()))
        reference = _gauss_half(600, (5,), 5)
        assert reference > 0 and _count(600, DistanceSpec((5,)), 5) == reference
        monkeypatch.setattr(counting, "_slot_bits", lambda n_max, t, summed=True: 8)
        assert _count(600, DistanceSpec((5,)), 5) != reference

    @pytest.mark.parametrize("m", range(1, 13))
    def test_simplex_bounds_partitions_into_parts_at_most_m(self, m):
        # p_{<=m}(n) <= vol {y >= 0 : sum_{i=2..m} i y_i <= n + sum_{i=2..m} i},
        # the bound _slot_bits multiplies by n_max+1.
        exact = multiset_sums(range(1, m + 1), 2000)
        denominator = math.factorial(m - 1) * math.factorial(m)
        for n, count in enumerate(exact):
            assert count * denominator <= (n + m * (m + 1) // 2 - 1) ** (m - 1), n

    def test_width_covers_partition_numbers(self):
        # With t >= n - 1 the first window counts every partition of n.
        totals = multiset_sums(range(1, 2001), 2000)  # p(0..2000) in one pass
        assert totals[100] == total_partition_count(100)
        for n, p in enumerate(totals):
            bits = _slot_bits(n, max(n - 1, 0))
            assert bits % 8 == 0 and bits >= p.bit_length(), n


class TestSlotBitsShortcut:
    """_slot_bits skips the exact simplex bound V where lgamma puts V above the partition bound;
    every width must equal the one computed with V exact."""

    # The two bounds meet at t = 4..276 for these n (at t = 276 for n = 5 * 10^4, one entry);
    # t runs past each meeting point, and n <= 60 covers every t >= n.
    @pytest.mark.parametrize("n_max", [*range(0, 61, 3), 100, 300, 1000, 2000, 10**4, 5 * 10**4])
    def test_every_width_equals_the_exact_formula(self, n_max):
        for t in range(0, 300):
            for summed in (True, False):
                assert _slot_bits(n_max, t, summed) == slot_bits(n_max, t, summed), (t, summed)

    def test_large_t_never_computes_the_simplex_bound(self, monkeypatch):
        # V at n = t = 10^5 took 6 s, spent before the work cap could refuse.
        def refuse(m):
            raise AssertionError("computed the exact simplex bound")

        monkeypatch.setattr(counting.math, "factorial", refuse)
        assert _slot_bits(10**5, 10**5, summed=False) == 1184 == -(-(math.isqrt(14 * 10**5) + 1) // 8) * 8
        with pytest.raises(TooLarge, match=r"= 11840000000000 units, above the point-count work cap 4000000000$"):
            count_specified(10**5, (10**5,))


class TestOneEntryWidth:
    """The point count reads one entry a slot, so its width (_slot_bits, summed=False) leaves
    out the n+1 entries that the table and the direct sum add into a slot."""

    N_MAX = 600

    @pytest.mark.parametrize("t", range(1, 9))
    def test_every_entry_it_reads_fits(self, t):
        # A window s is read at n only if its base, at least 2s + t, is <= n, through j = n - base:
        # each window is slid in lists, cut to j <= N_MAX - 2s.  Row [r+t, t] is read only if rt < n.
        n_max = self.N_MAX
        window, widest = multiset_sums(range(1, t + 2), n_max), [0] * (n_max + 1)
        for s in range(1, n_max // 2 + 1):
            del window[n_max - 2 * s + 1 :]
            widest[: len(window)] = map(max, widest, window)
            multiply_by_one_minus_q_power(window, s)
            divide_by_one_minus_q_power(window, s + t + 1)
        row, row_tops = [1], [1]  # [t, t]; the largest coefficient of [r+t, t] for r = 0, 1, ...
        for r in range(1, (n_max - 1) // t + 1):
            row += [0] * t
            multiply_by_one_minus_q_power(row, r + t)
            divide_by_one_minus_q_power(row, r)
            row_tops.append(max(row))
        entries, tops = list(itertools.accumulate(widest, max)), list(itertools.accumulate(row_tops, max))
        for n in range(1, n_max + 1):
            w = _slot_bits(n, t, summed=False)
            assert w % 8 == 0 and max(entries[n], tops[(n - 1) // t]).bit_length() <= w, n
            assert w <= _slot_bits(n, t)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_grid_matches_the_table(self, k):
        # Every composition of t <= 8 into k parts, at every eleventh n and at N_MAX.
        for spec in (c for c in itertools.product(range(1, 9), repeat=k) if sum(c) <= 8):
            table = specified_table(spec, self.N_MAX)
            for n in [*range(1, self.N_MAX, 11), self.N_MAX]:
                assert count_specified(n, spec) == table[n], (spec, n)


@functools.cache
def _gauss_row(r, t):
    return gauss_binomial(r + t, t)


def _gauss_half(n, spec, cut):
    """count_specified's part with smallest part s > cut, by the free-part count r, from
    list-built Gaussian rows."""
    spec = DistanceSpec(spec)
    t, step, rest = spec.total, spec.k + 1, n - spec.weighted_total
    total = 0
    for s in range(cut + 1, rest // step + 1):
        for r in range((rest - step * s) // s + 1):
            row = _gauss_row(r, t)
            m = rest - (step + r) * s
            total += row[m] if m < len(row) else 0
    return total


# Specs whose windows and Gaussian rows meet at every cut; the grid specs at
# fewer n, to keep the sweep near a second.
CUT_SPECS = [*((t,) for t in range(1, 7)), *((1,) * k for k in range(2, 8))]


class TestSplitCount:
    """count_specified reads the windows below a cut and the Gaussian rows above it."""

    def _check_every_cut(self, spec, stride):
        # From cut = t to one past the last window (an empty Gaussian half), at
        # n below the first count, at it and on to 150.
        spec = DistanceSpec(spec)
        table, first = specified_table(spec, 150), spec.min_weight
        for n in sorted({1, max(first - 1, 1), first, *range(first + 1, 150, stride), 150}):
            last = (n - spec.weighted_total) // (spec.k + 1)
            for cut in range(spec.total, max(spec.total, last + 1) + 1):
                assert _count(n, spec, cut) == table[n], (n, cut)

    @pytest.mark.parametrize("spec", CUT_SPECS, ids=str)
    def test_every_cut_matches_the_table(self, spec):
        self._check_every_cut(spec, 3)

    def test_every_cut_on_the_grid_specs(self):
        for spec in specified_grid():
            self._check_every_cut(spec, 13)

    @pytest.mark.parametrize(
        "spec, n", [((1,), 150), ((3,), 150), ((2, 2), 200), ((1, 2, 3), 300)], ids=str
    )
    def test_gaussian_half_at_every_cut(self, spec, n, monkeypatch):
        monkeypatch.setattr(counting, "_windows", lambda spec, n_max, w: iter(()))
        spec = DistanceSpec(spec)
        for cut in range(spec.total, n // (spec.k + 1) + 1):
            assert _count(n, spec, cut) == _gauss_half(n, spec.distances, cut), cut

    @pytest.mark.parametrize("t", range(1, 9))
    def test_rows_are_the_gaussian_binomials(self, t):
        # At the width of a count that reaches r = 40, where rt < n.
        w = _slot_bits(40 * t + 1, t)
        for r, row in zip(range(41), _gauss_rows(t, w)):
            assert row >> (r * t + 1) * w == 0, r
            assert _unpack(row, r * t + 1, w) == list(gauss_binomial(r + t, t)), r

    def test_reads_no_series_route(self, monkeypatch):
        cases = [((1,), 1766), ((5,), 2000), ((2, 2), 1500), ((1, 1, 1), 900)]
        expected = [specified_table(spec, n)[n] for spec, n in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("count_specified called into a series route")

        for module in (genfun, qseries):
            for name, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == module.__name__:
                    monkeypatch.setattr(module, name, refuse)
        assert [count_specified(n, spec) for spec, n in cases] == expected
        borrowed = {getattr(value, "__module__", None) for value in vars(counting).values()}
        assert not borrowed & {genfun.__name__, qseries.__name__}
        assert genfun not in vars(counting).values() and qseries not in vars(counting).values()


class TestCountSpecified:
    @pytest.mark.parametrize("distances", sorted(RAW_SPECIFIED))
    def test_matches_raw_enumeration(self, distances):
        values = RAW_SPECIFIED[distances]
        assert [count_specified(n, distances) for n in range(1, len(values) + 1)] == values

    def test_worked_example(self):
        assert count_specified(11, (2, 2)) == 2
        assert count_specified(12, (2, 2)) == 4
        assert count_specified(5, (1, 1)) == 0

    def test_worked_example_partitions(self):
        found = sorted(iter_specified(11, (2, 2)))
        assert found == [(5, 3, 1, 1, 1), (5, 3, 2, 1)]

    def test_single_distance_reduces_to_fixed_diff(self):
        for t, values in RAW_FIXED.items():
            assert specified_table((t,), len(values))[1:] == values

    def test_table_agrees_with_pointwise(self):
        table = specified_table((2, 2), 30)
        assert [count_specified(n, (2, 2)) for n in range(1, 31)] == table[1:]

    def test_rejects_bad_distances(self):
        with pytest.raises(InvalidDistance):
            count_specified(10, (0,))
        with pytest.raises(InvalidDistance):
            count_specified(10, (2, 0))
        with pytest.raises(InvalidDistance):
            specified_table((), 10)

    @pytest.mark.parametrize("distances", [(2.9, 2.2), (2.0, 2), (True, 2)])
    def test_rejects_non_integral_distances(self, distances):
        with pytest.raises(InvalidDistance):
            count_specified(11, distances)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            count_specified(0, (2, 2))

    # A cut near cbrt(n t) past 2^63 would overflow islice's stop; no window has base > n.
    @pytest.mark.parametrize("distances", [(2**63,), (1, 2**64)])
    def test_a_distance_past_a_machine_word(self, distances):
        assert count_specified(5, distances) == 0

    def test_cap_is_checked_before_any_window(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted above the point-count cap")

        monkeypatch.setattr(counting, "_count", refuse)
        assert counting.MAX_ORDER == 10**6
        for n in (counting.MAX_ORDER + 1, 10**20):
            with pytest.raises(TooLarge) as info:
                count_specified(n, (5,))
            assert type(info.value) is TooLarge
            assert str(info.value) == f"n={n} is above the point-count cap 1000000"

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(counting, "MAX_ORDER", 40)
        assert count_specified(40, (2, 2)) == specified_table((2, 2), 40)[40]
        with pytest.raises(TooLarge, match="^n=41 is above the point-count cap 40$"):
            count_specified(41, (2, 2))

    # The work estimate cut*n*w, w the one-entry width: at n = 10^6 it is 256 * 10^6 * 184 at
    # (12,) and 128 * 10^6 * 56 at (3,), both refused before any window; at n = 5 * 10^5, (3,)
    # is 128 * 5 * 10^5 * 56 and is counted (6 s on one 2-vCPU Xeon; `_count` is patched here).
    @pytest.mark.parametrize("n, distances, work", [(10**6, (12,), 47104000000), (10**6, (3,), 7168000000)])
    def test_work_cap_is_checked_before_any_window(self, monkeypatch, n, distances, work):
        def refuse(*args):
            raise AssertionError("counted above the point-count work cap")

        monkeypatch.setattr(counting, "_count", refuse)
        assert counting.MAX_POINT_WORK == 4 * 10**9
        message = f"n={n} needs cut*n*w = {work} units, above the point-count work cap 4000000000"
        with pytest.raises(TooLarge) as info:
            count_specified(n, distances)
        assert str(info.value) == message

    def test_work_cap_lets_a_count_below_it_through(self, monkeypatch):
        monkeypatch.setattr(counting, "_count", lambda n, spec, cut: (n, cut))
        assert count_specified(5 * 10**5, (3,)) == (5 * 10**5, 128)
        assert 128 * 5 * 10**5 * _slot_bits(5 * 10**5, 3, summed=False) <= counting.MAX_POINT_WORK

    def test_work_cap_is_inclusive(self, monkeypatch):
        # (5,) at n = 2000: cut 16, w 40 bits, 16 * 2000 * 40 units.
        monkeypatch.setattr(counting, "MAX_POINT_WORK", 1280000)
        assert count_specified(2000, (5,)) == specified_table((5,), 2000)[2000]
        monkeypatch.setattr(counting, "MAX_POINT_WORK", 1279999)
        with pytest.raises(TooLarge, match="point-count work cap 1279999$"):
            count_specified(2000, (5,))


class TestQueryDispatch:
    def test_difference_zero(self):
        assert fixed_diff_table(0, 6)[6] == 4

    def test_single_difference(self):
        assert count_specified(12, (3,)) == 14

    def test_distance_vector(self):
        assert count_specified(11, (2, 2)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            divisor_count(0)
        with pytest.raises(InvalidDistance):
            count_specified(5, (1, 0))


@pytest.mark.parametrize("w", range(8, 257, 8))
def test_unpack_round_trips_one_to_four_limbs(w):
    # Slots written byte by byte, with bits above them (and a borrow from above
    # the window) that the unpacking must drop.
    rng, top = random.Random(w), (1 << w) - 1
    for size in (1, 2, 121, 2001):
        for edge in (0, top):
            slots = [edge] + [rng.choice((0, top, rng.getrandbits(w))) for _ in range(size - 1)]
            packed = int.from_bytes(b"".join(s.to_bytes(w // 8, "little") for s in slots), "little")
            assert _unpack(packed + (rng.getrandbits(64) << size * w), size, w) == slots
            assert _unpack(packed - (1 << (size + 1) * w), size, w) == slots
