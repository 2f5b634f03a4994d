"""Enumeration oracles against values frozen from raw partition listings."""

import functools
import math
import random

import pytest

from partition_gf import counting, genfun, qseries
from partition_gf.cli import _specified_grid, main
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
from partition_gf.errors import InvalidDistance
from partition_gf.genfun import DistanceSpec, direct_series_specified
from partition_gf.qseries import (
    _divide_by_one_minus_q_power,
    _multiply_by_one_minus_q_power,
    gauss_binomial,
)
from reference import iter_specified, multiset_sums, total_partition_count

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
        _multiply_by_one_minus_q_power(nested, m)
        _divide_by_one_minus_q_power(nested, m + t + 1)
        nested[:0] = [1] + [0] * (step - 1)
    for j in range(1, t + 2):
        _divide_by_one_minus_q_power(nested, j)
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
        # closed form for every spec; genfun's width narrows only the direct sum.
        monkeypatch.setattr(genfun, "_slot_bits", lambda n_max, t: 8)
        assert main(["verify", "--suite", "routes"]) == 1
        assert "FAIL routes/specified/(2,2)" in capsys.readouterr().out

    def test_point_count_width_is_what_keeps_it_exact(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "_slot_bits", lambda n_max, t: 8)
        assert count_specified(2000, (5,)) != _list_nest((5,), 2000)[2000]
        assert main(["compute", "--n", "2000", "--distances", "5", "--method", "all"]) == 1
        assert "METHOD DISAGREEMENT" in capsys.readouterr().err
        # With no windows, _count is its Gaussian half: s > 5 at (5,) and n = 600,
        # where rows up to r = 97 hold coefficients far past 8 bits.
        monkeypatch.undo()
        monkeypatch.setattr(counting, "_windows", lambda spec, n_max, w: iter(()))
        reference = _gauss_half(600, (5,), 5)
        assert reference > 0 and _count(600, DistanceSpec((5,)), 5) == reference
        monkeypatch.setattr(counting, "_slot_bits", lambda n_max, t: 8)
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
        for spec in _specified_grid():
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
