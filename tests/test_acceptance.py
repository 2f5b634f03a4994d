"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run pytest -s to see them);
a failed assertion is the FAIL line.  Time budgets are asserted where the
criterion states one.
"""

import itertools
import math
import time
from fractions import Fraction

from partition_gf import counting, genfun, oeis, quasipoly
from partition_gf.genfun import (
    DistanceSpec,
    closed_form_fixed_diff,
    closed_form_specified,
    core_identity_check,
    direct_series_specified,
)
from partition_gf.qseries import FactoredRational, gauss_binomial, pochhammer_q
import reference
from reference import total_partition_count


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_worked_example():
    start = time.monotonic()
    spec = DistanceSpec((2, 2))
    enumerated = counting.count_specified(11, (2, 2))
    series = closed_form_specified(spec).expand(11)[11]
    qp = quasipoly.from_closed_form(spec, 160)
    fitted = qp.evaluate(11)
    assert enumerated == series == fitted == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"p(11,2,2) = 2 by all three methods ({elapsed:.2f}s)")


def test_criterion_2_difference_two_binomial():
    start = time.monotonic()
    table = counting.fixed_diff_table(2, 200)
    for n in range(1, 201):
        assert table[n] == math.comb(n // 2, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"p(n,2) = C(floor(n/2),2) for n <= 200 ({elapsed:.2f}s)")


def test_criterion_3_fixed_difference_route_equality():
    start = time.monotonic()
    for t in range(2, 9):
        closed = closed_form_fixed_diff(t).expand(200)
        direct = direct_series_specified((t,), 200)
        counts = counting.fixed_diff_table(t, 200)
        assert closed == direct
        assert list(closed.coeffs) == counts
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"closed form = direct sum = enumeration, 2 <= t <= 8, n <= 200 ({elapsed:.2f}s)")


def test_criterion_4_specified_distance_route_equality():
    start = time.monotonic()
    checked = 0
    for k in range(1, 4):
        for distances in itertools.product(range(1, 5), repeat=k):
            spec = DistanceSpec(distances)
            if spec.total <= max(1, k):
                continue
            closed = closed_form_specified(spec).expand(120)
            direct = direct_series_specified(spec, 120)
            counts = counting.specified_table(distances, 120)
            assert closed == direct
            assert list(closed.coeffs) == counts
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(4, f"route equality on {checked} distance vectors, k <= 3, t_i <= 4, n <= 120 ({elapsed:.2f}s)")


def test_criterion_5_explicit_case_tables():
    table3 = counting.fixed_diff_table(3, 200)
    for n in range(1, 201):
        assert quasipoly.p3_explicit(n) == table3[n]
    for n in range(1, 601):
        quasipoly.p3_explicit(n)  # raises InternalError if the two shapes split
    table22 = counting.specified_table((2, 2), 200)
    for n in range(1, 201):
        assert quasipoly.p22_explicit(n) == table22[n]
    _report(5, "explicit p(n,3) and p(n,2,2) tables match the oracle; both p(n,3) shapes agree to 600")


def test_criterion_6_displayed_rational_forms():
    displayed_p2 = FactoredRational((0, 0, 0, 0, 1), [(1, 1), (2, 2)])
    assert displayed_p2.expand(100) == closed_form_fixed_diff(2).expand(100)

    displayed_p3 = FactoredRational((0, 0, 0, 0, 0, 1, 1, 1, -1), [(2, 2), (3, 2)])
    assert displayed_p3.expand(100) == closed_form_fixed_diff(3).expand(100)

    displayed_p22 = FactoredRational((0,) * 9 + (1, 1, 1, 1, -1), [(2, 1), (3, 2), (4, 2)])
    assert displayed_p22.expand(100) == closed_form_specified(DistanceSpec((2, 2))).expand(100)
    _report(6, "displayed rational forms for t=2, t=3, (2,2) match the built closed forms to order 100")


def test_criterion_7_leading_coefficient_law():
    for t in range(2, 7):
        spec = DistanceSpec((t,))
        period = math.lcm(*range(1, t + 1))
        qp = quasipoly.from_closed_form(spec, spec.min_weight + period * (t + 1))
        assert qp.leading_coefficient() == Fraction(1, t * math.factorial(t) ** 2)
        assert qp.leading_coefficient() == quasipoly.expected_leading(t)
    _report(7, "fitted leading coefficient equals 1/(t (t!)^2) for 2 <= t <= 6")


def test_criterion_8_identities():
    for t in range(11):
        assert tuple(reference.alternating_sum(t, range(t + 1), gauss_binomial)) == pochhammer_q(t)
    for t in range(2, 7):
        for k in range(1, t):
            assert core_identity_check(t, k)
    _report(
        8,
        "q-binomial theorem (t <= 10) and every core R_{t,k}, 1 <= k < t <= 6, "
        "proved equal to the partial-fraction form",
    )


def test_criterion_9_row_sums():
    n_max = 100
    sums = [0] * (n_max + 1)
    for t in range(n_max):
        for n, value in enumerate(counting.fixed_diff_table(t, n_max)):
            sums[n] += value
    for n in range(1, n_max + 1):
        assert sums[n] == total_partition_count(n)
    zero, one = counting.fixed_diff_table(0, 200), counting.fixed_diff_table(1, 200)
    for n in range(1, 201):
        assert zero[n] + one[n] == n
    _report(9, "sum_t p(n,t) = p(n) for n <= 100; p(n,0) + p(n,1) = n for n <= 200")


def test_criterion_10_oeis_fixtures():
    for sequence_id in sorted(oeis.KNOWN_SEQUENCES):
        fixture = oeis.load_calibrated(sequence_id)
        computed = oeis.oracle_values(sequence_id, 400)
        report = oeis.cross_check(fixture, computed)
        assert report.ok, report.summary()
        assert report.checked >= 390
    _report(10, "offline cross-checks pass for A000005, A049820, A008805, A128508 to n <= 400")


def test_criterion_11_quasipolynomial_holdout():
    for t in range(2, 7):
        spec = DistanceSpec((t,))
        period = math.lcm(*range(1, t + 1))
        window = spec.min_weight + period * (t + 1)
        series = closed_form_fixed_diff(t).expand(window + 2 * period)
        qp = quasipoly.fit(series.coeffs[: window + 1], degree=t, period=period)
        for n in range(window + 1, window + 2 * period + 1):
            assert qp.evaluate(n) == series[n]

    spec = DistanceSpec((2, 2))
    window = spec.min_weight + 12 * 5
    series = closed_form_specified(spec).expand(window + 24)
    qp = quasipoly.fit(series.coeffs[: window + 1], degree=4, period=12)
    for n in range(window + 1, window + 25):
        assert qp.evaluate(n) == series[n]
    _report(11, "fits predict two extra periods exactly for t <= 6 and for (2,2)")
