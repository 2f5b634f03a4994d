"""Quasipolynomial fitting, the explicit case tables, and the leading
coefficient law."""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest

from partition_gf import quasipoly
from partition_gf.cli import main
from partition_gf.counting import fixed_diff_table, specified_table
from partition_gf.errors import (
    InconsistentSamples,
    InsufficientSamples,
    NonConstantLeading,
    OutOfRange,
    PeriodTooLarge,
    TooLarge,
)
from partition_gf.genfun import DistanceSpec, closed_form_fixed_diff, closed_form_specified
from partition_gf.quasipoly import (
    MAX_ORDER,
    MAX_PERIOD,
    QuasiPolynomial,
    expected_leading,
    fit,
    from_closed_form,
    p3_explicit,
    p22_explicit,
    required_order,
)
from reference import p3_quasipolynomial, p22_quasipolynomial

# Small fixed-difference-3 values frozen from raw enumeration (n = 1..20).
RAW_P3 = [0, 0, 0, 0, 1, 1, 3, 3, 7, 7, 12, 14, 20, 22, 32, 34, 45, 51, 63, 69]


class TestEvaluate:
    def test_constant(self):
        qp = QuasiPolynomial(1, 0, ((5,),), 1)
        assert qp.evaluate(1) == 5
        assert qp.evaluate(123456) == 5

    def test_difference_three_table_at_twelve(self):
        assert p3_quasipolynomial().evaluate(12) == 14

    def test_distance_two_two_table_at_eleven(self):
        assert p22_quasipolynomial().evaluate(11) == 2

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            p3_quasipolynomial().evaluate(0)


class TestConstructor:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1, (), 1), "period must be >= 1, got 0"),
            ((1, -1, ((),), 1), "degree must be >= 0, got -1"),
            ((1, 0, ((1,),), 0), "denominator must be >= 1, got 0"),
        ],
        ids=["zero-period", "negative-degree", "zero-denominator"],
    )
    def test_rejects_a_bad_shape(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuasiPolynomial(*args)


class TestLeadingCoefficient:
    def test_difference_three(self):
        assert p3_quasipolynomial().leading_coefficient() == Fraction(1, 108)

    def test_mismatched_rows_raise(self):
        qp = QuasiPolynomial(2, 1, ((0, 1), (0, 2)), 1)
        with pytest.raises(NonConstantLeading):
            qp.leading_coefficient()


class TestFit:
    def test_difference_two_rows(self):
        # (0, -1/4, 1/8) and (3/8, -1/2, 1/8) over their common denominator
        qp = fit(fixed_diff_table(2, 20), degree=2, period=2)
        assert (qp.denominator, qp.rows) == (8, ((0, -2, 1), (3, -4, 1)))

    def test_constant_values(self):
        # index 0 is not read: were it, the 0 there would break the constant
        qp = fit([0] + [7] * 5, degree=0, period=1)
        assert (qp.denominator, qp.rows) == (1, ((7,),))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            # class 0 mod 2 holds n = 2, 4 only
            fit([n * n for n in range(6)], degree=2, period=2)

    def test_inconsistent_samples(self):
        values = [n * n for n in range(10)]
        values[9] = 999
        with pytest.raises(InconsistentSamples):
            fit(values, degree=2, period=1)

    def test_inconsistency_names_n_prediction_and_sample(self):
        # 3 mod 4 holds 3, 7, 11, 15, 19; corrupting n=15 breaks that class's
        # third difference, and its fitted square predicts 225.
        values = [n * n for n in range(21)]
        values[15] = 230
        with pytest.raises(InconsistentSamples) as info:
            fit(values, degree=2, period=4)
        message = str(info.value)
        assert "at n=15" in message
        assert "residue-3 fit gives 225" in message
        assert "sample says 230" in message

    def test_exact_square_fit(self):
        qp = fit([n * n for n in range(10)], degree=2, period=1)
        assert (qp.denominator, qp.rows) == (1, ((0, 0, 1),))

    def test_difference_three_counts_reproduce_case_table(self):
        qp = fit(fixed_diff_table(3, 60), degree=3, period=6)
        assert qp.rows == p3_quasipolynomial().rows

    def test_fit_is_canonical(self):
        # The fit's denominator 3! * 6^3 = 1296 reduces to the table's 108.
        qp = fit(fixed_diff_table(3, 60), degree=3, period=6)
        table = p3_quasipolynomial()
        assert qp.denominator == table.denominator == 108
        assert qp == table
        assert hash(qp) == hash(table)
        again = QuasiPolynomial.from_json_dict(qp.to_json_dict())
        assert again == qp
        assert hash(again) == hash(qp)

    # Sample row j holds n = 6j+1 .. 6j+6, so class 0 sits last in every row,
    # and fixed_diff_table(3, 63) ends in the short row n = 61, 62, 63.  Each
    # message was taken from the per-class fit the column-wise one replaced.
    @pytest.mark.parametrize(
        "size,changes,message",
        [
            (60, {36: 1}, "at n=36 the residue-0 fit gives 426, sample says 427"),
            (63, {62: -5}, "at n=62 the residue-2 fit gives 2190, sample says 2185"),
            (63, {6: 1, 61: 2}, "at n=30 the residue-0 fit gives 244, sample says 245"),
        ],
        ids=["class-zero", "short-last-row", "class-zero-before-class-one"],
    )
    def test_inconsistency_in_the_row_layout(self, size, changes, message):
        values = fixed_diff_table(3, size)
        for n, delta in changes.items():
            values[n] += delta
        with pytest.raises(InconsistentSamples) as info:
            fit(values, degree=3, period=6)
        assert str(info.value) == f"degree 3, period 6 cannot hold: {message}"

    @pytest.mark.parametrize(
        "degree, period, message",
        [(-1, 2, "degree must be >= 0, got -1"), (1, 0, "period must be >= 1, got 0")],
        ids=["negative-degree", "zero-period"],
    )
    def test_rejects_a_bad_degree_or_period(self, degree, period, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(fixed_diff_table(2, 20), degree, period)

    def test_insufficient_samples_names_class_zero(self):
        # n = 1..22: classes 1..4 have four samples, class 0 (6, 12, 18) three
        with pytest.raises(InsufficientSamples) as info:
            fit(fixed_diff_table(3, 63)[:23], degree=3, period=6)
        assert str(info.value) == "residue class 0 mod 6 has 3 samples, needs 4"


class TestFromClosedForm:
    def test_difference_three_matches_explicit_table(self):
        qp = from_closed_form(DistanceSpec((3,)), 120)
        for n in range(1, 121):
            assert qp.evaluate(n) == p3_explicit(n)

    def test_distance_two_two_matches_explicit_table(self):
        qp = from_closed_form(DistanceSpec((2, 2)), 160)
        assert qp.period == 12
        assert qp.degree == 4
        for n in range(1, 161):
            assert qp.evaluate(n) == p22_explicit(n)

    def test_difference_two_matches_floor_binomial(self):
        qp = from_closed_form(DistanceSpec((2,)), 60)
        assert qp.period == 2
        assert qp.degree == 2
        for n in range(1, 61):
            assert qp.evaluate(n) == math.comb(n // 2, 2)

    def test_rejects_nonrational_cases(self):
        with pytest.raises(OutOfRange):
            from_closed_form(DistanceSpec((1,)), 100)
        with pytest.raises(OutOfRange):
            from_closed_form(DistanceSpec((1, 1)), 100)

    def test_rejects_short_expansion(self):
        with pytest.raises(ValueError):
            from_closed_form(DistanceSpec((3,)), 20)
        spec = DistanceSpec((2, 2))
        with pytest.raises(ValueError):
            from_closed_form(spec, required_order(spec) - 1)
        assert from_closed_form(spec, required_order(spec)).period == 12

    @pytest.mark.parametrize("distances", [(3,), (2, 2)])
    def test_default_order_is_required_order(self, distances):
        spec = DistanceSpec(distances)
        assert from_closed_form(spec) == from_closed_form(spec, required_order(spec))

    def test_required_order(self):
        # min_weight + lcm(1..t) * (t + 1)
        assert required_order(DistanceSpec((3,))) == 5 + 6 * 4
        assert required_order((2, 2)) == 9 + 12 * 5

    def test_period_cap_refuses_before_expanding(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("expanded a closed form above the period cap")

        monkeypatch.setattr(quasipoly, "closed_form_specified", refuse)
        assert MAX_PERIOD == math.lcm(*range(1, 13))
        spec = DistanceSpec((12,))
        assert required_order(spec) == spec.min_weight + MAX_PERIOD * 13
        for distances in [(13,), (6, 7), (1, 1, 11), (20,)]:
            with pytest.raises(PeriodTooLarge, match="lcm.* = [0-9]+, above the cap 27720"):
                required_order(distances)
            with pytest.raises(PeriodTooLarge):
                from_closed_form(distances, 10**7)

    def test_order_cap_refuses_before_expanding(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("expanded a closed form above the order cap")

        monkeypatch.setattr(quasipoly, "closed_form_specified", refuse)
        assert MAX_ORDER == 10**6
        assert required_order((12,)) * 2 < MAX_ORDER
        for distances in [(2,), (2, 2), (12,), (1, 1, 10)]:
            for order in [MAX_ORDER + 1, 10**30]:
                with pytest.raises(TooLarge) as info:
                    from_closed_form(distances, order)
                assert type(info.value) is TooLarge
                assert str(info.value) == f"order {order} is above the fit-order cap 1000000"

    def test_order_cap_boundary(self, monkeypatch):
        spec = DistanceSpec((3,))
        cap = required_order(spec) + 6
        monkeypatch.setattr(quasipoly, "MAX_ORDER", cap)
        assert from_closed_form(spec, cap) == from_closed_form(spec)
        with pytest.raises(TooLarge, match=f"^order {cap + 1} is above the fit-order cap {cap}$"):
            from_closed_form(spec, cap + 1)

    def test_period_cap_stops_the_running_lcm(self, monkeypatch):
        # At t = 10**5, lcm(1..t) has over 43000 digits; the cap is checked
        # as soon as the running lcm passes it, at m = 13.
        real_lcm = math.lcm
        largest = []

        def lcm(*args):
            value = real_lcm(*args)
            largest.append(value)
            return value

        monkeypatch.setattr(math, "lcm", lcm)
        with pytest.raises(PeriodTooLarge) as info:
            required_order((10**5,))
        assert max(largest) == 360360
        assert str(info.value) == (
            "t=100000 needs quasipolynomial period lcm(1..100000) >= lcm(1..13) = 360360, "
            "above the cap 27720 = lcm(1..12)"
        )

    @pytest.mark.parametrize("t", range(2, 7))
    def test_triple_agreement(self, t):
        spec = DistanceSpec((t,))
        order = spec.min_weight + math.lcm(*range(1, t + 1)) * (t + 1)
        qp = from_closed_form(spec, order)
        series = closed_form_fixed_diff(t).expand(150)
        counts = fixed_diff_table(t, 150)
        for n in range(1, 151):
            value = qp.evaluate(n)
            assert value.denominator == 1
            assert value >= 0
            assert value == counts[n] == series[n]


class TestHoldoutPrediction:
    @pytest.mark.parametrize("t", range(2, 6))
    def test_fixed_difference(self, t):
        period = math.lcm(*range(1, t + 1))
        window = (2 + t) + period * (t + 1)
        series = closed_form_fixed_diff(t).expand(window + 2 * period)
        qp = fit(series.coeffs[: window + 1], degree=t, period=period)
        for n in range(window + 1, window + 2 * period + 1):
            assert qp.evaluate(n) == series[n]

    def test_distance_two_two(self):
        window = 69
        series = closed_form_specified(DistanceSpec((2, 2))).expand(window + 24)
        qp = fit(series.coeffs[: window + 1], degree=4, period=12)
        for n in range(window + 1, window + 25):
            assert qp.evaluate(n) == series[n]


class TestPeriodMinimality:
    @pytest.mark.parametrize("t", range(2, 7))
    def test_proper_divisor_periods_fail(self, t):
        period = math.lcm(*range(1, t + 1))
        values = closed_form_fixed_diff(t).expand(300).coeffs
        divisors = [d for d in range(1, period) if period % d == 0]
        assert divisors
        for d in divisors:
            with pytest.raises(InconsistentSamples):
                fit(values, degree=t, period=d)


class TestExpectedLeading:
    @pytest.mark.parametrize(
        "t,value",
        [
            (2, Fraction(1, 8)),
            (3, Fraction(1, 108)),
            (4, Fraction(1, 2304)),
            (5, Fraction(1, 72000)),
        ],
    )
    def test_values(self, t, value):
        assert expected_leading(t) == value

    def test_rejects_small_t(self):
        with pytest.raises(OutOfRange):
            expected_leading(1)

    @pytest.mark.parametrize("t", range(2, 7))
    def test_fitted_leading_matches(self, t):
        spec = DistanceSpec((t,))
        period = math.lcm(*range(1, t + 1))
        qp = from_closed_form(spec, spec.min_weight + period * (t + 1))
        assert qp.leading_coefficient() == expected_leading(t)

    def test_distance_two_two_leading(self):
        qp = from_closed_form(DistanceSpec((2, 2)), 160)
        assert qp.leading_coefficient() == Fraction(3, 6912) == Fraction(1, 2304)


class TestExplicitTables:
    def test_small_values_match_raw_enumeration(self):
        assert [p3_explicit(n) for n in range(1, 21)] == RAW_P3

    @pytest.mark.parametrize("n,value", [(5, 1), (7, 3), (12, 14), (13, 20)])
    def test_pinned_values(self, n, value):
        assert p3_explicit(n) == value

    def test_both_forms_agree_widely(self):
        # p3_explicit itself raises InternalMismatch if the two shapes differ
        for n in range(1, 601):
            p3_explicit(n)

    def test_matches_enumeration(self):
        table = fixed_diff_table(3, 200)
        for n in range(1, 201):
            assert p3_explicit(n) == table[n]

    @pytest.mark.parametrize("n,value", [(9, 1), (11, 2), (12, 4), (13, 5)])
    def test_distance_two_two_pinned(self, n, value):
        assert p22_explicit(n) == value

    def test_distance_two_two_matches_enumeration(self):
        table = specified_table((2, 2), 200)
        for n in range(1, 201):
            assert p22_explicit(n) == table[n]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            p3_explicit(0)
        with pytest.raises(ValueError):
            p22_explicit(-3)


class TestSerialization:
    def test_round_trip(self):
        qp = from_closed_form(DistanceSpec((3,)), 60)
        data = qp.to_json_dict()
        again = QuasiPolynomial.from_json_dict(data)
        assert again == qp

    # Each message is a regular expression.
    @pytest.mark.parametrize(
        "document, message",
        [
            ({"period": 2, "degree": 1, "rows": [["0", "1/2"]]}, "expected 2 rows, got 1"),
            (
                {"period": 2, "degree": 1, "rows": [["0", "1/2"], ["1/2"]]},
                "every row needs 2 coefficients, got 1",
            ),
            (
                {"period": 2, "degree": 1, "rows": [["0", "1/2"], ["1/0", "1"]]},
                "a coefficient has denominator 0",
            ),
            (
                {"period": 2, "degree": 1, "rows": [["0", "half"], ["0", "1"]]},
                "Invalid literal for Fraction: 'half'",
            ),
            ({"period": 2, "degree": 1}, r"malformed document: KeyError\('rows'\)"),
            (
                {"degree": 1, "rows": [["0", "1/2"], ["0", "1"]]},
                r"malformed document: KeyError\('period'\)",
            ),
            (
                {"period": 2, "degree": 1, "rows": 5},
                r"malformed document: TypeError\(\"'int' object is not iterable\"\)",
            ),
            (
                {"period": 2, "degree": 1, "rows": [["0", None], ["0", "1"]]},
                r"malformed document: TypeError\(.+\)",
            ),
            (
                {"period": 2.9, "degree": 1.5, "rows": [["0", "1/2"], ["0", "1"]]},
                r"malformed document: TypeError\('period and degree must be integers, got 2.9, 1.5'\)",
            ),
            (
                {"period": 2, "degree": 1.0, "rows": [["0", "1/2"], ["0", "1"]]},
                r"malformed document: TypeError\('period and degree must be integers, got 2, 1.0'\)",
            ),
            (
                {"period": "2", "degree": 1, "rows": [["0", "1/2"], ["0", "1"]]},
                r"malformed document: TypeError\(\"period and degree must be integers, got '2', 1\"\)",
            ),
            (
                {"period": True, "degree": 1, "rows": [["0", "1/2"]]},
                r"malformed document: TypeError\('period and degree must be integers, got True, 1'\)",
            ),
        ],
        ids=[
            "too-few-rows", "short-row", "zero-denominator", "not-a-number",
            "no-rows", "no-period", "rows-not-a-list", "none-entry",
            "float-period-and-degree", "float-degree", "string-period", "bool-period",
        ],
    )
    def test_malformed_document_is_rejected(self, document, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuasiPolynomial.from_json_dict(document)

    def test_reserialization_is_byte_identical(self):
        qp = p22_quasipolynomial()
        text = json.dumps(qp.to_json_dict(), indent=2)
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) == text

    def test_rationals_rendered_as_fraction_strings(self):
        data = p3_quasipolynomial().to_json_dict()
        assert data["period"] == 6
        assert data["degree"] == 3
        assert data["rows"][0][3] == "1/108"
        assert all(isinstance(entry, str) for row in data["rows"] for entry in row)


# sha256 of `partition-gf fit --distances D` stdout, captured from the
# Vandermonde-solve fit before it was replaced by forward differences.
FIT_GOLDEN = {
    "2": "3ea238783d1e290c14092126bb23b7454fdf3be8c14780962200151f543cd37b",
    "3": "aa790349e16fb97da7105579964f30536b182788c57f2752c465702b794d90c6",
    "4": "867d7259dfc4e2bc915bc5079708f4b2ed3608df42638b5800c7ec43a5988189",
    "5": "ab6ba29a9e1f6e118e9a672a6fce087ca64cc5bc40098436e29b2174540769cb",
    "6": "8aa3ce6958c5e9fd16091082514950f1daed017600c9e8682eb57507f90bf85f",
    "7": "ea7654ec0e72a180e4f53f44f5518e698188315a271ec45bf296ce566c312091",
    "8": "dbedbce0719233396a52c9a1c3cbf241a803a42a65279a9ca6ddac23e172506a",
    "2,2": "47bc8a287b82b6eb2348bd5f5113291b15d823d40ea5ef59dacf565c279aa34b",
    "1,5,1": "a0b1eee4461d0e883ca04d5e1a83c81952b0bab9704c420dfa7d81d18acb6ef7",
    "2,4": "6a3185a05f2171f64a8d3d37dc4289b9657d865f6b715632a4c146579ecc7203",
    # period 2520, captured from the per-class fit before the column-wise one
    "10": "baf7c0931256a290b40db7c70539957bc18a6503a5949cb994f047c6a6f64575",
    "3,4,3": "96a416dca28f5a0e04a3caabaecd1e5fe04ba49e85d4e1d14e066ebcce53ad1f",
}


@pytest.mark.parametrize("distances", sorted(FIT_GOLDEN))
def test_fit_output_matches_golden(distances):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fit", "--distances", distances]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FIT_GOLDEN[distances]

# sha256 of the stdout of the commands that pick a counting or series route,
# captured before the fixed-difference routes were folded into the
# one-distance spec (t,).
CLI_GOLDEN = {
    ("compute", "--n", "97", "--distances", "0", "--method", "all"):
        "3908da262e19c663b8a7d1b80235945775130b0ff5ceb714d4f1623fca1687a3",
    ("compute", "--n", "97", "--distances", "1", "--method", "all"):
        "7a95a5c8b8188a2f1a7c6ce473bc9d7877531b3c617bcdc1a0f36fbba0d8bb42",
    ("compute", "--n", "97", "--distances", "2", "--method", "all"):
        "6c1dc1cc02dbdd7c14821601e4919c92407b7dfdb2e79a9cc4405a50aad5b0cf",
    ("compute", "--n", "97", "--distances", "3", "--method", "all"):
        "f23c0397f835375e1a04e4069bbe0558ab0856c2abb2b410d8a9fe0217c6904b",
    ("compute", "--n", "97", "--distances", "5", "--method", "all"):
        "dc63e1f1d24bc3c95bec4de0cbca59728d2630722dbc2293a072192ffb2bb07d",
    ("compute", "--n", "97", "--distances", "1,1", "--method", "all"):
        "7b2661df511552f393083f67124cbbce515110e8907fd6c032fe9c261a2c5fb6",
    ("compute", "--n", "97", "--distances", "2,2", "--method", "all"):
        "3e41988f9520836e05c80f0b67b59c612c4a32b54fb9761ec4f0181bb96a9040",
    ("compute", "--n", "97", "--distances", "1,5,1", "--method", "all"):
        "29d263d0fa09cd7d991c9d23a7f2aa1a0b9c8ec3e50aadfec5642422be9fa3a1",
    ("compute", "--n", "97", "--distances", "2,4", "--method", "all"):
        "c1abc89a868fa72ea011a1d8f9a6a3d3d527308120b54afd376e8e80b85e5312",
    ("series", "--distances", "1", "--order", "120"):
        "6daa21a6b17bbcf41b9430f747ff208995141841cf24b77715cce667c08ef802",
    ("series", "--distances", "2", "--order", "120"):
        "07577088d0bc605701d7016d816eab88ec200d6898280e5dae8e7446cc9bd4b2",
    ("series", "--distances", "3", "--order", "120"):
        "e08b2ed9451c436131f7f1bee07bfc5c769762a82414478b43158681f3f0b92f",
    ("series", "--distances", "6", "--order", "120"):
        "0e78754509402b498d4b9450320e3111442b6abed7267daa07e3d4149bc60365",
    ("series", "--distances", "1,1", "--order", "120"):
        "a97ce549720b3127fe1ef00160eaa912fc2217c64119d0493be4080bb5e74c12",
    ("series", "--distances", "2,2", "--order", "120"):
        "b81fe6f3c9944a4ced08ce111286ce500150af0d17ef809ab1f90dca2756a856",
    ("series", "--distances", "1,2,1", "--order", "120"):
        "a289e8e6d1aceab1238f022b9668eb9b218c35be7e2dfec62b2260826b16e779",
    # The routes golden and the `all` golden: one routes/t=..,k=.. row per
    # class 1 <= k <= t <= t-max, which replaced the fixed-diff rows and the
    # 78 grid rows; every other line of `all` is unchanged.
    ("verify", "--suite", "routes", "--t-max", "8", "--n-max", "150"):
        "a8e398297588590535ffc44c284cf7ed70acb6582ba9920843375f294cf4838c",
    # The three identities goldens: the earlier output with each
    # identities/heine/ id read as identities/core/, the core proof that
    # replaced the Heine check on the same (k, t) pairs, then with the 11
    # identities/q-binomial/t=0..10 lines removed and the N/N total lowered
    # by 11 (the q-binomial theorem is now a tier-1 test of the closed forms'
    # alternating sum).
    ("verify", "--suite", "identities", "--t-max", "8", "--order", "200"):
        "e0c99a1105797f62f109c600ed3b5fe6a70549b7582386f46e8d9e3e016b27aa",
    ("verify", "--suite", "identities", "--t-max", "12", "--order", "400"):
        "09da1aadb275211a9def25e025f3d55f408b25dca75b0f7177486e76c156b06f",
    ("verify", "--suite", "all"):
        "7aef2778fd2d1756f62ab14cdf29e74cf680069722305e2940727ea544acd31a",
    # captured before SequenceFixture became a NamedTuple and b-files one writer
    ("oeis",):
        "d392d7b2f58eb08f7810070408e9516ded367fb691693ab680f55b7b3aaccf91",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN), ids=" ".join)
def test_cli_output_matches_golden(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLI_GOLDEN[argv]
