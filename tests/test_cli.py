"""Command-line surface: formats, exit codes, and the verify suites."""

import contextlib
import io
import itertools
import json
import shlex
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_gf import counting, genfun, quasipoly
from partition_gf.cli import (
    COMMANDS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    UsageError,
    _plain_args,
    build_parser,
    main,
    parse_distances,
)
from partition_gf.qseries import FactoredRational, TruncatedSeries
from test_startup import JOBS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseDistances:
    def test_vector(self):
        assert parse_distances("2,2") == (2, 2)

    def test_zero_alone_means_difference_zero(self):
        assert parse_distances("0") is None

    def test_zero_in_vector_rejected(self):
        with pytest.raises(UsageError):
            parse_distances("0,1")

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_distances("2,x")


class TestCompute:
    def test_worked_example_all_methods(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "11", "--distances", "2,2", "--method", "all")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("value=2") for line in lines)
        assert {line.split()[2] for line in lines} == {
            "method=enumerate", "method=series", "method=quasipoly"
        }

    def test_difference_zero(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "6", "--distances", "0")
        assert code == EXIT_OK
        assert out.strip() == "n=6 distances=0 method=enumerate value=4"

    def test_difference_zero_above_the_divisor_cap(self, capsys, monkeypatch):
        # n = 10^20 would trial-divide 10^10 times; the cap refuses it first.
        def no_division(n):
            raise AssertionError("trial division ran above the cap")

        monkeypatch.setattr(counting, "math", SimpleNamespace(isqrt=no_division))
        code, out, err = run(capsys, "compute", "--n", "100000000000000000000", "--distances", "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: n=100000000000000000000 is above the divisor-count cap "
            "100000000000000 = 10^14 (trial division)\n"
        )

    # `all` leaves out each route above its cap and, when no route is left,
    # exits 2 naming the first cap: difference 0 has one route.
    def test_all_at_difference_zero_above_the_divisor_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "math", SimpleNamespace(isqrt=None))
        argv = ("compute", "--n", str(10**20), "--distances", "0", "--method", "all")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: n={10**20} is above the divisor-count cap ")

    def test_difference_three_value(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "12", "--distances", "3", "--method", "all")
        assert code == EXIT_OK
        assert all(line.endswith("value=14") for line in out.strip().splitlines())

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "11", "--distances", "2,2",
            "--method", "all", "--format", "json",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["value"] for r in records] == ["2", "2", "2"]
        assert json.dumps(records, indent=2) == out.strip()

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "8", "--distances", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,distances,method,value"
        assert out.splitlines()[1] == "8,2,enumerate,6"

    def test_quasipoly_inapplicable_for_difference_one(self, capsys):
        code, _, err = run(
            capsys, "compute", "--n", "9", "--distances", "1", "--method", "quasipoly"
        )
        assert code == EXIT_USAGE
        assert "does not apply" in err

    def test_series_inapplicable_for_difference_zero(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--n", "9", "--distances", "0", "--method", "series"
        )
        assert code == EXIT_USAGE

    def test_bad_distances(self, capsys):
        code, _, err = run(capsys, "compute", "--n", "9", "--distances", "2,x")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "compute", "--n", "0", "--distances", "2")
        assert code == EXIT_USAGE

    def test_all_methods_for_difference_zero_is_enumerate_only(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "12", "--distances", "0", "--method", "all")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["n=12 distances=0 method=enumerate value=6"]

    @pytest.mark.parametrize(
        "distances, method, applicable",
        [("1", "quasipoly", "enumerate, series"), ("0", "series", "enumerate")],
    )
    def test_refusal_lists_the_applicable_methods(self, capsys, distances, method, applicable):
        argv = ("compute", "--n", "9", "--distances", distances, "--method", method)
        assert run(capsys, *argv) == (
            EXIT_USAGE,
            "",
            f"error: method {method!r} does not apply to distances {distances!r} "
            f"(applicable: {applicable})\n",
        )

    def test_all_prints_the_methods_in_order(self, capsys):
        code, out, err = run(capsys, "compute", "--n", "11", "--distances", "2,2", "--method", "all")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            f"n=11 distances=2,2 method={method} value=2" for method in ("enumerate", "series", "quasipoly")
        ]

    # The point-count and series-order caps are patched down to 100, so that
    # n = 101 is above both with nothing allocated at either side of them.
    @pytest.mark.parametrize(
        "n, distances, methods",
        [
            (100, "2,2", ["enumerate", "series", "quasipoly"]),
            (101, "2,2", ["quasipoly"]),
            (101, "1,2,1", ["quasipoly"]),
        ],
    )
    def test_all_leaves_out_the_capped_routes(self, capsys, monkeypatch, n, distances, methods):
        monkeypatch.setattr(counting, "MAX_ORDER", 100)
        monkeypatch.setattr(genfun, "MAX_ORDER", 100)
        value = counting.specified_table(parse_distances(distances), n)[n]
        code, out, err = run(capsys, "compute", "--n", str(n), "--distances", distances, "--method", "all")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [f"n={n} distances={distances} method={m} value={value}" for m in methods]

    # With every route capped, `all` names the first: the point count.  At 13 the
    # quasipolynomial is above the fit-order cap, and 1,1 has none.
    @pytest.mark.parametrize("distances", ["13", "1,1"])
    def test_all_with_every_route_capped_names_the_first_cap(self, capsys, monkeypatch, distances):
        monkeypatch.setattr(counting, "MAX_ORDER", 100)
        monkeypatch.setattr(genfun, "MAX_ORDER", 100)
        argv = ("compute", "--n", "101", "--distances", distances, "--method", "all")
        assert run(capsys, *argv) == (EXIT_USAGE, "", "error: n=101 is above the point-count cap 100\n")

    # Above the point-count work cap `compute` exits 2 naming it, and `all` leaves the point
    # count out: the series and the quasipolynomial still answer, and agree.
    def test_the_work_cap_leaves_the_point_count_out(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "MAX_POINT_WORK", 10**6)
        argv = ("compute", "--n", "2000", "--distances", "5")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: n=2000 needs cut*n*w = 1280000 units, above the point-count work cap 1000000\n"
        value = counting.specified_table((5,), 2000)[2000]
        assert run(capsys, *argv, "--method", "all") == (EXIT_OK, "".join(
            f"n=2000 distances=5 method={m} value={value}\n" for m in ("series", "quasipoly")
        ), "")

    def test_a_non_integral_quasipolynomial_value_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(quasipoly.QuasiPolynomial, "evaluate", lambda self, n: Fraction(1, 2))
        code, out, err = run(capsys, "compute", "--n", "11", "--distances", "2,2", "--method", "quasipoly")
        assert (code, out) == (EXIT_VERIFY_FAIL, "")
        assert err == "error: quasipolynomial value at n=11 is not integral: 1/2\n"


class TestSeries:
    def test_difference_two_text(self, capsys):
        code, out, _ = run(capsys, "series", "--distances", "2", "--order", "8")
        assert code == EXIT_OK
        assert out.strip() == "0,0,0,0,1,1,3,3,6"

    def test_difference_one_counts_nondivisors(self, capsys):
        code, out, _ = run(capsys, "series", "--distances", "1", "--order", "6")
        assert code == EXIT_OK
        assert out.strip() == "0,0,0,1,1,3,2"

    def test_distance_vector_json(self, capsys):
        code, out, _ = run(
            capsys, "series", "--distances", "2,2", "--order", "13", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["spec"] == [2, 2]
        assert data["order"] == 13
        assert data["coeffs"][9:] == ["1", "1", "2", "4", "5"]
        assert json.dumps(data, indent=2) == out.strip()

    # The one-pass writer against the json module's indented output: one and several
    # distances, at order 1, below and past a route's turn and in the slice kernels' lengths.
    @pytest.mark.parametrize(
        "distances, order",
        [("1", 1), ("2,2", 1), ("5", 1), ("1,1,1", 40), ("3,1,4", 300), ("7", 1200), ("1", 2500)],
    )
    def test_json_is_the_json_modules_bytes(self, capsys, distances, order):
        spec = parse_distances(distances)
        coeffs = [str(c) for c in genfun.series(spec, order).coeffs]
        want = json.dumps({"spec": list(spec), "order": order, "coeffs": coeffs}, indent=2) + "\n"
        assert run(capsys, "series", "--distances", distances, "--order", str(order), "--format", "json") == (
            EXIT_OK, want, ""
        )

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "series", "--distances", "3", "--order", "5", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[:2] == ["n,coefficient", "0,0"]
        assert out.splitlines()[6] == "5,1"

    def test_difference_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "series", "--distances", "0", "--order", "5")
        assert code == EXIT_USAGE


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--t-max", "6", "--order", "60"
        )
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "identities/core/k=1,t=2" in out

    def test_identities_suite_fails_on_a_corrupted_core(self, capsys, monkeypatch):
        real = genfun._closed_core

        def corrupted(t, k):
            core = real(t, k)
            return FactoredRational([core.numerator[0] + 1, *core.numerator[1:]], core.denominator)

        monkeypatch.setattr(genfun, "_closed_core", corrupted)
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--t-max", "4", "--order", "30"
        )
        assert code == EXIT_VERIFY_FAIL
        core = [line for line in out.splitlines() if "identities/core/" in line]
        assert len(core) == 6
        assert all(line.startswith("FAIL identities/core/") for line in core)
        assert "PASS identities/p1/order=30" in out
        assert "identities/q-binomial/" not in out

    def test_routes_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "routes", "--t-max", "6", "--n-max", "80"
        )
        assert code == EXIT_OK
        assert "PASS routes/t=6,k=1" in out and "PASS routes/t=6,k=6" in out
        assert out.endswith("21/21 checks passed\n")

    def test_routes_suite_has_one_row_per_class(self, capsys):
        # Ids sort as strings: t=10 comes before t=2.
        code, out, _ = run(
            capsys, "verify", "--suite", "routes", "--t-max", "12", "--n-max", "60"
        )
        assert code == EXIT_OK
        ids = [line.split()[1] for line in out.splitlines()[:-1]]
        classes = [(t, k) for t in range(1, 13) for k in range(1, t + 1)]
        assert len(classes) == 78
        assert ids == sorted(f"routes/t={t},k={k}" for t, k in classes)
        assert out.endswith("78/78 checks passed\n")

    def test_asymptotics_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "asymptotics", "--t-max", "6")
        assert code == EXIT_OK
        assert "asymptotics/leading/t=6" in out

    # One displayed row per table of total t <= t-max; the difference-3 row reads the
    # leading loop's fit at t = 3, so one fit per spec.
    @pytest.mark.parametrize(
        "t_max, displayed", [("2", []), ("3", ["3"]), ("4", ["2,2", "3"]), ("6", ["2,2", "3"])]
    )
    def test_asymptotics_suite_checks_each_displayed_table_once(self, capsys, monkeypatch, t_max, displayed):
        real, fitted = quasipoly.from_closed_form, []
        monkeypatch.setattr(quasipoly, "from_closed_form", lambda spec: fitted.append(spec) or real(spec))
        code, out, _ = run(capsys, "verify", "--suite", "asymptotics", "--t-max", t_max)
        assert code == EXIT_OK
        ids = [line.split()[1] for line in out.splitlines()[:-1]]
        assert [i for i in ids if "/displayed/" in i] == [f"asymptotics/displayed/distances={d}" for d in displayed]
        assert fitted == [(t,) for t in range(2, int(t_max) + 1)] + [(2, 2)] * ("2,2" in displayed)

    # A numerator of a displayed table, one above the fit's, fails that table's row alone.
    @pytest.mark.parametrize("distances, r", [((3,), 2), ((2, 2), 5)])
    def test_asymptotics_suite_fails_on_a_displayed_numerator(self, capsys, monkeypatch, distances, r):
        table = quasipoly.DISPLAYED[distances]
        rows = list(table.rows)
        rows[r] = (rows[r][0] + 1, *rows[r][1:])
        wrong = quasipoly.QuasiPolynomial(table.period, table.degree, tuple(rows), table.denominator)
        monkeypatch.setitem(quasipoly.DISPLAYED, distances, wrong)
        code, out, _ = run(capsys, "verify", "--suite", "asymptotics")
        assert code == EXIT_VERIFY_FAIL
        spec = ",".join(map(str, distances))
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL asymptotics/displayed/distances={spec}: row {r}: "
            f"fit {table.rows[r]}/{table.denominator} != displayed {rows[r]}/{table.denominator}"
        ]
        assert out.endswith("6/7 checks passed\n")

    def test_oeis_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oeis", "--n-max", "120")
        assert code == EXIT_OK
        assert "oeis/A128508" in out

    def test_results_sorted_by_check_id(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "routes", "--t-max", "4", "--n-max", "50"
        )
        assert code == EXIT_OK
        ids = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
        assert ids == sorted(ids)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "identities", "--order", "0"),
            ("--suite", "routes", "--n-max", "-1"),
            ("--suite", "routes", "--n-max", "0"),
            ("--suite", "asymptotics", "--t-max", "1"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {argv[2]} must be >= ")

    # The series-order cap binds --n-max where the routes suite runs and --order where the
    # identities suite runs, and the t-max cap binds --t-max where either runs, before any
    # suite does.  The series-order cap is patched down to 120, the default --n-max, so
    # that the values on each side of it run small.
    @pytest.mark.parametrize(
        "argv, cap",
        [
            (("--suite", "routes", "--n-max", "121"), "series-order cap 120"),
            (("--suite", "identities", "--order", "121"), "series-order cap 120"),
            (("--suite", "all", "--n-max", "121"), "series-order cap 120"),
            (("--suite", "all", "--order", "121"), "series-order cap 120"),
            (("--suite", "routes", "--n-max", str(10**20)), "series-order cap 120"),
            (("--suite", "routes", "--t-max", "33"), "t-max cap 32"),
            (("--suite", "identities", "--t-max", "33"), "t-max cap 32"),
            (("--suite", "all", "--t-max", "33"), "t-max cap 32"),
            (("--suite", "identities", "--t-max", str(10**20)), "t-max cap 32"),
        ],
    )
    def test_a_value_above_its_cap_is_refused(self, capsys, monkeypatch, argv, cap):
        def refuse(*args):
            raise AssertionError("ran a suite above a cap")

        monkeypatch.setattr(counting, "MAX_ORDER", 120)
        for name in ("routes", "core_identity_check", "p1_identity_check"):
            monkeypatch.setattr(genfun, name, refuse)
        monkeypatch.setattr(quasipoly, "from_closed_form", refuse)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {argv[2]} {argv[3]} is above the {cap}\n"

    # With the caps patched down to 120 and t-max 2, each suite runs at the caps it
    # reads and past those it does not.
    @pytest.mark.parametrize(
        "argv, checks",
        [
            (("--suite", "routes", "--t-max", "2", "--n-max", "120", "--order", "121"), 3),
            (("--suite", "identities", "--t-max", "2", "--n-max", "121", "--order", "60"), 2),
            (("--suite", "asymptotics", "--t-max", "3", "--n-max", "121", "--order", "121"), 3),
            (("--suite", "oeis", "--t-max", "3", "--n-max", str(10**20)), 4),
        ],
    )
    def test_options_a_suite_does_not_read_are_not_capped(self, capsys, monkeypatch, argv, checks):
        monkeypatch.setattr(counting, "MAX_ORDER", 120)
        monkeypatch.setattr("partition_gf.cli.MAX_SUITE_T", 2)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_OK
        assert out.endswith(f"{checks}/{checks} checks passed\n")


def _bumped(coeffs):
    coeffs = list(coeffs)
    coeffs[30] += 1  # one coefficient inside every routes check at --n-max 60
    return coeffs


def _corrupt_table(real):
    return lambda spec, n_max: _bumped(real(spec, n_max))


def _corrupt_direct(real):
    return lambda spec, order: TruncatedSeries(_bumped(real(spec, order).coeffs))


def _corrupt_closed(real):
    return lambda spec: SimpleNamespace(
        expand=lambda order: TruncatedSeries(_bumped(real(spec).expand(order).coeffs))
    )


def _columns(t, k):
    """The routes of row (t, k), in the order its disagreement lists them."""
    return ["closed"] * (t > k) + ["direct", "table", "partial"] + ["displayed"] * (k == 1 < t)


def _failed_rows(out, route):
    """Each FAIL row's id, after checking that it disagrees first at n = 30,
    lists its class's columns and has `route` alone one above the rest."""
    failed = []
    for line in out.splitlines():
        if line.startswith("FAIL "):
            check_id, detail = line[5:].split(": ", 1)
            prefix = "routes disagree at n=30: "
            assert detail.startswith(prefix), line
            values = dict(item.split("=") for item in detail[len(prefix) :].split(", "))
            t, k = (int(part.split("=")[1]) for part in check_id[len("routes/") :].split(","))
            assert list(values) == _columns(t, k)
            right = {int(v) for r, v in values.items() if r != route}
            assert len(right) == 1 and int(values[route]) == right.pop() + 1
            failed.append((t, k))
    return failed


ROUTES = {
    "table": (counting, "specified_table", _corrupt_table),
    "direct": (genfun, "direct_series_specified", _corrupt_direct),
    "partial": (genfun, "partial_fraction_series", _corrupt_direct),
    "closed": (genfun, "closed_form_specified", _corrupt_closed),
    "displayed": (genfun, "closed_form_fixed_diff", _corrupt_closed),
}


@pytest.mark.parametrize("route", ["table", "direct", "closed", "displayed", "partial"])
def test_route_check_fails_when_one_route_is_wrong(capsys, monkeypatch, route):
    # Every row with the route's column fails at n = 30, and only those.
    module, name, corrupt = ROUTES[route]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code, out, _ = run(capsys, "verify", "--suite", "routes", "--t-max", "4", "--n-max", "60")
    assert code == EXIT_VERIFY_FAIL
    classes = [(t, k) for t in range(1, 5) for k in range(1, t + 1)]
    assert sorted(_failed_rows(out, route)) == [tk for tk in classes if route in _columns(*tk)]


@pytest.mark.parametrize(
    "tk, route",
    [((6, 4), route) for route in ("table", "direct", "closed", "partial")]
    + [((3, 3), route) for route in ("table", "direct", "partial")],
    ids=str,
)
def test_a_route_corrupted_for_one_class_fails_only_its_row(capsys, monkeypatch, tk, route):
    # (6, 4) has k >= 4 and (3, 3), the spec (1,1,1), has t = k: the two
    # kinds of class that a fixed grid of k = 2, 3 vectors would miss.
    module, name, corrupt = ROUTES[route]
    real = getattr(module, name)
    wrong = corrupt(real)
    patched = lambda spec, *args: (wrong if (spec.total, spec.k) == tk else real)(spec, *args)
    monkeypatch.setattr(module, name, patched)
    code, out, _ = run(capsys, "verify", "--suite", "routes", "--t-max", "6", "--n-max", "60")
    assert code == EXIT_VERIFY_FAIL
    assert _failed_rows(out, route) == [tk]
    assert out.endswith("20/21 checks passed\n")


def test_route_suite_builds_one_closed_form_core_per_class(capsys, monkeypatch):
    # At t-max 6 there are 21 classes 1 <= k <= t <= 6, 15 of them with t > k
    # and so a closed form: each route runs once per class it applies to, and
    # a second run in the same process builds no core.
    calls = {}
    for route in ("table", "direct", "partial", "closed"):
        module, name, _ = ROUTES[route]
        route_fn, seen = getattr(module, name), calls.setdefault(route, [])
        counted = lambda spec, *a, f=route_fn, seen=seen: seen.append((spec.total, spec.k)) or f(spec, *a)
        monkeypatch.setattr(module, name, counted)
    classes = [(t, k) for t in range(1, 7) for k in range(1, t + 1)]
    closed = [(t, k) for t, k in classes if t > k]
    assert (len(classes), len(closed)) == (21, 15)
    genfun._closed_core.cache_clear()
    for _ in range(2):
        for seen in calls.values():
            seen.clear()
        code, _, _ = run(capsys, "verify", "--suite", "routes", "--t-max", "6")
        assert code == EXIT_OK
        assert genfun._closed_core.cache_info().misses == len(closed)
        assert {route: sorted(seen) for route, seen in calls.items()} == {
            "table": classes, "direct": classes, "partial": classes, "closed": closed,
        }


class TestFit:
    def test_difference_three_summary(self, capsys, tmp_path):
        target = tmp_path / "qp.json"
        code, out, _ = run(capsys, "fit", "--distances", "3", "--output", str(target))
        assert code == EXIT_OK
        assert out.strip() == "period=6 degree=3 leading=1/108"
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["period"] == 6
        assert document["degree"] == 3

    def test_distance_two_two_summary(self, capsys, tmp_path):
        target = tmp_path / "qp.json"
        code, out, _ = run(capsys, "fit", "--distances", "2,2", "--output", str(target))
        assert code == EXIT_OK
        assert out.strip() == "period=12 degree=4 leading=1/2304"

    def test_json_to_stdout_round_trips(self, capsys):
        code, out, _ = run(capsys, "fit", "--distances", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert json.dumps(data, indent=2) == out.strip()
        assert data["rows"][0][2] == "1/8"

    def test_difference_one_explains_refusal(self, capsys):
        code, _, err = run(capsys, "fit", "--distances", "1")
        assert code == EXIT_USAGE
        assert "not rational" in err

    def test_short_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--distances", "3", "--order", "10")
        assert code == EXIT_USAGE
        assert "need >=" in err

    # The one-pass writer against the json module's indented output, on
    # stdout and in the --output file, at periods 2 to 420 and k = 1, 2, 3.
    @pytest.mark.parametrize(
        "distances, period",
        [
            ("2", 2), ("3", 6), ("1,2", 6), ("2,2", 12), ("1,1,2", 12),
            ("5", 60), ("1,1,3", 60), ("7", 420), ("4,3", 420), ("2,3,2", 420),
        ],
    )
    def test_document_is_the_json_modules_bytes(
        self, capsys, tmp_path, monkeypatch, distances, period
    ):
        qp = quasipoly.from_closed_form(parse_distances(distances))
        assert qp.period == period
        want = json.dumps(qp.to_json_dict(), indent=2) + "\n"
        real = quasipoly.QuasiPolynomial.to_json_dict
        calls = []

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(quasipoly.QuasiPolynomial, "to_json_dict", counted)
        assert run(capsys, "fit", "--distances", distances)[:2] == (EXIT_OK, want)
        assert len(calls) == 1
        target = tmp_path / "qp.json"
        assert run(capsys, "fit", "--distances", distances, "--output", str(target))[0] == EXIT_OK
        assert len(calls) == 2
        assert target.read_bytes() == want.encode()

    def test_order_above_the_cap_is_usage_error(self, capsys, monkeypatch):
        def refuse(spec):
            raise AssertionError("expanded a closed form above the order cap")

        monkeypatch.setattr(quasipoly, "closed_form_specified", refuse)
        code, out, err = run(capsys, "fit", "--distances", "3", "--order", "1000001")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: order 1000001 is above the fit-order cap 1000000\n"

    def test_empty_output_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fit", "--distances", "3", "--output", "")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --output needs a file name\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("series", "--distances", "2", "--order", "0"), "error: order must be >= 1, got 0\n"),
        (
            ("fit", "--distances", "0"),
            "error: difference 0 has no quasipolynomial (the counts are divisor counts)\n",
        ),
    ],
    ids=["series-order-0", "fit-distances-0"],
)
def test_out_of_range_value_is_usage_error(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_USAGE, "", err)


class TestFitOrderCap:
    """From total 13 on, where the default fit order W + lcm(1..t) * (t+1)
    passes 10^6, every quasipolynomial route refuses before expanding anything."""

    @pytest.fixture(autouse=True)
    def no_expansion(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("expanded a closed form above the fit-order cap")

        monkeypatch.setattr(quasipoly, "closed_form_specified", refuse)

    # W = 15 for 13, and 22 for 6,7.
    @pytest.mark.parametrize(
        "argv, order",
        [
            (("fit", "--distances", "13"), 5045055),
            (("fit", "--distances", "6,7", "--order", "100"), 5045062),
            (("compute", "--n", "50", "--distances", "13", "--method", "quasipoly"), 5045055),
            (("verify", "--suite", "asymptotics", "--t-max", "13"), 5045055),
            (("verify", "--suite", "all", "--t-max", "13"), 5045055),
        ],
    )
    def test_refusal_is_usage_error(self, capsys, argv, order):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: t=13 needs fit order >= {order}, 14 samples for each class "
            "mod lcm(1..13) = 360360, above the fit-order cap 1000000\n"
        )

    def test_compute_all_drops_quasipoly(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "50", "--distances", "13", "--method", "all")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "n=50 distances=13 method=enumerate value=14186",
            "n=50 distances=13 method=series value=14186",
        ]

    # Past t = 13 the refusal names the first lcm(1..m) that puts the order
    # above the cap, never lcm(1..t) itself, which has over 4300 digits at
    # t = 10000: there 420 * 10001 + 10002 passes it.
    @pytest.mark.parametrize(
        "argv, t, m, lcm",
        [
            (("verify", "--suite", "asymptotics", "--t-max", "10000"), 10000, 7, 420),
            (("fit", "--distances", "20000"), 20000, 5, 60),
            (("compute", "--n", "5", "--distances", "10000", "--method", "quasipoly"), 10000, 7, 420),
        ],
    )
    def test_huge_t_refusal_names_the_first_lcm_above_the_cap(self, capsys, argv, t, m, lcm):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: t={t} needs fit order >= {t + 2 + lcm * (t + 1)}, {t + 1} samples for each "
            f"class mod lcm(1..{m}) = {lcm}, above the fit-order cap 1000000\n"
        )

    def test_huge_t_enumerate_ignores_the_cap(self, capsys):
        code, out, err = run(capsys, "compute", "--n", "5", "--distances", "10000")
        assert code == EXIT_OK
        assert out == "n=5 distances=10000 method=enumerate value=0\n"
        assert err == ""

    # At t = 2^63 the point count's cut does not fit a C ssize_t, islice's stop.
    def test_enumerate_past_a_machine_word(self, capsys):
        code, out, err = run(capsys, "compute", "--n", "5", "--distances", str(2**63))
        assert code == EXIT_OK
        assert out == f"n=5 distances={2**63} method=enumerate value=0\n"
        assert err == ""


class TestOrderCaps:
    """Above n or order 10^6 the point count and the series refuse before they
    allocate: each exits 2 and names its cap."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("allocated above an order cap")

        monkeypatch.setattr(counting, "_count", refuse)
        for name in ("closed_form_specified", "direct_series_specified", "partial_fraction_series"):
            monkeypatch.setattr(genfun, name, refuse)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ("compute", "--n", str(10**20), "--distances", "5"),
                f"error: n={10**20} is above the point-count cap 1000000\n",
            ),
            # Every route of 13 is capped: the quasipolynomial by the fit-order cap.
            (
                ("compute", "--n", str(10**20), "--distances", "13", "--method", "all"),
                f"error: n={10**20} is above the point-count cap 1000000\n",
            ),
            (
                ("compute", "--n", "1000001", "--distances", "1,1,1", "--method", "series"),
                "error: order 1000001 is above the series-order cap 1000000\n",
            ),
            (
                ("series", "--distances", "5", "--order", str(10**20)),
                f"error: order {10**20} is above the series-order cap 1000000\n",
            ),
        ],
        ids=["compute", "compute-all", "compute-series", "series"],
    )
    def test_refusal_is_usage_error(self, capsys, argv, err):
        assert run(capsys, *argv) == (EXIT_USAGE, "", err)

    # Above both O(n) caps the quasipolynomial still answers.
    def test_all_answers_by_the_quasipolynomial_above_the_caps(self, capsys):
        assert run(capsys, "compute", "--n", "2000000", "--distances", "5", "--method", "all") == (
            EXIT_OK, "n=2000000 distances=5 method=quasipoly value=444448611117592550925775926\n", ""
        )


class TestOeisCommand:
    def test_offline_cross_check(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A000005", "--n-max", "120")
        assert code == EXIT_OK
        assert "pass" in out

    def test_all_known_by_default(self, capsys):
        code, out, _ = run(capsys, "oeis", "--n-max", "60")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4

    def test_unknown_id(self, capsys):
        code, _, _ = run(capsys, "oeis", "--id", "A999999")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "oeis", "--n-max", n_max)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--n-max must be >= 1, got {n_max}" in err

    @pytest.mark.parametrize(
        "argv,sequence_id,first",
        [
            (["oeis", "--n-max", "4"], "A128508", 5),
            (["oeis", "--id", "A008805", "--n-max", "3"], "A008805", 4),
            (["verify", "--suite", "all", "--n-max", "3"], "A008805", 4),
            (["verify", "--suite", "oeis", "--n-max", "4"], "A128508", 5),
        ],
    )
    def test_n_max_below_first_n_is_usage_error(self, capsys, argv, sequence_id, first):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--n-max must be >= {first} for {sequence_id}, its first n" in err

    def test_n_max_at_first_n_passes(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A128508", "--n-max", "5")
        assert (code, out) == (EXIT_OK, "A128508: 1 values compared, pass\n")
        code, _, _ = run(capsys, "verify", "--suite", "routes", "--n-max", "3")
        assert code == EXIT_OK

    def test_clip_is_noted_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "oeis", "--id", "A128508", "--n-max", "1200")
        assert code == EXIT_OK
        assert out == "A128508: 396 values compared, pass\n"
        assert err == "note: A128508: n-max 1200 clipped to 400, the last n the fixture covers\n"
        code, out, err = run(capsys, "oeis", "--id", "A128508", "--n-max", "400")
        assert (code, out, err) == (EXIT_OK, "A128508: 396 values compared, pass\n", "")
        code, out, err = run(capsys, "verify", "--suite", "oeis", "--n-max", "1000")
        assert code == EXIT_OK
        assert out.endswith("4/4 checks passed\n")
        assert err.count("n-max 1000 clipped to 400") == 4

    def test_fetch_requires_endpoint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oeis", "--id", "A000005", "--fetch"])
        assert excinfo.value.code == EXIT_USAGE
        assert "argument --fetch: expected one argument" in capsys.readouterr().err

    def test_dead_endpoint_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oeis", "--id", "A000005", "--fetch", "http://127.0.0.1:1",
            "--fixtures-dir", str(tmp_path),
        )
        assert code == EXIT_IO
        assert "error" in err

    @pytest.mark.parametrize("endpoint", ["notaurl", ""])
    def test_malformed_endpoint_is_io_error(self, capsys, tmp_path, endpoint):
        code, out, err = run(
            capsys, "oeis", "--id", "A000005", "--fetch", endpoint, "--fixtures-dir", str(tmp_path)
        )
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith(f"error: fetching {endpoint}/b000005.txt failed: ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_fixture_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "oeis", "--id", "A000005", "--fixtures-dir", str(tmp_path)
        )
        assert code == EXIT_IO

    def test_corrupted_fixture_fails_verification(self, capsys, tmp_path):
        from partition_gf import oeis

        path = oeis.write_local_fixture("A000005", tmp_path, n_max=200)
        lines = path.read_text(encoding="utf-8").splitlines()
        index, _ = lines[-1].split()
        lines[-1] = f"{index} 9999"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "oeis", "--id", "A000005", "--n-max", "200",
            "--fixtures-dir", str(tmp_path),
        )
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in out

    def test_malformed_fixture_is_verification_error(self, capsys, tmp_path):
        (tmp_path / "b000005.txt").write_text("1 1\nx 2\n", encoding="utf-8")
        code, out, err = run(capsys, "oeis", "--id", "A000005", "--fixtures-dir", str(tmp_path))
        assert (code, out) == (EXIT_VERIFY_FAIL, "")
        assert err == "error: A000005 line 2: non-integer field in 'x 2'\n"

    def test_verify_reads_the_fixtures_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--suite", "oeis", "--fixtures-dir", str(tmp_path))
        assert code == EXIT_VERIFY_FAIL
        assert f"FAIL oeis/A000005: no fixture for A000005 at {tmp_path}" in out


# Frozen `-h` output at 80 columns: `--format` and `--fixtures-dir` come first
# in each subcommand that takes them.
HELP = {
    "compute": (
        "usage: partition-gf compute [-h] [--format {text,csv,json}] --n N --distances\n"
        "                            DISTANCES\n"
        "                            [--method {enumerate,series,quasipoly,all}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,csv,json}\n"
        "  --n N\n"
        "  --distances DISTANCES\n"
        "                        comma-separated, e.g. 2,2 (or 0 alone)\n"
        "  --method {enumerate,series,quasipoly,all}\n"
    ),
    "series": (
        "usage: partition-gf series [-h] [--format {text,csv,json}] --distances\n"
        "                           DISTANCES --order ORDER\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,csv,json}\n"
        "  --distances DISTANCES\n"
        "  --order ORDER\n"
    ),
    "verify": (
        "usage: partition-gf verify [-h] [--fixtures-dir FIXTURES_DIR]\n"
        "                           [--suite {routes,identities,asymptotics,oeis,all}]\n"
        "                           [--t-max T_MAX] [--n-max N_MAX] [--order ORDER]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --fixtures-dir FIXTURES_DIR\n"
        "                        fixture directory (default: $PARTITION_GF_FIXTURES or\n"
        "                        packaged data)\n"
        "  --suite {routes,identities,asymptotics,oeis,all}\n"
        "  --t-max T_MAX\n"
        "  --n-max N_MAX\n"
        "  --order ORDER\n"
    ),
    "oeis": (
        "usage: partition-gf oeis [-h] [--fixtures-dir FIXTURES_DIR] [--id ID]\n"
        "                         [--n-max N_MAX] [--fetch ENDPOINT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --fixtures-dir FIXTURES_DIR\n"
        "                        fixture directory (default: $PARTITION_GF_FIXTURES or\n"
        "                        packaged data)\n"
        "  --id ID               sequence id, repeatable (default: all known)\n"
        "  --n-max N_MAX\n"
        "  --fetch ENDPOINT      refresh fixtures from this b-file base URL\n"
    ),
}


USAGE = "usage: partition-gf [-h] {compute,series,verify,fit,oeis} ...\n"

# Frozen top-level (exit code, stdout, stderr) at 80 columns.  None of these
# argvs is a plain command line, so the argparse parser reads each and
# writes the help or the error.
TOP_LEVEL = {
    ("-h",): (
        EXIT_OK,
        USAGE + "\n"
        "Exact partition counts with fixed largest-smallest difference or specified\n"
        "milestone distances, via mutually verifying enumeration, series, and\n"
        "quasipolynomial routes.\n"
        "\n"
        "positional arguments:\n"
        "  {compute,series,verify,fit,oeis}\n"
        "    compute             count partitions for one n\n"
        "    series              emit coefficients 0..N\n"
        "    verify              run invariant suites\n"
        "    fit                 fit and emit a quasipolynomial\n"
        "    oeis                cross-check fixtures offline or fetch\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    (): (
        EXIT_USAGE,
        "",
        USAGE + "partition-gf: error: the following arguments are required: command\n",
    ),
    ("comp",): (
        EXIT_USAGE,
        "",
        USAGE + "partition-gf: error: argument command: invalid choice: 'comp' "
        "(choose from 'compute', 'series', 'verify', 'fit', 'oeis')\n",
    ),
    ("compute", "--n", "5", "--distances", "2", "extra"): (
        EXIT_USAGE,
        "",
        USAGE + "partition-gf: error: unrecognized arguments: extra\n",
    ),
}


class TestArgparseBehaviour:
    @pytest.mark.parametrize("argv", sorted(TOP_LEVEL), ids=lambda argv: " ".join(argv) or "none")
    def test_top_level_output(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out, captured.err) == TOP_LEVEL[argv]

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["partition-gf", "compute", "--n", "11", "--distances", "2,2"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "n=11 distances=2,2 method=enumerate value=2\n"

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_method_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--n", "5", "--distances", "2", "--method", "magic"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_int_value_exits_two(self, capsys):
        # `_plain_args` declines a value its type rejects, for argparse to name.
        argv = ["compute", "--n", "x", "--distances", "2"]
        assert _plain_args(argv) is None
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "partition-gf compute: error: argument --n: invalid int value: 'x'"

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--n", "5", "--distances", "2", "--fixtures-dir", "."),
            ("series", "--distances", "2", "--order", "5", "--fixtures-dir", "."),
            ("fit", "--distances", "2", "--fixtures-dir", "."),
            ("fit", "--distances", "2", "--format", "csv"),
            ("verify", "--suite", "identities", "--format", "json"),
            ("oeis", "--id", "A000005", "--format", "text"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_option_the_command_does_not_read_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "-h"])
        assert excinfo.value.code == EXIT_OK
        assert capsys.readouterr().out == HELP[command]


ALL_FLAGS = sorted({flag for _, _, options in COMMANDS.values() for flag, _ in options})
CHOICES = sorted(
    {choice for _, _, options in COMMANDS.values() for _, kwargs in options
     for choice in kwargs.get("choices", ())}
)
VALUES = ["5", "-5", "", "x", " 7", "magic", *CHOICES]


@st.composite
def _argvs(draw):
    """Mostly pairs of one of the command's own flags and a value, among
    abbreviations, `--flag=value`, `-h`, `--`, other commands' flags and
    lone tokens."""
    command = draw(st.sampled_from([*COMMANDS, "comp"]))
    options = COMMANDS[command][2] if command in COMMANDS else [(f, {}) for f in ALL_FLAGS]
    own = [flag for flag, _ in options]
    flag = st.one_of(
        st.sampled_from(own),
        st.sampled_from(own).flatmap(lambda f: st.integers(3, len(f)).map(lambda i: f[:i])),
        st.sampled_from([*ALL_FLAGS, "-h", "--help", "--"]),
    )
    value = st.sampled_from(VALUES)

    def good_values(kwargs):
        return kwargs.get("choices", ["5", " 7"] if "type" in kwargs else ["5", " 7", "x", ""])

    pair = st.sampled_from(options).flatmap(
        lambda option: st.sampled_from(good_values(option[1])).map(lambda v: [option[0], v])
    )
    noise = st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
        flag.map(lambda f: [f]),
        value.map(lambda v: [v]),
    )
    items = draw(st.lists(pair, max_size=5))
    for extra in draw(st.lists(noise, max_size=2)):
        items.insert(draw(st.integers(0, len(items))), extra)
    return [command, *itertools.chain.from_iterable(items)]


class TestPlainArgs:
    """`main` reads a plain command line with `_plain_args` and hands every
    other argv to argparse."""

    def test_a_namespace_it_gives_is_the_one_argparse_gives(self):
        parser = build_parser()

        @settings(max_examples=500, deadline=None)
        @given(argv=_argvs())
        def check(argv):
            plain = _plain_args(argv)
            if plain is None:
                return
            try:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    parsed = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse rejects {argv!r}: {err.getvalue()}")
            assert vars(plain) == vars(parsed)

        check()

    def test_plain_runs_build_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("built a parser")

        monkeypatch.setattr("partition_gf.cli.build_parser", refuse)
        for argv in [*JOBS, ["oeis", "--id", "A000005", "--id", "A049820", "--n-max", "60"]]:
            code, _, err = run(capsys, *argv)
            assert code == EXIT_OK, (argv, err)

    def test_other_spellings_reach_argparse(self, capsys):
        argv = ["compute", "--n=11", "--dist", "2,2"]
        assert _plain_args(argv) is None
        assert run(capsys, *argv) == run(capsys, "compute", "--n", "11", "--distances", "2,2")


def _readme_command_lines():
    """The `partition-gf ...` lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("partition-gf ")]


# A result a README comment states, and the output line that shows it.
README_CLAIMS = {
    "difference zero: d(6) = 4": "n=6 distances=0 method=enumerate value=4",
    "0,0,0,0,1,1,3,3,6": "0,0,0,0,1,1,3,3,6",
    "period=6 degree=3 leading=1/108": "period=6 degree=3 leading=1/108",
}


class TestReadmeCommandLine:
    @pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split("#")[0].strip())
    def test_runs_and_shows_its_comment(self, capsys, monkeypatch, tmp_path, line):
        monkeypatch.chdir(tmp_path)  # fit --output p3.json lands here
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        if "--output" in argv:
            assert (tmp_path / argv[argv.index("--output") + 1]).is_file()
        if comment.strip() in README_CLAIMS:
            assert README_CLAIMS[comment.strip()] in out.splitlines()

    def test_every_claim_is_in_the_block(self):
        comments = {line.partition("#")[2].strip() for line in _readme_command_lines()}
        assert set(README_CLAIMS) <= comments
