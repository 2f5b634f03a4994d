"""Output checks: every job's stdout is checked by a route other than the one
the job timed.  The checks run after the timed window and never count in the
timings.

* `compute` and `series` values are recomputed by the closed-form expansion
  where t > max(1, k) and the job did not use it, by the counting tables for
  the series and quasipolynomial routes otherwise, by the direct series for
  enumeration without a closed form, and by the divisor sieve for
  difference 0.
* A `fit` document is reloaded with `QuasiPolynomial.from_json_dict` and
  evaluated at n held out of the fit, one per residue class, against the
  closed form.
* `verify` and `oeis` jobs must exit 0 with every check passing.
"""

from __future__ import annotations

import json
import math
import re

from partition_gf import counting, genfun, quasipoly


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _distances(argv: list[str]) -> tuple[int, ...] | None:
    values = tuple(int(v) for v in _option(argv, "--distances").split(","))
    return None if values == (0,) else values


def _reference(distances: tuple[int, ...] | None, order: int, timed_route: str) -> list[int]:
    """Coefficients 0..order by a route other than `timed_route`.

    The closed form is always `closed_form_specified`: for one distance the
    CLI expands `closed_form_fixed_diff`, a different formula.
    """
    if distances is None:
        return counting.fixed_diff_table(0, order)
    if sum(distances) > max(1, len(distances)) and timed_route != "series":
        return list(genfun.closed_form_specified(distances).expand(order).coeffs)
    if timed_route != "enumerate":
        return counting.specified_table(distances, order)
    return list(genfun.direct_series_specified(distances, order).coeffs)


def _check_compute(argv: list[str], rc: int, stdout: str) -> str | None:
    n = int(_option(argv, "--n"))
    method = _option(argv, "--method")
    distances = _distances(argv)
    match = re.fullmatch(r"n=(\d+) distances=([\d,]+) method=(\w+) value=(-?\d+)\n", stdout)
    if rc != 0 or match is None:
        return f"exit {rc}, output {stdout[:200]!r}"
    want = _reference(distances, n, method)[n]
    got = int(match.group(4))
    return None if got == want else f"value {got} != {want}"


def _check_series(argv: list[str], rc: int, stdout: str) -> str | None:
    order = int(_option(argv, "--order"))
    distances = _distances(argv)
    got = [int(c) for c in stdout.strip().split(",")] if rc == 0 else None
    want = _reference(distances, order, "series")
    if got is None or len(got) != order + 1:
        return f"exit {rc}, {len(got or ())} coefficients for order {order}"
    # Index 0 is the empty partition, which no table counts.
    mismatch = next((n for n in range(1, order + 1) if got[n] != want[n]), None)
    return None if mismatch is None else f"coefficient {mismatch}: {got[mismatch]} != {want[mismatch]}"


def _check_fit(argv: list[str], rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    distances = _distances(argv)
    qp = quasipoly.QuasiPolynomial.from_json_dict(json.loads(stdout))
    t = sum(distances)
    period = math.lcm(*range(1, t + 1))
    if (qp.period, qp.degree) != (period, t):
        return f"period {qp.period}, degree {qp.degree}; want {period}, {t}"
    spec = genfun.DistanceSpec(distances)
    fitted_through = spec.min_weight + period * (t + 1)
    series = genfun.closed_form_specified(distances).expand(fitted_through + period)
    for n in range(fitted_through + 1, fitted_through + period + 1):
        value = qp.evaluate(n)
        if value != series[n]:
            return f"held-out n={n}: {value} != {series[n]}"
    return None


_VERIFY_TOTAL = re.compile(r"(\d+)/(\d+) checks passed")
_OEIS_LINE = re.compile(r"A\d+: [1-9]\d* values compared, pass")


def _check_verify(argv: list[str], rc: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    total = _VERIFY_TOTAL.fullmatch(lines[-1]) if lines else None
    if (
        rc != 0
        or total is None
        or total.group(1) != total.group(2)
        or int(total.group(2)) != len(lines) - 1
        or int(total.group(2)) == 0
        or not all(line.startswith("PASS ") for line in lines[:-1])
    ):
        return f"exit {rc}, output {stdout[-200:]!r}"
    return None


def _check_oeis(argv: list[str], rc: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    wanted = argv.count("--id")
    if rc != 0 or len(lines) != wanted or not all(_OEIS_LINE.fullmatch(x) for x in lines):
        return f"exit {rc}, output {stdout[-200:]!r}"
    return None


_CHECKS = {
    "compute": _check_compute,
    "series": _check_series,
    "fit": _check_fit,
    "verify": _check_verify,
    "oeis": _check_oeis,
}


def check(argv: list[str], rc, stdout: str) -> str | None:
    """None when the job's output is right, else what is wrong with it."""
    if not isinstance(rc, int):
        return f"raised {rc}"
    return _CHECKS[argv[0]](argv, rc, stdout)
