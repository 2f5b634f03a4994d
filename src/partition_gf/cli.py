"""Command-line interface: compute counts, emit series coefficients, run the
verification suites, fit quasipolynomials, and cross-check OEIS fixtures.

Two parsers read one option table, `COMMANDS`: `_plain_args` reads a plain
command line with no parser built, and any other argv goes to the argparse
parser of `build_parser`, which writes every help text and usage error.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import counting, genfun, oeis, quasipoly
from .counting import DistanceSpec
from .errors import NetworkError, NotFound, OutOfRange, PartitionGFError, TooLarge

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The largest t-max of the routes and identities suites: at default orders each
# takes about 2.5 and 5 s at 32 on one 2-core Xeon, and 8 and 18 s at 40.
MAX_SUITE_T = 32


class UsageError(Exception):
    pass


class OutputRecord(NamedTuple):
    """One computed value: the query echo, the route that produced it, and
    the value as a decimal string (no 64-bit cap assumed)."""

    n: int
    distances: tuple[int, ...]
    method: str
    value: str


def parse_distances(text: str) -> tuple[int, ...] | None:
    """Comma-separated positive integers, or the single value 0 for the
    difference-zero problem (None)."""
    try:
        values = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise UsageError(f"distances must be comma-separated integers, got {text!r}") from None
    if values == [0]:
        return None
    if any(v < 1 for v in values):
        raise UsageError(
            "distances must be positive (0 is allowed only alone, meaning difference zero)"
        )
    return tuple(values)


def _methods(distances: tuple[int, ...] | None) -> dict:
    """name -> (n -> value) for each method that applies, in the order `--method all` prints them."""
    if distances is None:
        return {"enumerate": counting.divisor_count}
    methods = {
        "enumerate": lambda n: counting.count_specified(n, distances),
        "series": lambda n: genfun.series(distances, n)[n],
    }
    if DistanceSpec(distances).has_closed_form:
        methods["quasipoly"] = lambda n: quasipoly.from_closed_form(distances).count(n)
    return methods


def _emit_records(records: list[OutputRecord], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([r._asdict() for r in records], indent=2))
    elif fmt == "csv":
        print("n,distances,method,value")
        for r in records:
            distances = " ".join(str(d) for d in r.distances)
            print(f"{r.n},{distances},{r.method},{r.value}")
    else:
        for r in records:
            distances = ",".join(str(d) for d in r.distances)
            print(f"n={r.n} distances={distances} method={r.method} value={r.value}")


def cmd_compute(args) -> int:
    distances = parse_distances(args.distances)
    if args.n < 1:
        raise UsageError(f"n must be >= 1, got {args.n}")
    methods = _methods(distances)
    if args.method != "all":
        if args.method not in methods:
            raise UsageError(
                f"method {args.method!r} does not apply to distances {args.distances!r} "
                f"(applicable: {', '.join(methods)})"
            )
        methods = {args.method: methods[args.method]}
    records, capped = [], []
    for method, value in methods.items():
        try:
            records.append(OutputRecord(args.n, distances or (0,), method, str(value(args.n))))
        except TooLarge as exc:  # `all` leaves out a capped route
            capped.append(exc)
    if not records:
        raise capped[0]
    _emit_records(records, args.format)
    if len({r.value for r in records}) > 1:
        print("METHOD DISAGREEMENT", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_series(args) -> int:
    distances = parse_distances(args.distances)
    if distances is None:
        raise UsageError("series requires distances >= 1 (difference 0 is a divisor count)")
    if args.order < 1:
        raise UsageError(f"order must be >= 1, got {args.order}")
    coeffs = list(map(str, genfun.series(distances, args.order).coeffs))
    if args.format == "json":  # json.dumps(indent=2)'s bytes without its pure-Python encoder, as in fit
        spec, values = ",\n    ".join(map(str, distances)), '",\n    "'.join(coeffs)
        print(f'{{\n  "spec": [\n    {spec}\n  ],\n  "order": {args.order},\n  "coeffs": [\n    "{values}"\n  ]\n}}')
    elif args.format == "csv":
        print("n,coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        print(",".join(coeffs))
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.output == "":
        raise UsageError("--output needs a file name")
    distances = parse_distances(args.distances)
    if distances is None:
        raise UsageError("difference 0 has no quasipolynomial (the counts are divisor counts)")
    try:
        qp = quasipoly.from_closed_form(distances, args.order)
    except OutOfRange as exc:
        raise UsageError(
            f"{exc}; below that threshold the generating function is not rational"
        ) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # json.dumps(doc, indent=2)'s bytes without its pure-Python encoder; no "p/q" needs escaping.
    doc = qp.to_json_dict()
    rows = '"\n    ],\n    [\n      "'.join(map('",\n      "'.join, doc["rows"]))
    document = (
        f'{{\n  "period": {doc["period"]},\n  "degree": {doc["degree"]},\n'
        f'  "rows": [\n    [\n      "{rows}"\n    ]\n  ]\n}}'
    )
    leading = qp.leading_coefficient()
    summary = (
        f"period={qp.period} degree={qp.degree} "
        f"leading={leading.numerator}/{leading.denominator}"
    )
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
        print(summary)
    else:
        print(document)
        print(summary, file=sys.stderr)
    return EXIT_OK


def _check_routes(t_max: int, n_max: int) -> list[tuple[str, bool, str]]:
    """One row `routes/t=..,k=..` per class 1 <= k <= t <= t_max, run on its member of
    least W, (1, ..., 1, t-k+1): a spec enters the series only through (t, k) and a
    power of q.  Columns: every route of `genfun.routes`, in its order; each must
    equal the table.  k = 1 rows run to n_max, the others to min(n_max, 120).
    Acceptance criterion 4 runs every route on every vector of a grid of specs."""
    results = []
    for t in range(1, t_max + 1):
        for k in range(1, t + 1):
            spec = DistanceSpec((1,) * (k - 1) + (t - k + 1,))
            order = n_max if k == 1 else min(n_max, 120)
            columns = {name: route(order).coeffs for name, route in genfun.routes(spec).items()}
            ok = all(values == columns["table"] for values in columns.values())
            results.append((f"routes/t={t},k={k}", ok, "" if ok else _disagreement(columns)))
    return results


def _disagreement(routes: dict[str, tuple[int, ...]]) -> str:
    """The first n where the routes differ (called only when they do), with each value there."""
    columns = enumerate(itertools.zip_longest(*routes.values()))
    n, column = next((n, c) for n, c in columns if len(set(c)) > 1)
    return f"routes disagree at n={n}: " + ", ".join(f"{r}={v}" for r, v in zip(routes, column))


def _check_identities(t_max: int, order: int) -> list[tuple[str, bool, str]]:
    pairs = [(t, k) for t in range(2, t_max + 1) for k in range(1, t)]
    results = [(f"identities/core/k={k},t={t}", genfun.core_identity_check(t, k), "") for t, k in pairs]
    return results + [(f"identities/p1/order={order}", genfun.p1_identity_check(order), "")]


def _check_asymptotics(t_max: int) -> list[tuple[str, bool, str]]:
    """The leading coefficient of each fit (t,), 2 <= t <= t_max, and each displayed
    quasipolynomial of total t <= t_max against its fit, row by row."""
    results, fits = [], {}
    for t in range(2, t_max + 1):
        fits[(t,)] = qp = quasipoly.from_closed_form((t,))
        got, want = qp.leading_coefficient(), quasipoly.expected_leading(t)
        detail = "" if got == want else f"leading {got} != {want}"
        results.append((f"asymptotics/leading/t={t}", got == want, detail))
    for spec, displayed in quasipoly.DISPLAYED.items():
        if sum(spec) <= t_max:
            qp = fits.get(spec) or quasipoly.from_closed_form(spec)
            detail = "" if qp == displayed else _row_apart(qp, displayed)
            results.append((f"asymptotics/displayed/distances={','.join(map(str, spec))}", not detail, detail))
    return results


def _row_apart(fit, displayed) -> str:
    """The first residue class where two unequal quasipolynomials differ, each row shown
    as its numerators over its denominator."""
    rows = ([[Fraction(c, q.denominator) for c in row] for row in q.rows] for q in (fit, displayed))
    r = next(r for r, (a, b) in enumerate(itertools.zip_longest(*rows)) if a != b)
    show = lambda q: f"{q.rows[r]}/{q.denominator}" if r < q.period else "no row"
    return f"row {r}: fit {show(fit)} != displayed {show(displayed)}"


def _note_clip(sequence_id: str, n_max: int, last_n: int) -> None:
    if n_max > last_n:
        print(
            f"note: {sequence_id}: n-max {n_max} clipped to {last_n}, "
            "the last n the fixture covers",
            file=sys.stderr,
        )


def _require_first_n(ids, n_max: int) -> None:
    """Up front, before any output: every id is known and n_max reaches its
    first n, so that no cross-check runs over an empty range."""
    for sequence_id in ids:
        if sequence_id not in oeis.KNOWN_SEQUENCES:
            raise UsageError(f"unknown sequence id {sequence_id!r}")
        first = oeis.KNOWN_SEQUENCES[sequence_id][2]
        if n_max < first:
            raise UsageError(
                f"--n-max must be >= {first} for {sequence_id}, its first n, got {n_max}"
            )


def _check_oeis(fixtures_dir, n_max: int) -> list[tuple[str, bool, str]]:
    results = []
    for sequence_id in sorted(oeis.KNOWN_SEQUENCES):
        try:
            report, last_n = oeis.cross_check_known(sequence_id, fixtures_dir, n_max)
            _note_clip(sequence_id, n_max, last_n)
            detail = "" if report.ok else report.summary()
            results.append((f"oeis/{sequence_id}", report.ok, detail))
        except PartitionGFError as exc:
            results.append((f"oeis/{sequence_id}", False, str(exc)))
    return results


def cmd_verify(args) -> int:
    for option, value, least, capped, cap, name in (
        ("--t-max", args.t_max, 2, ("routes", "identities", "all"), MAX_SUITE_T, "t-max"),
        ("--n-max", args.n_max, 1, ("routes", "all"), counting.MAX_ORDER, "series-order"),
        ("--order", args.order, 1, ("identities", "all"), counting.MAX_ORDER, "series-order"),
    ):
        if value < least:
            raise UsageError(f"{option} must be >= {least}, got {value}")
        if args.suite in capped and value > cap:  # before any suite runs
            raise TooLarge(f"{option} {value} is above the {name} cap {cap}")
    if args.suite in ("asymptotics", "all"):
        quasipoly.required_order((args.t_max,))  # the fit-order cap, before any suite runs
    if args.suite in ("oeis", "all"):
        _require_first_n(sorted(oeis.KNOWN_SEQUENCES), args.n_max)
    suites = {
        "routes": lambda: _check_routes(args.t_max, args.n_max),
        "identities": lambda: _check_identities(args.t_max, args.order),
        "asymptotics": lambda: _check_asymptotics(args.t_max),
        "oeis": lambda: _check_oeis(args.fixtures_dir, args.n_max),
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    results: list[tuple[str, bool, str]] = []
    for name in selected:
        results.extend(suites[name]())
    results.sort(key=lambda item: item[0])
    failures = 0
    for check_id, ok, detail in results:
        if ok:
            print(f"PASS {check_id}")
        else:
            failures += 1
            print(f"FAIL {check_id}" + (f": {detail}" if detail else ""))
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


def cmd_oeis(args) -> int:
    if args.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
    ids = args.id if args.id else sorted(oeis.KNOWN_SEQUENCES)
    _require_first_n(ids, args.n_max)
    failures = 0
    for sequence_id in ids:
        if args.fetch is not None:
            oeis.fetch_remote(sequence_id, args.fetch, cache_dir=args.fixtures_dir)
        report, last_n = oeis.cross_check_known(sequence_id, args.fixtures_dir, args.n_max)
        _note_clip(sequence_id, args.n_max, last_n)
        print(report.summary())
        if not report.ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


_FIXTURES_HELP = "fixture directory (default: $PARTITION_GF_FIXTURES or packaged data)"
_FORMAT = ("--format", {"choices": ["text", "csv", "json"], "default": "text"})

# name -> (help, func, options), in the order `-h` lists them.  Each option
# is (flag, add_argument keywords), in the order each command's `-h` lists it.
COMMANDS = {
    "compute": ("count partitions for one n", cmd_compute, (
        _FORMAT,
        ("--n", {"type": int, "required": True}),
        ("--distances", {"required": True, "help": "comma-separated, e.g. 2,2 (or 0 alone)"}),
        ("--method", {
            "choices": ["enumerate", "series", "quasipoly", "all"], "default": "enumerate",
        }),
    )),
    "series": ("emit coefficients 0..N", cmd_series, (
        _FORMAT,
        ("--distances", {"required": True}),
        ("--order", {"type": int, "required": True}),
    )),
    "verify": ("run invariant suites", cmd_verify, (
        ("--fixtures-dir", {"help": _FIXTURES_HELP}),
        ("--suite", {
            "choices": ["routes", "identities", "asymptotics", "oeis", "all"], "default": "all",
        }),
        ("--t-max", {"type": int, "default": 6}),
        ("--n-max", {"type": int, "default": 120}),
        ("--order", {"type": int, "default": 60}),
    )),
    "fit": ("fit and emit a quasipolynomial", cmd_fit, (
        ("--distances", {"required": True}),
        ("--order", {"type": int, "default": None, "help": "expansion order (default: auto)"}),
        ("--output", {"default": None, "help": "write JSON here instead of stdout"}),
    )),
    "oeis": ("cross-check fixtures offline or fetch", cmd_oeis, (
        ("--fixtures-dir", {"help": _FIXTURES_HELP}),
        ("--id", {"action": "append", "help": "sequence id, repeatable (default: all known)"}),
        ("--n-max", {"type": int, "default": 400}),
        ("--fetch", {"metavar": "ENDPOINT", "help": "refresh fixtures from this b-file base URL"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with every command.  `main` builds it only for an
    argv that `_plain_args` declines: help, errors and other spellings."""
    parser = argparse.ArgumentParser(
        prog="partition-gf",
        description="Exact partition counts with fixed largest-smallest "
        "difference or specified milestone distances, via mutually "
        "verifying enumeration, series, and quasipolynomial routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives for `command (--flag value)...`, where
    each flag is one of the command's own, spelled in full, and no value
    starts with "-"; None for any other argv, or for one argparse would
    reject, so that argparse reads it and writes the help or the error."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, options = COMMANDS[argv[0]]
    given: dict[str, list[str]] = {flag: [] for flag, _ in options}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in given or value.startswith("-"):
            return None
        given[flag].append(value)
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, kwargs in options:
        try:
            values = [kwargs.get("type", str)(value) for value in given[flag]]
        except ValueError:
            return None
        if any(value not in kwargs.get("choices", (value,)) for value in values):
            return None
        if kwargs.get("action") == "append" and values:
            values = [values]
        if not values and kwargs.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), values[-1] if values else kwargs.get("default"))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotFound, NetworkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PartitionGFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
