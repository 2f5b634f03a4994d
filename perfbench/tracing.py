"""Spans recorded from outside the package, by wrapping each layer's public
functions in the process of a traced job (see `run.run_job`).

The layers are the modules of `partition_gf`.  A public function is wrapped
in every module namespace that binds it (genfun imports the qseries names,
quasipoly imports the closed forms, the package re-exports nearly all), so a
call is traced whichever name it goes through.  The methods that do a
layer's work and the oracles held by value in `oeis.KNOWN_SEQUENCES` are
wrapped too.  Spans stay in memory as [name, start, end, parent, job,
fields]; the per-layer metrics are computed from them after the batch.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

from partition_gf import cli, counting, genfun, oeis, qseries, quasipoly
import partition_gf

LAYERS = {
    "cli": cli,
    "counting": counting,
    "genfun": genfun,
    "qseries": qseries,
    "quasipoly": quasipoly,
    "oeis": oeis,
}

METHODS = {
    qseries.FactoredRational: ("expand", "reduce"),
    quasipoly.QuasiPolynomial: ("evaluate", "leading_coefficient", "to_json_dict"),
}

# Which layer span feeds which per-layer metric.
FIT = "quasipoly.fit"
FROM_CLOSED_FORM = "quasipoly.from_closed_form"
QP_OUTPUT = {"quasipoly.QuasiPolynomial.to_json_dict", "quasipoly.QuasiPolynomial.leading_coefficient"}
TABLES = {"counting.fixed_diff_table", "counting.specified_table"}
DIVISOR_COUNT = "counting.divisor_count"
DIRECT_SERIES = {"genfun.direct_series_fixed_diff", "genfun.direct_series_specified"}
CLOSED_FORMS = {"genfun.closed_form_fixed_diff", "genfun.closed_form_specified"}
IDENTITIES = {"genfun.heine_check", "genfun.p1_identity_check", "genfun.qbinomial_alternating_sum"}
EXPAND = "qseries.FactoredRational.expand"
REDUCE = "qseries.FactoredRational.reduce"
POLY_KERNELS = {"qseries.poly_mul", "qseries.poly_divmod", "qseries.gauss_binomial"}
CALIBRATE = {"oeis.calibrate_offset", "oeis.load_calibrated"}
ORACLE = "oeis.oracle"
CROSS_CHECK = "oeis.cross_check"


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    for suffix, unit in (("ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _order_plus_one(bound, result):
    return {"coeffs": bound.arguments["order"] + 1}


def _cells(bound, result):
    return {"cells": bound.arguments["n_max"] + 1}


def _fit_classes(bound, result):
    return {"classes": bound.arguments["period"]}


def _factor_passes(bound, result):
    passes = sum(e for _, e in bound.arguments["self"].denominator)
    return {"coeffs": bound.arguments["order"] + 1, "factor_passes": passes}


def _checked(bound, result):
    return {"values": result.checked}


# Span fields for the count metrics, from the bound call arguments and result.
FIELDS = {
    FIT: _fit_classes,
    "counting.fixed_diff_table": _cells,
    "counting.specified_table": _cells,
    "genfun.direct_series_fixed_diff": _order_plus_one,
    "genfun.direct_series_specified": _order_plus_one,
    EXPAND: _factor_passes,
    CROSS_CHECK: _checked,
}

# QuasiPolynomial methods that read rows of a fitted quasipolynomial: one
# row for evaluate, every row for the document and the leading coefficient.
ROW_READERS = {
    "quasipoly.QuasiPolynomial.evaluate": lambda qp, bound: {bound.arguments["n"] % qp.period},
    "quasipoly.QuasiPolynomial.to_json_dict": lambda qp, bound: set(range(qp.period)),
    "quasipoly.QuasiPolynomial.leading_coefficient": lambda qp, bound: set(range(qp.period)),
}


class Tracer:
    """Collects spans while installed; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        # id(quasipolynomial) -> (the object, rows read); holding the object
        # keeps its id from being reused within the batch.
        self.rows_read: dict[int, tuple[object, set]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in FIELDS or name in ROW_READERS else None
        fields = FIELDS.get(name)
        rows = ROW_READERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if fields is not None:
                    span[5] = fields(bound, result)
                if rows is not None and not self._inside(FIT):
                    qp = bound.arguments["self"]
                    self.rows_read.setdefault(id(qp), (qp, set()))[1].update(rows(qp, bound))
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        namespaces = [*LAYERS.values(), partition_gf]
        for layer, module in LAYERS.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
        for cls, methods in METHODS.items():
            layer = cls.__module__.rsplit(".", 1)[1]
            for method in methods:
                fn = vars(cls)[method]
                self._set(cls, method, self._wrap(f"{layer}.{cls.__name__}.{method}", fn))
        for sequence_id, (description, oracle, n_start) in list(oeis.KNOWN_SEQUENCES.items()):
            # A000005 holds counting.divisor_count by value: trace through its wrapper.
            inner = wrapped.get(id(oracle), oracle)
            entry = (description, self._wrap(ORACLE, inner), n_start)
            self._restore.append((oeis.KNOWN_SEQUENCES, sequence_id, oeis.KNOWN_SEQUENCES[sequence_id]))
            oeis.KNOWN_SEQUENCES[sequence_id] = entry

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def rows_read_count(self) -> int:
        """Rows of fitted quasipolynomials that outputs read while installed."""
        return sum(len(rows) for _, rows in self.rows_read.values())


def layer_metrics(spans: list[list], rows_read: int) -> dict[str, float]:
    """Per-layer times and counts of one batch's spans, `rows_read` as
    `Tracer.rows_read_count` gives it.  A span's self time
    is its duration less the time its child spans cover; a layer's self
    time sums its spans'."""
    count = len(spans)
    duration = [s[2] - s[1] for s in spans]
    covered = [0.0] * count
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            covered[s[3]] += d
    self_ms = [(d - c) * 1000 for d, c in zip(duration, covered)]

    def total_ms(names) -> float:
        # Inclusive time, counting a span only when no ancestor is also named.
        out = 0.0
        for i, s in enumerate(spans):
            if s[0] in names:
                parent = s[3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    out += duration[i] * 1000
        return out

    by_name_self = defaultdict(float)
    by_name_calls = defaultdict(int)
    sums = defaultdict(int)
    for s, own in zip(spans, self_ms):
        by_name_self[s[0]] += own
        by_name_calls[s[0]] += 1
        for key, value in (s[5] or {}).items():
            sums[s[0], key] += value

    def self_of(names) -> float:
        return sum(by_name_self[n] for n in names)

    def calls_of(names) -> int:
        return sum(by_name_calls[n] for n in names)

    def sum_of(names, key) -> int:
        return sum(sums[n, key] for n in names)

    layer_self = defaultdict(float)
    for name, own in by_name_self.items():
        layer_self[name.split(".", 1)[0]] += own
    classes = sum_of({FIT}, "classes")
    oracle_values = by_name_calls[ORACLE]
    compared = sum_of({CROSS_CHECK}, "values")
    out = {f"{layer}.self_ms": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "trace.layers_ms": sum(layer_self.values()),
            "quasipoly.fit.self_ms": by_name_self[FIT],
            "quasipoly.fit.calls": by_name_calls[FIT],
            "quasipoly.fit.classes": classes,
            "quasipoly.from_closed_form.ms": total_ms({FROM_CLOSED_FORM}),
            "quasipoly.classes_read_ratio": rows_read / classes if classes else 0.0,
            "quasipoly.to_json.ms": total_ms(QP_OUTPUT),
            "counting.table.self_ms": self_of(TABLES),
            "counting.table.calls": calls_of(TABLES),
            "counting.table.cells": sum_of(TABLES, "cells"),
            "counting.divisor_count.calls": by_name_calls[DIVISOR_COUNT],
            "genfun.direct_series.ms": total_ms(DIRECT_SERIES),
            "genfun.direct_series.coeffs": sum_of(DIRECT_SERIES, "coeffs"),
            "genfun.closed_form.ms": total_ms(CLOSED_FORMS),
            "genfun.closed_form.calls": calls_of(CLOSED_FORMS),
            "genfun.identities.ms": total_ms(IDENTITIES),
            "qseries.expand.ms": total_ms({EXPAND}),
            "qseries.expand.coeffs": sum_of({EXPAND}, "coeffs"),
            "qseries.expand.factor_passes": sum_of({EXPAND}, "factor_passes"),
            "qseries.reduce.ms": total_ms({REDUCE}),
            "qseries.poly_kernels.self_ms": self_of(POLY_KERNELS),
            "qseries.poly_kernels.calls": calls_of(POLY_KERNELS),
            "oeis.calibrate.self_ms": self_of(CALIBRATE),
            "oeis.oracle.values": oracle_values,
            "oeis.cross_check.values": compared,
            "oeis.useful_ratio": compared / oracle_values if oracle_values else 0.0,
            "trace.spans": count,
        }
    )
    return out
