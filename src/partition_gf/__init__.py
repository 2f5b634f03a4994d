"""Exact counting of integer partitions by the difference between their
largest and smallest parts, or by a vector of specified milestone distances.
A fixed difference t is the one-distance case: every route takes a
:class:`DistanceSpec`, and ``(t,)`` is the spec for difference t.

Three routes to every count, all in exact arithmetic:

* enumeration by a packed coin DP sliding over the smallest part
  (:mod:`partition_gf.counting`),
* truncated q-series, direct sums and closed rational forms
  (:mod:`partition_gf.qseries`, :mod:`partition_gf.genfun`); the direct sum
  uses the counting module's packed kernels,
* quasipolynomial evaluation (:mod:`partition_gf.quasipoly`).

:mod:`partition_gf.oeis` cross-checks the computed sequences against
OEIS-style b-file fixtures and :mod:`partition_gf.cli` exposes everything on
the command line.
"""

from .counting import (
    count_specified,
    divisor_count,
    fixed_diff_table,
    specified_table,
)
from .genfun import (
    DistanceSpec,
    closed_form_fixed_diff,
    closed_form_specified,
    core_identity_check,
    direct_series_specified,
    p1_identity_check,
)
from .qseries import (
    FactoredRational,
    TruncatedSeries,
    gauss_binomial,
    pochhammer_q,
)
from .quasipoly import (
    QuasiPolynomial,
    expected_leading,
    fit,
    from_closed_form,
    p3_explicit,
    p22_explicit,
)

__version__ = "0.1.0"

__all__ = [
    "count_specified",
    "divisor_count",
    "fixed_diff_table",
    "specified_table",
    "DistanceSpec",
    "closed_form_fixed_diff",
    "closed_form_specified",
    "core_identity_check",
    "direct_series_specified",
    "p1_identity_check",
    "FactoredRational",
    "TruncatedSeries",
    "gauss_binomial",
    "pochhammer_q",
    "QuasiPolynomial",
    "expected_leading",
    "fit",
    "from_closed_form",
    "p3_explicit",
    "p22_explicit",
    "__version__",
]
