#!/usr/bin/env python3
"""Regenerate the shipped b-file fixtures from the enumeration oracle.

Run from the repository root:

    python scripts/make_fixtures.py [n_max] [directory]

The directory defaults to the package's data directory; name another one
to compare a fresh regeneration against the shipped files.

The oracles are the counting tables that `oeis` checks the fixtures against,
so before anything is written every oracle value is compared with a formula
the oracle does not use.  A difference exits 1, and an n_max that is not an
integer or is below some sequence's first n exits 2; either way nothing is
written.
"""

import math
import sys
from pathlib import Path

from partition_gf import oeis
from partition_gf.counting import divisor_count
from partition_gf.quasipoly import p3_explicit

# The value at n by a route that shares no code with the sequence's oracle.
INDEPENDENT = {
    "A000005": divisor_count,  # trial division, not the divisor sieve
    "A049820": lambda n: n - divisor_count(n),
    "A008805": lambda n: math.comb(n // 2, 2),  # p(n,2) = C(floor(n/2), 2)
    "A128508": p3_explicit,  # the paper's residue-class formulas for p(n,3)
}


def main(argv: list[str]) -> int:
    try:
        n_max = int(argv[0]) if argv else 400
    except ValueError:
        print(
            f"usage: make_fixtures.py [n_max] [directory]; n_max {argv[0]!r} is not an integer",
            file=sys.stderr,
        )
        return 2
    if len(argv) > 1:
        target = Path(argv[1])
    else:
        target = Path(__file__).resolve().parent.parent / "src" / "partition_gf" / "data"
    ids = sorted(oeis.KNOWN_SEQUENCES)
    for sequence_id in ids:
        first = oeis.KNOWN_SEQUENCES[sequence_id][2]
        if n_max < first:
            print(f"{sequence_id}: n_max {n_max} is below the first n, {first}", file=sys.stderr)
            return 2
    for sequence_id in ids:
        formula = INDEPENDENT[sequence_id]
        for n, value in oeis.oracle_values(sequence_id, n_max).items():
            if value != formula(n):
                print(
                    f"{sequence_id}: the oracle gives {value} at n = {n}, "
                    f"the independent formula {formula(n)}",
                    file=sys.stderr,
                )
                return 1
    for sequence_id in ids:
        print(f"wrote {oeis.write_local_fixture(sequence_id, target, n_max=n_max)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
