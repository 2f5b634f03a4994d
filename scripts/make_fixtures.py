#!/usr/bin/env python3
"""Regenerate the shipped b-file fixtures from the enumeration oracle.

Run from the repository root:

    python scripts/make_fixtures.py [n_max] [directory]

The directory defaults to the package's data directory; name another one
to compare a fresh regeneration against the shipped files.
"""

import sys
from pathlib import Path

from partition_gf import oeis

n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 400
if len(sys.argv) > 2:
    target = Path(sys.argv[2])
else:
    target = Path(__file__).resolve().parent.parent / "src" / "partition_gf" / "data"
for sequence_id in sorted(oeis.KNOWN_SEQUENCES):
    path = oeis.write_local_fixture(sequence_id, target, n_max=n_max)
    print(f"wrote {path}")
