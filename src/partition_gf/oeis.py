"""OEIS-style sequence fixtures: b-file parsing, cross-checks against the
enumeration oracle, and an opt-in remote fetch.

Fixtures live as plain b-files ("index value" per line, '#' comments) in a
directory resolved from, in order: an explicit argument, the
PARTITION_GF_FIXTURES environment variable, and the data files shipped with
the package.  Tests never need the network; fetch_remote exists for
refreshing caches from a live endpoint.

OEIS indices need not equal the counting argument: A008805 starts at index
0 with the difference-2 count at n = 4.  Each known sequence's offset
(index = n + offset) is pinned in OFFSETS, so a b-file written at another
alignment fails its cross-check.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import counting
from .errors import EmptyOverlap, NetworkError, NotFound, ParseError

_ID_PATTERN = re.compile(r"^A(\d+)$")

# Sequences the package knows how to regenerate and check locally.
# Each oracle builds one counting table: n_max -> values at n = 0..n_max.
KNOWN_SEQUENCES: dict[str, tuple[str, Callable[[int], list[int]], int]] = {
    # id: (description, oracle n_max -> values, first n the oracle covers)
    "A000005": ("divisor counts d(n)", lambda n_max: counting.fixed_diff_table(0, n_max), 1),
    "A049820": (
        "nondivisor counts n - d(n)",
        lambda n_max: [n - d for n, d in enumerate(counting.fixed_diff_table(0, n_max))],
        1,
    ),
    "A008805": ("difference-2 partition counts", lambda n_max: counting.fixed_diff_table(2, n_max), 4),
    "A128508": ("difference-3 partition counts", lambda n_max: counting.fixed_diff_table(3, n_max), 5),
}

# Each sequence's value at counting argument n sits at b-file index
# n + offset, in the fixtures written here and in those loaded: the real OEIS
# offsets, so A008805 starts at index 0 with its n = 4 value.
OFFSETS = {"A000005": 0, "A049820": 0, "A008805": -4, "A128508": 0}

# A string, joined by os.path: in a fresh process a Path costs ~0.4 ms to build.
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class SequenceFixture(NamedTuple):
    """An (index, value) table, indices strictly increasing, whose value for
    counting argument n sits at index n + offset."""

    id: str
    entries: tuple[tuple[int, int], ...]
    offset: int = 0


def bfile_name(sequence_id: str) -> str:
    match = _ID_PATTERN.match(sequence_id)
    if not match:
        raise ValueError(f"sequence id must look like A000005, got {sequence_id!r}")
    return f"b{match.group(1)}.txt"


def parse_bfile(text: str, sequence_id: str, offset: int = 0) -> SequenceFixture:
    """Parse b-file text, one 'index value' pair per line and '#' comments,
    into a fixture at `offset`."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{sequence_id} line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{sequence_id} line {lineno}: non-integer field in {raw!r}") from None
        if entries and index <= entries[-1][0]:
            raise ParseError(f"{sequence_id}: indices must be strictly increasing")
        entries.append((index, value))
    if not entries:
        raise ParseError(f"{sequence_id}: no data lines")
    return SequenceFixture(sequence_id, tuple(entries), offset)


def _fixtures_dir(fixtures_dir: str | Path | None) -> str | Path:
    """The argument, else $PARTITION_GF_FIXTURES as it reads now, else the packaged data."""
    if fixtures_dir is not None:
        return fixtures_dir
    return os.environ.get("PARTITION_GF_FIXTURES") or _DATA_DIR


def default_fixtures_dir(fixtures_dir: str | Path | None = None) -> Path:
    return Path(_fixtures_dir(fixtures_dir))


def load_calibrated(sequence_id: str, fixtures_dir: str | Path | None = None) -> SequenceFixture:
    """Load a known sequence's b-file at its pinned offset; NotFound when
    the sequence is unknown or its path is not a regular file (so a FIFO is
    never opened), ParseError when the file is not UTF-8 b-file text."""
    if sequence_id not in OFFSETS:
        raise NotFound(f"no offset pinned for {sequence_id}")
    path = os.path.join(_fixtures_dir(fixtures_dir), bfile_name(sequence_id))
    if not os.path.isfile(path):
        raise NotFound(f"no fixture for {sequence_id} at {path}")
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{sequence_id} line {lineno}: not UTF-8 at byte {exc.start}") from None
    return parse_bfile(text, sequence_id, OFFSETS[sequence_id])


def oracle_values(sequence_id: str, n_max: int) -> dict[int, int]:
    """The local oracle's values {n: value} for n = n_start..n_max, read
    from one counting table."""
    if sequence_id not in KNOWN_SEQUENCES:
        raise NotFound(f"no local oracle registered for {sequence_id}")
    _, oracle, n_start = KNOWN_SEQUENCES[sequence_id]
    table = oracle(n_max)
    return {n: table[n] for n in range(n_start, n_max + 1)}


class CrossCheckReport(NamedTuple):
    sequence_id: str
    checked: int
    mismatches: tuple[tuple[int, int, int], ...]  # (n, fixture value, computed value)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.mismatches

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({len(self.mismatches)} mismatches)"
        return f"{self.sequence_id}: {self.checked} values compared, {state}"


def cross_check(fixture: SequenceFixture, computed: Mapping[int, int]) -> CrossCheckReport:
    """Compare computed values against the fixture over their index overlap,
    in one pass over the fixture: its indices increase, so the mismatches
    come in n order."""
    mismatches = []
    checked = 0
    offset = fixture.offset
    for index, expected in fixture.entries:
        n = index - offset
        value = computed.get(n)
        if value is None:
            continue
        checked += 1
        if expected != value:
            mismatches.append((n, expected, value))
    if checked == 0:
        raise EmptyOverlap(
            f"{fixture.id}: computed range does not meet the fixture's indices"
        )
    return CrossCheckReport(fixture.id, checked, tuple(mismatches))


def cross_check_known(
    sequence_id: str, fixtures_dir: str | Path | None, n_max: int
) -> tuple[CrossCheckReport, int]:
    """Cross-check a known fixture against one oracle table through n_max,
    clipped to the last n the fixture covers.  Returns the report and that
    last n."""
    fixture = load_calibrated(sequence_id, fixtures_dir)
    last_n = fixture.entries[-1][0] - fixture.offset
    # A b-file may end below n = 0, where no counting table reaches.
    report = cross_check(fixture, oracle_values(sequence_id, max(0, min(n_max, last_n))))
    return report, last_n


def fetch_remote(
    sequence_id: str,
    endpoint: str,
    cache_dir: str | Path | None = None,
    timeout: float = 30.0,
) -> SequenceFixture:
    """Fetch a b-file from an OEIS-format endpoint and cache it locally.

    The endpoint is a base URL, joined with the b-file name.  The raw text is
    parsed first and cached only on success.  A malformed URL is a
    NetworkError, as an unreachable one is.
    """
    # Imported here, for --fetch alone: the network stack would add tens of
    # milliseconds to every start of the command line.
    import urllib.request

    url = endpoint.rstrip("/") + "/" + bfile_name(sequence_id)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except (OSError, ValueError) as exc:  # URLError is an OSError, a bad decode a ValueError
        raise NetworkError(f"fetching {url} failed: {exc}") from exc
    fixture = parse_bfile(text, sequence_id)
    _store(sequence_id, default_fixtures_dir(cache_dir), text)
    return fixture


def write_local_fixture(
    sequence_id: str, directory: str | Path, n_max: int = 400
) -> Path:
    """Regenerate a known fixture from the enumeration oracle.

    Used to ship offline fixtures; the file records its provenance in a
    comment so it is never mistaken for a download.  An n_max below the first
    n would write no data lines, so it raises ValueError and writes nothing.
    """
    values = oracle_values(sequence_id, n_max)
    if not values:
        first = KNOWN_SEQUENCES[sequence_id][2]
        raise ValueError(f"{sequence_id}: n_max {n_max} is below the first n, {first}")
    description = KNOWN_SEQUENCES[sequence_id][0]
    offset = OFFSETS[sequence_id]
    lines = [f"# {sequence_id}: {description}, generated locally by partition_gf"]
    for n, value in values.items():
        lines.append(f"{n + offset} {value}")
    return _store(sequence_id, directory, "\n".join(lines) + "\n")


def _store(sequence_id: str, directory: str | Path, text: str) -> Path:
    """Write the b-file for `sequence_id` into `directory`, creating it: the
    text goes to a temporary name beside the target and is renamed over it,
    so that readers never see a partial file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / bfile_name(sequence_id)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target
