"""OEIS-style sequence fixtures: b-file parsing, offset calibration against
the enumeration oracle, cross-checks, and an opt-in remote fetch.

Fixtures live as plain b-files ("index value" per line, '#' comments) in a
directory resolved from, in order: an explicit argument, the
PARTITION_GF_FIXTURES environment variable, and the data files shipped with
the package.  Tests never need the network; fetch_remote exists for
refreshing caches from a live endpoint.

OEIS index conventions drift relative to the counting functions (A008805 is
shifted by 4 against the difference-2 counts), so every fixture's offset
(index = n + offset) is calibrated by matching a run of consecutive values
against the local oracle instead of being hard-coded.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import counting
from .errors import CalibrationError, EmptyOverlap, NetworkError, NotFound, ParseError

_ID_PATTERN = re.compile(r"^A(\d+)$")

# Sequences the package knows how to regenerate and calibrate locally.
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

# Calibration matches the oracle's values at n <= CALIBRATION_N_MAX, and an
# offset must align at least CALIBRATION_MIN_RUN consecutive values.
CALIBRATION_N_MAX = 50
CALIBRATION_MIN_RUN = 10

# Index written for the first oracle n when regenerating a fixture locally
# (the real OEIS offsets: A008805 starts at index 0 with its n=4 value).
_GENERATION_OFFSETS = {"A000005": 0, "A049820": 0, "A008805": -4, "A128508": 0}


class SequenceFixture:
    """An (index, value) table whose value for counting argument n sits at
    index n + offset."""

    __slots__ = ("id", "entries", "offset", "_by_index")

    def __init__(self, id: str, entries: tuple[tuple[int, int], ...], offset: int = 0):
        indices = [i for i, _ in entries]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ParseError(f"{id}: indices must be strictly increasing")
        self.id, self.entries, self.offset = id, entries, offset
        self._by_index = dict(entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SequenceFixture) and (
            (self.id, self.entries, self.offset) == (other.id, other.entries, other.offset)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.entries, self.offset))

    def __repr__(self) -> str:
        return f"SequenceFixture(id={self.id!r}, entries={self.entries!r}, offset={self.offset!r})"


def bfile_name(sequence_id: str) -> str:
    match = _ID_PATTERN.match(sequence_id)
    if not match:
        raise ValueError(f"sequence id must look like A000005, got {sequence_id!r}")
    return f"b{match.group(1)}.txt"


def parse_bfile(text: str, sequence_id: str) -> SequenceFixture:
    """Parse b-file text: one 'index value' pair per line, '#' comments."""
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
        entries.append((index, value))
    if not entries:
        raise ParseError(f"{sequence_id}: no data lines")
    return SequenceFixture(sequence_id, tuple(entries))


def default_fixtures_dir() -> Path:
    env = os.environ.get("PARTITION_GF_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).with_name("data")


def load_fixture(sequence_id: str, fixtures_dir: str | Path | None = None) -> SequenceFixture:
    """Load and parse a fixture b-file; NotFound when the file is missing."""
    directory = Path(fixtures_dir) if fixtures_dir is not None else default_fixtures_dir()
    path = directory / bfile_name(sequence_id)
    if not path.is_file():
        raise NotFound(f"no fixture for {sequence_id} at {path}")
    return parse_bfile(path.read_text(encoding="utf-8"), sequence_id)


def calibrate_offset(fixture: SequenceFixture, reference: Mapping[int, int]) -> SequenceFixture:
    """Find the offset b with fixture[n + b] == reference[n] on at least
    CALIBRATION_MIN_RUN consecutive n.

    A candidate offset must agree on its entire overlap with the reference;
    among consistent candidates the largest overlap wins (then the smallest
    |offset|), so short runs of coincidences at a wrong alignment lose to the
    true one.
    """
    if not reference:
        raise CalibrationError("reference values are empty")
    ns = sorted(reference)
    by_index = fixture._by_index
    best: tuple[int, int] | None = None  # (matches, -|offset|) winner
    best_offset = None
    for offset in range(fixture.entries[0][0] - ns[-1], fixture.entries[-1][0] - ns[0] + 1):
        run = 0
        longest = 0
        total = 0
        for n in ns:
            value = by_index.get(n + offset)
            if value is None:
                run = 0
                continue
            if value != reference[n]:
                break
            run += 1
            total += 1
            longest = max(longest, run)
        else:  # no disagreement anywhere in the overlap
            if total > 0 and longest >= CALIBRATION_MIN_RUN:
                score = (total, -abs(offset))
                if best is None or score > best:
                    best = score
                    best_offset = offset
    if best_offset is None:
        raise CalibrationError(
            f"{fixture.id}: no offset aligns >= {CALIBRATION_MIN_RUN} consecutive values "
            "with the reference"
        )
    return SequenceFixture(fixture.id, fixture.entries, best_offset)


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
    """Compare computed values against the fixture over their index overlap."""
    mismatches = []
    checked = 0
    for n in sorted(computed):
        expected = fixture._by_index.get(n + fixture.offset)
        if expected is None:
            continue
        checked += 1
        if expected != computed[n]:
            mismatches.append((n, expected, computed[n]))
    if checked == 0:
        raise EmptyOverlap(
            f"{fixture.id}: computed range does not meet the fixture's indices"
        )
    return CrossCheckReport(fixture.id, checked, tuple(mismatches))


def cross_check_known(
    sequence_id: str, fixtures_dir: str | Path | None, n_max: int
) -> tuple[CrossCheckReport, int]:
    """Calibrate a known fixture and cross-check it on n_start..n_max, both
    against one oracle table.

    Calibration reads the table's n <= CALIBRATION_N_MAX values.  A calibrated
    offset aligns some such n, so it is at least the first index minus
    CALIBRATION_N_MAX, and the table stops where no offset could still reach
    the fixture.  Returns the report and the last n the calibrated fixture
    covers.
    """
    if sequence_id not in KNOWN_SEQUENCES:
        raise NotFound(f"no local oracle registered for {sequence_id}")
    fixture = load_fixture(sequence_id, fixtures_dir)
    first, last = fixture.entries[0][0], fixture.entries[-1][0]
    reach = last - first + CALIBRATION_N_MAX
    values = oracle_values(sequence_id, max(CALIBRATION_N_MAX, min(n_max, reach)))
    fixture = calibrate_offset(
        fixture, {n: v for n, v in values.items() if n <= CALIBRATION_N_MAX}
    )
    report = cross_check(fixture, {n: v for n, v in values.items() if n <= n_max})
    return report, last - fixture.offset


def fetch_remote(
    sequence_id: str,
    endpoint: str,
    cache_dir: str | Path | None = None,
    timeout: float = 30.0,
) -> SequenceFixture:
    """Fetch a b-file from an OEIS-format endpoint and cache it locally.

    The endpoint is a base URL, joined with the b-file name.  The raw text is
    parsed first and cached only on success, with a write-to-temp-then-rename
    so readers never see partial files.
    """
    # Imported here, for --fetch alone: the network stack would add tens of
    # milliseconds to every start of the command line.
    import tempfile
    import urllib.error
    import urllib.request

    url = endpoint.rstrip("/") + "/" + bfile_name(sequence_id)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, UnicodeDecodeError) as exc:
        raise NetworkError(f"fetching {url} failed: {exc}") from exc
    fixture = parse_bfile(text, sequence_id)
    directory = Path(cache_dir) if cache_dir is not None else default_fixtures_dir()
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / bfile_name(sequence_id)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, target)
    except OSError:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
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
    offset = _GENERATION_OFFSETS[sequence_id]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / bfile_name(sequence_id)
    lines = [f"# {sequence_id}: {description}, generated locally by partition_gf"]
    for n, value in values.items():
        lines.append(f"{n + offset} {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
