"""b-file parsing, pinned offsets, cross-checks, and the remote fetch."""

import functools
import http.server
import os
import random
import runpy
import signal
import threading
from pathlib import Path

import pytest

from partition_gf import counting, oeis
from partition_gf.cli import EXIT_OK, EXIT_VERIFY_FAIL, main
from partition_gf.errors import (
    EmptyOverlap,
    NetworkError,
    NotFound,
    ParseError,
)
from reference import cross_check as reference_cross_check

SHIPPED = sorted(oeis.KNOWN_SEQUENCES)


class TestParseBFile:
    def test_well_formed(self):
        fixture = oeis.parse_bfile("1 1\n2 2\n3 2\n", "A000005")
        assert fixture.entries == ((1, 1), (2, 2), (3, 2))

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1 1\n# middle\n2 2\n"
        fixture = oeis.parse_bfile(text, "A000005")
        assert fixture.entries == ((1, 1), (2, 2))

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            oeis.parse_bfile("1 1\n2\n", "A000005")

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            oeis.parse_bfile("1 x\n", "A000005")

    def test_non_monotone_indices(self):
        with pytest.raises(ParseError):
            oeis.parse_bfile("2 1\n1 1\n", "A000005")

    def test_repr(self):
        assert repr(oeis.parse_bfile("1 1\n", "A000005")) == (
            "SequenceFixture(id='A000005', entries=((1, 1),), offset=0)"
        )

    def test_empty(self):
        with pytest.raises(ParseError):
            oeis.parse_bfile("# nothing\n", "A000005")

    def test_bfile_name(self):
        assert oeis.bfile_name("A000005") == "b000005.txt"
        with pytest.raises(ValueError):
            oeis.bfile_name("000005")


class TestLoadFixture:
    def test_missing_raises_not_found(self, tmp_path):
        with pytest.raises(NotFound) as info:
            oeis.load_calibrated("A000005", tmp_path)
        assert str(info.value) == f"no fixture for A000005 at {tmp_path / 'b000005.txt'}"

    @pytest.mark.parametrize("make", [Path.mkdir, os.mkfifo], ids=["directory", "fifo"])
    def test_not_a_regular_file_is_not_found_and_never_opened(self, tmp_path, make):
        # Opening a FIFO with no writer blocks; the alarm turns a hang into a failure.
        make(tmp_path / "b000005.txt")

        def hung(signum, frame):
            raise TimeoutError("load_calibrated opened the FIFO")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(NotFound) as info:
                oeis.load_calibrated("A000005", tmp_path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(info.value) == f"no fixture for A000005 at {tmp_path / 'b000005.txt'}"

    def test_undecodable_fixture_is_parse_error(self, tmp_path):
        (tmp_path / "b000005.txt").write_bytes(b"# d(n)\n1 1\n2 2\n\xff\xfe 1\n")
        with pytest.raises(ParseError, match=r"^A000005 line 4: not UTF-8 at byte 15$"):
            oeis.load_calibrated("A000005", tmp_path)

    def test_no_path_object_is_built(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a Path")

        oeis.write_local_fixture("A000005", tmp_path, n_max=30)
        monkeypatch.setattr(oeis, "Path", refuse)
        assert len(oeis.load_calibrated("A000005", tmp_path).entries) == 30
        assert len(oeis.load_calibrated("A000005").entries) == 400

    def test_unknown_sequence_raises_not_found(self, tmp_path):
        (tmp_path / "b999999.txt").write_text("1 1\n", encoding="utf-8")
        with pytest.raises(NotFound, match="no offset pinned for A999999"):
            oeis.load_calibrated("A999999", tmp_path)

    @pytest.mark.parametrize("sequence_id", SHIPPED)
    def test_shipped_fixtures_load(self, sequence_id):
        fixture = oeis.load_calibrated(sequence_id)
        assert len(fixture.entries) >= 390

    def test_divisor_fixture_loads_at_zero(self):
        fixture = oeis.load_calibrated("A000005")
        assert fixture.offset == 0
        assert dict(fixture.entries)[12 + fixture.offset] == 6

    def test_difference_two_fixture_loads_at_minus_four(self):
        fixture = oeis.load_calibrated("A008805")
        assert fixture.offset == -4
        assert dict(fixture.entries)[8 + fixture.offset] == counting.count_specified(8, (2,))

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        # It is read at each call, after the argument and before the packaged data.
        oeis.write_local_fixture("A000005", tmp_path / "short", n_max=30)
        oeis.write_local_fixture("A000005", tmp_path / "long", n_max=50)
        monkeypatch.setenv("PARTITION_GF_FIXTURES", str(tmp_path / "short"))
        assert len(oeis.load_calibrated("A000005").entries) == 30
        monkeypatch.setenv("PARTITION_GF_FIXTURES", str(tmp_path / "long"))
        assert len(oeis.load_calibrated("A000005").entries) == 50
        assert len(oeis.load_calibrated("A000005", tmp_path / "short").entries) == 30  # the argument first
        monkeypatch.setenv("PARTITION_GF_FIXTURES", "")  # empty: the packaged data
        assert len(oeis.load_calibrated("A000005").entries) == 400
        monkeypatch.delenv("PARTITION_GF_FIXTURES")
        assert len(oeis.load_calibrated("A000005").entries) == 400


PER_N = {
    "A000005": counting.divisor_count,
    "A049820": lambda n: n - counting.divisor_count(n),
    "A008805": lambda n: counting.count_specified(n, (2,)),
    "A128508": lambda n: counting.count_specified(n, (3,)),
}


class TestOracles:
    @pytest.mark.parametrize("sequence_id", SHIPPED)
    def test_table_matches_per_n_definition(self, sequence_id):
        _, oracle, n_start = oeis.KNOWN_SEQUENCES[sequence_id]
        table = oracle(200)
        assert len(table) == 201
        assert table[n_start:] == [PER_N[sequence_id](n) for n in range(n_start, 201)]

    def test_oracle_values_cover_n_start_to_n_max(self):
        values = oeis.oracle_values("A128508", 30)
        assert list(values) == list(range(5, 31))
        assert values[12] == counting.count_specified(12, (3,))
        assert oeis.oracle_values("A128508", 4) == {}

    def test_unknown_sequence(self):
        with pytest.raises(NotFound):
            oeis.oracle_values("A999999", 10)


class TestCrossCheckKnown:
    def test_reports_the_last_covered_n(self):
        report, last_n = oeis.cross_check_known("A008805", None, 1200)
        assert report.ok and report.checked == 397
        assert last_n == 400

    def test_short_fixture_clips_the_range(self, tmp_path):
        oeis.write_local_fixture("A128508", tmp_path, n_max=80)
        report, last_n = oeis.cross_check_known("A128508", tmp_path, 300)
        assert (report.checked, last_n) == (76, 80)

    def test_oracle_table_stops_at_the_fixture(self, capsys, monkeypatch):
        # The table runs through min(n-max, the last n the fixture covers):
        # no further to reach a fixture that ends at n = 400, and no further
        # than n-max to line one up.
        description, oracle, first = oeis.KNOWN_SEQUENCES["A008805"]
        built = []

        def recording(n_max):
            built.append(n_max)
            return oracle(n_max)

        monkeypatch.setitem(oeis.KNOWN_SEQUENCES, "A008805", (description, recording, first))
        assert main(["oeis", "--id", "A008805", "--n-max", "450"]) == EXIT_OK
        assert main(["oeis", "--id", "A008805", "--n-max", "4"]) == EXIT_OK
        assert built == [400, 4]
        out = capsys.readouterr().out
        assert out == "A008805: 397 values compared, pass\nA008805: 1 values compared, pass\n"

    def test_fixture_below_n_zero_is_empty_overlap(self, tmp_path):
        (tmp_path / "b000005.txt").write_text("-5 1\n-4 2\n", encoding="utf-8")
        with pytest.raises(EmptyOverlap):
            oeis.cross_check_known("A000005", tmp_path, 100)


def shifted_copy(sequence_id, shift, directory):
    """Copy every shipped b-file into `directory`, with `sequence_id`'s
    indices all moved by `shift`."""
    for other in SHIPPED:
        text = (oeis.default_fixtures_dir() / oeis.bfile_name(other)).read_text(encoding="utf-8")
        if other == sequence_id:
            lines = [
                line if line.startswith("#") else f"{int(line.split()[0]) + shift} {line.split()[1]}"
                for line in text.splitlines()
            ]
            text = "\n".join(lines) + "\n"
        (directory / oeis.bfile_name(other)).write_text(text, encoding="utf-8")


class TestPinnedOffsets:
    """A b-file at another alignment than its pinned offset fails: the
    fixture cannot choose the alignment it is checked at."""

    SHIFTS = [("A128508", 1), ("A000005", -3)]

    @pytest.mark.parametrize("sequence_id,shift", SHIFTS)
    def test_oeis_command_fails_a_shifted_fixture(self, tmp_path, capsys, sequence_id, shift):
        shifted_copy(sequence_id, shift, tmp_path)
        argv = ["oeis", "--id", sequence_id, "--fixtures-dir", str(tmp_path), "--n-max", "400"]
        assert main(argv) == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        assert out.startswith(f"{sequence_id}: ") and "FAIL" in out

    @pytest.mark.parametrize("sequence_id,shift", SHIFTS)
    def test_verify_fails_only_the_shifted_fixture(self, tmp_path, capsys, sequence_id, shift):
        shifted_copy(sequence_id, shift, tmp_path)
        assert main(["verify", "--suite", "oeis", "--fixtures-dir", str(tmp_path)]) == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        assert f"FAIL oeis/{sequence_id}: {sequence_id}: " in out
        assert out.endswith("3/4 checks passed\n")


class TestUndecodableFixture:
    """A fixture that is not UTF-8 fails its own check with the sequence, line and byte named;
    `verify` still runs the other rows."""

    @pytest.fixture
    def fixtures_dir(self, tmp_path):
        shifted_copy("A000005", 0, tmp_path)
        path = tmp_path / "b000005.txt"
        text = path.read_bytes()
        path.write_bytes(text + b"\xff\xfe 1")
        line = text.count(b"\n") + 1
        return tmp_path, f"A000005 line {line}: not UTF-8 at byte {len(text)}"

    def test_oeis_command_names_it(self, fixtures_dir, capsys):
        directory, message = fixtures_dir
        assert main(["oeis", "--id", "A000005", "--n-max", "50", "--fixtures-dir", str(directory)]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_verify_fails_only_that_row(self, fixtures_dir, capsys):
        directory, message = fixtures_dir
        assert main(["verify", "--suite", "oeis", "--fixtures-dir", str(directory)]) == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        assert f"FAIL oeis/A000005: {message}\n" in out
        assert out.endswith("PASS oeis/A008805\nPASS oeis/A049820\nPASS oeis/A128508\n3/4 checks passed\n")


class TestCrossCheck:
    @pytest.mark.parametrize("sequence_id", SHIPPED)
    def test_shipped_fixtures_match_oracle(self, sequence_id):
        fixture = oeis.load_calibrated(sequence_id)
        computed = oeis.oracle_values(sequence_id, 400)
        report = oeis.cross_check(fixture, computed)
        assert report.ok
        assert report.checked >= 390

    def test_corrupted_value_yields_single_mismatch(self):
        fixture = oeis.load_calibrated("A000005")
        entries = list(fixture.entries)
        index = entries.index((40, counting.divisor_count(40)))
        entries[index] = (40, 999)
        corrupted = oeis.SequenceFixture("A000005", tuple(entries), fixture.offset)
        computed = {n: counting.divisor_count(n) for n in range(1, 101)}
        report = oeis.cross_check(corrupted, computed)
        assert not report.ok
        assert report.mismatches == ((40, 999, counting.divisor_count(40)),)

    @pytest.mark.parametrize("seed", range(40))
    def test_one_pass_matches_the_dict_reference(self, seed):
        # Fixtures with index gaps, negative and positive offsets, indices on both sides of the
        # computed range, and a few values off by one.
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(-20, 120), rng.randint(1, 60)))
        entries = tuple((index, rng.randint(0, 9)) for index in indices)
        offset = rng.randint(-6, 6)
        lo = rng.randint(-10, 100)
        computed = {n: dict(entries).get(n + offset, rng.randint(0, 9)) for n in range(lo, lo + rng.randint(1, 60))}
        for n in rng.sample(sorted(computed), min(3, len(computed))):
            computed[n] += 1
        checked, mismatches = reference_cross_check(entries, offset, computed)
        fixture = oeis.SequenceFixture("A000005", entries, offset)
        if checked == 0:
            with pytest.raises(EmptyOverlap):
                oeis.cross_check(fixture, computed)
        else:
            assert oeis.cross_check(fixture, computed) == ("A000005", checked, mismatches)

    def test_disjoint_ranges_raise(self):
        fixture = oeis.parse_bfile("1 1\n2 2\n", "A000005")
        with pytest.raises(EmptyOverlap):
            oeis.cross_check(fixture, {50: 6, 51: 4})


@pytest.fixture
def bfile_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("served")
    handler = functools.partial(
        http.server.SimpleHTTPRequestHandler, directory=str(root)
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield root, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join()


class TestFetchRemote:
    def test_fetch_then_load_round_trips(self, bfile_server, tmp_path):
        root, endpoint = bfile_server
        oeis.write_local_fixture("A000005", root, n_max=60)
        fetched = oeis.fetch_remote("A000005", endpoint, cache_dir=tmp_path)
        cached = oeis.load_calibrated("A000005", tmp_path)
        assert fetched == cached
        assert len(fetched.entries) == 60

    def test_truncated_body_is_parse_error(self, bfile_server, tmp_path):
        root, endpoint = bfile_server
        (root / "b000005.txt").write_text("1 1\n2 2\n3", encoding="utf-8")
        with pytest.raises(ParseError):
            oeis.fetch_remote("A000005", endpoint, cache_dir=tmp_path)
        assert not (tmp_path / "b000005.txt").exists()  # nothing cached on failure

    def test_unreachable_endpoint_is_network_error(self, tmp_path):
        with pytest.raises(NetworkError):
            oeis.fetch_remote("A000005", "http://127.0.0.1:1", cache_dir=tmp_path, timeout=2)

    def test_missing_file_is_network_error(self, bfile_server, tmp_path):
        _, endpoint = bfile_server
        with pytest.raises(NetworkError):
            oeis.fetch_remote("A128508", endpoint, cache_dir=tmp_path)

    def test_endpoint_is_always_a_base_url(self, bfile_server, tmp_path):
        # An endpoint naming one b-file is still joined with the requested
        # id's name, so another sequence's file is never cached under it.
        root, endpoint = bfile_server
        oeis.write_local_fixture("A008805", root, n_max=60)
        with pytest.raises(NetworkError, match="b008805.txt/b000005.txt"):
            oeis.fetch_remote("A000005", endpoint + "/b008805.txt", cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_fetched_and_written_files_get_one_mode(self, bfile_server, tmp_path):
        root, endpoint = bfile_server
        written = oeis.write_local_fixture("A000005", root, n_max=60)
        oeis.fetch_remote("A000005", endpoint, cache_dir=tmp_path)
        assert (tmp_path / written.name).stat().st_mode == written.stat().st_mode

    def test_failed_rename_leaves_no_file(self, bfile_server, tmp_path, monkeypatch):
        root, endpoint = bfile_server
        oeis.write_local_fixture("A000005", root, n_max=60)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(oeis.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            oeis.write_local_fixture("A000005", tmp_path / "written", n_max=60)
        with pytest.raises(OSError, match="rename refused"):
            oeis.fetch_remote("A000005", endpoint, cache_dir=tmp_path / "fetched")
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_cli_fetch_round_trip(self, bfile_server, tmp_path, capsys):
        root, endpoint = bfile_server
        served = oeis.write_local_fixture("A008805", root, n_max=80)
        cache = tmp_path / "cache"
        argv = ["oeis", "--id", "A008805", "--n-max", "80", "--fetch", endpoint]
        assert main(argv + ["--fixtures-dir", str(cache)]) == EXIT_OK
        assert capsys.readouterr().out == "A008805: 77 values compared, pass\n"
        assert (cache / served.name).read_bytes() == served.read_bytes()


class TestWriteLocalFixture:
    def test_provenance_comment(self, tmp_path):
        path = oeis.write_local_fixture("A049820", tmp_path, n_max=20)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("#")
        assert "generated locally" in first

    def test_unknown_sequence(self, tmp_path):
        with pytest.raises(NotFound):
            oeis.write_local_fixture("A999999", tmp_path)

    @pytest.mark.parametrize("sequence_id,first", [("A008805", 4), ("A128508", 5)])
    def test_n_max_below_first_n_writes_nothing(self, tmp_path, sequence_id, first):
        with pytest.raises(ValueError, match=rf"^{sequence_id}: n_max 3 is below the first n, {first}$"):
            oeis.write_local_fixture(sequence_id, tmp_path / "fixtures", n_max=3)
        assert list(tmp_path.iterdir()) == []


class TestMakeFixtures:
    @pytest.fixture
    def make_fixtures(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
        return runpy.run_path(str(script))["main"]

    def test_non_integer_n_max_exits_2_and_writes_nothing(self, make_fixtures, tmp_path, capsys):
        assert make_fixtures(["abc", str(tmp_path / "fx")]) == 2
        assert capsys.readouterr().err == (
            "usage: make_fixtures.py [n_max] [directory]; n_max 'abc' is not an integer\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_n_max_below_a_first_n_exits_2_and_writes_nothing(self, make_fixtures, tmp_path, capsys):
        assert make_fixtures(["3", str(tmp_path / "fx")]) == 2
        assert capsys.readouterr().err == "A008805: n_max 3 is below the first n, 4\n"
        assert list(tmp_path.iterdir()) == []

    def test_oracle_off_by_one_exits_1_and_writes_nothing(
        self, make_fixtures, tmp_path, capsys, monkeypatch
    ):
        def shifted(n_max):  # p(n+1, 2) at index n
            return counting.fixed_diff_table(2, n_max + 1)[1:]

        description, _, first = oeis.KNOWN_SEQUENCES["A008805"]
        monkeypatch.setitem(oeis.KNOWN_SEQUENCES, "A008805", (description, shifted, first))
        assert make_fixtures(["40", str(tmp_path / "fx")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("A008805: the oracle gives 3 at n = 5,")
        assert list(tmp_path.iterdir()) == []
