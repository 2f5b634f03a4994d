"""b-file parsing, offset calibration, cross-checks, and the remote fetch."""

import functools
import http.server
import threading

import pytest

from partition_gf import counting, oeis
from partition_gf.errors import (
    CalibrationError,
    EmptyOverlap,
    NetworkError,
    NotFound,
    ParseError,
)

SHIPPED = sorted(oeis.KNOWN_SEQUENCES)


def calibrated(sequence_id):
    return oeis.calibrate_offset(
        oeis.load_fixture(sequence_id),
        oeis.oracle_values(sequence_id, oeis.CALIBRATION_N_MAX),
    )


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

    def test_empty(self):
        with pytest.raises(ParseError):
            oeis.parse_bfile("# nothing\n", "A000005")

    def test_bfile_name(self):
        assert oeis.bfile_name("A000005") == "b000005.txt"
        with pytest.raises(ValueError):
            oeis.bfile_name("000005")


class TestLoadFixture:
    def test_missing_raises_not_found(self, tmp_path):
        with pytest.raises(NotFound):
            oeis.load_fixture("A000005", tmp_path)

    @pytest.mark.parametrize("sequence_id", SHIPPED)
    def test_shipped_fixtures_load(self, sequence_id):
        fixture = oeis.load_fixture(sequence_id)
        assert len(fixture.entries) >= 390

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        oeis.write_local_fixture("A000005", tmp_path, n_max=30)
        monkeypatch.setenv("PARTITION_GF_FIXTURES", str(tmp_path))
        fixture = oeis.load_fixture("A000005")
        assert len(fixture.entries) == 30


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


class TestCalibration:
    def test_divisor_fixture_aligns_at_zero(self):
        fixture = calibrated("A000005")
        assert fixture.offset == 0
        assert dict(fixture.entries)[12 + fixture.offset] == 6

    def test_difference_two_fixture_needs_shift(self):
        fixture = calibrated("A008805")
        assert fixture.offset == -4
        assert dict(fixture.entries)[8 + fixture.offset] == counting.count_specified(8, (2,))

    def test_no_alignment_raises(self):
        fixture = oeis.parse_bfile("1 10\n2 20\n3 30\n", "A000005")
        with pytest.raises(CalibrationError):
            oeis.calibrate_offset(fixture, {n: n * n for n in range(1, 20)})

    @staticmethod
    def _blocks(*blocks):
        # Each (offset, ns) block holds fixture[n + offset] = n for n in ns.
        entries = sorted((n + offset, n) for offset, ns in blocks for n in ns)
        return oeis.SequenceFixture("A000005", tuple(entries))

    def test_more_matches_wins_over_smaller_offset(self):
        fixture = self._blocks((-1, range(1, 13)), (999, range(1, 21)))
        calibrated = oeis.calibrate_offset(fixture, {n: n for n in range(1, 31)})
        assert calibrated.offset == 999
        assert calibrated.entries == fixture.entries

    def test_equal_matches_smaller_offset_wins(self):
        # The |offset| = 40 candidate is scanned first; the tie still goes to 5.
        fixture = self._blocks((-40, range(41, 53)), (5, range(41, 53)))
        calibrated = oeis.calibrate_offset(fixture, {n: n for n in range(41, 61)})
        assert calibrated.offset == 5

    def test_one_disagreement_rejects_a_long_run(self):
        entries = [(i, 999 if i == 25 else i) for i in range(1, 31)]
        entries += [(n + 199, n) for n in range(1, 13)]
        fixture = oeis.SequenceFixture("A000005", tuple(entries))
        reference = {n: n for n in range(1, 31)}
        assert oeis.calibrate_offset(fixture, reference).offset == 199
        alone = oeis.SequenceFixture("A000005", tuple(entries[:30]))
        with pytest.raises(CalibrationError):
            oeis.calibrate_offset(alone, reference)


class TestCrossCheck:
    @pytest.mark.parametrize("sequence_id", SHIPPED)
    def test_shipped_fixtures_match_oracle(self, sequence_id):
        fixture = calibrated(sequence_id)
        computed = oeis.oracle_values(sequence_id, 200)
        report = oeis.cross_check(fixture, computed)
        assert report.ok
        assert report.checked >= 190

    def test_corrupted_value_yields_single_mismatch(self):
        fixture = calibrated("A000005")
        entries = list(fixture.entries)
        index = entries.index((40, counting.divisor_count(40)))
        entries[index] = (40, 999)
        corrupted = oeis.SequenceFixture("A000005", tuple(entries), fixture.offset)
        computed = {n: counting.divisor_count(n) for n in range(1, 101)}
        report = oeis.cross_check(corrupted, computed)
        assert not report.ok
        assert report.mismatches == ((40, 999, counting.divisor_count(40)),)

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
        cached = oeis.load_fixture("A000005", tmp_path)
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
