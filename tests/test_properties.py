"""Property tests: every route against the listed partitions, on random
specs with k <= 4 distances of at most 5 each and n <= 40."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from partition_gf.counting import count_specified, specified_table
from partition_gf.genfun import DistanceSpec, closed_form_specified, direct_series_specified
from reference import iter_specified


@functools.cache
def _brute_count(n, distances):
    return sum(1 for _ in iter_specified(n, distances))


@settings(max_examples=300, deadline=None)
@given(
    distances=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    n_max=st.integers(0, 40),
)
def test_every_route_matches_brute_force(distances, n_max):
    spec = DistanceSpec(distances)
    brute = [_brute_count(n, distances) for n in range(n_max + 1)]
    assert specified_table(spec, n_max) == brute
    if n_max >= 1:
        assert count_specified(n_max, distances) == brute[n_max]
    assert list(direct_series_specified(spec, n_max).coeffs) == brute
    if spec.has_closed_form:
        assert list(closed_form_specified(spec).expand(n_max).coeffs) == brute
