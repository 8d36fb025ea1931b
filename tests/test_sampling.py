"""Tests for the seeded sampling stream."""

from itertools import islice

import pytest

from algbilliards.phase import phase_point_json
from algbilliards.sampling import phase_point_stream, sample_phase_points


def _json(states):
    return [phase_point_json(x) for x in states]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
def test_a_shorter_sample_is_a_prefix_of_a_longer_one(request, name, seed):
    # confine draws its starts lazily from the stream; its output stays the
    # same only because every sample is a prefix of the one stream
    curve = request.getfixturevalue(name)
    longest = _json(sample_phase_points(curve, 6, seed))
    assert len(longest) == 6
    for k in range(6):
        assert _json(sample_phase_points(curve, k, seed)) == longest[:k]
    assert _json(islice(phase_point_stream(curve, seed), 6)) == longest
