"""The batched trim DP against per-column ``trim_path``, compared with ``==``.

``tracks_to_tubes`` trims every (track, class) column of its input in one
pass over time; ``oracles.reference_tracks_to_tubes`` is the loop it replaced,
one scalar ``trim_path`` call per column. Segments, tube order and tube scores
must all be equal to the reference's, not merely close.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tubekit.datamodel import Track, TrackScores
from tubekit.geometry import TubeGeometry
from tubekit.linking import TrimParams, _trim_columns, tracks_to_tubes, trim_path

from oracles import reference_tracks_to_tubes

ALPHAS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, math.inf])


@st.composite
def score_matrix(draw):
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 4)))
    # Half the matrices draw from few distinct scores, so DP ties are common.
    if draw(st.booleans()):
        elements = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    else:
        elements = st.floats(0.0, 1.0)
    return draw(arrays(np.float64, shape, elements=elements))


@st.composite
def trim_cases(draw):
    matrices = draw(st.lists(score_matrix(), min_size=1, max_size=6))
    longest = max(len(m) for m in matrices)
    params = TrimParams(draw(ALPHAS), draw(st.integers(1, longest + 2)))
    return matrices, params


def per_column(matrices, params):
    return [(i, c, s, e) for i, m in enumerate(matrices) for c in range(m.shape[1])
            for s, e in trim_path(m[:, c], params)]


def tracks_for(matrices, starts, videos):
    tracks, scores = [], {}
    for i, (m, start, video) in enumerate(zip(matrices, starts, videos)):
        boxes = [(t, 0, t + 10, 10) for t in range(len(m))]
        tracks.append(Track(video, f"k{i}", TubeGeometry(start, boxes)))
        scores[video, f"k{i}"] = TrackScores(video, f"k{i}", start, m)
    return tracks, scores


@given(trim_cases())
def test_batched_dp_matches_per_column_trim_path(case):
    matrices, params = case
    assert _trim_columns(matrices, params) == per_column(matrices, params)


@given(trim_cases(), st.data())
def test_tracks_to_tubes_matches_reference(case, data):
    matrices, params = case
    n = len(matrices)
    # Two videos and few start frames, so tubes often tie on the final sort key.
    starts = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    videos = data.draw(st.lists(st.sampled_from(["v0", "v1"]), min_size=n, max_size=n))
    tracks, scores = tracks_for(matrices, starts, videos)
    assert tracks_to_tubes(tracks, scores, params) == \
        reference_tracks_to_tubes(tracks, scores, params)


def test_tied_tubes_keep_track_input_order():
    # Both tracks start at frame 2 and keep class 0 from their first frame, so
    # their tubes tie on (video, class, start_frame); the shorter track comes
    # first in the input and must stay first, though the DP visits it second.
    short = np.tile([0.9, 0.1], (3, 1))
    long = np.tile([0.9, 0.1], (8, 1))
    tracks, scores = tracks_for([short, long], [2, 2], ["v", "v"])
    params = TrimParams(alpha=1.0, min_segment_length=1)
    tubes = tracks_to_tubes(tracks, scores, params)
    assert [len(t.geometry) for t in tubes] == [3, 8]
    assert tubes == reference_tracks_to_tubes(tracks, scores, params)


def test_one_long_track_does_not_pad_the_short_ones():
    # Padding every column to the longest track would take about 4 GB here.
    rng = np.random.default_rng(58)
    classes = 24
    matrices = [rng.uniform(0, 1, (20_000, classes))]
    matrices += [rng.uniform(0, 1, (2, classes)) for _ in range(500)]
    real_bytes = sum(m.size for m in matrices) * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        _trim_columns(matrices, TrimParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * real_bytes
