"""``tracks_to_tubes`` against trimming every column, compared with ``==``.

``tracks_to_tubes`` calls ``trim_path`` only on the (track, class) columns
that score above 0.5 somewhere; ``oracles.reference_tracks_to_tubes`` calls
it on every column. Segments, tube order and tube scores must all be equal
to the reference's, not merely close.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tubekit.datamodel import Track, TrackScores
from tubekit.geometry import TubeGeometry
from tubekit.linking import TrimParams, tracks_to_tubes, trim_path

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


def tracks_for(matrices, starts, videos):
    tracks, scores = [], {}
    for i, (m, start, video) in enumerate(zip(matrices, starts, videos)):
        boxes = [(t, 0, t + 10, 10) for t in range(len(m))]
        tracks.append(Track(video, f"k{i}", TubeGeometry(start, boxes)))
        scores[video, f"k{i}"] = TrackScores(video, f"k{i}", start, m)
    return tracks, scores


# Runs of exactly 0.5 tie the two labels at every step of them.
LOW_SCORES = st.lists(st.sampled_from([0.0, 0.5, 0.5]) | st.floats(0.0, 0.5), min_size=1,
                      max_size=24)


@given(LOW_SCORES, ALPHAS, st.integers(1, 26))
@example([0.5] * 6, 0.0, 1)
@example([0.5] * 6, math.inf, 1)
def test_scores_at_most_half_keep_no_segment(scores, alpha, min_segment_length):
    # build_tubes and tracks_to_tubes skip such paths and columns on this fact.
    assert trim_path(scores, TrimParams(alpha, min_segment_length)) == []


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


def test_column_just_above_half_is_trimmed():
    # Column 0's only score above 0.5 is the next float up, and trim_path keeps
    # it as a segment, so the live-column test must not drop the column.
    m = np.array([[0.5, 0.2], [np.nextafter(0.5, 1), 0.5], [0.5, 0.0]])
    tracks, scores = tracks_for([m], [0], ["v"])
    params = TrimParams(0.0, 1)
    tubes = tracks_to_tubes(tracks, scores, params)
    assert [(t.class_id, t.geometry.start_frame, len(t.geometry)) for t in tubes] == [(0, 1, 1)]
    assert tubes == reference_tracks_to_tubes(tracks, scores, params)


def test_tied_tubes_keep_track_input_order():
    # Both tracks start at frame 2 and keep class 0 from their first frame, so
    # their tubes tie on (video, class, start_frame); the shorter track comes
    # first in the input and must stay first.
    short = np.tile([0.9, 0.1], (3, 1))
    long = np.tile([0.9, 0.1], (8, 1))
    tracks, scores = tracks_for([short, long], [2, 2], ["v", "v"])
    params = TrimParams(alpha=1.0, min_segment_length=1)
    tubes = tracks_to_tubes(tracks, scores, params)
    assert [len(t.geometry) for t in tubes] == [3, 8]
    assert tubes == reference_tracks_to_tubes(tracks, scores, params)


def test_score_list_is_keyed_by_track():
    # A list of TrackScores, in any order, is matched to the tracks by
    # (video, track) and trims exactly as the dict form does.
    matrices = [np.tile([0.9, 0.1], (3, 1)), np.tile([0.2, 0.8], (4, 1))]
    tracks, scores = tracks_for(matrices, [0, 1], ["v", "w"])
    params = TrimParams(alpha=1.0, min_segment_length=1)
    tubes = tracks_to_tubes(tracks, list(scores.values())[::-1], params)
    assert [(t.video_id, t.class_id, t.geometry.start_frame) for t in tubes] == \
        [("v", 0, 0), ("w", 1, 1)]
    assert tubes == reference_tracks_to_tubes(tracks, scores, params)
