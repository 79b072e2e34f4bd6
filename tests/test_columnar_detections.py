"""Column-held frame detections against the Detection-list code they replaced.

``FrameDetections`` keeps box, class and score arrays; loading, filtering and
saving work on those arrays. ``oracles`` keeps the earlier load, filter and
save, which built and walked a Detection per row. Loaded and filtered frames
must be ``==`` to the reference's, entries included, and saved files must be
the same bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.datamodel import (
    Detection,
    FileFormatError,
    FrameDetections,
    Track,
    builtin_config,
    load_detections,
    save_detections,
)
from tubekit.filtering import filter_by_tracks
from tubekit.geometry import Box, TubeGeometry

from oracles import (
    reference_filter_by_tracks,
    reference_load_detections,
    reference_save_detections,
)

# Few coordinates, so IoUs land exactly on the match thresholds: (0, 0, 10, 10)
# against (0, 0, 10, 20) is 0.5.
COORDS = st.sampled_from([-0.0, 0.0, 5.0, 10.0, 20.0, 2.5e-7])
CLASSES = st.sampled_from([0, 1, 23, 2**53 + 1, 2**63 - 1])
SCORES = st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
MATCH_IOUS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
SCORE_THRESHOLDS = st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0])
VIDEOS = st.sampled_from(["a", "b", "c"])


@st.composite
def boxes(draw):
    x1, x2 = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)))
    y1, y2 = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)))
    return (x1, y1, x2, y2)


@st.composite
def frame_lists(draw):
    """Frames of up to two videos in any order; some hold no detection."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 5)),
                         unique=True, max_size=6))
    return [
        FrameDetections(video, frame, [
            Detection(Box(*draw(boxes())), draw(CLASSES), draw(SCORES))
            for _ in range(draw(st.integers(0, 3)))
        ])
        for video, frame in keys
    ]


@st.composite
def track_lists(draw):
    """Tracks over videos and frames that may or may not hold detections."""
    return [
        Track(draw(VIDEOS), f"k{i}", TubeGeometry(draw(st.integers(0, 5)),
                                                  draw(st.lists(boxes(), min_size=1,
                                                                max_size=4))))
        for i in range(draw(st.integers(0, 4)))
    ]


def _det(box, class_id, score):
    return Detection(Box(*box), class_id, score)


# The last frame holds no detection, and a video has no track.
EMPTY_LAST = [
    FrameDetections("a", 0, [_det((0.0, 0.0, 10.0, 10.0), 1, 0.5)]),
    FrameDetections("b", 3, [_det((0.0, -0.0, 5.0, 5.0), 0, 0.05)]),
    FrameDetections("b", 4, []),
]
# Score exactly at the threshold, IoU exactly at match_iou.
ON_THE_LINE = [FrameDetections("a", 1, [_det((0.0, 0.0, 10.0, 10.0), 2, 0.05),
                                        _det((0.0, 0.0, 10.0, 10.0), 2, 0.0499)])]
TRACK_AT_HALF = [Track("a", "k", TubeGeometry(1, [(0.0, 0.0, 10.0, 20.0)]))]


def _assert_columns(frames):
    for fd in frames:
        n = len(fd.entries)
        for arr, dtype, shape in ((fd.boxes, np.float64, (n, 4)),
                                  (fd.class_ids, np.int64, (n,)),
                                  (fd.scores, np.float64, (n,))):
            assert arr.dtype == dtype and arr.shape == shape and not arr.flags.writeable
        assert type(fd.entries) is tuple
        assert fd.boxes.tolist() == [[d.box.x1, d.box.y1, d.box.x2, d.box.y2]
                                     for d in fd.entries]
        assert fd.class_ids.tolist() == [d.class_id for d in fd.entries]
        assert fd.scores.tolist() == [d.score for d in fd.entries]


@given(frame_lists())
@example(EMPTY_LAST)
@example(list(reversed(EMPTY_LAST)))
@example([])
def test_save_and_load_match_reference(tmp_path_factory, frames):
    tmp = tmp_path_factory.mktemp("io")
    save_detections(frames, tmp / "new.ndjson")
    reference_save_detections(frames, tmp / "ref.ndjson")
    assert (tmp / "new.ndjson").read_bytes() == (tmp / "ref.ndjson").read_bytes()

    loaded = load_detections(tmp / "new.ndjson")
    expected = reference_load_detections(tmp / "ref.ndjson")
    assert loaded == expected
    assert [fd.entries for fd in loaded] == [fd.entries for fd in expected]
    _assert_columns(loaded)
    for config in (builtin_config("ucf24"), builtin_config("multisports")):
        try:
            outcome = load_detections(tmp / "new.ndjson", config)
        except FileFormatError as exc:
            outcome = str(exc).replace("new.ndjson", "ref.ndjson")
        try:
            reference = reference_load_detections(tmp / "ref.ndjson", config)
        except FileFormatError as exc:
            reference = str(exc)
        assert outcome == reference


@given(frame_lists(), track_lists(), MATCH_IOUS, SCORE_THRESHOLDS)
@example(EMPTY_LAST, [], 0.5, 0.05)
@example(EMPTY_LAST, TRACK_AT_HALF, 0.0, 0.0)
@example(ON_THE_LINE, TRACK_AT_HALF, 0.5, 0.05)
@example([], TRACK_AT_HALF, 0.5, 0.05)
def test_filter_matches_reference(tmp_path_factory, frames, tracks, match_iou, score_thresh):
    tmp = tmp_path_factory.mktemp("filter")
    save_detections(frames, tmp / "in.ndjson")
    for given_frames in (frames, load_detections(tmp / "in.ndjson")):
        kept = filter_by_tracks(given_frames, tracks, match_iou, score_thresh)
        expected = reference_filter_by_tracks(given_frames, tracks, match_iou, score_thresh)
        assert kept == expected
        assert [fd.entries for fd in kept] == [fd.entries for fd in expected]
        _assert_columns(kept)
        save_detections(kept, tmp / "new.ndjson")
        reference_save_detections(expected, tmp / "ref.ndjson")
        assert (tmp / "new.ndjson").read_bytes() == (tmp / "ref.ndjson").read_bytes()


def test_filter_repeated_frame_matches_reference():
    # One key's detections over two in-memory frames; the loader refuses a
    # repeated frame, so this case cannot go through a file.
    frames = [FrameDetections("a", 1, [_det((0.0, 0.0, 10.0, 20.0), 0, 0.5),
                                       _det((5.0, 5.0, 20.0, 20.0), 1, 0.25)]),
              FrameDetections("a", 2, []),
              FrameDetections("a", 1, [_det((0.0, 0.0, 10.0, 10.0), 2, 0.05),
                                       _det((0.0, 0.0, 10.0, 10.0), 2, 0.0499)])]
    tracks = TRACK_AT_HALF + [Track("a", "j", TubeGeometry(0, [(5.0, 5.0, 20.0, 20.0)] * 2))]
    kept = filter_by_tracks(frames, tracks, 0.5, 0.05)
    expected = reference_filter_by_tracks(frames, tracks, 0.5, 0.05)
    assert kept == expected
    assert [len(fd.entries) for fd in kept] == [2, 0, 1]
    _assert_columns(kept)


def test_on_the_line_kept():
    (fd,) = filter_by_tracks(ON_THE_LINE, TRACK_AT_HALF, 0.5, 0.05)
    assert [d.score for d in fd.entries] == [0.05]


def test_negative_zero_written_as_zero(tmp_path):
    save_detections(EMPTY_LAST, tmp_path / "det.ndjson")
    text = (tmp_path / "det.ndjson").read_text()
    assert "-0.000000" not in text
    assert '"dets":[[0.000000,0.000000,5.000000,5.000000,0,0.050000]]' in text


def test_frame_equality_repr_and_hash():
    fd = FrameDetections("a", 0, [_det((0.0, 0.0, 1.0, 1.0), 3, 0.5)])
    same = FrameDetections("a", 0, [_det((0.0, 0.0, 1.0, 1.0), 3, 0.5)])
    assert fd == same and fd != FrameDetections("a", 1, same.entries)
    assert repr(fd) == ("FrameDetections(video_id='a', frame=0, entries=(Detection("
                        "box=Box(x1=0.0, y1=0.0, x2=1.0, y2=1.0), class_id=3, score=0.5),))")
    with pytest.raises(TypeError):
        hash(fd)
    with pytest.raises(ValueError, match="frame must be >= 0"):
        FrameDetections("a", -1, [])
