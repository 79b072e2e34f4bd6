"""Tube records are values: checked once by their constructor, then unchangeable.

``TubeGeometry``, ``GroundTruthTube``, ``Track``, ``ActionTube``,
``TrackScores`` and ``FrameDetections`` refuse field assignment;
``dataclasses.replace``, ``pickle`` and ``copy.deepcopy`` go back through the
public constructor, so a copy is checked and its arrays are read-only. Every
file saved from records the constructors accept loads again, and saving what
was loaded gives the same bytes.
"""

import copy
import dataclasses
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit.datamodel import (
    ActionTube,
    Detection,
    FrameDetections,
    GroundTruthTube,
    Track,
    TrackScores,
    load_action_tubes,
    load_detections,
    load_ground_truth,
    load_track_scores,
    load_tracks,
    save_action_tubes,
    save_detections,
    save_ground_truth,
    save_track_scores,
    save_tracks,
)
from tubekit.geometry import Box, TubeGeometry


def _geometry():
    return TubeGeometry(3, [(0, 0, 5, 5), (1, 1, 6, 6)])


def _records():
    geo = _geometry()
    return [
        geo,
        GroundTruthTube("v", "t", 1, geo),
        Track("v", "k", geo, [0.5, 1.0]),
        ActionTube("v", 2, geo, [0.5, 1.0]),
        TrackScores("v", "k", 3, np.array([[0.25, 0.5], [1.0, 0.0]])),
    ]


@pytest.mark.parametrize(
    "record", _records(), ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    for f in dataclasses.fields(record):
        before = getattr(record, f.name)
        with pytest.raises(AttributeError):
            setattr(record, f.name, before)
        with pytest.raises(AttributeError):
            delattr(record, f.name)
        assert getattr(record, f.name) is before


@pytest.mark.parametrize("record, changes, message", [
    (_geometry(), {"start_frame": -5}, "start frame must be >= 0, got -5"),
    (_geometry(), {"boxes": [(1, 0, 0, 1)]}, "tube box corners out of order"),
    (GroundTruthTube("v", "t", 1, _geometry()), {"class_id": 2.5},
     "class id must be an integer, got 2.5"),
    (Track("v", "k", _geometry()), {"box_scores": [0.5]}, "track 'k': 1 scores for 2 boxes"),
    (ActionTube("v", 2, TubeGeometry(0, [(0, 0, 1, 1)]), [0.5]), {"frame_scores": [7.0]},
     "frame score 7.0 outside [0, 1]"),
    (TrackScores("v", "k", 0, [[0.5]]), {"scores": [[2.0]]}, "track 'k': scores outside [0, 1]"),
], ids=["TubeGeometry.start_frame", "TubeGeometry.boxes", "GroundTruthTube", "Track",
        "ActionTube", "TrackScores"])
def test_replace_runs_the_checks_again(record, changes, message):
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(record, **changes)
    assert str(exc.value) == message


def _arrays(record):
    if isinstance(record, TubeGeometry):
        return [record.boxes]
    if isinstance(record, TrackScores):
        return [record.scores]
    return [record.geometry.boxes]


DUPLICATES = pytest.mark.parametrize("duplicate", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])


@DUPLICATES
@pytest.mark.parametrize("record", [
    _geometry(),
    TrackScores("v", "k", np.int64(3), np.array([[0.25, 0.5], [1.0, 0.0]])),
    GroundTruthTube("v", "t", 1, _geometry()),
], ids=["TubeGeometry", "TrackScores", "GroundTruthTube"])
def test_copies_are_equal_and_read_only(record, duplicate):
    twin = duplicate(record)
    assert twin == record and type(twin) is type(record)
    for array in _arrays(twin):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.5


@DUPLICATES
def test_frame_copies_are_equal_and_read_only(duplicate):
    fd = FrameDetections("v", 4, [Detection(Box(0, 0, 5, 5), 2, 0.5),
                                  Detection(Box(1, 1, 6, 6), 0, 1.0)])
    twin = duplicate(fd)
    assert twin == fd and type(twin) is FrameDetections
    for column in (twin.boxes, twin.class_ids, twin.scores):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0


FRAME_FIELDS = ("video_id", "frame", "boxes", "class_ids", "scores")


def test_no_frame_field_can_be_assigned_or_deleted(tmp_path):
    fd = FrameDetections("v", 4, [Detection(Box(0, 0, 5, 5), 2, 0.5)])
    save_detections([fd], tmp_path / "dets.ndjson")
    for frame in (fd, *load_detections(tmp_path / "dets.ndjson")):
        for name in FRAME_FIELDS:
            before = getattr(frame, name)
            with pytest.raises(AttributeError):
                setattr(frame, name, -5)
            with pytest.raises(AttributeError):
                delattr(frame, name)
            assert getattr(frame, name) is before
        assert frame == fd

def test_track_scores_of_mixed_class_counts_are_not_saved(tmp_path):
    path = tmp_path / "scores.ndjson"
    items = [TrackScores("v", "b", 0, [[0.5, 0.5, 0.0]]), TrackScores("v", "a", 0, [[0.5, 0.5]])]
    with pytest.raises(ValueError) as exc:
        save_track_scores(items, path)
    assert str(exc.value) == "track 'b' in video 'v' has 3 classes, expected 2"
    assert not path.exists()


def test_track_scores_compare_by_value():
    a = TrackScores("v", "k", 0, [[0.25, 0.5], [1.0, 0.0]])
    assert a == TrackScores("v", "k", 0, np.array([[0.25, 0.5], [1.0, 0.0]]))
    assert a != TrackScores("v", "k", 0, [[0.25, 0.5], [1.0, 0.5]])
    assert a != TrackScores("v", "k", 1, [[0.25, 0.5], [1.0, 0.0]])
    assert a != TrackScores("v", "j", 0, [[0.25, 0.5], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# frame numbers and ids


NOT_INTEGERS = [float("nan"), 2.5, 2.0, True, np.bool_(False), None, "2"]


@pytest.mark.parametrize("make", [
    lambda f: TubeGeometry(f, [(0, 0, 1, 1)]),
    lambda f: TrackScores("v", "k", f, [[0.5]]),
], ids=["TubeGeometry", "TrackScores"])
def test_start_frame_is_a_non_negative_integer(make):
    for frame in (0, 7, np.int64(7), np.uint8(7)):
        assert make(frame).start_frame == frame
    for frame in NOT_INTEGERS:
        with pytest.raises(ValueError) as exc:
            make(frame)
        assert str(exc.value) == f"start frame must be an integer, got {frame!r}"
    for frame in (-1, np.int64(-1)):
        with pytest.raises(ValueError) as exc:
            make(frame)
        assert str(exc.value) == "start frame must be >= 0, got -1"


def test_frame_detections_frame_is_a_non_negative_integer():
    for frame in (0, 7, np.int64(7)):
        assert FrameDetections("v", frame, []).frame == frame
    for frame in NOT_INTEGERS:
        with pytest.raises(ValueError) as exc:
            FrameDetections("v", frame, [])
        assert str(exc.value) == f"frame must be an integer, got {frame!r}"
    with pytest.raises(ValueError) as exc:
        FrameDetections("v", -1, [])
    assert str(exc.value) == "frame must be >= 0, got -1"


@pytest.mark.parametrize("make, what", [
    (lambda v: FrameDetections(v, 0, []), "video id"),
    (lambda v: GroundTruthTube(v, "t", 0, _geometry()), "video id"),
    (lambda v: GroundTruthTube("v", v, 0, _geometry()), "tube id"),
    (lambda v: Track(v, "k", _geometry()), "video id"),
    (lambda v: Track("v", v, _geometry()), "track id"),
    (lambda v: ActionTube(v, 0, _geometry(), [0.5, 0.5]), "video id"),
    (lambda v: TrackScores(v, "k", 0, [[0.5]]), "video id"),
    (lambda v: TrackScores("v", v, 0, [[0.5]]), "track id"),
], ids=["FrameDetections.video", "GroundTruthTube.video", "GroundTruthTube.tube",
        "Track.video", "Track.track", "ActionTube.video", "TrackScores.video",
        "TrackScores.track"])
def test_ids_are_non_empty_strings(make, what):
    make("x")
    for value in ("", None, 7, True, float("nan"), b"v"):
        with pytest.raises(ValueError) as exc:
            make(value)
        assert str(exc.value) == f"{what} must be a non-empty string, got {value!r}"
    with pytest.raises(ValueError) as exc:
        make(["v"] * 100)
    assert str(exc.value) == f"{what} must be a non-empty string, got a list of 100 items"


# ---------------------------------------------------------------------------
# files saved from accepted records load, and save the same bytes again


GRID = st.integers(-10**9, 10**9).map(lambda i: i / 10**6) | st.just(-0.0)
UNIT = st.integers(0, 10**6).map(lambda i: i / 10**6) | st.just(-0.0)
IDS = st.text(min_size=1, max_size=4)
FRAMES = st.integers(0, 10**12)
CLASSES = st.integers(0, 2**63 - 1)


@st.composite
def boxes(draw):
    x1, x2 = sorted(draw(st.lists(GRID, min_size=2, max_size=2)))
    y1, y2 = sorted(draw(st.lists(GRID, min_size=2, max_size=2)))
    return (x1, y1, x2, y2)


@st.composite
def geometries(draw):
    return TubeGeometry(draw(FRAMES), draw(st.lists(boxes(), min_size=1, max_size=4)))


def _scores(draw, n):
    return draw(st.lists(UNIT, min_size=n, max_size=n))


def keyed(make):
    """Records with distinct (video, id) keys, as every keyed file needs."""
    return st.lists(st.tuples(IDS, IDS), unique=True, max_size=3).flatmap(
        lambda keys: st.tuples(*[make(*key) for key in keys]).map(list))


@st.composite
def tracks(draw, video, track):
    geo = draw(geometries())
    return Track(video, track, geo, _scores(draw, len(geo)) if draw(st.booleans()) else None)


@st.composite
def action_tubes(draw):
    geo = draw(geometries())
    return ActionTube(draw(IDS), draw(CLASSES), geo, _scores(draw, len(geo)))


@st.composite
def frame_lists(draw):
    keys = draw(st.lists(st.tuples(IDS, FRAMES), unique=True, max_size=3))
    return [FrameDetections(video, frame, [
        Detection(Box(*draw(boxes())), draw(CLASSES), draw(UNIT))
        for _ in range(draw(st.integers(0, 3)))
    ]) for video, frame in keys]


@st.composite
def track_score_files(draw):
    # One class count per file: load_track_scores takes the width of the
    # first matrix as the file's, and save_track_scores refuses mixed counts.
    width = draw(st.integers(1, 3))

    def make(video, track):
        rows = st.lists(st.lists(UNIT, min_size=width, max_size=width), min_size=1,
                        max_size=3)
        return st.builds(TrackScores, st.just(video), st.just(track), FRAMES, rows)

    return draw(keyed(make))


FORMATS = {
    "ground truth": (
        keyed(lambda v, t: st.builds(GroundTruthTube, st.just(v), st.just(t), CLASSES,
                                      geometries())),
        save_ground_truth, load_ground_truth),
    "detections": (frame_lists(), save_detections, load_detections),
    "tracks": (keyed(tracks), save_tracks, load_tracks),
    "action tubes": (st.lists(action_tubes(), max_size=3), save_action_tubes,
                     load_action_tubes),
    "track scores": (track_score_files(), save_track_scores, load_track_scores),
}


@pytest.mark.parametrize("name", FORMATS)
def test_saved_records_load_and_save_the_same_bytes(name):
    strategy, save, load = FORMATS[name]

    @given(strategy)
    def check(records):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.ndjson", Path(tmp) / "second.ndjson"
            save(records, first)
            loaded = load(first)
            assert len(loaded) == len(records)
            save(loaded, second)
            assert second.read_bytes() == first.read_bytes()

    check()
