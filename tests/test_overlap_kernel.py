"""The array overlap kernel and its call sites against their scalar references.

Every comparison is exact (``==``): the array paths must reproduce the
per-pair Python loops they replaced bit for bit, so no output moves.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.datamodel import Detection, FrameDetections, Track
from tubekit.filtering import filter_by_tracks
from tubekit.geometry import Box, TubeGeometry, box_iou, iou2d, st_iou
from tubekit.motion import motion_iou

from oracles import brute_st_iou

# Coordinates on a coarse grid make shared, touching and nested edges common;
# arbitrary floats cover the rest.
coord = st.integers(-8, 8).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
extent = st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 1e3, allow_nan=False)


@st.composite
def boxes(draw):
    x1, y1 = draw(coord), draw(coord)
    return Box(x1, y1, x1 + draw(extent), y1 + draw(extent))


def as_row(b):
    return (b.x1, b.y1, b.x2, b.y2)


@st.composite
def tubes(draw, max_len=30):
    start = draw(st.integers(0, 20))
    first = draw(boxes())
    steps = draw(st.lists(st.tuples(coord, coord), min_size=0, max_size=max_len - 1))
    rows = [as_row(first)]
    for dx, dy in steps:
        x1, y1, x2, y2 = rows[-1]
        rows.append((x1 + dx, y1 + dy, x2 + dx, y2 + dy))
    return TubeGeometry(start, rows)


class TestBoxIou:
    @given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=6))
    @example([Box(0, 0, 0, 0)], [Box(0, 0, 0, 0)])              # zero-area pair
    @example([Box(0, 0, 2, 0)], [Box(0, 0, 2, 2)])              # degenerate vs area
    @example([Box(0, 0, 2, 2)], [Box(2, 0, 4, 2)])              # touching edges
    @example([Box(0, 0, 2, 2)], [Box(2, 2, 4, 4)])              # touching corners
    @example([Box(0, 0, 8, 8)], [Box(2, 2, 4, 4)])              # nested
    @example([Box(0, 0, 1, 1)], [Box(5, 5, 6, 6)])              # disjoint
    @example([Box(0, 0, 3, 3)], [Box(0, 0, 3, 3)])              # identical
    def test_matrix_equals_iou2d(self, a, b):
        got = box_iou(np.array([as_row(x) for x in a])[:, None],
                      np.array([as_row(y) for y in b])[None, :])
        assert got.shape == (len(a), len(b))
        assert got.tolist() == [[iou2d(x, y) for y in b] for x in a]

    @given(boxes(), boxes())
    def test_scalar_pair_equals_iou2d(self, a, b):
        assert float(box_iou(as_row(a), as_row(b))) == iou2d(a, b)


def loop_motion_iou(tube, offsets):
    """The per-pair loop that motion_iou replaced, kept as its reference."""
    n = len(tube)
    per_offset = []
    used = []
    for d in offsets:
        if n <= d:
            continue
        total = 0.0
        count = n - d
        for t in range(count):
            total += iou2d(tube.box_at(tube.start_frame + t),
                           tube.box_at(tube.start_frame + t + d))
        per_offset.append(total / count)
        used.append(d)
    if not used:
        return 1.0, ()
    return sum(per_offset) / len(per_offset), tuple(used)


class TestMotionIou:
    @given(tubes(), st.lists(st.integers(1, 40), min_size=1, max_size=5))
    def test_equals_scalar_loop(self, tube, offsets):
        assert motion_iou(tube, offsets) == loop_motion_iou(tube, offsets)


class TestStIou:
    @given(tubes(), tubes())
    def test_equals_brute_oracle(self, a, b):
        want = brute_st_iou(a.start_frame, a.boxes.tolist(), b.start_frame, b.boxes.tolist())
        assert st_iou(a, b) == want

    @given(tubes())
    def test_self_overlap_of_shifted_copy(self, a):
        b = TubeGeometry(a.start_frame + 1, a.boxes)
        want = brute_st_iou(a.start_frame, a.boxes.tolist(), b.start_frame, b.boxes.tolist())
        assert st_iou(a, b) == want


def listcomp_filter(detections, tracks, match_iou, score_thresh):
    """The per-box list comprehension that filter_by_tracks replaced, kept as its reference."""
    track_boxes = {}
    for tr in tracks:
        geo = tr.geometry
        for i in range(len(geo)):
            frame = geo.start_frame + i
            track_boxes.setdefault((tr.video_id, frame), []).append(geo.box_at(frame))
    out = []
    for fd in detections:
        boxes_ = track_boxes.get((fd.video_id, fd.frame), ())
        kept = [
            d for d in fd.entries
            if d.score >= score_thresh and any(iou2d(d.box, b) >= match_iou for b in boxes_)
        ]
        out.append(FrameDetections(fd.video_id, fd.frame, kept))
    return out


VIDEOS = ("v0", "v1")
unit = st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def filter_cases(draw):
    tracks = []
    for k in range(draw(st.integers(0, 3))):
        tracks.append(Track(draw(st.sampled_from(VIDEOS)), f"t{k}", draw(tubes(max_len=6))))
    on_frame = {}
    for tr in tracks:
        for i, row in enumerate(tr.geometry.boxes.tolist()):
            on_frame.setdefault((tr.video_id, tr.geometry.start_frame + i), []).append(row)
    detections = []
    for video in VIDEOS:
        for frame in range(draw(st.integers(0, 12))):
            entries = []
            for _ in range(draw(st.integers(0, 3))):
                rows = on_frame.get((video, frame))
                # Copies of and nudges to track boxes make matches likely.
                if rows and draw(st.booleans()):
                    x1, y1, x2, y2 = draw(st.sampled_from(rows))
                    dx = draw(st.sampled_from([0.0, 0.5, 3.0]))
                    box = Box(x1 + dx, y1, x2 + dx, y2)
                else:
                    box = draw(boxes())
                entries.append(Detection(box, 0, draw(unit)))
            detections.append(FrameDetections(video, frame, entries))
    return detections, tracks, draw(unit), draw(unit)


class TestFilterByTracks:
    @given(filter_cases())
    def test_equals_list_comprehension(self, case):
        detections, tracks, match_iou, score_thresh = case
        got = filter_by_tracks(detections, tracks, match_iou, score_thresh)
        assert got == listcomp_filter(detections, tracks, match_iou, score_thresh)
