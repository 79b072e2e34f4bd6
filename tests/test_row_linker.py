"""The row linker against the Box-based linking it replaced, and the one scalar IoU.

``build_tubes`` links row indices of one per-video table and ``greedy_link``
wraps the same linker. ``oracles`` keeps the earlier ``greedy_link`` and
``build_tubes``, which built a ``Box`` per candidate and gated with
``iou2d``. Tubes and paths must be ``==`` to the reference's, and saved
tubes the same bytes. The scalar IoU must equal ``oracles._gate_iou`` and
``box_iou`` bit for bit.
"""

import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.datamodel import Detection, FrameDetections, save_action_tubes
from tubekit.geometry import Box, _tuple_iou, box_iou, iou2d
from tubekit.linking import LinkParams, TrimParams, build_tubes, greedy_link

from oracles import _gate_iou, reference_build_tubes, reference_greedy_link

# A few overlapping lanes, so that paths link, compete for boxes, bridge gaps
# and end on misses; (0, 0, 10, 10) against (0, 0, 10, 20) is exactly 0.5,
# and identical boxes are exactly 1.
LANES = st.sampled_from([(0.0, 0.0, 10.0, 10.0), (-0.0, 0.0, 10.0, 20.0), (2.0, 0.0, 12.0, 10.0),
                         (6.0, 0.0, 16.0, 10.0), (40.0, 40.0, 50.0, 50.0), (3.0, 3.0, 3.0, 9.0)])
# Few scores, so ties within a frame and between path means are common.
SCORES = st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.9, 1.0])
ENTRY = st.tuples(LANES, st.integers(0, 2), SCORES)
GATES = st.sampled_from([0.0, 0.1, 0.5, 1.0])
MISSES = st.sampled_from([0, 1, 2, 5, 60, 400, 1500, 2999, 3000, 10**6])
TRIMS = st.builds(TrimParams, st.sampled_from([0.0, 0.5, 3.0]), st.integers(1, 3))


def frame(video, t, entries):
    return FrameDetections(video, t, [Detection(Box(*b), c, s) for b, c, s in entries])


# Frames may repeat (the last copy counts) and come in any order.
FRAMES = st.lists(
    st.builds(frame, st.sampled_from(["a", "b", "c"]),
              st.integers(0, 20) | st.integers(0, 3000), st.lists(ENTRY, max_size=4)),
    max_size=14,
)

TWO_CLAIMS_ONE_BOX = [frame("a", 0, [((0, 0, 10, 10), 0, 0.5), ((0, 0, 10, 20), 0, 0.5)]),
                      frame("a", 1, [((0, 0, 10, 10), 0, 0.5)]),
                      frame("a", 1, [((0, 0, 10, 20), 0, 0.9), ((0, 0, 10, 10), 1, 0.2)]),
                      frame("a", 4, [((0, 0, 10, 10), 0, 0.5)])]


@given(FRAMES, GATES, MISSES, st.integers(1, 4), TRIMS)
@example(TWO_CLAIMS_ONE_BOX, 0.5, 2, 1, TrimParams(0.0, 1))
@example(TWO_CLAIMS_ONE_BOX, 1.0, 0, 1, TrimParams(0.0, 1))
@example([frame("a", 0, []), frame("a", 3000, [((0, 0, 10, 10), 2, 1.0)])], 0.0, 10**6, 1,
         TrimParams(0.0, 1))
def test_build_tubes_matches_reference(tmp_path_factory, frames, gate, max_misses, min_len,
                                       trim):
    link = LinkParams(gate, max_misses, min_len)
    got = build_tubes(frames, link, trim)
    expected = reference_build_tubes(frames, link, trim)
    assert got == expected
    tmp = tmp_path_factory.mktemp("tubes")
    save_action_tubes(got, tmp / "new.ndjson")
    save_action_tubes(expected, tmp / "ref.ndjson")
    assert (tmp / "new.ndjson").read_bytes() == (tmp / "ref.ndjson").read_bytes()


@given(FRAMES, GATES, MISSES, st.integers(1, 4))
@example(TWO_CLAIMS_ONE_BOX, 0.5, 2, 1)
def test_greedy_link_matches_reference(frames, gate, max_misses, min_len):
    link = LinkParams(gate, max_misses, min_len)
    video = [fd for fd in frames if fd.video_id == "a"]
    for class_id in (0, 1, 2, 3):
        got = greedy_link(video, class_id, link)
        assert got == reference_greedy_link(video, class_id, link)
        assert all(type(box) is Box for path in got for box in path.boxes)


def bits(value):
    return struct.pack("<d", value)


def linker_tuple(box):
    """The linker's candidate tuple for one box: its area comes from numpy."""
    with np.errstate(over="ignore", invalid="ignore"):
        (area,) = ((np.array([box.x2]) - box.x1) * (np.array([box.y2]) - box.y1)).tolist()
    return (0, box.x1, box.y1, box.x2, box.y2, area, 0.5)


COORD = (st.integers(-8, 8).map(float) | st.sampled_from([-0.0, 1e308, -1e308, 9e307])
         | st.floats(-1e3, 1e3, allow_nan=False))
EXTENT = st.sampled_from([0.0, 1.0, 4.0, 1e308]) | st.floats(0.0, 1e3, allow_nan=False)


@st.composite
def boxes(draw):
    x1, y1 = draw(COORD), draw(COORD)
    x2, y2 = x1 + draw(EXTENT), y1 + draw(EXTENT)
    return Box(x1, y1, min(x2, 1.7e308), min(y2, 1.7e308))


@given(boxes(), boxes())
@example(Box(-1e308, -1e308, 1e308, 1e308), Box(-1e308, -1e308, 1e308, 1e308))  # NaN union
@example(Box(-1e308, 0, 1e308, 1), Box(0, 0, 1e308, 1))                          # inf area
@example(Box(-0.0, -0.0, 2, 2), Box(0.0, 0.0, 2, 2))
@example(Box(0, 0, 2, 2), Box(2, 0, 4, 2))                                      # touching
@example(Box(0, -1e308, 2, 1e308), Box(2, -1e308, 4, 1e308))            # touching, inf height
@example(Box(0, 0, 3, 3), Box(0, 0, 3, 3))                                      # identical
@example(Box(0, 0, 0, 0), Box(0, 0, 0, 0))                                      # zero area
@example(Box(0, 0, 2, 0), Box(0, 0, 2, 2))
def test_scalar_iou_equals_references_bit_for_bit(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        array = box_iou([a.x1, a.y1, a.x2, a.y2], [b.x1, b.y1, b.x2, b.y2])
    expected = bits(_gate_iou(a, b))
    assert bits(float(array)) == expected
    assert bits(iou2d(a, b)) == expected
    assert bits(_tuple_iou(linker_tuple(a), linker_tuple(b))) == expected


def test_overflowed_union_is_nan_and_fails_every_gate():
    huge = Box(-1e308, -1e308, 1e308, 1e308)
    value = _tuple_iou(linker_tuple(huge), linker_tuple(huge))
    assert value != value
    frames = [frame("a", t, [((-1e308, -1e308, 1e308, 1e308), 0, 0.5)]) for t in range(3)]
    # Every pair's IoU is NaN, so no path claims and each box seeds its own.
    assert [len(p) for p in greedy_link(frames, 0, LinkParams(0.0, 5, 1))] == [1, 1, 1]
