"""The evaluation engine against the dataclass engine it replaced, compared with ``==``.

The engine ranks every detection once, runs the greedy claim loop over the
pairs above the threshold only, and reads AP, the PR curves and the per-motion
breakdown from rank-ordered arrays. ``oracles.reference_evaluate`` is an
earlier per-detection engine, which re-ranked every list through
``average_precision``. Every report field, every float included, must be equal
to the reference's, not merely close.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit.datamodel import ActionTube, Detection, FrameDetections, GroundTruthTube
from tubekit.geometry import Box, TubeGeometry
from tubekit.metrics import average_precision, evaluate_frames, evaluate_videos
from tubekit.motion import MotionCategory, MotionLabel

from oracles import reference_average_precision, reference_evaluate

VIDEOS = st.sampled_from(["v0", "v1"])
CLASSES = st.integers(0, 2)
# Few distinct scores, so ties in the ranking are common.
SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
THRESHOLDS = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])
CATEGORIES = st.sampled_from(list(MotionCategory))


@st.composite
def boxes(draw):
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return (float(x), float(y), float(x + draw(st.integers(1, 4))),
            float(y + draw(st.integers(1, 4))))


@st.composite
def gt_tubes(draw):
    gts = []
    for i in range(draw(st.integers(0, 5))):
        geometry = TubeGeometry(draw(st.integers(0, 3)),
                                draw(st.lists(boxes(), min_size=1, max_size=3)))
        gts.append(GroundTruthTube(draw(VIDEOS), f"t{i}", draw(CLASSES), geometry))
    return gts


def shifted(box, dx):
    x1, y1, x2, y2 = box
    return (float(x1 + dx), float(y1), float(x2 + dx), float(y2))


@st.composite
def frame_instances(draw):
    gts = draw(gt_tubes())
    by_frame = {}
    for _ in range(draw(st.integers(0, 12))):
        if gts and draw(st.booleans()):
            # near a ground-truth box, often of its class
            g = draw(st.sampled_from(gts))
            k = draw(st.integers(0, len(g.geometry) - 1))
            key = (g.video_id, g.geometry.start_frame + k)
            box = shifted(g.geometry.boxes[k], draw(st.integers(0, 1)))
            cls = g.class_id if draw(st.booleans()) else draw(CLASSES)
        else:
            key = (draw(VIDEOS), draw(st.integers(0, 5)))
            box, cls = draw(boxes()), draw(CLASSES)
        by_frame.setdefault(key, []).append(Detection(Box(*box), cls, draw(SCORES)))
    dets = []
    for (v, f), entries in by_frame.items():
        # sometimes one key's detections are split over two frames
        cut = draw(st.integers(0, len(entries))) if draw(st.booleans()) else len(entries)
        dets.append(FrameDetections(v, f, entries[:cut]))
        if cut < len(entries):
            dets.append(FrameDetections(v, f, entries[cut:]))
    if draw(st.booleans()):  # and a frame may hold no detection
        dets.insert(draw(st.integers(0, len(dets))),
                    FrameDetections(draw(VIDEOS), draw(st.integers(0, 5)), []))
    return dets, gts


@st.composite
def video_instances(draw):
    gts = draw(gt_tubes())
    tubes = []
    for _ in range(draw(st.integers(0, 8))):
        if gts and draw(st.booleans()):
            g = draw(st.sampled_from(gts))
            video = g.video_id
            start = g.geometry.start_frame + draw(st.integers(-1, 1))
            dx = draw(st.integers(0, 1))
            bxs = [shifted(b, dx) for b in g.geometry.boxes]
            cls = g.class_id if draw(st.booleans()) else draw(CLASSES)
        else:
            video, start, cls = draw(VIDEOS), draw(st.integers(0, 3)), draw(CLASSES)
            bxs = draw(st.lists(boxes(), min_size=1, max_size=3))
        # dyadic scores: the mean of equal frame scores is the score itself
        score = draw(SCORES)
        tubes.append(ActionTube(video, cls, TubeGeometry(max(start, 0), bxs),
                                [score] * len(bxs)))
    return tubes, gts


def labels_for(gts, categories):
    return {g.key: MotionLabel(0.5, cat, (4,)) for g, cat in zip(gts, categories)}


def assert_same(report, ref):
    assert report.per_class_ap == ref.per_class_ap
    assert report.mean_ap == ref.mean_ap
    assert report.num_positives == ref.num_positives
    assert report.pr_curves == ref.pr_curves
    assert report.per_motion == ref.per_motion
    # repr also pins dict order and tells apart floats that == cannot (-0.0, 0.0)
    assert repr(report) == repr(ref)


def check_both_ways(level, dets_or_tubes, gts, thresh, categories):
    evaluate = evaluate_frames if level == "frame" else evaluate_videos
    assert_same(evaluate(dets_or_tubes, gts, thresh),
                reference_evaluate(level, dets_or_tubes, gts, thresh))
    labels = labels_for(gts, categories)
    report = evaluate(dets_or_tubes, gts, thresh, labels)
    assert_same(report, reference_evaluate(level, dets_or_tubes, gts, thresh, labels))
    return report


class TestAgainstReferenceEngine:
    @given(frame_instances(), THRESHOLDS, st.lists(CATEGORIES, min_size=5, max_size=5))
    def test_frames(self, instance, thresh, categories):
        dets, gts = instance
        check_both_ways("frame", dets, gts, thresh, categories)

    @given(video_instances(), THRESHOLDS, st.lists(CATEGORIES, min_size=5, max_size=5))
    def test_videos(self, instance, thresh, categories):
        tubes, gts = instance
        check_both_ways("video", tubes, gts, thresh, categories)


def gt(video, tube, cls, start, bxs):
    return GroundTruthTube(video, tube, cls, TubeGeometry(start, bxs))


def frame(video, f, *entries):
    return FrameDetections(video, f, [Detection(Box(*b), c, s) for b, c, s in entries])


def tube(video, cls, start, bxs, score):
    return ActionTube(video, cls, TubeGeometry(start, bxs), [score] * len(bxs))


A = (0.0, 0.0, 4.0, 4.0)
B = (10.0, 10.0, 14.0, 14.0)
FAR = (30.0, 30.0, 34.0, 34.0)
SMALL, MEDIUM, LARGE = MotionCategory.SMALL, MotionCategory.MEDIUM, MotionCategory.LARGE


class TestNamedCases:
    def test_tied_scores(self):
        # Three detections at one score: input order decides who is ranked
        # first and takes the ground truth.
        gts = [gt("v", "a", 0, 0, [A]), gt("v", "b", 0, 0, [B])]
        dets = [frame("v", 0, (FAR, 0, 0.5), (A, 0, 0.5), (A, 0, 0.5), (B, 0, 0.5))]
        report = check_both_ways("frame", dets, gts, 0.5, [SMALL, LARGE])
        assert report.pr_curves[0].precisions == [0.0, 0.5, 1 / 3, 0.5]
        tubes = [tube("v", 0, 0, [FAR], 0.5), tube("v", 0, 0, [A], 0.5),
                 tube("v", 0, 0, [B], 0.5), tube("v", 0, 0, [A], 0.5)]
        check_both_ways("video", tubes, gts, 0.5, [SMALL, LARGE])

    def test_class_with_ground_truth_and_no_detections(self):
        gts = [gt("v", "a", 0, 0, [A]), gt("v", "b", 1, 0, [B])]
        dets = [frame("v", 0, (A, 0, 0.75))]
        report = check_both_ways("frame", dets, gts, 0.5, [SMALL, SMALL])
        assert report.per_class_ap[1] == 0.0
        assert report.pr_curves[1].recalls == []
        check_both_ways("video", [tube("v", 0, 0, [A], 0.75)], gts, 0.5, [SMALL, SMALL])

    def test_detections_of_a_class_with_no_ground_truth(self):
        gts = [gt("v", "a", 0, 0, [A])]
        dets = [frame("v", 0, (A, 2, 1.0), (A, 0, 0.25))]
        report = check_both_ways("frame", dets, gts, 0.5, [MEDIUM])
        assert 2 not in report.per_class_ap and report.num_positives[2] == 0
        tubes = [tube("v", 2, 0, [A], 1.0), tube("v", 0, 0, [A], 0.25)]
        check_both_ways("video", tubes, gts, 0.5, [MEDIUM])

    def test_motion_category_with_no_positives(self):
        gts = [gt("v", "a", 0, 0, [A]), gt("v", "b", 1, 0, [B])]
        dets = [frame("v", 0, (A, 0, 0.5), (B, 1, 0.25), (FAR, 1, 0.75))]
        report = check_both_ways("frame", dets, gts, 0.5, [SMALL, SMALL])
        large = report.per_motion[LARGE]
        assert (large.num_positives, large.pooled_ap, large.mean_ap) == (0, None, None)
        tubes = [tube("v", 0, 0, [A], 0.5), tube("v", 1, 0, [B], 0.25)]
        check_both_ways("video", tubes, gts, 0.5, [SMALL, SMALL])

    def test_tied_overlaps_go_to_the_lower_gt_index(self):
        # The detection overlaps A and its mirror C by 1/3 each: the GT listed
        # first takes it, whichever box that is.
        C = (4.0, 0.0, 8.0, 4.0)
        D = (2.0, 0.0, 6.0, 4.0)
        for first, second in ((A, C), (C, A)):
            gts = [gt("v", "a", 0, 0, [first]), gt("v", "b", 0, 0, [second])]
            report = check_both_ways("frame", [frame("v", 0, (D, 0, 0.5))], gts, 0.2,
                                     [SMALL, LARGE])
            assert report.per_motion[SMALL].pooled_ap == 1.0
            assert report.per_motion[LARGE].pooled_ap == 0.0
            report = check_both_ways("video", [tube("v", 0, 0, [D], 0.5)], gts, 0.2,
                                     [SMALL, LARGE])
            assert report.per_motion[SMALL].pooled_ap == 1.0
            assert report.per_motion[LARGE].pooled_ap == 0.0

    def test_taken_gt_is_skipped_for_the_next_best(self):
        # The second detection overlaps A by 0.6 and C by 1/7; A is taken by
        # the first, so the second takes C.
        C = (4.0, 0.0, 8.0, 4.0)
        D = (1.0, 0.0, 5.0, 4.0)
        gts = [gt("v", "a", 0, 0, [A]), gt("v", "c", 0, 0, [C])]
        dets = [frame("v", 0, (D, 0, 0.5), (A, 0, 0.75))]
        report = check_both_ways("frame", dets, gts, 0.1, [SMALL, LARGE])
        assert report.pr_curves[0].precisions == [1.0, 1.0]
        assert report.per_motion[LARGE].pooled_ap == 1.0
        tubes = [tube("v", 0, 0, [D], 0.5), tube("v", 0, 0, [A], 0.75)]
        report = check_both_ways("video", tubes, gts, 0.1, [SMALL, LARGE])
        assert report.pr_curves[0].precisions == [1.0, 1.0]
        assert report.per_motion[LARGE].pooled_ap == 1.0

    def test_overlap_at_the_threshold_does_not_match(self):
        half = (0.0, 0.0, 4.0, 2.0)  # overlaps A by exactly 0.5
        gts = [gt("v", "a", 0, 0, [A])]
        for thresh, ap in ((0.5, 0.0), (0.25, 1.0)):
            report = check_both_ways("frame", [frame("v", 0, (half, 0, 0.5))], gts, thresh,
                                     [SMALL])
            assert report.per_class_ap[0] == ap
            report = check_both_ways("video", [tube("v", 0, 0, [half], 0.5)], gts, thresh,
                                     [SMALL])
            assert report.per_class_ap[0] == ap


    def test_no_detections(self):
        # Ground truth in two classes and nothing detected, with no frame or an
        # empty one: each class has AP 0 and an empty curve.
        gts = [gt("v", "a", 0, 0, [A]), gt("v", "b", 1, 0, [B])]
        for dets in ([], [frame("v", 0)]):
            report = check_both_ways("frame", dets, gts, 0.5, [SMALL, LARGE])
            assert report.per_class_ap == {0: 0.0, 1: 0.0}
            assert report.pr_curves[1].recalls == []
            assert report.per_motion[LARGE].pooled_ap == 0.0
        report = check_both_ways("video", [], gts, 0.5, [SMALL, LARGE])
        assert report.per_class_ap == {0: 0.0, 1: 0.0}

    def test_no_ground_truth(self):
        dets = [frame("v", 0, (A, 0, 0.5), (B, 1, 0.25))]
        report = check_both_ways("frame", dets, [], 0.5, [])
        assert (report.per_class_ap, report.mean_ap) == ({}, None)
        assert report.pr_curves[1].recalls == [0.0]
        assert report.per_motion[SMALL].pooled_ap is None
        tubes = [tube("v", 0, 0, [A], 0.5), tube("v", 1, 0, [B], 0.25)]
        report = check_both_ways("video", tubes, [], 0.5, [])
        assert (report.per_class_ap, report.mean_ap) == ({}, None)

    def test_nan_overlap_never_matches(self):
        # Corners near the float limit make the IoU and the st-IoU NaN, which
        # fails even the threshold 0.0: the detection stays a false positive.
        huge = (-1e308, -1e308, 1e308, 1e308)
        gts = [gt("v", "a", 0, 0, [huge])]
        report = check_both_ways("frame", [frame("v", 0, (huge, 0, 0.5))], gts, 0.0, [LARGE])
        assert report.per_class_ap == {0: 0.0}
        report = check_both_ways("video", [tube("v", 0, 0, [huge], 0.5)], gts, 0.0, [LARGE])
        assert report.per_class_ap == {0: 0.0}

    def test_ground_truth_class_beyond_int64(self):
        # Ground-truth and tube classes are unbounded Python ints; no detection
        # column can hold 2**64, and such a class still gets its own row.
        gts = [gt("v", "a", 2**64, 0, [A]), gt("v", "b", 0, 0, [A])]
        report = check_both_ways("frame", [frame("v", 0, (A, 0, 0.5))], gts, 0.5, [SMALL, LARGE])
        assert report.per_class_ap == {0: 1.0, 2**64: 0.0}
        tubes = [tube("v", 2**64, 0, [A], 0.25), tube("v", 0, 0, [A], 0.5)]
        report = check_both_ways("video", tubes, gts, 0.5, [SMALL, LARGE])
        assert report.per_class_ap == {0: 1.0, 2**64: 1.0}

class TestAveragePrecision:
    @given(st.lists(st.tuples(SCORES, st.booleans()), max_size=12), st.integers(0, 6))
    def test_equals_index_sort_loop(self, pairs, npos):
        assert average_precision(pairs, npos) == reference_average_precision(pairs, npos)

    def test_generator_input(self):
        pairs = [(0.5, False), (0.75, True), (0.5, True), (0.25, True)]
        ap = average_precision((p for p in pairs), 3)
        assert ap == reference_average_precision(pairs, 3)
        assert ap == pytest.approx((1 + 2 / 3 + 3 / 4) / 3, abs=1e-12)
