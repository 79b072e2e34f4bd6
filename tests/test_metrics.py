import numpy as np
import pytest

from tubekit.datamodel import (
    ActionTube,
    Detection,
    FrameDetections,
    GroundTruthTube,
    builtin_config,
)
from tubekit.geometry import Box, TubeGeometry
from tubekit.metrics import (
    EvalReport,
    MotionMetrics,
    average_precision,
    evaluate_frames,
    evaluate_videos,
    render_table,
    threshold_sweep,
)
from tubekit.motion import MotionCategory, MotionLabel

from oracles import brute_frame_eval, brute_motion_eval, brute_video_eval


def det_frame(video, frame, *entries):
    return FrameDetections(video, frame, [Detection(Box(*b), c, s) for b, c, s in entries])


def gt_tube(video, tube, cls, start, boxes):
    return GroundTruthTube(video, tube, cls, TubeGeometry(start, boxes))


def label_map(gts, categories):
    return {
        g.key: MotionLabel(0.5, cat, (4,)) for g, cat in zip(gts, categories)
    }


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([(0.9, True)], 1) == 1.0

    def test_fp_then_tp(self):
        assert average_precision([(0.9, False), (0.8, True)], 1) == 0.5

    def test_no_detections(self):
        assert average_precision([], 3) == 0.0

    def test_no_positives_is_undefined(self):
        assert average_precision([(0.9, False)], 0) is None

    def test_negative_positives_error(self):
        with pytest.raises(ValueError):
            average_precision([], -1)

    def test_worked_example(self):
        pairs = [(0.9, True), (0.8, False), (0.7, True)]
        assert average_precision(pairs, 2) == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)

    def test_ties_keep_input_order(self):
        # same scores: first pair ranks first
        assert average_precision([(0.5, True), (0.5, False)], 1) == 1.0
        assert average_precision([(0.5, False), (0.5, True)], 1) == 0.5

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(41)
        scores = rng.uniform(0.01, 0.99, 30)
        flags = rng.random(30) < 0.4
        pairs = list(zip(scores, flags))
        squeezed = list(zip(np.sqrt(scores), flags))
        assert average_precision(pairs, 10) == pytest.approx(
            average_precision(squeezed, 10), abs=1e-12
        )


class TestFrameEval:
    def test_perfect_detections(self):
        gts = [
            gt_tube("v", "t0", 0, 0, [(0, 0, 10, 10)] * 3),
            gt_tube("v", "t1", 1, 1, [(20, 20, 30, 30)] * 2),
        ]
        dets = []
        for g in gts:
            for i in range(len(g.geometry)):
                f = g.geometry.start_frame + i
                dets.append(det_frame("v", f, (tuple(g.geometry.boxes[i]), g.class_id, 1.0)))
        report = evaluate_frames(dets, gts, 0.5)
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
        assert set(report.per_class_ap) == {0, 1}

    def test_boundary_iou_is_fp(self):
        # det IoU with gt is exactly 0.5: strict comparison makes it a FP
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 1, 2)])]
        dets = [det_frame("v", 0, ((0, 0, 1, 1), 0, 0.9))]
        report = evaluate_frames(dets, gts, 0.5)
        assert report.per_class_ap[0] == 0.0
        report = evaluate_frames(dets, gts, 0.49)
        assert report.per_class_ap[0] == 1.0

    def test_worked_ranking(self):
        gts = [
            gt_tube("v", "t0", 0, 0, [(0, 0, 10, 10)]),
            gt_tube("v", "t1", 0, 1, [(0, 0, 10, 10)]),
        ]
        dets = [
            det_frame("v", 0, ((0, 0, 10, 10), 0, 0.9)),
            det_frame("v", 1, ((50, 50, 60, 60), 0, 0.8), ((0, 0, 10, 10), 0, 0.7)),
        ]
        report = evaluate_frames(dets, gts, 0.5)
        assert report.per_class_ap[0] == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)

    def test_class_label_must_match(self):
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 10, 10)])]
        dets = [det_frame("v", 0, ((0, 0, 10, 10), 1, 0.9))]
        report = evaluate_frames(dets, gts, 0.5)
        assert report.per_class_ap[0] == 0.0  # gt class has no matching detection
        assert 1 not in report.per_class_ap   # no positives for class 1

    def test_each_gt_matched_once(self):
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 10, 10)])]
        dets = [det_frame("v", 0,
                          ((0, 0, 10, 10), 0, 0.9),
                          ((0, 0, 10, 10), 0, 0.8))]
        report = evaluate_frames(dets, gts, 0.5)
        # second detection is a duplicate: precision at the hit is 1/1
        assert report.per_class_ap[0] == 1.0

    def test_single_class_map_equals_ap(self):
        gts = [gt_tube("v", "t", 2, 0, [(0, 0, 10, 10)])]
        dets = [det_frame("v", 0, ((0, 0, 10, 10), 2, 0.9))]
        report = evaluate_frames(dets, gts, 0.5)
        assert report.mean_ap == report.per_class_ap[2]

    def test_adding_low_fp_never_increases(self):
        rng = np.random.default_rng(42)
        gts, dets = random_frame_instance(rng)
        base = evaluate_frames(dets, gts, 0.5).mean_ap
        dets2 = dets + [det_frame("vx", 0, ((0, 0, 1, 1), 0, 0.0001))]
        worse = evaluate_frames(dets2, gts, 0.5).mean_ap
        if base is not None:
            assert worse <= base + 1e-12

    def test_adding_top_tp_never_decreases(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            gts, dets = random_frame_instance(rng)
            if not gts:
                continue
            base = evaluate_frames(dets, gts, 0.5).per_class_ap
            # detect one gt box perfectly, ranked above everything else
            g = gts[0]
            frame = g.geometry.start_frame
            box = tuple(g.geometry.boxes[0])
            dets2 = dets + [det_frame(g.video_id, frame, (box, g.class_id, 1.0))]
            better = evaluate_frames(dets2, gts, 0.5).per_class_ap
            assert better[g.class_id] >= base[g.class_id] - 1e-12

    def test_threshold_sweep(self):
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 10, 10)] * 2)]
        tubes = [ActionTube("v", 0, TubeGeometry(0, [(0, 0, 10, 10)] * 2), [1.0, 1.0])]

        def run(t):
            return evaluate_videos(tubes, gts, t)

        reports, mean = threshold_sweep(run, [0.5])
        assert mean == reports[0].mean_ap
        reports, mean = threshold_sweep(run, [0.5, 0.5])
        assert mean == reports[0].mean_ap
        with pytest.raises(ValueError):
            threshold_sweep(run, [])

    def test_sweep_is_mean_of_reports(self):
        rng = np.random.default_rng(43)
        gts, tubes = random_video_instance(rng)

        def run(t):
            return evaluate_videos(tubes, gts, t)

        reports, mean = threshold_sweep(run, [0.2, 0.5])
        assert mean == pytest.approx(
            (reports[0].mean_ap + reports[1].mean_ap) / 2, abs=1e-12
        )


class TestVideoEval:
    def test_perfect_tubes(self):
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 10, 10)] * 5)]
        tubes = [ActionTube("v", 0, TubeGeometry(0, [(0, 0, 10, 10)] * 5), [1.0] * 5)]
        report = evaluate_videos(tubes, gts, 0.5)
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_below_threshold(self):
        boxes = [(0, 0, 10, 10)] * 10
        gts = [gt_tube("v", "t", 0, 0, boxes)]
        tubes = [ActionTube("v", 0, TubeGeometry(5, boxes), [1.0] * 10)]
        report = evaluate_videos(tubes, gts, 0.5)  # st-iou is 1/3
        assert report.per_class_ap[0] == 0.0

    def test_matching_is_per_video(self):
        boxes = [(0, 0, 10, 10)] * 5
        gts = [gt_tube("v1", "t", 0, 0, boxes)]
        tubes = [ActionTube("v2", 0, TubeGeometry(0, boxes), [1.0] * 5)]
        report = evaluate_videos(tubes, gts, 0.5)
        assert report.per_class_ap[0] == 0.0


def random_frame_instance(rng, num_classes=3, max_dets=20, max_gts=10):
    videos = ["v0", "v1"]
    gts = []
    for i in range(int(rng.integers(0, max_gts + 1))):
        video = videos[int(rng.integers(0, 2))]
        start = int(rng.integers(0, 4))
        n = int(rng.integers(1, 4))
        x, y = rng.uniform(0, 60, 2)
        boxes = [(x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20))] * n
        gts.append(gt_tube(video, f"t{i}", int(rng.integers(0, num_classes)), start, boxes))
    by_frame = {}
    for i in range(int(rng.integers(0, max_dets + 1))):
        video = videos[int(rng.integers(0, 2))]
        frame = int(rng.integers(0, 6))
        if rng.random() < 0.6 and gts:
            g = gts[int(rng.integers(0, len(gts)))]
            geo = g.geometry
            if geo.start_frame <= frame <= geo.end_frame:
                base = geo.boxes[frame - geo.start_frame]
            else:
                base = geo.boxes[0]
            jitter = rng.uniform(-6, 6, 4)
            x1, x2 = sorted((base[0] + jitter[0], base[2] + jitter[1]))
            y1, y2 = sorted((base[1] + jitter[2], base[3] + jitter[3]))
            box = (x1, y1, max(x2, x1 + 0.1), max(y2, y1 + 0.1))
            cls = g.class_id if rng.random() < 0.8 else int(rng.integers(0, num_classes))
        else:
            x, y = rng.uniform(0, 60, 2)
            box = (x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20))
            cls = int(rng.integers(0, num_classes))
        by_frame.setdefault((video, frame), []).append(
            (box, cls, float(rng.uniform(0, 1)))
        )
    dets = [det_frame(v, f, *entries) for (v, f), entries in sorted(by_frame.items())]
    return gts, dets


def random_video_instance(rng, num_classes=3, max_tubes=12, max_gts=8):
    videos = ["v0", "v1"]
    gts = []
    for i in range(int(rng.integers(1, max_gts + 1))):
        video = videos[int(rng.integers(0, 2))]
        start = int(rng.integers(0, 6))
        n = int(rng.integers(2, 12))
        x, y = rng.uniform(0, 60, 2)
        boxes = [(x + t, y, x + t + 15, y + 15) for t in range(n)]
        gts.append(gt_tube(video, f"t{i}", int(rng.integers(0, num_classes)), start, boxes))
    tubes = []
    for i in range(int(rng.integers(0, max_tubes + 1))):
        if rng.random() < 0.7 and gts:
            g = gts[int(rng.integers(0, len(gts)))]
            shift = int(rng.integers(-3, 4))
            start = max(0, g.geometry.start_frame + shift)
            jitter = rng.uniform(-4, 4)
            boxes = g.geometry.boxes + np.array([jitter, jitter, jitter, jitter])
            cls = g.class_id if rng.random() < 0.8 else int(rng.integers(0, num_classes))
            video = g.video_id
        else:
            video = videos[int(rng.integers(0, 2))]
            start = int(rng.integers(0, 6))
            n = int(rng.integers(2, 12))
            x, y = rng.uniform(0, 60, 2)
            boxes = np.array([(x, y, x + 15, y + 15)] * n)
            cls = int(rng.integers(0, num_classes))
        n = len(boxes)
        score = float(rng.uniform(0, 1))
        tubes.append(ActionTube(video, cls, TubeGeometry(start, boxes),
                                [score] * n, score))
    return gts, tubes


class TestOracleEquivalence:
    def test_frame_eval_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            gts, dets = random_frame_instance(rng)
            report = evaluate_frames(dets, gts, 0.5)
            ref_ap, ref_map = brute_frame_eval(dets, gts, 0.5)
            assert set(report.per_class_ap) == set(ref_ap)
            for c, ap in ref_ap.items():
                assert report.per_class_ap[c] == pytest.approx(ap, abs=1e-12)
            if ref_map is None:
                assert report.mean_ap is None
            else:
                assert report.mean_ap == pytest.approx(ref_map, abs=1e-12)

    def test_video_eval_matches_brute_force(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            gts, tubes = random_video_instance(rng)
            report = evaluate_videos(tubes, gts, 0.4)
            ref_ap, ref_map = brute_video_eval(tubes, gts, 0.4)
            assert set(report.per_class_ap) == set(ref_ap)
            for c, ap in ref_ap.items():
                assert report.per_class_ap[c] == pytest.approx(ap, abs=1e-12)

    def test_jobs_do_not_change_results(self):
        rng = np.random.default_rng(46)
        gts, dets = random_frame_instance(rng)
        r1 = evaluate_frames(dets, gts, 0.5, jobs=1)
        r8 = evaluate_frames(dets, gts, 0.5, jobs=8)
        assert r1.per_class_ap == r8.per_class_ap
        assert r1.mean_ap == r8.mean_ap

    def test_pr_curve_invariants(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            gts, dets = random_frame_instance(rng)
            report = evaluate_frames(dets, gts, 0.5)
            for curve in report.pr_curves.values():
                assert all(a <= b for a, b in zip(curve.recalls, curve.recalls[1:]))
                assert all(0.0 <= p <= 1.0 for p in curve.precisions)
                assert all(r <= 1.0 for r in curve.recalls)


class TestMotionEval:
    def test_all_small_perfect(self):
        gts = [gt_tube("v", "t0", 0, 0, [(0, 0, 10, 10)] * 2)]
        labels = label_map(gts, [MotionCategory.SMALL])
        dets = [
            det_frame("v", 0, ((0, 0, 10, 10), 0, 1.0)),
            det_frame("v", 1, ((0, 0, 10, 10), 0, 1.0)),
        ]
        report = evaluate_frames(dets, gts, 0.5, motion_labels=labels)
        small = report.per_motion[MotionCategory.SMALL]
        assert small.pooled_ap == pytest.approx(1.0, abs=1e-12)
        assert small.mean_ap == pytest.approx(1.0, abs=1e-12)
        for cat in (MotionCategory.LARGE, MotionCategory.MEDIUM):
            m = report.per_motion[cat]
            assert m.num_positives == 0
            assert m.pooled_ap is None
            assert m.mean_ap is None

    def test_ignore_rule_worked_example(self):
        # one LARGE gt + one SMALL gt, both matched perfectly: in the LARGE
        # evaluation the SMALL match is ignored, so LARGE AP is 1.0
        gts = [
            gt_tube("v", "large", 0, 0, [(0, 0, 10, 10)]),
            gt_tube("v", "small", 0, 1, [(30, 30, 40, 40)]),
        ]
        labels = label_map(gts, [MotionCategory.LARGE, MotionCategory.SMALL])
        dets = [
            det_frame("v", 0, ((0, 0, 10, 10), 0, 0.8)),
            det_frame("v", 1, ((30, 30, 40, 40), 0, 0.9)),
        ]
        report = evaluate_frames(dets, gts, 0.5, motion_labels=labels)
        assert report.per_motion[MotionCategory.LARGE].pooled_ap == pytest.approx(1.0)
        assert report.per_motion[MotionCategory.SMALL].pooled_ap == pytest.approx(1.0)

    def test_unmatched_stays_fp_in_every_category(self):
        gts = [gt_tube("v", "large", 0, 0, [(0, 0, 10, 10)])]
        labels = label_map(gts, [MotionCategory.LARGE])
        dets = [
            det_frame("v", 0, ((50, 50, 60, 60), 0, 0.9)),   # FP, outranks the TP
            det_frame("v", 0, ((0, 0, 10, 10), 0, 0.8)),
        ]
        report = evaluate_frames(dets, gts, 0.5, motion_labels=labels)
        assert report.per_motion[MotionCategory.LARGE].pooled_ap == pytest.approx(0.5)

    def test_positives_partition_gt(self):
        rng = np.random.default_rng(47)
        gts, dets = random_frame_instance(rng, max_gts=10)
        cats = [MotionCategory(int(rng.integers(0, 3))) for _ in gts]
        labels = label_map(gts, cats)
        report = evaluate_frames(dets, gts, 0.5, motion_labels=labels)
        total_gt_boxes = sum(len(g.geometry) for g in gts)
        assert sum(m.num_positives for m in report.per_motion.values()) == total_gt_boxes

    def test_unlabeled_tube_is_error(self):
        gts = [gt_tube("v", "t", 0, 0, [(0, 0, 10, 10)])]
        with pytest.raises(ValueError):
            evaluate_frames([], gts, 0.5, motion_labels={})

    def test_against_brute_force(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            gts, dets = random_frame_instance(rng)
            if not gts:
                continue
            cats = [MotionCategory(int(rng.integers(0, 3))) for _ in gts]
            labels = label_map(gts, cats)
            report = evaluate_frames(dets, gts, 0.5, motion_labels=labels)
            ref = brute_motion_eval("frame", dets, gts, 0.5, labels)
            for cat in MotionCategory:
                n_ref, pooled_ref, mean_ref = ref[cat]
                m = report.per_motion[cat]
                assert m.num_positives == n_ref
                if pooled_ref is None:
                    assert m.pooled_ap is None
                else:
                    assert m.pooled_ap == pytest.approx(pooled_ref, abs=1e-12)
                if mean_ref is None:
                    assert m.mean_ap is None
                else:
                    assert m.mean_ap == pytest.approx(mean_ref, abs=1e-12)

    def test_video_level_motion_against_brute_force(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            gts, tubes = random_video_instance(rng)
            cats = [MotionCategory(int(rng.integers(0, 3))) for _ in gts]
            labels = label_map(gts, cats)
            report = evaluate_videos(tubes, gts, 0.4, motion_labels=labels)
            ref = brute_motion_eval("video", tubes, gts, 0.4, labels)
            for cat in MotionCategory:
                n_ref, pooled_ref, mean_ref = ref[cat]
                m = report.per_motion[cat]
                assert m.num_positives == n_ref
                if pooled_ref is not None:
                    assert m.pooled_ap == pytest.approx(pooled_ref, abs=1e-12)
                if mean_ref is not None:
                    assert m.mean_ap == pytest.approx(mean_ref, abs=1e-12)


class TestRenderTable:
    def test_golden_text_with_motion_breakdown(self):
        large, medium, small = MotionCategory.LARGE, MotionCategory.MEDIUM, MotionCategory.SMALL
        report = EvalReport(
            level="frame",
            threshold=0.5,
            per_class_ap={0: 0.75, 12: 1 / 3, 75: 0.5},
            num_positives={12: 1500, 0: 4, 3: 0, 75: 2},
            mean_ap=(0.75 + 1 / 3 + 0.5) / 3,
            pr_curves={},
            per_motion={
                large: MotionMetrics(large, 0, None, None, {}),
                medium: MotionMetrics(medium, 5, 0.6, 0.55, {0: 0.55}),
                small: MotionMetrics(small, 1501, 1 / 3, 0.25, {12: 0.25}),
            },
        )
        # class 3 has no positives (AP "-"); class 75 is past the config's names
        assert render_table(report, builtin_config("multisports")) == (
            "frame-level evaluation @ 0.500000\n"
            "class      positives        ap\n"
            "action_00          4  0.750000\n"
            "action_03          0         -\n"
            "action_12       1500  0.333333\n"
            "class_75           2  0.500000\n"
            "mAP 0.527778 (52.8%)\n"
            "\n"
            "motion  positives  motion-ap  motion-map\n"
            "large           0          -           -\n"
            "medium          5   0.600000    0.550000\n"
            "small        1501   0.333333    0.250000\n"
        )

    def test_golden_text_of_an_empty_report(self):
        report = EvalReport("video", 0.3, {}, {}, None, {})
        assert render_table(report) == (
            "video-level evaluation @ 0.300000\n"
            "class  positives  ap\n"
            "mAP -\n"
        )
