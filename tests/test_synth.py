import numpy as np
import pytest

from tubekit.datamodel import builtin_config, save_detections, save_ground_truth
from tubekit.linking import build_tubes
from tubekit.metrics import evaluate_frames, evaluate_videos
from tubekit.motion import MotionCategory, classify_motion
from tubekit.synth import SynthSpec, generate, spec_from_dict


MS = builtin_config("multisports")


class TestSpec:
    def test_from_dict(self):
        spec = spec_from_dict({"seed": 3, "num_videos": 2})
        assert spec.seed == 3
        assert spec.num_videos == 2

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="bogus"):
            spec_from_dict({"bogus": 1})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            spec_from_dict([1, 2])

    @pytest.mark.parametrize("field, value", [
        ("num_videos", "x"), ("num_videos", True), ("seed", 1.5),
        ("drop_rate", "0.1"), ("jitter_sigma", False), ("jitter_sigma", float("nan")),
        ("motion_targets", [float("inf")]), ("motion_targets", [10**400]),
        ("motion_targets", 0.5), ("motion_targets", [1.0, "a"]), ("motion_targets", [True]),
        ("dataset", 3), ("emit_features", 1),
    ])
    def test_wrong_kind(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}'"):
            spec_from_dict({field: value})

    def test_numbers_and_lists_accepted(self):
        spec = spec_from_dict({"drop_rate": 0, "jitter_sigma": 2.0, "spurious_rate": 0.2,
                               "motion_targets": [0.9, 1], "dataset": "ucf24",
                               "emit_features": False})
        assert spec.drop_rate == 0.0
        assert spec.motion_targets == (0.9, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            SynthSpec(motion_targets=())
        with pytest.raises(ValueError):
            SynthSpec(motion_targets=(1.2,))

    def test_planted_frames_bounded(self):
        SynthSpec(num_videos=1, frames_per_video=10**5)
        with pytest.raises(ValueError, match="100001 frames"):
            SynthSpec(num_videos=1, frames_per_video=10**5 + 1)

    def test_feature_values_bounded(self):
        # 17 frames x 15,790,321 channels x 1 cell is 2**28 + 1 values.
        big = dict(num_videos=1, frames_per_video=17, feature_channels=15_790_321,
                   feature_cells=1)
        SynthSpec(**big)
        SynthSpec(**dict(big, frames_per_video=16, emit_features=True))
        with pytest.raises(ValueError, match="268435457 feature values"):
            SynthSpec(**big, emit_features=True)


class TestGenerate:
    def test_deterministic(self, tmp_path):
        spec = SynthSpec(seed=9, num_videos=3, drop_rate=0.2, jitter_sigma=1.0,
                         spurious_rate=0.3, fragmentation_rate=0.1)
        a = generate(spec)
        b = generate(spec)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_ground_truth(a[0], p1)
        save_ground_truth(b[0], p2)
        assert p1.read_bytes() == p2.read_bytes()
        save_detections(a[1], p1)
        save_detections(b[1], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_noise_detections_equal_gt(self):
        spec = SynthSpec(seed=1, num_videos=2)
        gts, dets, tracks, report, _ = generate(spec)
        by_frame = {(fd.video_id, fd.frame): fd for fd in dets}
        for g in gts:
            geo = g.geometry
            for i in range(len(geo)):
                fd = by_frame[(g.video_id, geo.start_frame + i)]
                boxes = [d.box for d in fd.entries if d.class_id == g.class_id]
                assert geo.box_at(geo.start_frame + i) in boxes
        for fd in dets:
            for d in fd.entries:
                assert d.score == 1.0
        gt_geoms = {(g.video_id, g.tube_id): g.geometry for g in gts}
        assert len(tracks) == len(gts)
        for tr in tracks:
            assert tr.geometry == gt_geoms[(tr.video_id, tr.track_id)]

    def test_zero_noise_frame_and_video_closure(self):
        spec = SynthSpec(seed=2, num_videos=4)
        gts, dets, _, _, _ = generate(spec)
        assert evaluate_frames(dets, gts, 0.5).mean_ap == pytest.approx(1.0, abs=1e-12)
        tubes = build_tubes(dets)
        assert evaluate_videos(tubes, gts, 0.5).mean_ap == pytest.approx(1.0, abs=1e-9)

    def test_motion_targets_realized(self):
        spec = SynthSpec(seed=3, num_videos=4, motion_targets=(1.0, 0.5, 0.1))
        _, _, _, report, _ = generate(spec)
        for rec in report["tubes"]:
            assert abs(rec["motion_iou"] - rec["target"]) <= 0.02
            assert rec["category"] == classify_motion(rec["motion_iou"], MS).label

    def test_target_one_is_static_small(self):
        spec = SynthSpec(seed=4, num_videos=1, tubes_per_video=1, motion_targets=(1.0,))
        gts, _, _, report, _ = generate(spec)
        geo = gts[0].geometry
        assert np.allclose(geo.boxes, geo.boxes[0])
        assert report["tubes"][0]["category"] == MotionCategory.SMALL.label
        assert report["tubes"][0]["motion_iou"] == 1.0

    def test_target_low_is_large(self):
        spec = SynthSpec(seed=5, num_videos=1, tubes_per_video=1, motion_targets=(0.1,))
        _, _, _, report, _ = generate(spec)
        assert report["tubes"][0]["category"] == MotionCategory.LARGE.label

    def test_infeasible_target_names_tube(self):
        # a 3-frame video cannot exhibit motion at offset 4, so targets
        # far from 1.0 are unrealizable
        spec = SynthSpec(seed=6, num_videos=1, frames_per_video=3,
                         tubes_per_video=1, motion_targets=(0.0,))
        with pytest.raises(ValueError, match="v000/a00"):
            generate(spec)

    def test_fragmentation_splits_tracks(self):
        spec = SynthSpec(seed=7, num_videos=2, fragmentation_rate=1.0)
        gts, _, tracks, _, _ = generate(spec)
        assert len(tracks) == sum(len(g.geometry) for g in gts)
        for tr in tracks:
            assert len(tr.geometry) == 1

    def test_features_emitted_on_request(self):
        spec = SynthSpec(seed=8, num_videos=1, frames_per_video=6,
                         emit_features=True, feature_channels=4, feature_cells=5)
        _, _, _, _, features = generate(spec)
        assert set(features) == {"v000"}
        grid = features["v000"]
        assert grid.values.shape == (6, 4, 5, 5)
        assert grid.spatial_stride == pytest.approx(1024.0 / 5)

    def test_drop_noise_recall_stays_high(self):
        spec = SynthSpec(seed=10, num_videos=5, drop_rate=0.1)
        gts, dets, _, _, _ = generate(spec)
        tubes = build_tubes(dets)
        report = evaluate_videos(tubes, gts, 0.5)
        assert report.mean_ap >= 0.9
