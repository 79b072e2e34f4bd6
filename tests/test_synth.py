import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubekit import cli, motion, synth
from tubekit.datamodel import (TrackScores, builtin_config, load_track_scores, load_tracks,
                               save_detections, save_ground_truth, save_track_scores)
from tubekit.linking import build_tubes
from tubekit.metrics import evaluate_frames, evaluate_videos
from tubekit.motion import MotionCategory, classify_motion
from tubekit.synth import SynthSpec, generate, spec_from_dict

from oracles import reference_solve_speed


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
        # far from 1.0 are unrealizable; the first such tube is named
        for tubes in (1, 2):
            spec = SynthSpec(seed=6, num_videos=1, frames_per_video=3,
                             tubes_per_video=tubes, motion_targets=(0.0,))
            with pytest.raises(ValueError) as exc:
                generate(spec)
            assert str(exc.value) == ("cannot realize motion target 0.0 for tube v000/a00 "
                                      "(closest achievable 1.0000)")

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


class TestSolveSpeeds:
    @settings(max_examples=40)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, 0.05, 0.15, 0.35, 0.6, 0.9, 0.99, 1.0]),
                  st.floats(0.0, 1.0)),
        st.integers(2, 130),
        st.sampled_from([1, -1]),
        st.floats(0.0, 976.0),
    ), min_size=1, max_size=6))
    @example([(0.0, 3, 1, 8.0), (1.0, 4, -1, 8.0), (0.0, 130, -1, 500.0), (0.5, 2, 1, 9.5)])
    @example([(0.1, 60, 1, 8.0), (0.9, 45, -1, 200.0), (0.35, 5, 1, 400.0)])
    def test_matches_scalar_solver(self, tubes):
        targets, lengths, directions, lane_ys = zip(*tubes)
        solved = synth._solve_speeds(targets, lengths, directions, lane_ys, MS.motion_offsets)
        assert repr(solved) == repr([
            reference_solve_speed(t, n, 0, d, y, MS.motion_offsets) for t, n, d, y in tubes
        ])

    def test_groups_do_not_change_results(self, monkeypatch):
        # 5 offsets: a group of k tubes of at most L frames scores k * L * 5 pairs
        args = ([0.9, 0.6, 0.0, 1.0, 0.35], [60, 130, 3, 20, 45], [1, -1, 1, -1, 1],
                [8.0, 120.0, 230.0, 400.0, 600.0], MS.motion_offsets)
        solve_group = synth._solve_group
        sizes = []

        def spy(targets, *rest):
            sizes.append(len(targets))
            return solve_group(targets, *rest)

        monkeypatch.setattr(synth, "_solve_group", spy)
        whole = synth._solve_speeds(*args)
        assert sizes == [5]
        # Longest first: 130 alone, then 60 + 45 + 20, then 3.
        for cap, groups in [(1000, [1, 3, 1]), (1, [1, 1, 1, 1, 1])]:
            monkeypatch.setattr(motion, "_MAX_PAIRS", cap)
            sizes.clear()
            assert repr(synth._solve_speeds(*args)) == repr(whole)
            assert sizes == groups


# sha256 of every file `tubekit synth` writes, recorded while each tube was
# solved on its own by the scalar solver (``oracles.reference_solve_speed``).
_DENSE = {"num_videos": 1, "frames_per_video": 60, "tubes_per_video": 4, "num_classes": 4,
          "motion_targets": [0.9, 0.6, 0.35, 0.15], "jitter_sigma": 2.0, "drop_rate": 0.1,
          "spurious_rate": 0.2, "fragmentation_rate": 0.02}
PINNED = [
    (dict(_DENSE, seed=0), {
        "detections.ndjson": "aa435d40a3607d6275fc7c1bec66927f730f66dd2e61eecc069731f2916d5c76",
        "gt.ndjson": "9d20f40c9fe47d6e159891441b8d80573134ad2162f7edbd2a188c79d6496040",
        "oracle.json": "945636431d5be84fd27d96dab3430e96a384fbec4f149acf7b6303faf3a54605",
        "tracks.ndjson": "01b8d37163d94da2f01a028b20a250afbc51412d9513fc512a353ceeefc62738",
    }),
    (dict(_DENSE, seed=7), {
        "detections.ndjson": "b730f92cd4a774e835d6663d083b2b3d111e127fb945428b60a436df64188a40",
        "gt.ndjson": "71e7dabf4dc6d7a61a02197a2274d1c5a532f59ad680b85a950e7c7712a0c003",
        "oracle.json": "9381c5539eb9b07dbad1e7bd488c2c7a202c25bca45e0a0248b3ba1d11bf3935",
        "tracks.ndjson": "769698da1cd48dd5d869feb5c3272e64cca25aba2a207356936ee9ebbe624260",
    }),
    ({"seed": 9, "num_videos": 3, "drop_rate": 0.2, "jitter_sigma": 1.0,
      "spurious_rate": 0.3, "fragmentation_rate": 0.1}, {
        "detections.ndjson": "52fd46edc33b3cf266bfaf8c3a3048ae60660760b9c8d42edfe2b416c4bed1fb",
        "gt.ndjson": "49720995e97cf41dd43d1b50585b9f63d2f7d537216a6af8e9cce9d7041ad3cf",
        "oracle.json": "c68e8278201a127fe125ea6a510edc540764345f002db6cac3d4c996ca7e3d6e",
        "tracks.ndjson": "45b39c84b5452e2f34fb3b5595ac3ab3a365b3df9e64d0279f9b97580879ba55",
    }),
    ({"seed": 8, "num_videos": 2, "frames_per_video": 24, "emit_features": True,
      "feature_channels": 3, "feature_cells": 4}, {
        "detections.ndjson": "11886d7bcb9e8756d1755194528a7ccd6587b8c608446718feb4278d4a8fb108",
        "features/v000.tkt": "e413fa4b561985a0897445e5632aabb6ad40287b204db65461a08431165ebfaa",
        "features/v001.tkt": "dd7e99960e9ba3ef8d43eb86403e183c3e8fb019c3af1b2dbb81916e57631e95",
        "gt.ndjson": "fd8341c503493bb28cf620e54732a0f465156717b0e3b0011f3c9184f3ab0d39",
        "oracle.json": "bc9b5f7558e6fa2dda2581727cdb8881f19fdb1b12d856ef448157fff570a8d9",
        "tracks.ndjson": "fc97624cfce51d90c9078aca8191831102e4035211985c5f9686c19a7b0e1538",
    }),
]


@pytest.mark.parametrize("spec, digests", PINNED)
def test_synth_writes_pinned_bytes(tmp_path, capsys, spec, digests):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    written = {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.rglob("*") if f.is_file()}
    assert written == digests


# sha256 of what `build-tubes` and `trim-tracks` write from a synth fixture,
# and of the track-score file `trim-tracks` reads, recorded when every NDJSON
# writer still formatted one number at a time through ``jsonfmt.dumps``.
PINNED_TUBES = [
    (PINNED[0][0], {
        "scores.ndjson": "7662262dedf8363c0d54d17b08ffc720b0d64be754ec7a4dd13d95ac4f5ed7d8",
        "trimmed.ndjson": "af93c6d4ed773e0fb45acc57012e96810905b5d5bcaa196a14f8dea21e7fa42e",
        "tubes.ndjson": "0541ef88a5a70ee8d9de94ca023562fcdd69d0a026a5dcc96e75561f59782382",
    }),
    (PINNED[1][0], {
        "scores.ndjson": "fc01e1e2fa4d342382f42fb1b3705099d01478dca6208ddad7234a9999fc6106",
        "trimmed.ndjson": "c3bb147ce36214458b2c6bae2d89900156dc6f62c1fb4aabd3d131a2df699c24",
        "tubes.ndjson": "5501d0479bac58d7d560c3fb48135775a7d39af649a42ecb959e76d2364597ba",
    }),
    (PINNED[2][0], {
        "scores.ndjson": "a8339644f68cc48580e3cfd95b0ad2b8fd62f18f46f1b8287b7a546bb89ff2e1",
        "trimmed.ndjson": "8e8b1ad39989d9549da36d873d12cc1dee31454a7d1fc0e3099653d497757998",
        "tubes.ndjson": "2d85b793b29cece2bcdb3ab258f42cd9095acd665ab066611afa4ffd3074c18f",
    }),
]


@pytest.mark.parametrize("spec, digests", PINNED_TUBES)
def test_tube_commands_write_pinned_bytes(tmp_path, capsys, spec, digests):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    rng = np.random.default_rng(spec["seed"])
    scores = [TrackScores(t.video_id, t.track_id, t.geometry.start_frame,
                          rng.random((len(t.geometry), 6)))
              for t in load_tracks(tmp_path / "tracks.ndjson")]
    save_track_scores(scores, tmp_path / "scores.ndjson")
    # save -> load -> save gives the same bytes
    save_track_scores(load_track_scores(tmp_path / "scores.ndjson"), tmp_path / "again.ndjson")
    assert (tmp_path / "again.ndjson").read_bytes() == (tmp_path / "scores.ndjson").read_bytes()
    assert cli.main(["build-tubes", "--det", str(tmp_path / "detections.ndjson"),
                     "--out", str(tmp_path / "tubes.ndjson")]) == 0
    assert cli.main(["trim-tracks", "--tracks", str(tmp_path / "tracks.ndjson"),
                     "--scores", str(tmp_path / "scores.ndjson"),
                     "--out", str(tmp_path / "trimmed.ndjson")]) == 0
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in digests}
    assert written == digests
