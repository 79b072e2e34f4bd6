import numpy as np
import pytest

from tubekit.datamodel import Detection, FrameDetections, Track
from tubekit.filtering import filter_by_tracks
from tubekit.geometry import Box, TubeGeometry


def one_track(video="v", start=0, n=5, box=(0, 0, 10, 10)):
    return Track(video, "k", TubeGeometry(start, [box] * n))


class TestFilterByTracks:
    def test_liberal_threshold_keeps_track_matched_detection(self):
        dets = [FrameDetections("v", 0, [Detection(Box(0, 0, 10, 10), 0, 0.06)])]
        out = filter_by_tracks(dets, [one_track()], match_iou=0.5, score_thresh=0.05)
        assert len(out[0].entries) == 1

    def test_score_below_threshold_dropped(self):
        dets = [FrameDetections("v", 0, [Detection(Box(0, 0, 10, 10), 0, 0.04)])]
        out = filter_by_tracks(dets, [one_track()], score_thresh=0.05)
        assert out[0].entries == ()

    def test_no_overlapping_track_dropped(self):
        dets = [FrameDetections("v", 0, [Detection(Box(50, 50, 60, 60), 0, 0.9)])]
        out = filter_by_tracks(dets, [one_track()])
        assert out[0].entries == ()

    def test_track_on_other_frame_does_not_match(self):
        dets = [FrameDetections("v", 9, [Detection(Box(0, 0, 10, 10), 0, 0.9)])]
        out = filter_by_tracks(dets, [one_track(n=5)])  # track covers frames 0-4
        assert out[0].entries == ()

    def test_other_video_does_not_match(self):
        dets = [FrameDetections("w", 0, [Detection(Box(0, 0, 10, 10), 0, 0.9)])]
        out = filter_by_tracks(dets, [one_track(video="v")])
        assert out[0].entries == ()

    def test_class_labels_ignored(self):
        dets = [FrameDetections("v", 0, [Detection(Box(0, 0, 10, 10), 7, 0.9)])]
        out = filter_by_tracks(dets, [one_track()])
        assert len(out[0].entries) == 1

    def test_empty_tracks_drop_everything(self):
        dets = [FrameDetections("v", 0, [Detection(Box(0, 0, 10, 10), 0, 0.9)])]
        out = filter_by_tracks(dets, [])
        assert out[0].entries == ()

    def test_bad_params(self):
        with pytest.raises(ValueError):
            filter_by_tracks([], [], match_iou=1.5)
        with pytest.raises(ValueError):
            filter_by_tracks([], [], score_thresh=-0.1)


def random_fixture(rng):
    dets = []
    for f in range(6):
        entries = []
        for _ in range(int(rng.integers(0, 5))):
            x, y = rng.uniform(0, 80, 2)
            entries.append(Detection(
                Box(x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20)),
                int(rng.integers(0, 3)), float(rng.uniform(0, 1)),
            ))
        dets.append(FrameDetections("v", f, entries))
    tracks = []
    for k in range(int(rng.integers(0, 3))):
        start = int(rng.integers(0, 3))
        n = int(rng.integers(1, 6 - start))
        x, y = rng.uniform(0, 80, 2)
        tracks.append(Track("v", f"k{k}", TubeGeometry(
            start, [(x + t, y, x + t + 15, y + 15) for t in range(n)]
        )))
    return dets, tracks


class TestFilterProperties:
    def test_subset_monotone_idempotent(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            dets, tracks = random_fixture(rng)
            out = filter_by_tracks(dets, tracks, 0.3, 0.1)

            # subset: every survivor appears in the input frame's entries
            for fd_in, fd_out in zip(dets, out):
                assert fd_in.video_id == fd_out.video_id
                assert fd_in.frame == fd_out.frame
                for d in fd_out.entries:
                    assert d in fd_in.entries

            # monotone: tightening either threshold never adds survivors
            stricter_score = filter_by_tracks(dets, tracks, 0.3, 0.5)
            stricter_iou = filter_by_tracks(dets, tracks, 0.7, 0.1)
            for loose, tight in ((out, stricter_score), (out, stricter_iou)):
                for fd_l, fd_t in zip(loose, tight):
                    for d in fd_t.entries:
                        assert d in fd_l.entries

            # idempotent
            again = filter_by_tracks(out, tracks, 0.3, 0.1)
            assert again == out
