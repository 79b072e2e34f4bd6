import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit.datamodel import Detection, FrameDetections, TrackScores, Track
from tubekit.geometry import Box, TubeGeometry
from tubekit.linking import (
    LinkParams,
    TrimParams,
    build_tubes,
    greedy_link,
    tracks_to_tubes,
    trim_path,
)

from oracles import (
    count_changes,
    exhaustive_trim_best,
    labeling_energy,
    per_frame_greedy_link,
    segments_to_labels,
)


def frames_from(video, spec):
    """spec: {frame: [(box_tuple, class, score), ...]}"""
    return [
        FrameDetections(video, f, [Detection(Box(*b), c, s) for b, c, s in entries])
        for f, entries in sorted(spec.items())
    ]


class TestGreedyLink:
    def test_one_stream_one_path(self):
        frames = frames_from("v", {f: [((0, 0, 10, 10), 0, 0.9)] for f in range(5)})
        paths = greedy_link(frames, 0, LinkParams(min_len=1))
        assert len(paths) == 1
        assert paths[0].start_frame == 0
        assert len(paths[0]) == 5
        assert paths[0].scores == [0.9] * 5

    def test_disjoint_streams_never_merge(self):
        frames = frames_from("v", {
            f: [((0, 0, 10, 10), 0, 0.9), ((100, 100, 110, 110), 0, 0.8)]
            for f in range(6)
        })
        paths = greedy_link(frames, 0, LinkParams(min_len=1))
        assert len(paths) == 2
        for p in paths:
            assert len(p) == 6
        assert paths[0].boxes[0] != paths[1].boxes[0]

    def test_gap_bridged_with_placeholder(self):
        spec = {f: [((0, 0, 10, 10), 0, 0.9)] for f in (0, 1, 3, 4)}
        frames = frames_from("v", spec)
        paths = greedy_link(frames, 0, LinkParams(max_misses=1, min_len=1))
        assert len(paths) == 1
        p = paths[0]
        assert len(p) == 5
        assert p.scores == [0.9, 0.9, 0.0, 0.9, 0.9]
        assert p.boxes[2] == Box(0, 0, 10, 10)  # replicated last box

    def test_gap_longer_than_max_misses_splits(self):
        spec = {f: [((0, 0, 10, 10), 0, 0.9)] for f in (0, 1, 5, 6)}
        frames = frames_from("v", spec)
        paths = greedy_link(frames, 0, LinkParams(max_misses=1, min_len=1))
        assert len(paths) == 2
        assert [p.start_frame for p in paths] == [0, 5]
        assert [len(p) for p in paths] == [2, 2]

    def test_trailing_misses_stripped_at_video_end(self):
        spec = {0: [((0, 0, 10, 10), 0, 0.9)],
                1: [((0, 0, 10, 10), 0, 0.9)],
                4: [((90, 90, 95, 95), 0, 0.3)]}
        frames = frames_from("v", spec)
        paths = greedy_link(frames, 0, LinkParams(max_misses=5, min_len=1))
        lengths = sorted(len(p) for p in paths)
        assert lengths == [1, 2]

    def test_min_len_discards(self):
        frames = frames_from("v", {f: [((0, 0, 10, 10), 0, 0.9)] for f in range(5)})
        assert greedy_link(frames, 0, LinkParams(min_len=6)) == []
        assert len(greedy_link(frames, 0, LinkParams(min_len=5))) == 1

    def test_class_filtering(self):
        frames = frames_from("v", {0: [((0, 0, 10, 10), 1, 0.9)]})
        assert greedy_link(frames, 0, LinkParams(min_len=1)) == []

    def test_repeated_frame_keeps_last_detections(self):
        frames = frames_from("v", {0: [((0, 0, 10, 10), 0, 0.9)],
                                   1: [((0, 0, 10, 10), 0, 0.8)]})
        frames.insert(1, FrameDetections("v", 1, [Detection(Box(0, 0, 10, 10), 1, 0.7)]))
        frames.append(FrameDetections("v", 0, []))
        paths = greedy_link(frames, 0, LinkParams(min_len=1))
        assert [(p.start_frame, p.scores) for p in paths] == [(1, [0.8])]

    def test_no_detection_shared_between_paths(self):
        # two overlapping paths converge on a single detection: only one claims
        frames = frames_from("v", {
            0: [((0, 0, 10, 10), 0, 0.9), ((5, 0, 15, 10), 0, 0.5)],
            1: [((2, 0, 12, 10), 0, 0.8)],
        })
        paths = greedy_link(frames, 0, LinkParams(iou_gate=0.05, min_len=1))
        claimed = [p for p in paths if len(p) == 2]
        assert len(claimed) == 1
        assert claimed[0].scores == [0.9, 0.8]  # stronger path claimed it

    def test_permutation_invariance_with_distinct_scores(self):
        rng = np.random.default_rng(51)
        spec = {}
        scores = iter(rng.permutation(np.linspace(0.05, 0.95, 60)))
        for f in range(10):
            entries = []
            for lane in range(3):
                if rng.random() < 0.8:
                    x = lane * 100 + float(rng.uniform(-2, 2))
                    entries.append(((x, 0, x + 40, 40), 0, float(next(scores))))
            spec[f] = entries
        frames = frames_from("v", spec)
        base = greedy_link(frames, 0, LinkParams(min_len=1))
        shuffled = [
            FrameDetections(fd.video_id, fd.frame, list(reversed(fd.entries)))
            for fd in frames
        ]
        permuted = greedy_link(shuffled, 0, LinkParams(min_len=1))
        assert [(p.start_frame, p.boxes, p.scores) for p in base] == \
               [(p.start_frame, p.boxes, p.scores) for p in permuted]

    def test_determinism(self):
        rng = np.random.default_rng(52)
        spec = {
            f: [((float(rng.uniform(0, 50)), 0, float(rng.uniform(60, 100)), 40), 0,
                 float(rng.uniform(0, 1))) for _ in range(int(rng.integers(0, 4)))]
            for f in range(12)
        }
        frames = frames_from("v", spec)
        a = greedy_link(frames, 0, LinkParams(min_len=1))
        b = greedy_link(frames, 0, LinkParams(min_len=1))
        assert [(p.start_frame, p.boxes, p.scores) for p in a] == \
               [(p.start_frame, p.boxes, p.scores) for p in b]

    def test_bad_gate(self):
        with pytest.raises(ValueError):
            LinkParams(iou_gate=1.5)


# Sparse layouts: a few frames from a wide span, boxes drawn from a few
# overlapping lanes so that paths link, bridge gaps and end on misses.
_lane_box = st.sampled_from([(0, 0, 10, 10), (2, 0, 12, 10), (6, 0, 16, 10), (40, 40, 50, 50)])
_entry = st.tuples(_lane_box, st.integers(0, 1), st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0]))


class TestSparseFrames:
    def test_huge_frame_indices(self):
        frames = frames_from("v", {10**30: [((0, 0, 10, 10), 0, 0.9)],
                                   10**31 + 1: [((0, 0, 10, 10), 0, 0.8)]})
        paths = greedy_link(frames, 0, LinkParams(max_misses=3, min_len=1))
        assert [(p.start_frame, p.scores) for p in paths] == [(10**30, [0.9]),
                                                               (10**31 + 1, [0.8])]

    @given(
        st.dictionaries(st.integers(0, 200), st.lists(_entry, max_size=3), max_size=10),
        st.integers(0, 4),
        st.integers(1, 3),
        st.sampled_from([0.1, 0.5]),
    )
    def test_matches_per_frame_loop(self, spec, max_misses, min_len, gate):
        frames = frames_from("v", spec)
        params = LinkParams(iou_gate=gate, max_misses=max_misses, min_len=min_len)
        for class_id in (0, 1):
            got = greedy_link(frames, class_id, params)
            assert all(p.class_id == class_id for p in got)
            assert [(p.start_frame, p.boxes, p.scores) for p in got] == \
                per_frame_greedy_link(frames, class_id, gate, max_misses, min_len)

    @given(
        st.dictionaries(st.integers(0, 3000), st.lists(_entry, max_size=3), max_size=10),
        st.sampled_from([0, 1, 5, 60, 400, 1500, 2999, 3000, 10**6]),
        st.integers(1, 3),
        st.sampled_from([0.1, 0.5]),
    )
    def test_long_gaps_large_max_misses(self, spec, max_misses, min_len, gate):
        # Gaps of up to 3000 frames against miss limits below, at and above
        # them: a path must end inside a gap exactly when its miss run would
        # exceed the limit there, and bridge it with placeholders otherwise.
        frames = frames_from("v", spec)
        params = LinkParams(iou_gate=gate, max_misses=max_misses, min_len=min_len)
        for class_id in (0, 1):
            got = greedy_link(frames, class_id, params)
            assert [(p.start_frame, p.boxes, p.scores) for p in got] == \
                per_frame_greedy_link(frames, class_id, gate, max_misses, min_len)

    def test_miss_run_across_gap(self):
        frames = frames_from("v", {0: [((0, 0, 10, 10), 0, 0.9)],
                                   1: [((0, 0, 10, 10), 0, 0.8)],
                                   5: [((0, 0, 10, 10), 0, 0.7)]})
        # A gap of 3 frames: bridged at max_misses 3, split at 2.
        (bridged,) = greedy_link(frames, 0, LinkParams(max_misses=3, min_len=1))
        assert bridged.scores == [0.9, 0.8, 0.0, 0.0, 0.0, 0.7]
        assert bridged.boxes[2:5] == [Box(0, 0, 10, 10)] * 3
        split = greedy_link(frames, 0, LinkParams(max_misses=2, min_len=1))
        assert [(p.start_frame, p.scores) for p in split] == [(0, [0.9, 0.8]), (5, [0.7])]


class TestTrimPath:
    def test_all_ones_single_segment(self):
        assert trim_path([1.0] * 6, TrimParams(alpha=1.0, min_segment_length=1)) == [(0, 5)]

    def test_all_zeros_no_segments(self):
        assert trim_path([0.0] * 6, TrimParams(alpha=1.0, min_segment_length=1)) == []

    def test_bridge_beats_split(self):
        segs = trim_path([0.9, 0.9, 0.1, 0.9, 0.9], TrimParams(alpha=0.5, min_segment_length=1))
        assert segs == [(0, 4)]

    def test_zero_alpha_follows_scores(self):
        segs = trim_path([0.9, 0.2, 0.9], TrimParams(alpha=0.0, min_segment_length=1))
        assert segs == [(0, 0), (2, 2)]

    def test_tie_prefers_background(self):
        assert trim_path([0.5, 0.5], TrimParams(alpha=0.0, min_segment_length=1)) == []

    def test_min_segment_length_filters(self):
        segs = trim_path([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                         TrimParams(alpha=0.1, min_segment_length=3))
        assert segs == [(4, 6)]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            trim_path([], TrimParams())

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            trim_path([0.5, 1.2], TrimParams())

    @pytest.mark.parametrize("alpha", [-0.5, float("nan")])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be >= 0, got {alpha}"):
            TrimParams(alpha=alpha)

    def test_infinite_alpha_never_switches(self):
        p = TrimParams(alpha=float("inf"), min_segment_length=1)
        assert trim_path([0.9, 0.9, 0.1], p) == [(0, 2)]
        assert trim_path([0.1, 0.9, 0.1], p) == []

    def test_exhaustive_energy_equality(self):
        rng = np.random.default_rng(53)
        params = TrimParams(alpha=0.5, min_segment_length=1)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            scores = [float(s) for s in rng.uniform(0, 1, n)]
            for alpha in (0.0, 0.5, 3.0):
                p = TrimParams(alpha=alpha, min_segment_length=1)
                segs = trim_path(scores, p)
                labels = segments_to_labels(segs, n)
                best, _ = exhaustive_trim_best(scores, alpha)
                assert labeling_energy(labels, scores, alpha) == best
        del params

    def test_alpha_monotone_change_count(self):
        rng = np.random.default_rng(54)
        for _ in range(40):
            n = int(rng.integers(2, 14))
            scores = [float(s) for s in rng.uniform(0, 1, n)]
            changes = []
            for alpha in (0.0, 0.5, 3.0):
                segs = trim_path(scores, TrimParams(alpha=alpha, min_segment_length=1))
                changes.append(count_changes(segments_to_labels(segs, n)))
            assert changes[0] >= changes[1] >= changes[2]


class TestBuildTubes:
    def test_empty(self):
        assert build_tubes([]) == []

    def test_single_clean_stream(self):
        frames = frames_from("v", {f: [((0, 0, 10, 10), 2, 1.0)] for f in range(10)})
        tubes = build_tubes(frames, LinkParams(min_len=4), TrimParams(alpha=1.0,
                                                                      min_segment_length=2))
        assert len(tubes) == 1
        t = tubes[0]
        assert t.class_id == 2
        assert t.geometry.start_frame == 0
        assert len(t.geometry) == 10
        assert t.tube_score == 1.0

    def test_classes_are_independent(self):
        spec = {f: [((0, 0, 10, 10), 0, 1.0), ((0, 0, 10, 10), 1, 1.0)]
                for f in range(8)}
        tubes = build_tubes(frames_from("v", spec), LinkParams(min_len=4),
                            TrimParams(alpha=1.0, min_segment_length=2))
        assert sorted(t.class_id for t in tubes) == [0, 1]

    def test_class_of_a_single_frame_is_linked(self):
        # Each class is held by one frame only, the first and the last included.
        spec = {f: [((0, 0, 10, 10), f, 1.0)] for f in range(3)}
        tubes = build_tubes(frames_from("v", spec), LinkParams(min_len=1),
                            TrimParams(alpha=1.0, min_segment_length=1))
        assert [(t.class_id, t.geometry.start_frame) for t in tubes] == [(0, 0), (1, 1), (2, 2)]

    def test_tubes_stay_inside_input_range(self):
        rng = np.random.default_rng(55)
        spec = {
            f: [((float(rng.uniform(0, 50)), 0.0, float(rng.uniform(60, 100)), 40.0), 0,
                 float(rng.uniform(0.3, 1)))]
            for f in range(3, 20)
        }
        tubes = build_tubes(frames_from("v", spec), LinkParams(min_len=2),
                            TrimParams(alpha=1.0, min_segment_length=2))
        for t in tubes:
            assert t.geometry.start_frame >= 3
            assert t.geometry.end_frame <= 19
            assert len(t.geometry) >= 2

    def test_jobs_do_not_change_output(self):
        rng = np.random.default_rng(56)
        dets = []
        for v in ("a", "b", "c"):
            for f in range(10):
                x = float(rng.uniform(0, 30))
                dets.append(FrameDetections(v, f, [
                    Detection(Box(x, 0, x + 40, 40), 0, float(rng.uniform(0.5, 1)))
                ]))
        t1 = build_tubes(dets, jobs=1)
        t8 = build_tubes(dets, jobs=8)
        assert t1 == t8


class TestTracksToTubes:
    def _track(self, n=10, start=0):
        return Track("v", "k", TubeGeometry(start, [(t, 0, t + 10, 10) for t in range(n)]))

    def test_dominant_class_spans_track(self):
        tr = self._track(10)
        scores = np.tile([0.9, 0.05], (10, 1))
        ts = TrackScores("v", "k", 0, scores)
        tubes = tracks_to_tubes([tr], {ts.key: ts}, TrimParams(alpha=1.0,
                                                               min_segment_length=2))
        assert len(tubes) == 1
        assert tubes[0].class_id == 0
        assert len(tubes[0].geometry) == 10

    def test_two_phases_two_tubes(self):
        tr = self._track(12)
        mat = np.zeros((12, 2))
        mat[:6, 0] = 0.95
        mat[6:, 1] = 0.95
        ts = TrackScores("v", "k", 0, mat)
        tubes = tracks_to_tubes([tr], {ts.key: ts},
                                TrimParams(alpha=0.5, min_segment_length=2))
        assert len(tubes) == 2
        by_class = {t.class_id: t for t in tubes}
        assert by_class[0].geometry.start_frame == 0
        assert len(by_class[0].geometry) == 6
        assert by_class[1].geometry.start_frame == 6
        assert len(by_class[1].geometry) == 6

    def test_all_background_no_tubes(self):
        tr = self._track(8)
        ts = TrackScores("v", "k", 0, np.full((8, 3), 0.01))
        assert tracks_to_tubes([tr], {ts.key: ts}, TrimParams()) == []

    def test_missing_scores_error(self):
        with pytest.raises(ValueError, match="missing score"):
            tracks_to_tubes([self._track(5)], {}, TrimParams())

    def test_misaligned_scores_error(self):
        tr = self._track(5)
        ts = TrackScores("v", "k", 1, np.full((5, 2), 0.5))
        with pytest.raises(ValueError, match="cover"):
            tracks_to_tubes([tr], {ts.key: ts}, TrimParams())

    def test_exhaustive_oracle_on_trim(self):
        # hand-built score matrix, checked against the 2^T enumeration
        tr = self._track(8)
        rng = np.random.default_rng(57)
        mat = rng.uniform(0, 1, (8, 2))
        ts = TrackScores("v", "k", 0, mat)
        tubes = tracks_to_tubes([tr], {ts.key: ts},
                                TrimParams(alpha=0.5, min_segment_length=1))
        for c in range(2):
            segs = [(t.geometry.start_frame, t.geometry.end_frame)
                    for t in tubes if t.class_id == c]
            labels = segments_to_labels(segs, 8)
            best, _ = exhaustive_trim_best(mat[:, c], 0.5)
            assert labeling_energy(labels, mat[:, c], 0.5) == best


class TestParamCounts:
    FIELDS = [(LinkParams, "max_misses"), (LinkParams, "min_len"),
              (TrimParams, "min_segment_length")]

    @pytest.mark.parametrize("cls, name", FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), 2.5, True, 3.0, "3"])
    def test_non_integer_count_rejected(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name", FIELDS)
    def test_integer_counts_accepted(self, cls, name):
        for value in (3, np.int64(3), np.uint8(3)):
            assert getattr(cls(**{name: value}), name) == 3

    @pytest.mark.parametrize("cls, name, least", [(LinkParams, "max_misses", 0),
                                                  (LinkParams, "min_len", 1),
                                                  (TrimParams, "min_segment_length", 1)])
    def test_count_below_least_rejected(self, cls, name, least):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
            cls(**{name: least - 1})
