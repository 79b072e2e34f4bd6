import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.datamodel import FileFormatError, GroundTruthTube, builtin_config
from tubekit.geometry import TubeGeometry
from tubekit.motion import (
    MotionCategory,
    MotionLabel,
    classify_motion,
    label_tubes,
    load_motion_labels,
    motion_cdf,
    motion_iou,
    _motion_rows,
    save_motion_labels,
    tertile_thresholds,
    write_cdf_csv,
)


def moving_tube(n, step, start=0, size=48.0, y=0.0):
    """Horizontal constant-velocity tube; step pixels per frame."""
    boxes = [(step * t, y, step * t + size, y + size) for t in range(n)]
    return TubeGeometry(start, boxes)


MS = builtin_config("multisports")
UCF = builtin_config("ucf24")


class TestMotionIou:
    def test_static_tube_is_one(self):
        v, used = motion_iou(moving_tube(40, 0.0), MS.motion_offsets)
        assert v == 1.0
        assert used == (4, 8, 16, 24, 36)

    def test_short_tube_falls_back_to_one(self):
        v, used = motion_iou(moving_tube(3, 5.0), [4, 8, 16, 24, 36])
        assert v == 1.0
        assert used == ()

    def test_worked_example(self):
        # (0,0,2,2) on frames 0-4 then (1,1,3,3) on frames 5-9, offset 4:
        # window IoUs are [1, 1/7, 1/7, 1/7, 1/7, 1]
        boxes = [(0, 0, 2, 2)] * 5 + [(1, 1, 3, 3)] * 5
        v, used = motion_iou(TubeGeometry(0, boxes), [4])
        assert used == (4,)
        assert v == pytest.approx((2 + 4 / 7) / 6, abs=1e-12)

    def test_unusable_offsets_dropped(self):
        v, used = motion_iou(moving_tube(10, 1.0), [4, 8, 16])
        assert used == (4, 8)

    def test_empty_offsets_error(self):
        with pytest.raises(ValueError):
            motion_iou(moving_tube(10, 1.0), [])
        with pytest.raises(ValueError):
            motion_iou(moving_tube(10, 1.0), [0])

    def test_reversal_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            boxes = np.cumsum(rng.uniform(-4, 4, (n, 2)), axis=0)
            arr = np.concatenate([boxes, boxes + 30.0], axis=1)
            fwd = TubeGeometry(0, arr)
            rev = TubeGeometry(0, arr[::-1])
            v1, u1 = motion_iou(fwd, MS.motion_offsets)
            v2, u2 = motion_iou(rev, MS.motion_offsets)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert u1 == u2

    def test_translation_and_scale_invariance(self):
        tube = moving_tube(30, 2.5)
        v0, _ = motion_iou(tube, MS.motion_offsets)
        shifted = TubeGeometry(0, tube.boxes + np.array([7.0, -3.0, 7.0, -3.0]))
        scaled = TubeGeometry(0, tube.boxes * 3.0)
        assert motion_iou(shifted, MS.motion_offsets)[0] == pytest.approx(v0, abs=1e-12)
        assert motion_iou(scaled, MS.motion_offsets)[0] == pytest.approx(v0, abs=1e-9)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=6),
       st.lists(st.integers(1, 40), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@example([1], [4], 0)
@example([1, 3, 50, 4, 5], [4, 8, 16, 24, 36], 1)
@example([12, 12], [4, 4, 2], 2)
def test_motion_rows_match_motion_iou(lengths, offsets, seed):
    """The batched kernel gives motion_iou's values and used offsets, bit for bit."""
    rng = np.random.default_rng(seed)
    # Random walks of boxes, padded with NaN that the kernel must never read.
    boxes = np.full((len(lengths), max(lengths), 4), np.nan)
    for i, n in enumerate(lengths):
        xy = rng.uniform(0.0, 100.0, 2) + np.cumsum(rng.uniform(-9.0, 9.0, (n, 2)), axis=0)
        boxes[i, :n] = np.concatenate([xy, xy + rng.uniform(5.0, 40.0, (n, 2))], axis=1)
    values, used = _motion_rows(boxes, lengths, offsets)
    for i, n in enumerate(lengths):
        got = (float(values[i]), tuple(d for d, u in zip(offsets, used[i]) if u))
        assert repr(got) == repr(motion_iou(TubeGeometry(0, boxes[i, :n]), offsets))


class TestClassifyMotion:
    @pytest.mark.parametrize("value,expected", [
        (0.0, MotionCategory.LARGE),
        (0.15, MotionCategory.LARGE),
        (0.21, MotionCategory.LARGE),   # boundary stays with the faster side
        (0.2100001, MotionCategory.MEDIUM),
        (0.51, MotionCategory.MEDIUM),
        (0.52, MotionCategory.SMALL),
        (1.0, MotionCategory.SMALL),
    ])
    def test_multisports_boundaries(self, value, expected):
        assert classify_motion(value, MS) == expected

    @pytest.mark.parametrize("value,expected", [
        (0.49, MotionCategory.LARGE),
        (0.66, MotionCategory.MEDIUM),
        (0.70, MotionCategory.SMALL),
    ])
    def test_ucf24_boundaries(self, value, expected):
        assert classify_motion(value, UCF) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_motion(-0.1, MS)
        with pytest.raises(ValueError):
            classify_motion(1.1, MS)

    def test_monotone(self):
        rng = np.random.default_rng(32)
        values = np.sort(rng.uniform(0, 1, 200))
        cats = [classify_motion(v, MS) for v in values]
        assert all(a <= b for a, b in zip(cats, cats[1:]))


class TestLabelTubes:
    def test_empty(self):
        assert label_tubes([], MS) == {}

    def test_static_tube_is_small(self):
        gts = [GroundTruthTube("v", "t", 0, moving_tube(40, 0.0))]
        labels = label_tubes(gts, MS)
        assert labels[("v", "t")].category == MotionCategory.SMALL
        assert labels[("v", "t")].motion_iou == 1.0

    def test_engineered_tertiles(self):
        # Motion targets planted inside each multisports bin: counts split N/3.
        from tubekit.synth import SynthSpec, generate

        spec = SynthSpec(seed=5, num_videos=6, tubes_per_video=3,
                         motion_targets=(0.1, 0.35, 0.8))
        gts, _, _, _, _ = generate(spec)
        labels = label_tubes(gts, MS)
        counts = {cat: 0 for cat in MotionCategory}
        for lab in labels.values():
            counts[lab.category] += 1
        n = len(labels)
        for cat in MotionCategory:
            assert abs(counts[cat] - n / 3) <= 1

    def test_label_file_roundtrip(self, tmp_path):
        gts = [
            GroundTruthTube("v", "slow", 0, moving_tube(40, 0.0)),
            GroundTruthTube("v", "fast", 0, moving_tube(40, 14.0)),
        ]
        labels = label_tubes(gts, MS)
        path = tmp_path / "labels.json"
        save_motion_labels(labels, path)
        assert load_motion_labels(path) == labels
        first = path.read_bytes()
        save_motion_labels(load_motion_labels(path), path)
        assert path.read_bytes() == first

    def test_label_file_number_beyond_float_range(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(
            '{"schema":"tubekit.motion.v1","labels":[{"video":"v","tube":"t",'
            '"motion_iou":1' + "0" * 400 + ',"category":"small","offsets_used":[4]}]}'
        )
        with pytest.raises(FileFormatError, match=r"labels\.json:1: bad label record 0"):
            load_motion_labels(path)

    def test_label_file_bad_record_names_its_line(self, tmp_path):
        # A hand-edited, pretty-printed file: record 1 starts on line 13.
        good = {"video": "v", "tube": "t", "motion_iou": 0.5, "category": "small",
                "offsets_used": [4]}
        bad = dict(good, tube="u", category="huge")
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(
            {"schema": "tubekit.motion.v1", "labels": [good, bad, good]}, indent=2
        ) + "\n")
        assert path.read_text().splitlines()[12] == "    {"
        with pytest.raises(FileFormatError) as exc:
            load_motion_labels(path)
        assert str(exc.value) == (
            f"{path}:13: bad label record 1: unknown motion category 'huge'"
        )

    @pytest.mark.parametrize("change, message", [
        ({"motion_iou": float("nan")}, "field 'motion_iou' = nan outside [0, 1]"),
        ({"motion_iou": float("-inf")}, "field 'motion_iou' = -inf outside [0, 1]"),
        ({"motion_iou": 7.5}, "field 'motion_iou' = 7.5 outside [0, 1]"),
        ({"motion_iou": "0.5"}, "field 'motion_iou' must be a number"),
        ({"offsets_used": [True, 2.9]}, "field 'offsets_used' must be a list of integers >= 1"),
        ({"offsets_used": [-4]}, "field 'offsets_used' must be a list of integers >= 1"),
        ({"offsets_used": 4}, "field 'offsets_used' must be a list of integers >= 1"),
        ({"extra": 1}, "unknown fields: ['extra']"),
        ({"tube": ""}, "field 'tube' must be a non-empty string"),
        ({"category": 5}, "field 'category' must be a non-empty string"),
        ({"tube": "t"}, "duplicate tube 't' in video 'v'"),
    ])
    def test_label_file_records_are_strict(self, tmp_path, change, message):
        good = {"video": "v", "tube": "t", "motion_iou": 0.5, "category": "small",
                "offsets_used": [4]}
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"schema": "tubekit.motion.v1", "labels": [
            good, {**good, "tube": "u", **change}]}, indent=2) + "\n")
        assert path.read_text().splitlines()[12] == "    {"
        with pytest.raises(FileFormatError) as exc:
            load_motion_labels(path)
        assert str(exc.value) == f"{path}:13: bad label record 1: {message}"

    def test_label_file_may_have_no_offsets(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"schema": "tubekit.motion.v1", "labels": [
            {"video": "v", "tube": "t", "motion_iou": 1, "category": "small",
             "offsets_used": []}]}))
        assert load_motion_labels(path) == {
            ("v", "t"): MotionLabel(1.0, MotionCategory.SMALL, ())}

    @pytest.mark.parametrize("labels", [5, None, "x"])
    def test_label_file_labels_must_be_a_list(self, tmp_path, labels):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"schema": "tubekit.motion.v1", "labels": labels}))
        with pytest.raises(FileFormatError, match=r"labels\.json:1: field 'labels' must be a list"):
            load_motion_labels(path)

    def test_tertile_thresholds(self):
        gts = [
            GroundTruthTube("v", f"t{i}", 0, moving_tube(40, s))
            for i, s in enumerate((0.0, 1.0, 2.0, 4.0, 8.0, 12.0))
        ]
        q1, q2 = tertile_thresholds(gts, MS)
        assert 0.0 < q1 < q2 < 1.0


class TestMotionCdf:
    def test_all_static(self):
        gts = [GroundTruthTube("v", f"t{i}", 0, moving_tube(30, 0.0)) for i in range(4)]
        points, excluded = motion_cdf(gts, 25, [0.0, 0.5, 0.99, 1.0])
        assert excluded == 0
        assert [f for _, f in points] == [0.0, 0.0, 0.0, 1.0]

    def test_all_fully_displaced(self):
        gts = [GroundTruthTube("v", f"t{i}", 0, moving_tube(30, 12.0)) for i in range(4)]
        points, excluded = motion_cdf(gts, 25, [0.0, 0.5, 1.0])
        assert points[0][1] == 1.0

    def test_hand_case_two_tubes(self):
        # values {0.0, ~0.8}: edges 0/0.5/1.0 give fractions 0.5/0.5/1.0
        fast = moving_tube(10, 2.0, size=1.0)          # offset 1 moves 2 > box size
        slow = moving_tube(10, 1.0 / 9.0, size=1.0)    # IoU (1-1/9)/(1+1/9) = 0.8
        gts = [
            GroundTruthTube("v", "a", 0, fast),
            GroundTruthTube("v", "b", 0, slow),
        ]
        points, excluded = motion_cdf(gts, 1, [0.0, 0.5, 1.0])
        assert excluded == 0
        assert [f for _, f in points] == [0.5, 0.5, 1.0]

    def test_short_tubes_excluded(self):
        gts = [
            GroundTruthTube("v", "long", 0, moving_tube(30, 0.0)),
            GroundTruthTube("v", "short", 0, moving_tube(5, 0.0)),
        ]
        points, excluded = motion_cdf(gts, 25, [1.0])
        assert excluded == 1
        assert points[0][1] == 1.0

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(33)
        gts = [
            GroundTruthTube("v", f"t{i}", 0, moving_tube(30, float(rng.uniform(0, 10))))
            for i in range(20)
        ]
        edges = np.linspace(0, 1, 21)
        points, _ = motion_cdf(gts, 10, edges)
        fracs = [f for _, f in points]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            motion_cdf([], 25, [])
        with pytest.raises(ValueError):
            motion_cdf([], 0, [0.5])

    def test_csv_output(self, tmp_path):
        path = tmp_path / "cdf.csv"
        write_cdf_csv([(0.0, 0.5), (1.0, 1.0)], 3, path)
        text = path.read_text()
        assert text.splitlines()[0] == "edge,cumulative_fraction,excluded_tubes"
        assert "0.000000,0.500000,3" in text
        assert "1.000000,1.000000,3" in text
