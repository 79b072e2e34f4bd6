import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.geometry import Box, TubeGeometry, iou2d, st_iou

from oracles import brute_st_iou, raster_iou


def random_box(rng, span=100.0):
    x1, y1 = rng.uniform(-span, span, 2)
    w, h = rng.uniform(0.1, span / 2, 2)
    return Box(x1, y1, x1 + w, y1 + h)


def random_tube(rng, max_len=20):
    n = int(rng.integers(1, max_len + 1))
    start = int(rng.integers(0, 10))
    base = random_box(rng)
    boxes = []
    for t in range(n):
        dx, dy = rng.uniform(-3, 3, 2)
        boxes.append(Box(base.x1 + dx * t, base.y1 + dy * t,
                         base.x2 + dx * t, base.y2 + dy * t))
    return TubeGeometry(start, boxes)


_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.nan, math.inf, -math.inf]) | st.floats()
_COORDS = (_FLOATS | st.sampled_from([0, 1, -2, True]) | st.floats().map(np.float64)
           | st.floats(width=32).map(np.float32))


class TestBox:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box(0, 0, float("nan"), 1)
        with pytest.raises(ValueError):
            Box(0, 0, float("inf"), 1)

    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(2, 0, 1, 1)
        with pytest.raises(ValueError):
            Box(0, 2, 1, 1)

    def test_zero_area_allowed(self):
        assert Box(1, 1, 1, 1).area == 0.0

    @given(st.lists(_FLOATS, min_size=4, max_size=4) | st.lists(_COORDS, min_size=4, max_size=4))
    @example([0.0, 2.0, 1.0, 1.0])
    @example([2.0, 0.0, 1.0, 1.0])
    @example([0.0, 0.0, 1.0, math.inf])
    @example([-math.inf, 0.0, 1.0, 1.0])
    @example([0.0, 0.0, math.nan, 1.0])
    @example([1, 0.0, 2.0, 1.0])
    @example([0.0, 0.0, np.float64(1.0), 1.0])
    @example([0.0, True, 2.0, 1.0])
    def test_same_values_and_errors_as_the_per_coordinate_checks(self, coords):
        # One chained comparison stands for the per-coordinate checks.
        def outcome(make):
            try:
                return "ok", [(type(v), repr(v)) for v in make()]
            except ValueError as exc:
                return "error", str(exc)

        def reference():
            converted = tuple(float(v) for v in coords)
            for v in converted:
                if not math.isfinite(v):
                    raise ValueError(f"box coordinates must be finite, got {converted}")
            if converted[2] < converted[0] or converted[3] < converted[1]:
                raise ValueError(f"box corners out of order: {converted}")
            return converted

        def box():
            b = Box(*coords)
            return b.x1, b.y1, b.x2, b.y2

        assert outcome(box) == outcome(reference)


class TestIou2d:
    def test_identity(self):
        b = Box(0, 0, 10, 10)
        assert iou2d(b, b) == 1.0

    def test_disjoint(self):
        assert iou2d(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # 2x2 boxes offset by (1, 1): intersection 1, union 7
        value = iou2d(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert value == pytest.approx(1.0 / 7.0, abs=1e-12)
        oracle = raster_iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3), cells_per_unit=64)
        assert value == pytest.approx(oracle, abs=5e-3)

    def test_zero_area_union_is_zero(self):
        b = Box(3, 3, 3, 3)
        assert iou2d(b, b) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou2d(a, b)
            assert v == iou2d(b, a)
            assert 0.0 <= v <= 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-50, 50, 2)
            a2 = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
            b2 = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            assert iou2d(a2, b2) == pytest.approx(iou2d(a, b), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            s = rng.uniform(0.1, 10.0)
            a2 = Box(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
            b2 = Box(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
            assert iou2d(a2, b2) == pytest.approx(iou2d(a, b), abs=1e-9)

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a, b = random_box(rng, span=5.0), random_box(rng, span=5.0)
            assert iou2d(a, b) == pytest.approx(raster_iou(a, b, 64), abs=2e-2)


class TestTubeGeometry:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TubeGeometry(0, [])

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            TubeGeometry(0, [(2, 0, 1, 1)])

    @pytest.mark.parametrize("start", [-1, -3])
    def test_rejects_negative_start(self, start):
        with pytest.raises(ValueError, match=f"start frame must be >= 0, got {start}"):
            TubeGeometry(start, [(0, 0, 1, 1)])

    def test_frames_are_contiguous(self):
        geo = TubeGeometry(3, [(0, 0, 1, 1)] * 4)
        assert len(geo) == 4
        assert geo.end_frame == 6
        assert geo.box_at(5) == Box(0, 0, 1, 1)
        with pytest.raises(IndexError):
            geo.box_at(7)

    def test_slice(self):
        geo = TubeGeometry(2, [(t, 0, t + 1, 1) for t in range(5)])
        sub = geo.slice(1, 3)
        assert sub.start_frame == 3
        assert len(sub) == 3
        assert sub.box_at(3) == Box(1, 0, 2, 1)


class TestStIou:
    def test_identity(self):
        t = random_tube(np.random.default_rng(0))
        assert st_iou(t, t) == 1.0

    def test_disjoint_frames(self):
        a = TubeGeometry(0, [(0, 0, 1, 1)] * 3)
        b = TubeGeometry(10, [(0, 0, 1, 1)] * 3)
        assert st_iou(a, b) == 0.0

    def test_half_overlap_hand_case(self):
        # 10 frames vs 10 frames sharing 5, identical boxes: (5/15) * 1
        boxes = [(0, 0, 10, 10)] * 10
        a = TubeGeometry(0, boxes)
        b = TubeGeometry(5, boxes)
        assert st_iou(a, b) == 1.0 / 3.0

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a, b = random_tube(rng), random_tube(rng)
            v = st_iou(a, b)
            assert v == st_iou(b, a)
            assert 0.0 <= v <= 1.0
            ref = brute_st_iou(a.start_frame, a.boxes, b.start_frame, b.boxes)
            assert v == pytest.approx(ref, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, b = random_tube(rng), random_tube(rng)
            dx, dy = rng.uniform(-40, 40, 2)
            shift = np.array([dx, dy, dx, dy])
            a2 = TubeGeometry(a.start_frame, a.boxes + shift)
            b2 = TubeGeometry(b.start_frame, b.boxes + shift)
            assert st_iou(a2, b2) == pytest.approx(st_iou(a, b), abs=1e-12)
