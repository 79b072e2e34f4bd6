import numpy as np
import pytest

from tubekit.datamodel import Track
from tubekit.geometry import Box, TubeGeometry
from tubekit.roialign import (
    _MAX_BIN_WEIGHTS,
    FeatureGrid,
    align_tracks,
    bilinear_sample,
    roi_align,
    spatial_avg_pool,
)

from oracles import naive_roi_align


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(71)
        grid = rng.standard_normal((3, 5, 6))
        assert np.array_equal(bilinear_sample(grid, 4.0, 2.0), grid[:, 2, 4])

    def test_far_outside_zero(self):
        grid = np.ones((2, 4, 4))
        assert np.array_equal(bilinear_sample(grid, 100.0, 100.0), np.zeros(2))
        assert np.array_equal(bilinear_sample(grid, -50.0, 1.0), np.zeros(2))

    def test_midpoint_is_mean(self):
        grid = np.zeros((1, 2, 2))
        grid[0, 0, 0] = 2.0
        grid[0, 0, 1] = 4.0
        assert bilinear_sample(grid, 0.5, 0.0)[0] == pytest.approx(3.0, abs=1e-12)

    def test_border_fade(self):
        # half a cell outside: only one neighbor contributes with weight 0.5
        grid = np.full((1, 3, 3), 10.0)
        assert bilinear_sample(grid, -0.5, 0.0)[0] == pytest.approx(5.0, abs=1e-12)

    def test_nonfinite_error(self):
        with pytest.raises(ValueError):
            bilinear_sample(np.zeros((1, 2, 2)), float("nan"), 0.0)


class TestRoiAlign:
    def test_constant_grid(self):
        grid = np.full((2, 8, 8), 3.25)
        out = roi_align(grid, Box(16, 16, 96, 96), 16.0, output_size=4, sampling_ratio=2)
        assert out.shape == (2, 4, 4)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_whole_grid_p1_s1_samples_center(self):
        rng = np.random.default_rng(72)
        grid = rng.standard_normal((1, 5, 5))
        out = roi_align(grid, Box(0, 0, 5 * 16, 5 * 16), 16.0, output_size=1,
                        sampling_ratio=1)
        assert out[0, 0, 0] == pytest.approx(grid[0, 2, 2], abs=1e-12)

    def test_degenerate_box_no_error(self):
        grid = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = roi_align(grid, Box(32, 32, 32, 32), 16.0, output_size=2, sampling_ratio=2)
        assert out.shape == (1, 2, 2)
        assert np.all(np.isfinite(out))

    def test_oracle_equivalence_batch(self):
        rng = np.random.default_rng(74)
        for _ in range(50):
            c = int(rng.integers(1, 4))
            grid = rng.standard_normal((c, 6, 6))
            x1, y1 = rng.uniform(-20, 80, 2)
            box = Box(x1, y1, x1 + rng.uniform(1, 60), y1 + rng.uniform(1, 60))
            p = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            out = roi_align(grid, box, 16.0, output_size=p, sampling_ratio=s)
            ref = naive_roi_align(grid, box, 16.0, p, s)
            assert np.allclose(out, ref, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(75)
        a = rng.standard_normal((2, 6, 6))
        b = rng.standard_normal((2, 6, 6))
        box = Box(10, 5, 70, 88)
        alpha, beta = 0.7, -1.3
        lhs = roi_align(alpha * a + beta * b, box, 16.0)
        rhs = alpha * roi_align(a, box, 16.0) + beta * roi_align(b, box, 16.0)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_integer_shift_equivariance(self):
        rng = np.random.default_rng(76)
        grid = rng.standard_normal((1, 10, 10))
        shifted = np.roll(grid, (2, 3), axis=(1, 2))
        box = Box(3 * 16, 3 * 16, 5 * 16, 5 * 16)      # interior box
        box_shifted = Box((3 + 3) * 16, (3 + 2) * 16, (5 + 3) * 16, (5 + 2) * 16)
        out = roi_align(grid, box, 16.0, output_size=2, sampling_ratio=2)
        out_shifted = roi_align(shifted, box_shifted, 16.0, output_size=2, sampling_ratio=2)
        assert np.allclose(out, out_shifted, atol=1e-9)

    def test_param_validation(self):
        grid = np.zeros((1, 4, 4))
        with pytest.raises(ValueError):
            roi_align(grid, Box(0, 0, 1, 1), 16.0, output_size=0)
        with pytest.raises(ValueError):
            roi_align(grid, Box(0, 0, 1, 1), 16.0, sampling_ratio=0)
        with pytest.raises(ValueError):
            roi_align(grid, Box(0, 0, 1, 1), 0.0)

    def test_bin_weights_bounded_before_allocation(self):
        n = _MAX_BIN_WEIGHTS + 1  # one box on a one-cell grid
        with pytest.raises(ValueError, match=f"output_size {n} with sampling_ratio 1 needs {n} "
                                             f"bin weights, more than {_MAX_BIN_WEIGHTS}"):
            roi_align(np.zeros((1, 1, 1)), Box(0, 0, 1, 1), 16.0, output_size=n, sampling_ratio=1)


def make_track(video, track_id, start, boxes):
    return Track(video, track_id, TubeGeometry(start, boxes))


class TestAlignTracks:
    def test_full_track_matches_direct_calls(self):
        rng = np.random.default_rng(77)
        grid = FeatureGrid(rng.standard_normal((4, 2, 6, 6)), 16.0)
        boxes = [(10 + t, 10, 42 + t, 42) for t in range(4)]
        tr = make_track("v", "k", 0, boxes)
        out = align_tracks(grid, [tr], output_size=3, sampling_ratio=2)
        assert out.shape == (1, 4, 2, 3, 3)
        for f in range(4):
            direct = roi_align(grid.values[f], Box(*boxes[f]), 16.0, 3, 2)
            assert np.allclose(out[0, f], direct, atol=1e-12)

    def test_short_track_replicates_last_box(self):
        rng = np.random.default_rng(78)
        T = 10
        grid = FeatureGrid(rng.standard_normal((T, 1, 6, 6)), 16.0)
        boxes = [(10 + 2 * t, 10, 42 + 2 * t, 42) for t in range(T - 5)]
        tr = make_track("v", "k", 0, boxes)
        out = align_tracks(grid, [tr], output_size=2, sampling_ratio=2)
        last_box = Box(*boxes[-1])
        for f in range(T - 5, T):
            expected = roi_align(grid.values[f], last_box, 16.0, 2, 2)
            assert np.allclose(out[0, f], expected, atol=1e-12)

    def test_late_start_replicates_first_box(self):
        rng = np.random.default_rng(79)
        grid = FeatureGrid(rng.standard_normal((6, 1, 6, 6)), 16.0)
        boxes = [(20, 20, 60, 60)] * 3
        tr = make_track("v", "k", 3, boxes)
        out = align_tracks(grid, [tr], output_size=2, sampling_ratio=2)
        for f in range(3):
            expected = roi_align(grid.values[f], Box(20, 20, 60, 60), 16.0, 2, 2)
            assert np.allclose(out[0, f], expected, atol=1e-12)

    def test_static_grid_and_box_constant_in_time(self):
        grid = FeatureGrid(np.tile(np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6),
                                   (5, 1, 1, 1)), 16.0)
        tr = make_track("v", "k", 0, [(10, 10, 70, 70)] * 5)
        out = align_tracks(grid, [tr], output_size=3)
        for f in range(1, 5):
            assert np.array_equal(out[0, f], out[0, 0])

    def test_track_outside_window_is_error(self):
        grid = FeatureGrid(np.zeros((4, 1, 6, 6)), 16.0)
        tr = make_track("v", "k", 10, [(0, 0, 10, 10)] * 2)
        with pytest.raises(ValueError, match="k"):
            align_tracks(grid, [tr])

    def test_output_shape(self):
        grid = FeatureGrid(np.zeros((3, 5, 6, 6)), 16.0)
        tracks = [make_track("v", f"k{i}", 0, [(0, 0, 10, 10)] * 3) for i in range(4)]
        out = align_tracks(grid, tracks, output_size=7, sampling_ratio=2)
        assert out.shape == (4, 3, 5, 7, 7)


class TestSpatialAvgPool:
    def test_constant(self):
        arr = np.full((2, 3, 4, 7, 7), 1.5)
        out = spatial_avg_pool(arr)
        assert out.shape == (2, 3, 4)
        assert np.allclose(out, 1.5, atol=1e-12)

    def test_single_cell_identity(self):
        rng = np.random.default_rng(80)
        arr = rng.standard_normal((2, 3, 4, 1, 1))
        assert np.array_equal(spatial_avg_pool(arr), arr[..., 0, 0])

    def test_hand_mean(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2)
        assert spatial_avg_pool(arr)[0] == pytest.approx(2.5, abs=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            spatial_avg_pool(np.zeros((3, 3)))


class TestFeatureGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((2, 2, 2)), 16.0)
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((1, 1, 1, 1)), 0.0)
        with pytest.raises(ValueError):
            FeatureGrid(np.full((1, 1, 1, 1), np.nan), 16.0)

    @pytest.mark.parametrize("stride", [np.nan, np.inf])
    def test_stride_must_be_finite_and_positive(self, stride):
        with pytest.raises(ValueError, match="stride"):
            FeatureGrid(np.zeros((1, 1, 1, 1)), stride)
