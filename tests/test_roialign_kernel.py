"""The separable RoIAlign kernel against the per-sample bilinear oracle.

``roi_align`` and ``align_tracks`` contract per-axis weight matrices instead
of sampling the grid point by point, so they sum in another order than
``oracles.naive_roi_align``. Grid values lie in [-1, 1) and each bin's weights
sum to at most 1, so the two agree to a few float64 rounding steps; ATOL
leaves two orders of magnitude of room above that.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from tubekit.datamodel import Track
from tubekit.geometry import Box, TubeGeometry
from tubekit.roialign import FeatureGrid, align_tracks, roi_align

from oracles import naive_roi_align

ATOL = 1e-12
STRIDE = 16.0
CELLS = 6  # grid cells per side at most; boxes reach three grids beyond it

# Coordinates on the cell lattice hit exact sample/cell coincidences; arbitrary
# floats put boxes partly or fully outside the grid.
coord = (st.integers(-3 * CELLS, 4 * CELLS).map(lambda k: k * STRIDE / 2)
         | st.floats(-3 * CELLS * STRIDE, 4 * CELLS * STRIDE, allow_nan=False))
extent = st.sampled_from([0.0, STRIDE]) | st.floats(0.0, 2 * CELLS * STRIDE)


@st.composite
def box_rows(draw):
    x1, y1 = draw(coord), draw(coord)
    return (x1, y1, x1 + draw(extent), y1 + draw(extent))


def random_values(seed, shape):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, shape)


class TestRoiAlign:
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 3), st.integers(1, CELLS), st.integers(1, CELLS)),
        box_rows(), st.integers(1, 4), st.integers(1, 3),
    )
    @example(0, (2, 4, 5), (24.0, 24.0, 24.0, 24.0), 2, 2)         # degenerate box
    @example(0, (2, 4, 5), (-200.0, -90.0, -100.0, -10.0), 3, 2)   # fully outside
    @example(0, (2, 4, 5), (-40.0, 30.0, 50.0, 120.0), 3, 2)       # partly outside
    @example(0, (1, 3, 3), (0.0, 0.0, 48.0, 48.0), 1, 1)           # whole grid
    def test_matches_oracle(self, seed, shape, row, p, s):
        grid = random_values(seed, shape)
        box = Box(*row)
        got = roi_align(grid, box, STRIDE, output_size=p, sampling_ratio=s)
        ref = naive_roi_align(grid, box, STRIDE, p, s)
        assert got.shape == ref.shape == (shape[0], p, p)
        assert np.abs(got - ref).max() <= ATOL


@st.composite
def clips(draw):
    """A (T, C, H, W) clip and 2-5 tracks that start late, end early or overhang."""
    T = draw(st.integers(2, 5))
    shape = (T, draw(st.integers(1, 2)), draw(st.integers(1, CELLS)),
             draw(st.integers(1, CELLS)))
    tracks = []
    for n in range(draw(st.integers(2, 5))):
        start = draw(st.integers(0, T - 1))
        rows = draw(st.lists(box_rows(), min_size=1, max_size=T + 1))
        tracks.append(Track("v", f"k{n}", TubeGeometry(start, rows)))
    return draw(st.integers(0, 2**32 - 1)), shape, tracks


class TestAlignTracks:
    @given(clips(), st.integers(1, 3), st.integers(1, 2))
    def test_each_track_frame_matches_oracle_on_clamped_box(self, clip, p, s):
        seed, shape, tracks = clip
        features = FeatureGrid(random_values(seed, shape), STRIDE)
        got = align_tracks(features, tracks, output_size=p, sampling_ratio=s)
        T, c = shape[:2]
        assert got.shape == (len(tracks), T, c, p, p)
        for n, tr in enumerate(tracks):
            geo = tr.geometry
            for f in range(T):
                box = geo.box_at(min(max(f, geo.start_frame), geo.end_frame))
                ref = naive_roi_align(features.values[f], box, STRIDE, p, s)
                assert np.abs(got[n, f] - ref).max() <= ATOL
