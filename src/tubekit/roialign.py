"""Bilinear RoI pooling of feature grids along track boxes.

Boxes live in image pixels; grids are strided feature maps. The coordinate
transform uses the half-pixel (aligned) convention: feature coordinate =
pixel / stride - 0.5. Sample points falling outside the grid read zero,
which keeps the kernels linear and spares callers any box clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box

__all__ = [
    "FeatureGrid",
    "bilinear_sample",
    "roi_align",
    "align_tracks",
    "spatial_avg_pool",
]


@dataclass
class FeatureGrid:
    """Backbone features for a clip: (frames, channels, height, width) plus stride."""

    values: np.ndarray
    spatial_stride: float

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 4 or min(arr.shape) < 1:
            raise ValueError(f"feature grid must be (T, C, H, W), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature grid must be finite")
        if not (math.isfinite(self.spatial_stride) and self.spatial_stride > 0):
            raise ValueError("spatial stride must be finite and positive")
        self.values = arr
        self.spatial_stride = float(self.spatial_stride)

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


def bilinear_sample(grid: np.ndarray, x: float, y: float) -> np.ndarray:
    """Bilinearly interpolate a (C, H, W) grid at continuous (x, y).

    Integer-neighbor cells outside the grid contribute zero.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("sample coordinates must be finite")
    c, h, w = grid.shape
    x0 = math.floor(x)
    y0 = math.floor(y)
    fx = x - x0
    fy = y - y0
    out = np.zeros(c, dtype=np.float64)
    for yy, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
        if wy == 0.0 or not 0 <= yy < h:
            continue
        for xx, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
            if wx == 0.0 or not 0 <= xx < w:
                continue
            out += grid[:, yy, xx].astype(np.float64) * (wy * wx)
    return out


def _bin_weights(lo, hi, size: int, p: int, s: int) -> np.ndarray:
    """Bilinear weights of each bin's samples along one axis: (..., P, size).

    [lo, hi] (feature coordinates) splits into P bins of s interior samples;
    row i averages the samples of bin i, each spreading 1 - frac onto its
    floor cell and frac onto the next. Cells outside [0, size) have no
    column, so samples there read zero.
    """
    if p < 1:
        raise ValueError("output_size must be >= 1")
    if s < 1:
        raise ValueError("sampling_ratio must be >= 1")
    lo, hi = lo[..., None, None], hi[..., None, None]
    steps = np.arange(p)[:, None] + (np.arange(s) + 0.5) / s
    pos = (lo + steps * ((hi - lo) / p))[..., None]
    cell = np.floor(pos)
    frac = pos - cell
    cols = np.arange(size)
    w = (cell == cols) * (1.0 - frac) + (cell + 1.0 == cols) * frac
    return w.mean(axis=-2)


def roi_align(grid: np.ndarray, box: Box, spatial_stride: float,
              output_size: int = 7, sampling_ratio: int = 2) -> np.ndarray:
    """Pool a (C, H, W) grid over a pixel-space box into (C, P, P) bins.

    The box maps to feature coordinates via the half-pixel transform, is
    split into P x P bins, and each bin averages an s x s lattice of
    interior bilinear samples. Sampling is separable, so the pool is
    wy @ grid @ wx.T with the per-axis weights of ``_bin_weights``. A
    degenerate box collapses every sample to one point and is not an error.
    """
    if not (math.isfinite(spatial_stride) and spatial_stride > 0):
        raise ValueError("spatial stride must be finite and positive")
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 3:
        raise ValueError(f"grid must be (C, H, W), got shape {g.shape}")
    x1, y1, x2, y2 = box.as_array() / spatial_stride - 0.5
    wx = _bin_weights(x1, x2, g.shape[2], output_size, sampling_ratio)
    wy = _bin_weights(y1, y2, g.shape[1], output_size, sampling_ratio)
    return wy @ g @ wx.T


def align_tracks(features: FeatureGrid, tracks, output_size: int = 7,
                 sampling_ratio: int = 2) -> np.ndarray:
    """Pool clip features along each track: returns (n_tracks, T, C, P, P).

    Track frames index the clip window [0, T). Where a track is shorter
    than the clip, its first/last box is replicated outward in time. A
    track entirely outside the window is an error.
    """
    T, c, h, w = features.values.shape
    boxes = np.empty((len(tracks), T, 4), dtype=np.float64)
    for n, tr in enumerate(tracks):
        geo = tr.geometry
        if geo.start_frame >= T:
            raise ValueError(
                f"track {tr.key} covers frames [{geo.start_frame}, {geo.end_frame}], "
                f"outside the clip window [0, {T})"
            )
        boxes[n] = geo.boxes[np.clip(np.arange(T) - geo.start_frame, 0, len(geo) - 1)]
    x1, y1, x2, y2 = np.moveaxis(boxes / features.spatial_stride - 0.5, -1, 0)
    wx = _bin_weights(x1, x2, w, output_size, sampling_ratio).swapaxes(-1, -2)
    wy = _bin_weights(y1, y2, h, output_size, sampling_ratio)
    out = np.empty((len(tracks), T, c, output_size, output_size), dtype=np.float64)
    # One frame at a time for all tracks: a whole-clip contraction would hold
    # an (N, T, C, P, W) float64 temporary. Casting the frame once and writing
    # into `out` keeps per-frame temporaries to one (N, C, P, W) block; with
    # matmul's own cast and a result copy, pool-features' peak RSS rose 9%.
    for f in range(T):
        frame = features.values[f].astype(np.float64)
        np.matmul(wy[:, f, None] @ frame, wx[:, f, None], out=out[:, f])
    return out


def spatial_avg_pool(track_features: np.ndarray) -> np.ndarray:
    """Average the trailing (P, P) cells: (..., C, P, P) -> (..., C)."""
    arr = np.asarray(track_features)
    if arr.ndim < 3:
        raise ValueError(f"expected (..., C, P, P), got shape {arr.shape}")
    return arr.mean(axis=(-2, -1))
