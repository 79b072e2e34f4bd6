"""Axis-aligned box arithmetic and spatiotemporal tube overlap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "TubeGeometry", "box_iou", "iou2d", "st_iou"]


@dataclass(frozen=True, init=False)
class Box:
    """Axis-aligned rectangle in continuous pixel coordinates, (x1, y1) <= (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float):
        x1, y1, x2, y2 = coords = (float(x1), float(y1), float(x2), float(y2))
        # -inf < x1 <= x2 < inf also fails for NaN and infinities.
        if not (-math.inf < x1 <= x2 < math.inf and -math.inf < y1 <= y2 < math.inf):
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"box coordinates must be finite, got {coords}")
            raise ValueError(f"box corners out of order: {coords}")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "y2", y2)

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


def iou2d(a: Box, b: Box) -> float:
    """Intersection over union of two boxes.

    Degenerate cases where the union has zero area return 0.0.
    """
    return _tuple_iou((None, a.x1, a.y1, a.x2, a.y2, a.area, None),
                      (None, b.x1, b.y1, b.x2, b.y2, b.area, None))


def _tuple_iou(a: tuple, b: tuple) -> float:
    """IoU of two ``(row, x1, y1, x2, y2, area, score)`` tuples; row and score are unused.

    The one scalar IoU formula: ``iou2d`` and the linking gate both call it.
    Each conditional is the builtin ``min`` or ``max`` of two floats, ``-0.0``
    included.
    """
    _, ax1, ay1, ax2, ay2, a_area, _ = a
    _, bx1, by1, bx2, by2, b_area, _ = b
    iw = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    ih = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = a_area + b_area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou(a, b) -> np.ndarray:
    """Element-wise IoU of two broadcastable (..., 4) float64 box arrays.

    Uses ``iou2d``'s arithmetic in the same order, so every value equals
    ``iou2d`` on the same pair bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # huge boxes: inf or NaN, as iou2d
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        union = area_a + area_b - inter
        # Not `union > 0.0`: an overflowed (NaN) union divides, as in iou2d.
        return np.divide(inter, union, out=np.zeros_like(union), where=~(union <= 0.0))


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _start_frame(value) -> int:
    """``value`` as a Python int, if it is a non-negative Python or numpy integer."""
    if not _is_integer(value):
        raise ValueError(f"start frame must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"start frame must be >= 0, got {value}")
    return int(value)


@dataclass(frozen=True, init=False, eq=False)
class TubeGeometry:
    """A temporally contiguous run of boxes, one per frame from ``start_frame`` (>= 0) on.

    Boxes are stored as a read-only (n, 4) float64 array in (x1, y1, x2, y2)
    order; row i is the box at frame ``start_frame + i``.
    """

    __slots__ = ("start_frame", "boxes")
    start_frame: int
    boxes: np.ndarray

    def __init__(self, start_frame: int, boxes) -> None:
        object.__setattr__(self, "start_frame", _start_frame(start_frame))
        if isinstance(boxes, np.ndarray):
            arr = np.array(boxes, dtype=np.float64)
        else:
            rows = []
            for b in boxes:
                if isinstance(b, Box):
                    rows.append((b.x1, b.y1, b.x2, b.y2))
                else:
                    rows.append(tuple(float(v) for v in b))
            arr = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 4:
            raise ValueError("tube geometry needs a non-empty (n, 4) box array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tube boxes must be finite")
        if np.any(arr[:, 2] < arr[:, 0]) or np.any(arr[:, 3] < arr[:, 1]):
            raise ValueError("tube box corners out of order")
        arr.setflags(write=False)
        object.__setattr__(self, "boxes", arr)

    def __reduce__(self):  # a pickled or copied geometry is checked and read-only too
        return TubeGeometry, (self.start_frame, self.boxes)

    def __len__(self) -> int:
        return self.boxes.shape[0]

    @property
    def end_frame(self) -> int:
        """Last covered frame, inclusive."""
        return self.start_frame + len(self) - 1

    def box_at(self, frame: int) -> Box:
        i = frame - self.start_frame
        if i < 0 or i >= len(self):
            raise IndexError(f"frame {frame} outside [{self.start_frame}, {self.end_frame}]")
        x1, y1, x2, y2 = self.boxes[i]
        return Box(x1, y1, x2, y2)

    def slice(self, start: int, end: int) -> "TubeGeometry":
        """Sub-tube covering local indices [start, end], inclusive."""
        if start < 0 or end >= len(self) or end < start:
            raise ValueError(f"bad slice [{start}, {end}] for tube of length {len(self)}")
        return TubeGeometry(self.start_frame + start, self.boxes[start : end + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TubeGeometry):
            return NotImplemented
        return self.start_frame == other.start_frame and np.array_equal(self.boxes, other.boxes)

    def __repr__(self) -> str:
        return f"TubeGeometry(start={self.start_frame}, length={len(self)})"


def st_iou(a: TubeGeometry, b: TubeGeometry) -> float:
    """Spatiotemporal overlap of two tubes.

    Temporal IoU of the two frame spans, multiplied by the mean per-frame
    box IoU over the frames both tubes cover. Disjoint spans give 0.0.
    """
    lo = max(a.start_frame, b.start_frame)
    hi = min(a.end_frame, b.end_frame)
    if hi < lo:
        return 0.0
    n_inter = hi - lo + 1
    n_union = len(a) + len(b) - n_inter
    ious = box_iou(a.boxes[lo - a.start_frame : hi - a.start_frame + 1],
                   b.boxes[lo - b.start_frame : hi - b.start_frame + 1])
    # Left-to-right like a Python loop; np.sum's pairwise order moves last bits.
    total = float(np.add.accumulate(ious)[-1])
    return (n_inter / n_union) * (total / n_inter)
