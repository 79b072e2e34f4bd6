"""Motion-speed labeling of tubes from multi-offset self-overlap.

A tube's motion value is the IoU between its own boxes taken at fixed frame
offsets, averaged per offset over a sliding window and then across offsets.
Fast actors overlap little with themselves and score low; static actors
score near 1.0.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .datamodel import _JSON_SPACE, DatasetConfig, FileFormatError, load_json
from .datamodel import _check_fields, _get_number, _get_str  # the NDJSON record checks
from .geometry import TubeGeometry, _is_integer, box_iou
from .jsonfmt import dumps, format_float

__all__ = [
    "MotionCategory",
    "MotionLabel",
    "motion_iou",
    "classify_motion",
    "label_tubes",
    "motion_cdf",
    "save_motion_labels",
    "load_motion_labels",
    "write_cdf_csv",
]

MOTION_LABELS_SCHEMA = "tubekit.motion.v1"

# Box pairs one _motion_rows call may score (about 90 bytes each of box_iou
# temporaries), unless one tube alone needs more. Labelling and synth's speed
# bisection both group their tubes under it. Of 2^11 to 2^17, 2^13 labelled
# fastest both the benchmark's tubes (37-600 frames) and 20 tubes of 50-8,000,
# on a 2-vCPU Xeon VM.
_MAX_PAIRS = 2**13


class MotionCategory(enum.IntEnum):
    """Ordered by self-overlap: LARGE motion overlaps least, SMALL most."""

    LARGE = 0
    MEDIUM = 1
    SMALL = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "MotionCategory":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown motion category '{label}'") from None


@dataclass(frozen=True)
class MotionLabel:
    motion_iou: float
    category: MotionCategory
    offsets_used: tuple


def motion_iou(tube: TubeGeometry, offsets) -> tuple:
    """Mean self-overlap of a tube at the given frame offsets.

    For each offset d shorter than the tube, the IoU of box pairs (t, t+d) is
    averaged over all windows; the final value averages those per-offset
    means. A tube shorter than every offset has no measurable motion and
    yields (1.0, ()).
    """
    offsets = _checked_offsets(offsets)
    boxes = tube.boxes
    n = len(boxes)
    per_offset = []
    used = []
    for d in offsets:
        if n <= d:
            continue
        # Summed left to right, as st_iou does, so values match a scalar loop.
        total = float(np.add.accumulate(box_iou(boxes[: n - d], boxes[d:]))[-1])
        per_offset.append(total / (n - d))
        used.append(d)
    if not used:
        return 1.0, ()
    return sum(per_offset) / len(per_offset), tuple(used)


def _checked_offsets(offsets) -> list:
    """``offsets`` as a list of Python ints, if each is a positive integer (not a bool)."""
    offsets = list(offsets)
    if not offsets:
        raise ValueError("offsets must be non-empty")
    for d in offsets:
        if not _is_integer(d):
            raise ValueError(f"offsets must be integers, got {d!r}")
    if any(d <= 0 for d in offsets):
        raise ValueError("offsets must be positive")
    return [int(d) for d in offsets]


def _pair_groups(lengths, num_offsets: int) -> list:
    """Split tubes, longest first, into index arrays for one ``_motion_rows`` call each.

    A group of k tubes padded to its first (longest) tube's L frames scores
    k * L * num_offsets box pairs: at most ``_MAX_PAIRS``, or one tube.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    groups = []
    i = 0
    while i < len(order):
        size = max(1, _MAX_PAIRS // (int(lengths[order[i]]) * num_offsets))
        groups.append(order[i:i + size])
        i += size
    return groups


def _motion_values(tubes, offsets) -> list:
    """``motion_iou(tube, offsets)`` of every tube, in order, equal to it bit for bit.

    Each group of ``_pair_groups`` is scored with one ``_motion_rows`` call,
    except a tube whose pairs alone exceed ``_MAX_PAIRS``: the kernel's
    temporaries then outgrow the cache, and ``motion_iou``'s one ``box_iou``
    call per offset is 2-3x faster (20 tubes of 4,000 frames on a 2-vCPU Xeon
    VM: 12 against 28 ms).
    """
    offsets = _checked_offsets(offsets)
    lengths = [len(tube) for tube in tubes]
    results = [None] * len(tubes)
    for rows in _pair_groups(lengths, len(offsets)):
        if lengths[rows[0]] * len(offsets) > _MAX_PAIRS:
            results[rows[0]] = motion_iou(tubes[rows[0]], offsets)
            continue
        boxes = np.zeros((len(rows), lengths[rows[0]], 4))
        for row, i in enumerate(rows):
            boxes[row, :lengths[i]] = tubes[i].boxes
        values, used = _motion_rows(boxes, [lengths[i] for i in rows], offsets)
        for i, value, mask in zip(rows, values.tolist(), used.tolist()):
            results[i] = (value, tuple(d for d, u in zip(offsets, mask) if u))
    return results


def _motion_rows(boxes, lengths, offsets) -> tuple:
    """``motion_iou`` of k tubes at once, equal to it bit for bit.

    Row i of the (k, L, 4) ``boxes`` holds a tube of ``lengths[i]`` boxes,
    padded to L. One ``box_iou`` call scores the pairs (t, t+d) of every
    offset d as a (k, offsets, L) array; pairs past a row's end are clipped
    and never summed. Returns the (k,) motion values and the
    (k, len(offsets)) mask of the offsets each row used.
    """
    offsets = np.asarray(offsets)
    lengths = np.asarray(lengths)[:, None]
    k, width = boxes.shape[:2]
    later = np.take(boxes, np.arange(width) + offsets[:, None], axis=1, mode="clip")
    sums = np.add.accumulate(box_iou(boxes[:, None], later), axis=2)
    used = lengths > offsets
    windows = np.maximum(lengths - offsets, 1)
    means = sums[np.arange(k)[:, None], np.arange(len(offsets)), windows - 1] / windows
    # Left to right from 0 over the used offsets, as motion_iou's sum().
    total = np.add.accumulate(np.where(used, means, 0.0), axis=1)[:, -1]
    count = used.sum(axis=1)
    return np.where(count > 0, total / np.maximum(count, 1), 1.0), used


def classify_motion(value: float, config: DatasetConfig) -> MotionCategory:
    """Bin a motion value into LARGE / MEDIUM / SMALL.

    Boundary values belong to the faster category: b1 itself is LARGE and
    b2 itself is MEDIUM.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"motion value {value} outside [0, 1]")
    b1, b2 = config.motion_bins
    if value <= b1:
        return MotionCategory.LARGE
    if value <= b2:
        return MotionCategory.MEDIUM
    return MotionCategory.SMALL


def label_tubes(gts, config: DatasetConfig) -> dict:
    """Label every ground-truth tube; keys are (video, tube) pairs."""
    labels = {}
    for gt, (value, used) in zip(gts, _motion_values([gt.geometry for gt in gts],
                                                      config.motion_offsets)):
        labels[gt.key] = MotionLabel(value, classify_motion(value, config), used)
    return labels


def motion_cdf(gts, pair_offset_frames: int, bin_edges) -> tuple:
    """Cumulative distribution of per-tube self-overlap at one frame offset.

    Each tube contributes the mean IoU over all in-tube box pairs separated
    by ``pair_offset_frames``; tubes too short for even one pair are
    excluded. Returns ([(edge, fraction_of_tubes_with_value <= edge)], excluded).
    """
    if not _is_integer(pair_offset_frames):
        raise ValueError(f"pair offset must be an integer, got {pair_offset_frames!r}")
    if pair_offset_frames < 1:
        raise ValueError("pair offset must be >= 1 frame")
    edges = [float(e) for e in bin_edges]
    if not edges:
        raise ValueError("bin edges must be non-empty")
    if np.isnan(edges).any():
        raise ValueError("bin edges must not be NaN")
    if sorted(edges) != edges:
        raise ValueError("bin edges must be ascending")
    measured = _motion_values([gt.geometry for gt in gts], [pair_offset_frames])
    values = [value for value, used in measured if used]
    excluded = len(measured) - len(values)
    at_or_below = np.searchsorted(np.sort(values), edges, side="right").tolist()
    return [(e, count / len(values) if values else 0.0)
            for e, count in zip(edges, at_or_below)], excluded


def write_cdf_csv(points, excluded: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("edge,cumulative_fraction,excluded_tubes\n")
        for edge, frac in points:
            fh.write(f"{format_float(edge)},{format_float(frac)},{excluded}\n")


def save_motion_labels(labels: dict, path) -> None:
    records = []
    for (video, tube) in sorted(labels):
        lab = labels[(video, tube)]
        records.append({
            "video": video,
            "tube": tube,
            "motion_iou": float(lab.motion_iou),
            "category": lab.category.label,
            "offsets_used": [int(d) for d in lab.offsets_used],
        })
    payload = {"schema": MOTION_LABELS_SCHEMA, "labels": records}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(payload) + "\n")


def _label_record_line(text: str, index: int) -> int:
    """Line on which element ``index`` of the top-level ``labels`` array starts.

    ``text`` must hold a JSON object whose (last) ``labels`` member is an
    array with more than ``index`` elements.
    """
    decoder = json.JSONDecoder()

    def skip(pos):
        return _JSON_SPACE.match(text, pos).end()

    pos = skip(skip(0) + 1)  # past '{'
    while text[pos] != "}":
        key, pos = decoder.raw_decode(text, pos)
        pos = skip(skip(pos) + 1)  # past ':'
        if key == "labels":
            array = pos
        pos = skip(decoder.raw_decode(text, pos)[1])
        if text[pos] == ",":
            pos = skip(pos + 1)
    pos = skip(array + 1)  # past '['
    for _ in range(index):
        pos = skip(skip(decoder.raw_decode(text, pos)[1]) + 1)  # past ','
    return text.count("\n", 0, pos) + 1


def _label_records(obj) -> list:
    if not isinstance(obj, dict) or obj.get("schema") != MOTION_LABELS_SCHEMA:
        raise ValueError(f"expected schema '{MOTION_LABELS_SCHEMA}'")
    records = obj.get("labels", [])
    if not isinstance(records, list):
        raise ValueError("field 'labels' must be a list")
    return records


def load_motion_labels(path) -> dict:
    """Read labels written by ``save_motion_labels``; a bad record is reported at its line."""
    labels = {}
    for i, rec in enumerate(load_json(path, _label_records)):
        try:
            if not isinstance(rec, dict):
                raise ValueError("record must be a JSON object")
            _check_fields(rec, ("video", "tube", "motion_iou", "category", "offsets_used"))
            key = (_get_str(rec, "video"), _get_str(rec, "tube"))
            value = _get_number(rec["motion_iou"], "field 'motion_iou'")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"field 'motion_iou' = {value} outside [0, 1]")
            category = MotionCategory.from_label(_get_str(rec, "category"))
            offsets = rec["offsets_used"]
            if not isinstance(offsets, list) or not all(type(d) is int and d > 0 for d in offsets):
                raise ValueError("field 'offsets_used' must be a list of integers >= 1")
            if key in labels:
                raise ValueError(f"duplicate tube '{key[1]}' in video '{key[0]}'")
            labels[key] = MotionLabel(value, category, tuple(offsets))
        except ValueError as exc:
            with open(path, "r", encoding="utf-8") as fh:
                line = _label_record_line(fh.read(), i)
            raise FileFormatError(path, line, f"bad label record {i}: {exc}") from None
    return labels


def tertile_thresholds(gts, config: DatasetConfig) -> tuple:
    """Empirical 1/3 and 2/3 quantiles of the dataset's motion values."""
    return tertiles([value for value, _ in _motion_values([gt.geometry for gt in gts],
                                                          config.motion_offsets)])


def tertiles(values) -> tuple:
    """Empirical 1/3 and 2/3 quantiles of motion values, in any order."""
    values = list(values)
    if not values:
        raise ValueError("no tubes to compute tertiles from")
    q1, q2 = np.quantile(np.array(values, dtype=np.float64), [1.0 / 3.0, 2.0 / 3.0])
    return float(q1), float(q2)
