"""Seeded synthetic fixtures: planted tubes with prescribed motion levels.

Each video plants constant-velocity boxes in disjoint horizontal lanes, so
same-class tubes never collide during linking. The velocity is solved by
bisection so the tube's measured motion value hits a requested target;
detections and tracks derive from the planted geometry with optional drop,
jitter, spurious and fragmentation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import (
    DatasetConfig,
    Detection,
    FrameDetections,
    GroundTruthTube,
    Track,
    _from_json_object,
    builtin_config,
)
from .geometry import Box, TubeGeometry
from .motion import _motion_rows, _pair_groups, classify_motion, motion_iou
from .roialign import FeatureGrid

__all__ = ["SynthSpec", "generate", "spec_from_dict"]

_CANVAS = 1024.0
_BOX = 48.0
_MARGIN = 8.0
# Bounds on the work a spec may ask for: planted frames, and float32 feature values (1 GiB).
_MAX_FRAMES = 10**5
_MAX_FEATURE_VALUES = 2**28


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    num_videos: int = 20
    frames_per_video: int = 40
    num_classes: int = 3
    tubes_per_video: int = 3
    motion_targets: tuple = (1.0, 0.5, 0.1)
    jitter_sigma: float = 0.0
    drop_rate: float = 0.0
    spurious_rate: float = 0.0
    fragmentation_rate: float = 0.0
    dataset: str = "multisports"
    emit_features: bool = False
    feature_channels: int = 576
    feature_cells: int = 12

    def __post_init__(self):
        object.__setattr__(self, "motion_targets",
                           tuple(float(t) for t in self.motion_targets))
        if self.num_videos < 1 or self.frames_per_video < 2:
            raise ValueError("need at least one video of at least two frames")
        if self.num_classes < 1 or self.tubes_per_video < 1:
            raise ValueError("need at least one class and one tube per video")
        if not self.motion_targets:
            raise ValueError("motion_targets must be non-empty")
        for t in self.motion_targets:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"motion target {t} outside [0, 1]")
        for name in ("drop_rate", "spurious_rate", "fragmentation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")
        if self.jitter_sigma < 0.0:
            raise ValueError("jitter_sigma must be >= 0")
        if self.feature_channels < 1 or self.feature_cells < 1:
            raise ValueError("feature dimensions must be >= 1")
        frames = self.num_videos * self.frames_per_video
        if frames > _MAX_FRAMES:
            raise ValueError(f"spec plants {frames} frames, more than {_MAX_FRAMES}")
        values = frames * self.feature_channels * self.feature_cells**2
        if self.emit_features and values > _MAX_FEATURE_VALUES:
            raise ValueError(
                f"spec emits {values} feature values, more than {_MAX_FEATURE_VALUES}")


def spec_from_dict(obj: dict) -> SynthSpec:
    """Build a spec from a parsed JSON object, rejecting unknown or mistyped fields."""
    return _from_json_object(SynthSpec, obj, "synth spec")


def _lane_geometry(length: int, start: int, speed: float, direction: int,
                   lane_y: float) -> TubeGeometry:
    x0 = _MARGIN if direction > 0 else _CANVAS - _BOX - _MARGIN
    x = x0 + direction * speed * np.arange(length)
    y = np.full(length, lane_y)
    return TubeGeometry(start, np.stack([x, y, x + _BOX, y + _BOX], axis=1))


def _solve_speeds(targets, lengths, directions, lane_ys, offsets) -> list:
    """Bisection on speed so each planted tube's motion value hits its target.

    Every tube of a group is bisected in lockstep: one round builds all their
    lanes, as ``_lane_geometry`` does, and scores them with one ``_motion_rows``
    call. The groups are ``motion._pair_groups``, longest tube first. Returns
    one (speed, achieved) per tube, in order; speed is None where even the
    fastest lane overlaps itself too much.
    """
    columns = [np.array(c) for c in (targets, lengths, directions, lane_ys)]
    solved = [None] * len(targets)
    for rows in _pair_groups(lengths, len(offsets)):
        for i, result in zip(rows, _solve_group(*(c[rows] for c in columns), offsets)):
            solved[i] = result
    return solved


def _solve_group(targets, lengths, directions, lane_ys, offsets) -> list:
    """``_solve_speeds`` for one group of tubes, given as arrays."""
    x0 = np.where(directions > 0, _MARGIN, _CANVAS - _BOX - _MARGIN)
    steps = np.arange(lengths.max())

    def measure(rows, speeds):
        x = x0[rows, None] + (directions[rows] * speeds)[:, None] * steps
        y = np.broadcast_to(lane_ys[rows, None], x.shape)
        boxes = np.stack([x, y, x + _BOX, y + _BOX], axis=2)
        return _motion_rows(boxes, lengths[rows], offsets)[0]

    max_travel = _CANVAS - _BOX - 2.0 * _MARGIN
    v_max = max_travel / np.maximum(lengths - 1, 1)
    rows = np.arange(len(targets))
    still = measure(rows, np.zeros(len(rows)))
    fastest = measure(rows, v_max)
    settled = (targets >= 1.0) | (still <= targets)
    live = rows[~settled & ~(fastest > targets + 0.02)]
    lo, hi = np.zeros(len(live)), v_max[live]
    for _ in range(60 if len(live) else 0):
        mid = 0.5 * (lo + hi)
        above = measure(live, mid) > targets[live]
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    solved = [(0.0, s) if done else (None, f)
              for s, f, done in zip(still.tolist(), fastest.tolist(), settled)]
    for i, speed, achieved in zip(live, hi.tolist(), measure(live, hi).tolist()):
        solved[i] = (speed, achieved)
    return solved


def generate(spec: SynthSpec, config: DatasetConfig | None = None) -> tuple:
    """Build (gts, detections, tracks, oracle_report, features) for a spec.

    Deterministic for a given spec: every video uses an rng derived from
    (seed, video index). The oracle report records each planted tube's
    measured motion value and category.
    """
    config = config or builtin_config(spec.dataset)
    min_len = min(16, spec.frames_per_video)
    lane_h = _CANVAS / spec.tubes_per_video
    if lane_h < _BOX + 2.0:
        raise ValueError(f"too many tubes per video ({spec.tubes_per_video}) for the canvas")

    gts: list = []
    detections: list = []
    tracks: list = []
    features: dict = {}
    report_tubes: list = []

    for vi in range(spec.num_videos):
        video_id = f"v{vi:03d}"
        rng = np.random.default_rng([spec.seed, vi])
        drawn = []
        for j in range(spec.tubes_per_video):
            length = int(rng.integers(min_len, spec.frames_per_video + 1))
            start = int(rng.integers(0, spec.frames_per_video - length + 1))
            class_id = int(rng.integers(0, spec.num_classes))
            direction = 1 if rng.random() < 0.5 else -1
            target = spec.motion_targets[(vi * spec.tubes_per_video + j)
                                         % len(spec.motion_targets)]
            lane_y = lane_h * j + (lane_h - _BOX) / 2.0
            drawn.append((target, length, start, class_id, direction, lane_y))
        targets, lengths, _, _, directions, lane_ys = zip(*drawn)
        solved = _solve_speeds(targets, lengths, directions, lane_ys, config.motion_offsets)
        planted = []
        for j, (target, length, start, class_id, direction, lane_y) in enumerate(drawn):
            tube_id = f"a{j:02d}"
            speed, achieved = solved[j]
            if speed is None or abs(achieved - target) > 0.02:
                raise ValueError(
                    f"cannot realize motion target {target} for tube "
                    f"{video_id}/{tube_id} (closest achievable {achieved:.4f})"
                )
            geom = _lane_geometry(length, start, speed, direction, lane_y)
            # The public motion_iou, which perfbench's trace wraps, gives the same value.
            achieved = motion_iou(geom, config.motion_offsets)[0]
            gts.append(GroundTruthTube(video_id, tube_id, class_id, geom))
            planted.append((tube_id, class_id, geom, speed, direction))
            report_tubes.append({
                "video": video_id,
                "tube": tube_id,
                "class": class_id,
                "start": start,
                "length": length,
                "target": float(target),
                "motion_iou": float(achieved),
                "category": classify_motion(achieved, config).label,
                "speed": float(speed),
                "direction": direction,
            })

        for f in range(spec.frames_per_video):
            entries = []
            for tube_id, class_id, geom, _, _ in planted:
                if not geom.start_frame <= f <= geom.end_frame:
                    continue
                if rng.random() < spec.drop_rate:
                    continue
                box = geom.box_at(f)
                if spec.jitter_sigma > 0.0:
                    noise = rng.normal(0.0, spec.jitter_sigma, size=4)
                    x1, x2 = sorted((box.x1 + noise[0], box.x2 + noise[1]))
                    y1, y2 = sorted((box.y1 + noise[2], box.y2 + noise[3]))
                    box = Box(x1, y1, x2, y2)
                entries.append(Detection(box, class_id, 1.0))
            if rng.random() < spec.spurious_rate:
                x1 = rng.uniform(0.0, _CANVAS - 64.0)
                y1 = rng.uniform(0.0, _CANVAS - 64.0)
                w = rng.uniform(24.0, 64.0)
                h = rng.uniform(24.0, 64.0)
                cls = int(rng.integers(0, spec.num_classes))
                score = float(rng.uniform(0.1, 0.9))
                entries.append(Detection(Box(x1, y1, x1 + w, y1 + h), cls, score))
            detections.append(FrameDetections(video_id, f, entries))

        for tube_id, _, geom, _, _ in planted:
            cuts = [0]
            for i in range(1, len(geom)):
                if rng.random() < spec.fragmentation_rate:
                    cuts.append(i)
            cuts.append(len(geom))
            for part in range(len(cuts) - 1):
                lo, hi = cuts[part], cuts[part + 1]
                track_id = tube_id if len(cuts) == 2 else f"{tube_id}.{part:02d}"
                tracks.append(Track(video_id, track_id, geom.slice(lo, hi - 1)))

        if spec.emit_features:
            cells = spec.feature_cells
            values = rng.standard_normal(
                (spec.frames_per_video, spec.feature_channels, cells, cells)
            ).astype(np.float32)
            features[video_id] = FeatureGrid(values, spatial_stride=_CANVAS / cells)

    report = {
        "schema": "tubekit.oracle.v1",
        "dataset": config.name,
        "num_videos": spec.num_videos,
        "tubes": report_tubes,
    }
    return gts, detections, tracks, report, features
