"""Track-consistency filtering of frame detections.

Detectors occasionally emit confident but temporally inconsistent boxes.
Keeping only detections that overlap a track box on their frame lets the
score threshold stay liberal (0.05 by default) without flooding the
evaluation with spurious positives.
"""

from __future__ import annotations

import numpy as np

from .datamodel import _box_keys, _columns, _key_pairs, _split_frames
from .geometry import box_iou

__all__ = ["filter_by_tracks"]


def filter_by_tracks(detections, tracks, match_iou: float = 0.5,
                     score_thresh: float = 0.05) -> list:
    """Keep detections that clear the score threshold and lie on a track.

    A detection survives iff score >= score_thresh and some track of the
    same video has a box at the same frame with IoU >= match_iou. Track
    class labels play no role. Per-frame ordering of survivors is preserved.
    """
    if not 0.0 <= match_iou <= 1.0:
        raise ValueError(f"match_iou {match_iou} outside [0, 1]")
    if not 0.0 <= score_thresh <= 1.0:
        raise ValueError(f"score_thresh {score_thresh} outside [0, 1]")

    # Every (detection, track box) pair on a shared frame, then those of
    # detections that clear the score threshold, scored by one box_iou call.
    detections = list(detections)
    boxes, class_ids, scores = _columns(detections)
    counts = [len(fd.scores) for fd in detections]
    keys = [(fd.video_id, fd.frame) for fd in detections]
    pair_det, pair_trk = _key_pairs(keys, counts, _box_keys(tracks))
    scored = scores[pair_det] >= score_thresh
    pair_det, pair_trk = pair_det[scored], pair_trk[scored]
    track_boxes = np.concatenate([np.empty((0, 4))] + [tr.geometry.boxes for tr in tracks])
    ious = box_iou(boxes[pair_det], track_boxes[pair_trk])
    keep = np.zeros(len(scores), dtype=bool)
    keep[pair_det[ious >= match_iou]] = True

    kept_before = np.concatenate([[0], np.cumsum(keep)])    # kept rows before row i
    kept = np.diff(kept_before[np.cumsum([0] + counts)])   # kept rows per frame
    return _split_frames(keys, boxes[keep], class_ids[keep], scores[keep], kept.tolist())
