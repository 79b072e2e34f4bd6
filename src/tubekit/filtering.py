"""Track-consistency filtering of frame detections.

Detectors occasionally emit confident but temporally inconsistent boxes.
Keeping only detections that overlap a track box on their frame lets the
score threshold stay liberal (0.05 by default) without flooding the
evaluation with spurious positives.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .datamodel import _columns, _split_frames
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

    track_rows = {}                         # (video, frame) -> rows of track_boxes
    n = 0
    for tr in tracks:
        start = tr.geometry.start_frame
        for i in range(len(tr.geometry)):
            track_rows.setdefault((tr.video_id, start + i), []).append(n + i)
        n += len(tr.geometry)
    track_boxes = np.concatenate([np.empty((0, 4))] + [tr.geometry.boxes for tr in tracks])

    # Every (candidate, track box) pair on a shared frame, scored by one box_iou
    # call: detection i pairs with the rows on_frame[frame_of[i]] of track_boxes.
    detections = list(detections)
    boxes, class_ids, scores = _columns(detections)
    counts = [len(fd.scores) for fd in detections]
    keys = [(fd.video_id, fd.frame) for fd in detections]
    on_frame = [track_rows.get(key, ()) for key in keys]
    frame_of = np.repeat(np.arange(len(detections)), counts)
    sizes = np.array([len(rows) for rows in on_frame], dtype=np.intp)
    firsts = np.cumsum(sizes) - sizes
    pairs = np.where(scores >= score_thresh, sizes[frame_of], 0)
    pair_det = np.repeat(np.arange(len(scores)), pairs)
    within = np.arange(len(pair_det)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    pair_trk = np.fromiter(chain.from_iterable(on_frame), np.intp)[
        firsts[frame_of[pair_det]] + within]
    ious = box_iou(boxes[pair_det], track_boxes[pair_trk])
    keep = np.zeros(len(scores), dtype=bool)
    keep[pair_det[ious >= match_iou]] = True

    kept_before = np.concatenate([[0], np.cumsum(keep)])    # kept rows before row i
    kept = np.diff(kept_before[np.cumsum([0] + counts)])   # kept rows per frame
    return _split_frames(keys, boxes[keep], class_ids[keep], scores[keep], kept.tolist())
