"""Track-consistency filtering of frame detections.

Detectors occasionally emit confident but temporally inconsistent boxes.
Keeping only detections that overlap a track box on their frame lets the
score threshold stay liberal (0.05 by default) without flooding the
evaluation with spurious positives.
"""

from __future__ import annotations

import numpy as np

from .datamodel import FrameDetections
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

    track_idx, track_rows = {}, []          # (video, frame) -> indices into track_rows
    for tr in tracks:
        geo = tr.geometry
        for frame, row in enumerate(geo.boxes.tolist(), start=geo.start_frame):
            track_idx.setdefault((tr.video_id, frame), []).append(len(track_rows))
            track_rows.append(row)

    # Every (detection, track box) pair on a shared frame, scored by one box_iou call.
    cands = [[d for d in fd.entries if d.score >= score_thresh] for fd in detections]
    det_rows, pair_det, pair_trk = [], [], []
    for fd, ds in zip(detections, cands):
        idx = track_idx.get((fd.video_id, fd.frame), [])
        for d in ds:
            pair_det += [len(det_rows)] * len(idx)
            pair_trk += idx
            det_rows.append((d.box.x1, d.box.y1, d.box.x2, d.box.y2))
    pair_det = np.array(pair_det, dtype=np.intp)
    ious = box_iou(np.array(det_rows).reshape(-1, 4)[pair_det],
                   np.array(track_rows).reshape(-1, 4)[np.array(pair_trk, dtype=np.intp)])
    on_track = np.zeros(len(det_rows), dtype=bool)
    on_track[pair_det[ious >= match_iou]] = True
    hits = iter(on_track.tolist())
    return [
        FrameDetections(fd.video_id, fd.frame, [d for d in ds if next(hits)])
        for fd, ds in zip(detections, cands)
    ]
