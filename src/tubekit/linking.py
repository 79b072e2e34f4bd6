"""Tube construction: greedy per-class linking, then temporal trimming.

Linking associates per-frame detections into paths by IoU gating, bridging
short gaps by replicating the last matched box. Trimming picks the
action-labeled sub-segments of a path by maximizing per-frame score
consistency minus a penalty per label change, solved exactly by dynamic
programming over the two-state chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .datamodel import ActionTube, _columns, _tube_order
from .geometry import Box, TubeGeometry, _is_integer, _tuple_iou

__all__ = [
    "LinkParams",
    "TrimParams",
    "LinkedPath",
    "greedy_link",
    "trim_path",
    "build_tubes",
    "tracks_to_tubes",
]


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not a Python or numpy integer, or is below ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class LinkParams:
    iou_gate: float = 0.1
    max_misses: int = 5
    min_len: int = 8

    def __post_init__(self):
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError(f"iou_gate {self.iou_gate} outside [0, 1]")
        _check_count("max_misses", self.max_misses, 0)
        _check_count("min_len", self.min_len, 1)


@dataclass(frozen=True)
class TrimParams:
    alpha: float = 3.0
    min_segment_length: int = 4

    def __post_init__(self):
        if not self.alpha >= 0.0:  # NaN fails this too
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        _check_count("min_segment_length", self.min_segment_length, 1)


@dataclass
class LinkedPath:
    """A finalized path: contiguous boxes with per-frame claimed scores.

    Frames bridged over a miss carry the last matched box and score 0.
    """

    class_id: int
    start_frame: int
    boxes: list
    scores: list

    def __len__(self) -> int:
        return len(self.boxes)


class _ActivePath:
    """A path being linked. It holds only its claims: one frame and candidate each."""

    __slots__ = ("start", "frames", "cands", "last", "score_sum", "created")

    def __init__(self, frame, cand, created):
        self.start, self.frames, self.cands, self.last = frame, [frame], [cand], cand
        self.score_sum, self.created = cand[6], created


def _link_rows(cands, by_frame, params: LinkParams) -> list:
    """``greedy_link``'s rules on candidate tuples ``(row, x1, y1, x2, y2, area, score)``.

    ``by_frame`` lists ``(frame, lo, hi)`` in ascending frame order: the
    frame's candidates are ``cands[lo:hi]``, strongest first. Frames without
    a candidate may be left out: a miss run is counted from frame numbers,
    and no claim can happen there. When several paths survive into a frame
    and the gate is positive, only those whose last box overlaps a
    candidate's box contend: they alone are ranked and scanned for a claim.
    Returns the kept paths in creation order as ``(start frame, rows,
    scores)``, one row and score per frame.
    """
    gate = params.iou_gate
    active: list = []
    kept: list = []
    ids = count()

    def finish(p):
        n = p.frames[-1] - p.start + 1
        if n < params.min_len:
            return
        if len(p.cands) == n:
            rows, scores = [c[0] for c in p.cands], [c[6] for c in p.cands]
        else:  # a bridged frame repeats the claim before it, with score 0
            rows, scores = [], []
            for frame, cand in zip(p.frames, p.cands):
                bridged = frame - p.start - len(rows)
                if bridged:
                    rows += [rows[-1]] * bridged
                    scores += [0.0] * bridged
                rows.append(cand[0])
                scores.append(cand[6])
        kept.append((p.created, p.start, rows, scores))

    for t, lo, hi in by_frame:
        survivors = []
        for p in active:
            if t - 1 - p.frames[-1] > params.max_misses:
                finish(p)
            else:
                survivors.append(p)
        active = contenders = survivors
        free = cands[lo:hi]
        if len(active) > 1:
            if gate > 0.0:
                # IoU >= gate > 0 needs a positive intersection, and a path
                # that claims nothing changes no one's claims.
                contenders = []
                for p in active:
                    _, x1, y1, x2, y2, _, _ = p.last
                    for c in free:
                        if x1 < c[3] and c[1] < x2 and y1 < c[4] and c[2] < y2:
                            contenders.append(p)
                            break
            # active is in creation order, so the stable sort breaks ties by it.
            contenders = sorted(contenders, key=lambda p: -(p.score_sum / (t - p.start)))
        for p in contenders:
            for j, cand in enumerate(free):
                if _tuple_iou(p.last, cand) >= gate:
                    p.frames.append(t)
                    p.cands.append(free.pop(j))
                    p.score_sum += cand[6]
                    p.last = cand
                    break
            if not free:
                break
        active += [_ActivePath(t, cand, next(ids)) for cand in free]
    for p in active:
        finish(p)
    return [path[1:] for path in sorted(kept)]


def _by_class(frame_dets) -> tuple:
    """One video's box column, candidate tuples and each class's ``(frame, lo, hi)`` list.

    A repeated frame keeps its last detections. One stable sort orders the
    rows by class, frame and descending score, so equal scores keep row order.
    The candidates are the sorted rows as ``_link_rows`` takes them, and a
    class's list holds, in ascending frame order, each of its frames with
    the range of ``cands`` that frame's rows fill. Frame numbers are the
    frames' own, so a number past int64 stays exact.
    """
    frames = {fd.frame: fd for fd in frame_dets}
    frames = [frames[t] for t in sorted(frames)]
    numbers = [fd.frame for fd in frames]
    boxes, class_ids, scores = _columns(frames)
    frame_of = np.repeat(np.arange(len(frames)), [len(fd.scores) for fd in frames])
    rows = np.lexsort((-scores, frame_of, class_ids))
    with np.errstate(over="ignore", invalid="ignore"):  # huge boxes: inf or NaN area, as iou2d
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    cands = list(zip(rows.tolist(), *boxes[rows].T.tolist(), area[rows].tolist(),
                     scores[rows].tolist()))
    c, at = class_ids[rows], frame_of[rows]
    new_class = np.diff(c, prepend=-1) != 0
    starts = np.flatnonzero(new_class | (np.diff(at, prepend=-1) != 0))
    ranges = list(zip(map(numbers.__getitem__, at[starts].tolist()), starts.tolist(),
                      np.append(starts[1:], len(rows)).tolist()))
    firsts = np.flatnonzero(new_class[starts])  # each class's first range
    bounds = np.append(firsts, len(starts)).tolist()
    by_class = {k: ranges[lo:hi] for k, lo, hi in
                zip(c[starts[firsts]].tolist(), bounds, bounds[1:])}
    return boxes, cands, by_class


def greedy_link(frame_dets, class_id: int, params: LinkParams | None = None) -> list:
    """Link one video's detections of one class into paths.

    Frames are visited in order over the video's full frame span. Active
    paths, strongest mean score first, each claim the highest-scoring
    unclaimed detection overlapping their last box by at least the gate;
    a path's mean counts every frame since its start, missed ones as 0.
    A path ends once more than ``max_misses`` frames in a row pass without
    a claim, whether or not those frames appear in ``frame_dets``; it is
    kept up to its last claim, each missed frame in it filled with the last
    claimed box and score 0. Leftover detections seed new paths. Paths
    shorter than ``min_len`` are discarded.
    """
    boxes, cands, by_class = _by_class(frame_dets)
    return [LinkedPath(class_id, start, [Box(*b) for b in boxes[rows].tolist()], scores)
            for start, rows, scores in _link_rows(cands, by_class.get(class_id, []),
                                                  params or LinkParams())]


def trim_path(frame_scores, params: TrimParams | None = None) -> list:
    """Optimal binary labeling of a score sequence, returned as kept segments.

    Maximizes sum_t s_{L_t}(t) - alpha * (number of interior label changes),
    with s_1(t) the frame score and s_0(t) its complement. Ties prefer label
    0. Returns inclusive (start, end) index pairs for runs of label 1 at
    least ``min_segment_length`` long.
    """
    params = params or TrimParams()
    scores = [float(s) for s in frame_scores]
    if not scores:
        raise ValueError("frame_scores must be non-empty")
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"frame score {s} outside [0, 1]")
    a = params.alpha
    n = len(scores)

    prev0 = 1.0 - scores[0]
    prev1 = scores[0]
    back = []
    for t in range(1, n):
        switch_to0 = prev1 - a
        pred0 = 0 if prev0 >= switch_to0 else 1
        val0 = (1.0 - scores[t]) + (prev0 if pred0 == 0 else switch_to0)
        switch_to1 = prev0 - a
        pred1 = 0 if switch_to1 >= prev1 else 1
        val1 = scores[t] + (switch_to1 if pred1 == 0 else prev1)
        back.append((pred0, pred1))
        prev0, prev1 = val0, val1

    labels = [0] * n
    labels[-1] = 0 if prev0 >= prev1 else 1
    for t in range(n - 1, 0, -1):
        labels[t - 1] = back[t - 1][labels[t]]

    segments = []
    start = None
    for t, lab in enumerate(labels):
        if lab == 1 and start is None:
            start = t
        elif lab == 0 and start is not None:
            if t - start >= params.min_segment_length:
                segments.append((start, t - 1))
            start = None
    if start is not None and n - start >= params.min_segment_length:
        segments.append((start, n - 1))
    return segments


def build_tubes(detections, link_params: LinkParams | None = None,
                trim_params: TrimParams | None = None, jobs: int = 1) -> list:
    """Link then trim one or more videos' detections into action tubes.

    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    link_params = link_params or LinkParams()
    trim_params = trim_params or TrimParams()
    by_video = {}
    for fd in detections:
        by_video.setdefault(fd.video_id, []).append(fd)

    out = []
    for video_id in sorted(by_video):
        boxes, cands, by_class = _by_class(by_video[video_id])
        for c, by_frame in by_class.items():
            for start, path_rows, path_scores in _link_rows(cands, by_frame, link_params):
                if max(path_scores) <= 0.5:
                    continue  # no segment: label 0 wins every step (see tracks_to_tubes)
                for s, e in trim_path(path_scores, trim_params):
                    geom = TubeGeometry(start + s, boxes[path_rows[s : e + 1]])
                    out.append(ActionTube(video_id, c, geom, path_scores[s : e + 1]))
    out.sort(key=_tube_order)
    return out


def tracks_to_tubes(tracks, track_scores, trim_params: TrimParams | None = None,
                    jobs: int = 1) -> list:
    """Trim already-linked tracks into per-class action tubes.

    ``track_scores`` maps (video, track) to a TrackScores whose matrix rows
    align 1:1 with the track's frames; every track must be covered. Tracks
    are visited in input order, and each column that scores above 0.5
    somewhere is trimmed by ``trim_path``, in ascending column order. A
    column that never does keeps no segment: label 0 scores ``1 - s >= s``
    at every step and, as alpha >= 0, is its own best predecessor, and
    float rounding is monotone, so the DP keeps label 0 throughout. Such
    columns are skipped. The final sort is stable, so tubes that tie on it
    keep this order.
    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    trim_params = trim_params or TrimParams()
    if not isinstance(track_scores, dict):
        track_scores = {ts.key: ts for ts in track_scores}

    out = []
    for tr in tracks:
        ts = track_scores.get(tr.key)
        if ts is None:
            raise ValueError(f"missing score vectors for track {tr.key}")
        if ts.start_frame != tr.geometry.start_frame or len(ts.scores) != len(tr.geometry):
            raise ValueError(
                f"score vectors for track {tr.key} cover frames "
                f"[{ts.start_frame}, {ts.start_frame + len(ts.scores) - 1}], track covers "
                f"[{tr.geometry.start_frame}, {tr.geometry.end_frame}]"
            )
        for c in np.flatnonzero(ts.scores.max(axis=0) > 0.5).tolist():
            column = ts.scores[:, c].tolist()
            for s, e in trim_path(column, trim_params):
                out.append(ActionTube(tr.video_id, c, tr.geometry.slice(s, e),
                                      column[s : e + 1]))
    out.sort(key=_tube_order)
    return out
