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

from .datamodel import ActionTube, _columns
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


def _link_rows(by_frame, params: LinkParams) -> list:
    """``greedy_link``'s rules on candidate tuples ``(row, x1, y1, x2, y2, area, score)``.

    ``by_frame`` lists ``(frame, candidates)`` in ascending frame order, each
    frame's candidates strongest first. Frames without a candidate may be
    left out: a miss run is counted from frame numbers, and no claim can
    happen there. Returns the kept paths in creation order as ``(start
    frame, rows, scores)``, one row and score per frame.
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

    for t, cands in by_frame:
        survivors = []
        for p in active:
            if t - 1 - p.frames[-1] > params.max_misses:
                finish(p)
            else:
                survivors.append(p)
        active = survivors
        free = list(cands)
        # active is in creation order, so the stable sort breaks ties by it.
        for p in sorted(active, key=lambda p: -(p.score_sum / (t - p.start))):
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
    """One video's box column and each class's ``(frame, candidates)`` list.

    A repeated frame keeps its last detections. One stable sort orders the
    rows by class, frame and descending score, so equal scores keep row order.
    """
    frames = {fd.frame: fd for fd in frame_dets}
    frames = [frames[t] for t in sorted(frames)]
    boxes, class_ids, scores = _columns(frames)
    frame_of = np.repeat(np.arange(len(frames)), [len(fd.scores) for fd in frames])
    rows = np.lexsort((-scores, frame_of, class_ids))
    with np.errstate(over="ignore", invalid="ignore"):  # huge boxes: inf or NaN area, as iou2d
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    cands = list(zip(rows.tolist(), *boxes[rows].T.tolist(), area[rows].tolist(),
                     scores[rows].tolist()))
    c, at = class_ids[rows], frame_of[rows]
    starts = np.flatnonzero((np.diff(c, prepend=-1) != 0) | (np.diff(at, prepend=-1) != 0))
    starts = starts.tolist()
    by_class = {}
    for lo, hi, k, i in zip(starts, starts[1:] + [len(rows)], c[starts].tolist(),
                            at[starts].tolist()):
        by_class.setdefault(k, []).append((frames[i].frame, cands[lo:hi]))
    return boxes, by_class


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
    boxes, by_class = _by_class(frame_dets)
    return [LinkedPath(class_id, start, [Box(*b) for b in boxes[rows].tolist()], scores)
            for start, rows, scores in _link_rows(by_class.get(class_id, []),
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


def _trim_columns(matrices, params: TrimParams) -> list:
    """``trim_path`` on every column of every (T, K) score matrix, in one pass over time.

    Returns every kept segment as a (matrix index, column, start, end) tuple,
    in ascending order. The matrices are grouped longest first, a group
    closing when the next is shorter than half its longest, and each group's
    columns are padded to its longest from row 0: a group holds at most twice
    its real cells, and the steps stay under twice the longest matrix. The
    comparisons are ``trim_path``'s ``>=`` rules written as their complements,
    on the same float operations, so ties break the same way.
    """
    a = params.alpha
    groups = []
    for i in sorted(range(len(matrices)), key=lambda i: -len(matrices[i])):
        if groups and 2 * len(matrices[i]) >= len(matrices[groups[-1][0]]):
            groups[-1].append(i)
        else:
            groups.append([i])

    found = []
    for group in groups:
        widths = [matrices[i].shape[1] for i in group]
        offsets = np.cumsum([0] + widths)
        n, k = len(matrices[group[0]]), offsets[-1]
        scores = np.zeros((n, k))
        ends = {}  # last row -> the range of columns that end on it
        for i, lo, hi in zip(group, offsets, offsets[1:]):
            last = len(matrices[i]) - 1
            scores[: last + 1, lo:hi] = matrices[i]
            ends[last] = (ends.get(last, (lo,))[0], hi)

        back0 = np.empty((n, k), bool)
        back1 = np.empty((n, k), bool)
        final = np.empty(k, bool)
        prev0, prev1 = 1.0 - scores[0], scores[0]
        for t in range(n):
            if t:
                switch_to0 = prev1 - a
                switch_to1 = prev0 - a
                np.greater(switch_to0, prev0, out=back0[t])
                np.greater(prev1, switch_to1, out=back1[t])
                prev0, prev1 = ((1.0 - scores[t]) + np.maximum(prev0, switch_to0),
                                scores[t] + np.maximum(switch_to1, prev1))
            if t in ends:
                lo, hi = ends[t]
                final[lo:hi] = prev1[lo:hi] > prev0[lo:hi]

        # Rows 0 and n + 1 stay 0, so every run of 1 has a rising and a falling edge.
        # Rows past a column's end come out 0 as well: its padded scores are 0
        # there, so from the second padded row on, the best path into label 0
        # never comes from label 1.
        labels = np.zeros((n + 2, k), bool)
        label = np.zeros(k, bool)
        for t in range(n - 1, -1, -1):
            if t in ends:
                lo, hi = ends[t]
                label[lo:hi] = final[lo:hi]
            labels[t + 1] = label
            if t:
                label = np.where(label, back1[t], back0[t])

        edges = np.diff(labels.view(np.int8), axis=0).T
        column, start = np.nonzero(edges == 1)
        stop = np.nonzero(edges == -1)[1]
        keep = stop - start >= params.min_segment_length
        column = column[keep]
        owner = np.repeat(group, widths)
        local = np.arange(k) - np.repeat(offsets[:-1], widths)
        found += zip(owner[column].tolist(), local[column].tolist(),
                     start[keep].tolist(), (stop[keep] - 1).tolist())
    return sorted(found)


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
        boxes, by_class = _by_class(by_video[video_id])
        for c, by_frame in by_class.items():
            for start, path_rows, path_scores in _link_rows(by_frame, link_params):
                for s, e in trim_path(path_scores, trim_params):
                    geom = TubeGeometry(start + s, boxes[path_rows[s : e + 1]])
                    out.append(ActionTube(video_id, c, geom, path_scores[s : e + 1]))
    out.sort(key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    return out


def tracks_to_tubes(tracks, track_scores, trim_params: TrimParams | None = None,
                    jobs: int = 1) -> list:
    """Trim already-linked tracks into per-class action tubes.

    ``track_scores`` maps (video, track) to a TrackScores whose matrix rows
    align 1:1 with the track's frames; every track must be covered.
    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    trim_params = trim_params or TrimParams()
    if not isinstance(track_scores, dict):
        track_scores = {ts.key: ts for ts in track_scores}

    checked = []
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
        checked.append((tr, ts.scores))

    out = []
    for i, c, s, e in _trim_columns([scores for _, scores in checked], trim_params):
        tr, scores = checked[i]
        out.append(ActionTube(
            tr.video_id, c, tr.geometry.slice(s, e), scores[s : e + 1, c].tolist()
        ))
    out.sort(key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    return out
