"""Frame- and video-level average precision, with optional motion breakdowns.

A detection counts as a true positive when its overlap with an unmatched
ground-truth item of the same class exceeds the threshold (strictly) and no
higher-ranked detection claimed that item first. AP is the running-precision
sum over true-positive ranks divided by the number of positives.

One engine serves both levels. It takes detection class and score columns and
the candidate pairs (detection, ground-truth item, overlap), which one key join
builds, as it does for the track filter: at the frame level every detection
against the ground-truth boxes of its (video, frame), then a class mask, scored
by one ``box_iou`` call; at the video level every tube against the
ground-truth tubes of its (video, class), scored by st-IoU. One stable
``lexsort`` ranks every detection by class, then descending score. Only pairs
above the threshold enter the greedy claim loop; every other detection is a
false positive. Hit flags, PR curves, per-class AP and the motion
breakdown are then read from cumulative sums over the rank-ordered arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .datamodel import _box_keys, _columns, _key_pairs
from .geometry import box_iou, st_iou
from .jsonfmt import format_float
from .motion import MotionCategory

__all__ = [
    "PRCurve",
    "MotionMetrics",
    "EvalReport",
    "average_precision",
    "evaluate_frames",
    "evaluate_videos",
    "threshold_sweep",
    "report_to_dict",
    "render_table",
    "pr_curves_csv",
]


@dataclass
class PRCurve:
    recalls: list
    precisions: list
    num_positives: int


@dataclass
class MotionMetrics:
    """Per-category results: pooled AP ranks all classes together, mean AP averages per-class APs."""

    category: MotionCategory
    num_positives: int
    pooled_ap: float | None
    mean_ap: float | None
    per_class_ap: dict


@dataclass
class EvalReport:
    level: str
    threshold: float
    per_class_ap: dict
    num_positives: dict
    mean_ap: float | None
    pr_curves: dict
    per_motion: dict | None = None


def _ranked_ap(hit_ranks, npos: int) -> float:
    """AP from the hits' ascending 1-based ranks: the sum of tp / rank at each hit, over npos."""
    total = 0.0
    for tp, rank in enumerate(hit_ranks, start=1):
        total += tp / rank
    return total / npos


def average_precision(matches, num_positives: int) -> float | None:
    """AP from (score, is_tp) pairs.

    Pairs are ranked by descending score, ties keeping input order. Returns
    None when there are no positives (the class is undefined, not zero).
    """
    if num_positives < 0:
        raise ValueError("num_positives must be >= 0")
    if num_positives == 0:
        return None
    ranked = sorted(matches, key=lambda pair: -pair[0])
    return _ranked_ap([rank for rank, (_, hit) in enumerate(ranked, start=1) if hit],
                      num_positives)


def _mean(values) -> float | None:
    return sum(values) / len(values) if values else None


# ---------------------------------------------------------------------------
# shared evaluation engine


def _class_index(det_classes, gt_classes) -> tuple:
    """The sorted class ids of both lists, and each entry's index into them."""
    classes = sorted(set(det_classes).union(gt_classes))
    index = {c: i for i, c in enumerate(classes)}
    return (classes, np.array([index[c] for c in det_classes], np.intp),
            np.array([index[c] for c in gt_classes], np.intp))


def _claims(neg_scores, pair_det, pair_gt, overlaps, thresh):
    """The GT unit each detection claims, or -1.

    Only pairs with an overlap strictly above the threshold can claim, so a
    NaN never does. Their detections claim in rank order (descending score,
    ties by index; detections of different classes share no GT, so one
    ranking serves all classes), each the untaken candidate of highest
    overlap, the lowest GT index on a tie.
    """
    contested = (overlaps > thresh).nonzero()[0]
    dets = pair_det[contested]
    by_rank = neg_scores[dets].argsort(kind="stable")
    contested = contested[by_rank]
    claimed = {}  # GT unit -> detection
    det = best = -1
    for d, j, o in zip(dets[by_rank].tolist(), pair_gt[contested].tolist(),
                       overlaps[contested].tolist()):
        if d != det:
            if best >= 0:
                claimed[best] = det
            det, best = d, -1
        if j not in claimed and (best < 0 or o > best_overlap):
            best, best_overlap = j, o
    if best >= 0:
        claimed[best] = det
    match = np.full(len(neg_scores), -1)
    match[list(claimed.values())] = list(claimed)
    return match


def _unit_categories(gts, unit_tube, motion_labels):
    """Each GT unit's motion category, its tube's, as an int."""
    categories = []
    for g in gts:
        label = motion_labels.get(g.key)
        if label is None:
            raise ValueError(f"no motion label for tube {g.key}")
        categories.append(label.category)
    return np.array(categories, np.intp)[unit_tube]


def _evaluate(level, classes, det_ci, scores, pairs, unit_ci, unit_tube, gts, thresh,
              motion_labels=None) -> EvalReport:
    """Reports for detections matched against GT units.

    ``classes`` are the sorted class ids, and ``det_ci`` and ``unit_ci`` index
    them. ``pairs`` are (detection, unit, overlap) arrays, grouped by ascending
    detection, with ascending units within one. Unit u is a box or the whole
    of tube ``gts[unit_tube[u]]``.
    """
    if not 0.0 <= thresh <= 1.0:
        raise ValueError(f"threshold {thresh} outside [0, 1]")
    k, n = len(classes), len(scores)
    neg_scores = -scores
    match = _claims(neg_scores, *pairs, thresh)
    # Every detection ranked by class, then descending score, ties by index:
    # class i holds ranks bounds[i]:bounds[i + 1], and starts is the first
    # rank of each rank's class.
    order = np.lexsort((neg_scores, det_ci))
    ranked_ci = det_ci[order]
    bounds = ranked_ci.searchsorted(np.arange(k + 1))
    starts = bounds[ranked_ci]
    hit = match[order] >= 0
    tp = hit.cumsum()
    tp += hit[starts] - tp[starts]  # counted from the class's first rank
    rank = np.arange(1, n + 1) - starts
    npos = np.bincount(unit_ci, minlength=k)
    # A class without positives has no hits, so its recalls are 0 / 1.
    recalls = (tp / np.maximum(npos[ranked_ci], 1)).tolist()
    precisions = (tp / rank).tolist()
    hit_at = hit.nonzero()[0]
    hit_ranks = rank[hit_at].tolist()
    cuts = hit_at.searchsorted(bounds).tolist()
    edges, npos = bounds.tolist(), npos.tolist()

    per_class_ap = {c: _ranked_ap(hit_ranks[cuts[i]:cuts[i + 1]], m)
                    for i, (c, m) in enumerate(zip(classes, npos)) if m}
    pr_curves = {c: PRCurve(recalls[lo:hi], precisions[lo:hi], m)
                 for c, lo, hi, m in zip(classes, edges, edges[1:], npos)}
    per_motion = None
    if motion_labels is not None:
        per_motion = {}
        ncat = len(MotionCategory)
        unit_cat = _unit_categories(gts, unit_tube, motion_labels)
        cat_npos = np.bincount(unit_cat * k + unit_ci,
                               minlength=ncat * k).reshape(ncat, k).tolist()
        # One (category, column) pass: the n class-ranked columns, then the n
        # pooled ones, all classes ranked by descending score. A detection
        # matched to a GT of another category is dropped from that category's
        # ranking; an unmatched one stays a false positive in all of them.
        pooled = neg_scores.argsort(kind="stable")
        cat = np.append(unit_cat, -1)[match][np.concatenate((order, pooled))]
        in_cat = cat == np.arange(ncat)[:, None]
        kept = in_cat | (cat < 0)
        count = kept.cumsum(axis=1)
        row, col = in_cat.nonzero()
        # A class-ranked column is in segment ci, a pooled one in segment k;
        # segment i starts at column bounds[i], and bounds[k] == n.
        seg = np.concatenate((ranked_ci, np.full(n, k)))[col]
        first = bounds[seg]
        ranks = (count[row, col] - count[row, first] + kept[row, first]).tolist()
        cuts = (row * (k + 1) + seg).searchsorted(np.arange(ncat * (k + 1) + 1)).tolist()
        for r in MotionCategory:
            at = r * (k + 1)
            cat_ap = {c: _ranked_ap(ranks[cuts[at + i]:cuts[at + i + 1]], m)
                      for i, (c, m) in enumerate(zip(classes, cat_npos[r])) if m}
            total = sum(cat_npos[r])
            pooled_ap = _ranked_ap(ranks[cuts[at + k]:cuts[at + k + 1]], total) if total else None
            per_motion[r] = MotionMetrics(
                category=r,
                num_positives=total,
                pooled_ap=pooled_ap,
                mean_ap=_mean(cat_ap.values()),
                per_class_ap=cat_ap,
            )

    return EvalReport(
        level=level,
        threshold=thresh,
        per_class_ap=per_class_ap,
        num_positives=dict(zip(classes, npos)),
        mean_ap=_mean(per_class_ap.values()),
        pr_curves=pr_curves,
        per_motion=per_motion,
    )


def evaluate_frames(detections, gts, iou_thresh, motion_labels=None, jobs=1) -> EvalReport:
    """Frame-level AP: detections match same-frame, same-class ground-truth boxes.

    Detections are pooled across all frames and videos into one ranking per
    class. With motion_labels, every ground-truth box inherits its tube's
    category and per-category metrics are added. ``jobs`` is accepted and
    ignored: all work runs in one thread.
    """
    detections, gts = list(detections), list(gts)
    boxes, class_ids, scores = _columns(detections)
    values, inverse = np.unique(class_ids, return_inverse=True)
    classes, value_ci, tube_ci = _class_index(values.tolist(), [g.class_id for g in gts])
    det_ci = value_ci[inverse]
    # GT unit u is one box: the units are every tube's boxes, tube by tube.
    unit_tube = np.repeat(np.arange(len(gts)), [len(g.geometry) for g in gts])
    unit_ci = tube_ci[unit_tube]

    # Candidate pairs: each detection against the GT boxes of its frame, then
    # those of its class.
    pair_det, pair_gt = _key_pairs([(fd.video_id, fd.frame) for fd in detections],
                                   [len(fd.scores) for fd in detections], _box_keys(gts))
    same = det_ci[pair_det] == unit_ci[pair_gt]
    pair_det, pair_gt = pair_det[same], pair_gt[same]
    gt_boxes = np.concatenate([np.empty((0, 4))] + [g.geometry.boxes for g in gts])
    ious = box_iou(boxes[pair_det], gt_boxes[pair_gt])
    return _evaluate("frame", classes, det_ci, scores, (pair_det, pair_gt, ious), unit_ci,
                     unit_tube, gts, iou_thresh, motion_labels)


def _video_evaluator(tubes, gts):
    """``evaluate_videos`` for these tubes at any threshold: a function of
    ``(st_iou_thresh, motion_labels=None)``. Every st-IoU is computed here, once."""
    tubes, gts = list(tubes), list(gts)
    pair_det, pair_gt = _key_pairs([(t.video_id, t.class_id) for t in tubes], [1] * len(tubes),
                                   [(g.video_id, g.class_id) for g in gts])
    st_ious = np.array([st_iou(tubes[d].geometry, gts[j].geometry)
                        for d, j in zip(pair_det.tolist(), pair_gt.tolist())], np.float64)
    classes, det_ci, unit_ci = _class_index([t.class_id for t in tubes],
                                            [g.class_id for g in gts])
    scores = np.array([t.tube_score for t in tubes], np.float64)
    return partial(_evaluate, "video", classes, det_ci, scores, (pair_det, pair_gt, st_ious),
                   unit_ci, np.arange(len(gts)), gts)


def evaluate_videos(tubes, gts, st_iou_thresh, motion_labels=None, jobs=1) -> EvalReport:
    """Video-level AP: tubes match same-video, same-class ground-truth tubes.

    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    return _video_evaluator(tubes, gts)(st_iou_thresh, motion_labels)


def threshold_sweep(eval_fn, thresholds) -> tuple:
    """Run eval_fn at each threshold; returns (reports, mean of the mAPs)."""
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"threshold {t} outside (0, 1)")
    reports = [eval_fn(t) for t in thresholds]
    maps = [r.mean_ap for r in reports]
    mean = None if any(m is None for m in maps) else sum(maps) / len(maps)
    return reports, mean


# ---------------------------------------------------------------------------
# rendering


def _class_name(c: int, config) -> str:
    if config is not None and c < config.num_classes:
        return config.class_names[c]
    return f"class_{c}"


def report_to_dict(report: EvalReport, config=None) -> dict:
    per_class = []
    for c in sorted(report.num_positives):
        per_class.append({
            "class": int(c),
            "name": _class_name(c, config),
            "num_positives": int(report.num_positives[c]),
            "ap": report.per_class_ap.get(c),
        })
    out = {
        "level": report.level,
        "threshold": float(report.threshold),
        "per_class": per_class,
        "map": report.mean_ap,
    }
    if report.per_motion is not None:
        motion = {}
        for cat in MotionCategory:
            m = report.per_motion[cat]
            motion[cat.label] = {
                "num_positives": int(m.num_positives),
                "motion_ap": m.pooled_ap,
                "motion_map": m.mean_ap,
            }
        out["per_motion"] = motion
    return out


def _fmt_ap(v) -> str:
    return "-" if v is None else f"{v:.6f}"


def _aligned(rows) -> list:
    """Rows of strings as lines: the first column left-aligned, the rest right-aligned."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.rjust(w) if i else cell.ljust(w)
                      for i, (cell, w) in enumerate(zip(row, widths))) for row in rows]


def render_table(report: EvalReport, config=None) -> str:
    rows = [("class", "positives", "ap")]
    for c in sorted(report.num_positives):
        rows.append((_class_name(c, config), str(report.num_positives[c]),
                     _fmt_ap(report.per_class_ap.get(c))))
    lines = [f"{report.level}-level evaluation @ {report.threshold:.6f}", *_aligned(rows)]
    if report.mean_ap is None:
        lines.append("mAP -")
    else:
        lines.append(f"mAP {report.mean_ap:.6f} ({report.mean_ap * 100.0:.1f}%)")
    if report.per_motion is not None:
        mrows = [("motion", "positives", "motion-ap", "motion-map")]
        for cat in MotionCategory:
            m = report.per_motion[cat]
            mrows.append((cat.label, str(m.num_positives),
                          _fmt_ap(m.pooled_ap), _fmt_ap(m.mean_ap)))
        lines += ["", *_aligned(mrows)]
    return "\n".join(lines) + "\n"


def pr_curves_csv(report: EvalReport, config=None) -> str:
    lines = ["class,name,rank,recall,precision"]
    for c in sorted(report.pr_curves):
        curve = report.pr_curves[c]
        name = _class_name(c, config)
        for i, (rec, prec) in enumerate(zip(curve.recalls, curve.precisions), start=1):
            lines.append(f"{c},{name},{i},{format_float(rec)},{format_float(prec)}")
    return "\n".join(lines) + "\n"
