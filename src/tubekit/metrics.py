"""Frame- and video-level average precision, with optional motion breakdowns.

A detection counts as a true positive when its overlap with an unmatched
ground-truth item of the same class exceeds the threshold (strictly) and no
higher-ranked detection claimed that item first. AP is the running-precision
sum over true-positive ranks divided by the number of positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import getitem

import numpy as np

from .datamodel import _columns
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


def _ranked_ap(hits, npos: int) -> float:
    """AP of hit flags already in rank order: the sum of tp / rank at each hit, over npos."""
    tp = 0
    total = 0.0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            tp += 1
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
    return _ranked_ap([pair[1] for pair in ranked], num_positives)


def _mean(values) -> float | None:
    return sum(values) / len(values) if values else None


# ---------------------------------------------------------------------------
# shared evaluation engine


def _match_class(dets, det_ids, gts, gt_ids, overlap, thresh):
    """Greedy matching for one class's det and GT indices.

    Units are (class, group, payload, score) and (class, group, payload,
    tube_key) tuples. Returns [(score, det index, matched GT index or None)]
    ranked by descending score, then ascending det index.
    """
    by_group = {}
    for j in gt_ids:
        by_group.setdefault(gts[j][1], []).append(j)
    taken = set()
    out = []
    for i in sorted(det_ids, key=lambda i: (-dets[i][3], i)):
        _, group, payload, score = dets[i]
        best = None
        best_overlap = thresh
        for j in by_group.get(group, ()):
            if j in taken:
                continue
            o = overlap(payload, gts[j][2])
            if o > best_overlap:
                best_overlap = o
                best = j
        if best is not None:
            taken.add(best)
        out.append((score, i, best))
    return out


def _pr_curve(hits, npos) -> PRCurve:
    recalls, precisions = [], []
    tp = 0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            tp += 1
        recalls.append(tp / npos if npos else 0.0)
        precisions.append(tp / rank)
    return PRCurve(recalls, precisions, npos)


def _category_hits(matches, gt_categories, cat) -> list:
    """Hit flags for one motion category.

    A detection matched to a ground truth of another category is dropped; an
    unmatched one stays a false positive.
    """
    return [gt is not None for _, _, gt in matches if gt is None or gt_categories[gt] == cat]


def _motion_breakdown(class_matches, gts, motion_labels):
    gt_categories = []
    for _, _, _, tube_key in gts:
        label = motion_labels.get(tube_key)
        if label is None:
            raise ValueError(f"no motion label for tube {tube_key}")
        gt_categories.append(label.category)
    pooled = sorted(
        (m for matches in class_matches.values() for m in matches),
        key=lambda m: (-m[0], m[1]),
    )

    per_motion = {}
    for cat in MotionCategory:
        npos_by_class = {}
        for g, gt_cat in zip(gts, gt_categories):
            if gt_cat == cat:
                npos_by_class[g[0]] = npos_by_class.get(g[0], 0) + 1
        total_npos = sum(npos_by_class.values())
        per_class_ap = {}
        for c, matches in class_matches.items():
            npos = npos_by_class.get(c, 0)
            if npos:
                per_class_ap[c] = _ranked_ap(_category_hits(matches, gt_categories, cat), npos)
        pooled_ap = None
        if total_npos:
            pooled_ap = _ranked_ap(_category_hits(pooled, gt_categories, cat), total_npos)
        per_motion[cat] = MotionMetrics(
            category=cat,
            num_positives=total_npos,
            pooled_ap=pooled_ap,
            mean_ap=_mean(per_class_ap.values()),
            per_class_ap=per_class_ap,
        )
    return per_motion


def _evaluate(dets, gts, thresh, overlap, level, motion_labels=None) -> EvalReport:
    if not 0.0 <= thresh <= 1.0:
        raise ValueError(f"threshold {thresh} outside [0, 1]")
    all_classes = sorted({d[0] for d in dets} | {g[0] for g in gts})
    class_dets = {c: [] for c in all_classes}
    class_gts = {c: [] for c in all_classes}
    for i, d in enumerate(dets):
        class_dets[d[0]].append(i)
    for j, g in enumerate(gts):
        class_gts[g[0]].append(j)
    npos = {c: len(class_gts[c]) for c in all_classes}
    class_matches = {
        c: _match_class(dets, class_dets[c], gts, class_gts[c], overlap, thresh)
        for c in all_classes
    }

    per_class_ap = {}
    pr_curves = {}
    for c in all_classes:
        hits = [gt is not None for _, _, gt in class_matches[c]]
        pr_curves[c] = _pr_curve(hits, npos[c])
        if npos[c]:
            per_class_ap[c] = _ranked_ap(hits, npos[c])

    per_motion = None
    if motion_labels is not None:
        per_motion = _motion_breakdown(class_matches, gts, motion_labels)

    return EvalReport(
        level=level,
        threshold=thresh,
        per_class_ap=per_class_ap,
        num_positives=npos,
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
    # A GT unit's payload is its place among its frame's same-class GTs, the
    # order in which _match_class visits them; a detection's payload is its
    # IoU with each of those GTs, in that order, so the overlap is one lookup.
    gt_units, same, gt_boxes = [], {}, [np.empty((0, 4))]
    for gt in gts:
        geo = gt.geometry
        gt_boxes.append(geo.boxes)
        for frame in range(geo.start_frame, geo.start_frame + len(geo)):
            members = same.setdefault(((gt.video_id, frame), gt.class_id), [])
            gt_units.append((gt.class_id, (gt.video_id, frame), len(members), gt.key))
            members.append(len(gt_units) - 1)

    detections = list(detections)
    boxes, class_ids, scores = _columns(detections)
    keys = [(fd.video_id, fd.frame) for fd in detections]
    groups = [keys[i] for i in
              np.repeat(np.arange(len(keys)), [len(fd.scores) for fd in detections]).tolist()]
    classes = class_ids.tolist()
    cands = [same.get(key, ()) for key in zip(groups, classes)]
    # Every (detection, same-frame same-class GT) pair, scored by one box_iou call.
    counts = [len(js) for js in cands]
    pair_det = np.repeat(np.arange(len(cands)), counts)
    pair_gt = np.fromiter(chain.from_iterable(cands), np.intp)
    ious = box_iou(boxes[pair_det], np.concatenate(gt_boxes)[pair_gt]).tolist()
    ends = list(accumulate(counts))
    det_units = [
        (c, group, ious[hi - n : hi], score)
        for c, group, n, hi, score in zip(classes, groups, counts, ends, scores.tolist())
    ]
    return _evaluate(det_units, gt_units, iou_thresh, getitem, "frame", motion_labels)


def evaluate_videos(tubes, gts, st_iou_thresh, motion_labels=None, jobs=1) -> EvalReport:
    """Video-level AP: tubes match same-video, same-class ground-truth tubes.

    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    det_units = [(t.class_id, (t.video_id,), t.geometry, t.tube_score) for t in tubes]
    gt_units = [(g.class_id, (g.video_id,), g.geometry, g.key) for g in gts]
    return _evaluate(det_units, gt_units, st_iou_thresh, st_iou, "video", motion_labels)


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


def render_table(report: EvalReport, config=None) -> str:
    rows = [("class", "positives", "ap")]
    for c in sorted(report.num_positives):
        rows.append((
            _class_name(c, config),
            str(report.num_positives[c]),
            _fmt_ap(report.per_class_ap.get(c)),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = [f"{report.level}-level evaluation @ {report.threshold:.6f}"]
    for r in rows:
        lines.append(f"{r[0]:<{widths[0]}}  {r[1]:>{widths[1]}}  {r[2]:>{widths[2]}}")
    if report.mean_ap is None:
        lines.append("mAP -")
    else:
        lines.append(f"mAP {report.mean_ap:.6f} ({report.mean_ap * 100.0:.1f}%)")
    if report.per_motion is not None:
        lines.append("")
        mrows = [("motion", "positives", "motion-ap", "motion-map")]
        for cat in MotionCategory:
            m = report.per_motion[cat]
            mrows.append((
                cat.label,
                str(m.num_positives),
                _fmt_ap(m.pooled_ap),
                _fmt_ap(m.mean_ap),
            ))
        mw = [max(len(r[i]) for r in mrows) for i in range(4)]
        for r in mrows:
            lines.append(
                f"{r[0]:<{mw[0]}}  {r[1]:>{mw[1]}}  {r[2]:>{mw[2]}}  {r[3]:>{mw[3]}}"
            )
    return "\n".join(lines) + "\n"


def pr_curves_csv(report: EvalReport, config=None) -> str:
    lines = ["class,name,rank,recall,precision"]
    for c in sorted(report.pr_curves):
        curve = report.pr_curves[c]
        name = _class_name(c, config)
        for i, (rec, prec) in enumerate(zip(curve.recalls, curve.precisions), start=1):
            lines.append(f"{c},{name},{i},{format_float(rec)},{format_float(prec)}")
    return "\n".join(lines) + "\n"
