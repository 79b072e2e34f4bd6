"""Frame- and video-level average precision, with optional motion breakdowns.

A detection counts as a true positive when its overlap with an unmatched
ground-truth item of the same class exceeds the threshold (strictly) and no
higher-ranked detection claimed that item first. AP is the running-precision
sum over true-positive ranks divided by the number of positives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import iou2d, st_iou
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


def average_precision(matches, num_positives: int) -> float | None:
    """AP from (score, is_tp) pairs.

    Pairs are ranked by descending score, ties keeping input order. Returns
    None when there are no positives (the class is undefined, not zero).
    """
    if num_positives < 0:
        raise ValueError("num_positives must be >= 0")
    if num_positives == 0:
        return None
    pairs = list(matches)
    order = sorted(range(len(pairs)), key=lambda i: -pairs[i][0])
    tp = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if pairs[i][1]:
            tp += 1
            total += tp / rank
    return total / num_positives


# ---------------------------------------------------------------------------
# shared evaluation engine


@dataclass(frozen=True)
class _Det:
    class_id: int
    group: tuple
    payload: object
    score: float
    gidx: int


@dataclass(frozen=True)
class _Gt:
    class_id: int
    group: tuple
    payload: object
    tube_key: tuple


def _match_class(dets, gts, overlap, thresh):
    """Greedy matching for one class; returns [(det, matched _Gt or None)] in rank order."""
    ranked = sorted(dets, key=lambda d: (-d.score, d.gidx))
    by_group = {}
    for g in gts:
        by_group.setdefault(g.group, []).append([g, False])
    out = []
    for d in ranked:
        best = None
        best_overlap = thresh
        for slot in by_group.get(d.group, ()):
            if slot[1]:
                continue
            o = overlap(d.payload, slot[0].payload)
            if o > best_overlap:
                best_overlap = o
                best = slot
        if best is not None:
            best[1] = True
            out.append((d, best[0]))
        else:
            out.append((d, None))
    return out


def _pr_curve(match_list, npos) -> PRCurve:
    recalls, precisions = [], []
    tp = 0
    for rank, (_, matched) in enumerate(match_list, start=1):
        if matched is not None:
            tp += 1
        recalls.append(tp / npos if npos else 0.0)
        precisions.append(tp / rank)
    return PRCurve(recalls, precisions, npos)


def _motion_breakdown(class_matches, gts, motion_labels):
    categories = {}
    for g in gts:
        label = motion_labels.get(g.tube_key)
        if label is None:
            raise ValueError(f"no motion label for tube {g.tube_key}")
        categories[g.tube_key] = label.category

    per_motion = {}
    for cat in MotionCategory:
        npos_by_class = {}
        for g in gts:
            if categories[g.tube_key] == cat:
                npos_by_class[g.class_id] = npos_by_class.get(g.class_id, 0) + 1
        total_npos = sum(npos_by_class.values())

        # Detections matched to a ground truth of another category are
        # dropped from the ranking; everything unmatched stays a FP.
        def reduce_matches(matches):
            kept = []
            for det, matched in matches:
                if matched is None:
                    kept.append((det, None))
                elif categories[matched.tube_key] == cat:
                    kept.append((det, matched))
            return kept

        per_class_ap = {}
        pooled = []
        for c, matches in class_matches.items():
            kept = reduce_matches(matches)
            pooled.extend(kept)
            ap = average_precision(
                [(d.score, m is not None) for d, m in kept], npos_by_class.get(c, 0)
            )
            if ap is not None:
                per_class_ap[c] = ap
        pooled.sort(key=lambda m: (-m[0].score, m[0].gidx))
        pooled_ap = average_precision(
            [(d.score, m is not None) for d, m in pooled], total_npos
        )
        mean_ap = (
            sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else None
        )
        per_motion[cat] = MotionMetrics(
            category=cat,
            num_positives=total_npos,
            pooled_ap=pooled_ap,
            mean_ap=mean_ap,
            per_class_ap=per_class_ap,
        )
    return per_motion


def _evaluate(dets, gts, thresh, overlap, level, motion_labels=None) -> EvalReport:
    if not 0.0 <= thresh <= 1.0:
        raise ValueError(f"threshold {thresh} outside [0, 1]")
    all_classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    class_dets = {c: [] for c in all_classes}
    class_gts = {c: [] for c in all_classes}
    for d in dets:
        class_dets[d.class_id].append(d)
    for g in gts:
        class_gts[g.class_id].append(g)
    npos = {c: len(class_gts[c]) for c in all_classes}
    class_matches = {
        c: _match_class(class_dets[c], class_gts[c], overlap, thresh) for c in all_classes
    }

    per_class_ap = {}
    pr_curves = {}
    for c in all_classes:
        ap = average_precision(
            [(d.score, m is not None) for d, m in class_matches[c]], npos[c]
        )
        pr_curves[c] = _pr_curve(class_matches[c], npos[c])
        if ap is not None:
            per_class_ap[c] = ap
    mean_ap = sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else None

    per_motion = None
    if motion_labels is not None:
        per_motion = _motion_breakdown(class_matches, gts, motion_labels)

    return EvalReport(
        level=level,
        threshold=thresh,
        per_class_ap=per_class_ap,
        num_positives=npos,
        mean_ap=mean_ap,
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
    det_units = []
    gidx = 0
    for fd in detections:
        for d in fd.entries:
            det_units.append(_Det(d.class_id, (fd.video_id, fd.frame), d.box, d.score, gidx))
            gidx += 1
    gt_units = []
    for gt in gts:
        geo = gt.geometry
        for i in range(len(geo)):
            frame = geo.start_frame + i
            gt_units.append(_Gt(gt.class_id, (gt.video_id, frame), geo.box_at(frame), gt.key))
    return _evaluate(det_units, gt_units, iou_thresh, iou2d, "frame", motion_labels)


def evaluate_videos(tubes, gts, st_iou_thresh, motion_labels=None, jobs=1) -> EvalReport:
    """Video-level AP: tubes match same-video, same-class ground-truth tubes.

    ``jobs`` is accepted and ignored: all work runs in one thread.
    """
    det_units = [
        _Det(t.class_id, (t.video_id,), t.geometry, t.tube_score, i)
        for i, t in enumerate(tubes)
    ]
    gt_units = [_Gt(g.class_id, (g.video_id,), g.geometry, g.key) for g in gts]
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
    from .jsonfmt import format_float

    lines = ["class,name,rank,recall,precision"]
    for c in sorted(report.pr_curves):
        curve = report.pr_curves[c]
        name = _class_name(c, config)
        for i, (rec, prec) in enumerate(zip(curve.recalls, curve.precisions), start=1):
            lines.append(f"{c},{name},{i},{format_float(rec)},{format_float(prec)}")
    return "\n".join(lines) + "\n"
