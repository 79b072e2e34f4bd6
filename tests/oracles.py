"""Independent reference implementations used to cross-check the library.

Everything here is written naively on purpose: explicit loops, its own IoU
and padding arithmetic, no code shared with the package under test. The
exceptions are frozen copies of earlier package code: ``reference_evaluate``,
``reference_tracks_to_tubes``, the element-by-element NDJSON writers
``reference_save_*``, the Detection-list detection loader and filter,
the loaders with one parse closure each ``reference_load_*`` and their
record reader ``reference_load_records``, the typed/per-field field
readers ``reference_get_*``, the Box-based ``reference_greedy_link`` and
``reference_build_tubes``, and the scalar ``reference_solve_speed``. They
borrow the package's overlap functions, record checks and result types, so
their results can be compared with ``==``, ``repr`` or as bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# geometry


def raster_iou(a, b, cells_per_unit=32):
    """Pixel-count IoU: rasterize both boxes on a sub-pixel lattice."""
    x_lo = min(a.x1, b.x1)
    x_hi = max(a.x2, b.x2)
    y_lo = min(a.y1, b.y1)
    y_hi = max(a.y2, b.y2)
    if x_hi <= x_lo or y_hi <= y_lo:
        return 0.0
    nx = max(1, int(math.ceil((x_hi - x_lo) * cells_per_unit)))
    ny = max(1, int(math.ceil((y_hi - y_lo) * cells_per_unit)))
    xs = x_lo + (np.arange(nx) + 0.5) * (x_hi - x_lo) / nx
    ys = y_lo + (np.arange(ny) + 0.5) * (y_hi - y_lo) / ny
    in_a = ((xs >= a.x1) & (xs <= a.x2))[None, :] & ((ys >= a.y1) & (ys <= a.y2))[:, None]
    in_b = ((xs >= b.x1) & (xs <= b.x2))[None, :] & ((ys >= b.y1) & (ys <= b.y2))[:, None]
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def box_iou_xyxy(a, b):
    """Scalar IoU on [x1, y1, x2, y2] arrays; the oracles' own formula."""
    xx1 = max(a[0], b[0])
    yy1 = max(a[1], b[1])
    xx2 = min(a[2], b[2])
    yy2 = min(a[3], b[3])
    w = max(0.0, xx2 - xx1)
    h = max(0.0, yy2 - yy1)
    inter = w * h
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def brute_st_iou(start_a, boxes_a, start_b, boxes_b):
    """Direct evaluation of the tube-overlap definition from frame sets."""
    frames_a = set(range(start_a, start_a + len(boxes_a)))
    frames_b = set(range(start_b, start_b + len(boxes_b)))
    inter = frames_a & frames_b
    if not inter:
        return 0.0
    union = frames_a | frames_b
    spatial = [
        box_iou_xyxy(boxes_a[f - start_a], boxes_b[f - start_b]) for f in sorted(inter)
    ]
    return (len(inter) / len(union)) * (sum(spatial) / len(inter))


# ---------------------------------------------------------------------------
# average precision


def _voc_ap(tp, fp, npos):
    tp = np.cumsum(tp)
    fp = np.cumsum(fp)
    rec = tp / npos
    prec = tp / np.maximum(tp + fp, 1e-300)
    ap = 0.0
    prev_rec = 0.0
    for r, p in zip(rec, prec):
        ap += (r - prev_rec) * p
        prev_rec = r
    return ap


def naive_match(det_items, gt_items, thresh, overlap):
    """Greedy matching, one class at a time, everything by explicit scan.

    det_items: dicts with video, cls, score, order, payload, group.
    gt_items: dicts with video, cls, group, payload, tube, plus a 'used' slot.
    Returns {cls: [(det, matched_gt_or_None), ...]} in rank order.
    """
    for g in gt_items:
        g["used"] = False
    classes = sorted({d["cls"] for d in det_items} | {g["cls"] for g in gt_items})
    out = {}
    for c in classes:
        ranked = sorted(
            [d for d in det_items if d["cls"] == c],
            key=lambda d: (-d["score"], d["order"]),
        )
        matches = []
        for d in ranked:
            best = None
            best_iou = thresh
            for g in gt_items:
                if g["cls"] != c or g["group"] != d["group"] or g["used"]:
                    continue
                o = overlap(d["payload"], g["payload"])
                if o > best_iou:
                    best_iou = o
                    best = g
            if best is not None:
                best["used"] = True
            matches.append((d, best))
        out[c] = matches
    return out


def _dets_to_items(detections):
    items = []
    order = 0
    for fd in detections:
        for d in fd.entries:
            items.append({
                "video": fd.video_id,
                "cls": d.class_id,
                "score": d.score,
                "order": order,
                "group": (fd.video_id, fd.frame),
                "payload": np.array([d.box.x1, d.box.y1, d.box.x2, d.box.y2]),
            })
            order += 1
    return items


def _gts_to_frame_items(gts):
    items = []
    for g in gts:
        geo = g.geometry
        for i in range(len(geo)):
            items.append({
                "video": g.video_id,
                "cls": g.class_id,
                "group": (g.video_id, geo.start_frame + i),
                "payload": geo.boxes[i].copy(),
                "tube": (g.video_id, g.tube_id),
            })
    return items


def _tubes_to_items(tubes):
    return [
        {
            "video": t.video_id,
            "cls": t.class_id,
            "score": t.tube_score,
            "order": i,
            "group": (t.video_id,),
            "payload": (t.geometry.start_frame, t.geometry.boxes),
        }
        for i, t in enumerate(tubes)
    ]


def _gts_to_tube_items(gts):
    return [
        {
            "video": g.video_id,
            "cls": g.class_id,
            "group": (g.video_id,),
            "payload": (g.geometry.start_frame, g.geometry.boxes),
            "tube": (g.video_id, g.tube_id),
        }
        for g in gts
    ]


def _tube_overlap(det_payload, gt_payload):
    return brute_st_iou(det_payload[0], det_payload[1], gt_payload[0], gt_payload[1])


def _eval_from_matches(matches_by_class, gt_items):
    npos = {}
    for g in gt_items:
        npos[g["cls"]] = npos.get(g["cls"], 0) + 1
    per_class = {}
    for c, matches in matches_by_class.items():
        n = npos.get(c, 0)
        if n == 0:
            continue
        tp = [1.0 if m is not None else 0.0 for _, m in matches]
        fp = [0.0 if m is not None else 1.0 for _, m in matches]
        per_class[c] = _voc_ap(np.array(tp), np.array(fp), n)
    mean = sum(per_class.values()) / len(per_class) if per_class else None
    return per_class, mean


def brute_frame_eval(detections, gts, thresh):
    """Independent frame-level evaluator; returns (per_class_ap, mAP)."""
    matches = naive_match(
        _dets_to_items(detections), _gts_to_frame_items(gts), thresh, box_iou_xyxy
    )
    return _eval_from_matches(matches, _gts_to_frame_items(gts))


def brute_video_eval(tubes, gts, thresh):
    """Independent video-level evaluator; returns (per_class_ap, mAP)."""
    matches = naive_match(
        _tubes_to_items(tubes), _gts_to_tube_items(gts), thresh, _tube_overlap
    )
    return _eval_from_matches(matches, _gts_to_tube_items(gts))


def brute_motion_eval(level, dets_or_tubes, gts, thresh, labels):
    """Per-category pooled AP and mean AP with the ignore rule, done naively.

    Returns {category: (num_positives, pooled_ap_or_None, mean_ap_or_None)}.
    """
    if level == "frame":
        det_items = _dets_to_items(dets_or_tubes)
        gt_items = _gts_to_frame_items(gts)
        overlap = box_iou_xyxy
    else:
        det_items = _tubes_to_items(dets_or_tubes)
        gt_items = _gts_to_tube_items(gts)
        overlap = _tube_overlap
    matches = naive_match(det_items, gt_items, thresh, overlap)

    from tubekit.motion import MotionCategory

    out = {}
    for cat in MotionCategory:
        npos_by_class = {}
        for g in gt_items:
            if labels[g["tube"]].category == cat:
                npos_by_class[g["cls"]] = npos_by_class.get(g["cls"], 0) + 1
        total = sum(npos_by_class.values())
        per_class = {}
        pooled = []
        for c, ms in matches.items():
            kept = []
            for d, m in ms:
                if m is None:
                    kept.append((d, None))
                elif labels[m["tube"]].category == cat:
                    kept.append((d, m))
            pooled.extend(kept)
            n = npos_by_class.get(c, 0)
            if n:
                tp = [1.0 if m is not None else 0.0 for _, m in kept]
                fp = [0.0 if m is not None else 1.0 for _, m in kept]
                per_class[c] = _voc_ap(np.array(tp), np.array(fp), n)
        pooled.sort(key=lambda dm: (-dm[0]["score"], dm[0]["order"]))
        if total:
            tp = [1.0 if m is not None else 0.0 for _, m in pooled]
            fp = [0.0 if m is not None else 1.0 for _, m in pooled]
            pooled_ap = _voc_ap(np.array(tp), np.array(fp), total)
        else:
            pooled_ap = None
        mean_ap = sum(per_class.values()) / len(per_class) if per_class else None
        out[cat] = (total, pooled_ap, mean_ap)
    return out


# ---------------------------------------------------------------------------
# the dataclass evaluation engine, kept as the reference for exact equality
#
# This is the engine tubekit shipped before matching returned one ranked
# (score, det index, GT index) list per class: a frozen dataclass per unit,
# AP through an index-sorting average_precision, and a motion breakdown that
# re-ranks every category. Unlike the brute-force evaluators above it shares
# the overlap functions and result types with the package, because it checks
# ranking and summation to the bit, not geometry.


def reference_average_precision(matches, num_positives):
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


def _reference_match_class(dets, gts, overlap, thresh):
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


def _reference_pr_curve(match_list, npos):
    from tubekit.metrics import PRCurve

    recalls, precisions = [], []
    tp = 0
    for rank, (_, matched) in enumerate(match_list, start=1):
        if matched is not None:
            tp += 1
        recalls.append(tp / npos if npos else 0.0)
        precisions.append(tp / rank)
    return PRCurve(recalls, precisions, npos)


def _reference_motion_breakdown(class_matches, gts, motion_labels):
    from tubekit.metrics import MotionMetrics
    from tubekit.motion import MotionCategory

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
            ap = reference_average_precision(
                [(d.score, m is not None) for d, m in kept], npos_by_class.get(c, 0)
            )
            if ap is not None:
                per_class_ap[c] = ap
        pooled.sort(key=lambda m: (-m[0].score, m[0].gidx))
        pooled_ap = reference_average_precision(
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


def _reference_engine(dets, gts, thresh, overlap, level, motion_labels):
    from tubekit.metrics import EvalReport

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
        c: _reference_match_class(class_dets[c], class_gts[c], overlap, thresh)
        for c in all_classes
    }

    per_class_ap = {}
    pr_curves = {}
    for c in all_classes:
        ap = reference_average_precision(
            [(d.score, m is not None) for d, m in class_matches[c]], npos[c]
        )
        pr_curves[c] = _reference_pr_curve(class_matches[c], npos[c])
        if ap is not None:
            per_class_ap[c] = ap
    mean_ap = sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else None

    per_motion = None
    if motion_labels is not None:
        per_motion = _reference_motion_breakdown(class_matches, gts, motion_labels)

    return EvalReport(
        level=level,
        threshold=thresh,
        per_class_ap=per_class_ap,
        num_positives=npos,
        mean_ap=mean_ap,
        pr_curves=pr_curves,
        per_motion=per_motion,
    )


def reference_evaluate(level, dets_or_tubes, gts, thresh, motion_labels=None):
    """The dataclass engine's EvalReport for 'frame' detections or 'video' tubes."""
    from tubekit.geometry import iou2d, st_iou

    if level == "frame":
        det_units = []
        gidx = 0
        for fd in dets_or_tubes:
            for d in fd.entries:
                det_units.append(_Det(d.class_id, (fd.video_id, fd.frame), d.box, d.score, gidx))
                gidx += 1
        gt_units = []
        for gt in gts:
            geo = gt.geometry
            for i in range(len(geo)):
                frame = geo.start_frame + i
                gt_units.append(_Gt(gt.class_id, (gt.video_id, frame), geo.box_at(frame), gt.key))
        return _reference_engine(det_units, gt_units, thresh, iou2d, "frame", motion_labels)
    det_units = [
        _Det(t.class_id, (t.video_id,), t.geometry, t.tube_score, i)
        for i, t in enumerate(dets_or_tubes)
    ]
    gt_units = [_Gt(g.class_id, (g.video_id,), g.geometry, g.key) for g in gts]
    return _reference_engine(det_units, gt_units, thresh, st_iou, "video", motion_labels)


# ---------------------------------------------------------------------------
# trimming


def exhaustive_trim_best(scores, alpha):
    """Max energy over all 2^T labelings, accumulated exactly like the DP.

    The per-labeling arithmetic mirrors the DP's op order (subtract the
    switch penalty, then add the frame score) so a correct DP matches it
    bitwise, not just approximately.
    """
    s1 = np.asarray(scores, dtype=np.float64)
    n = len(s1)
    m = 1 << n
    labels = ((np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    s0 = 1.0 - s1
    v = np.where(labels[:, 0], s1[0], s0[0])
    for t in range(1, n):
        switch = labels[:, t] != labels[:, t - 1]
        v = np.where(switch, v - alpha, v)
        v = np.where(labels[:, t], s1[t], s0[t]) + v
    best = int(np.argmax(v))
    return float(v.max()), labels[best]


def labeling_energy(labels, scores, alpha):
    """Energy of one labeling, mirroring the DP's accumulation order."""
    s1 = [float(s) for s in scores]
    v = s1[0] if labels[0] else 1.0 - s1[0]
    for t in range(1, len(s1)):
        if labels[t] != labels[t - 1]:
            v = v - alpha
        v = (s1[t] if labels[t] else 1.0 - s1[t]) + v
    return v


def segments_to_labels(segments, n):
    labels = [0] * n
    for s, e in segments:
        for t in range(s, e + 1):
            labels[t] = 1
    return labels


def count_changes(labels):
    return sum(1 for a, b in zip(labels, labels[1:]) if a != b)


# The per-column trim loop, kept as the reference for exact equality
#
# One scalar ``trim_path`` call per (track, class) column, each column first
# converted to a list of floats. ``tracks_to_tubes`` skips the columns that
# never score above 0.5; this trims them all, so it checks that skipping
# them loses no segment. It shares ``trim_path`` and the result types with
# the package, because it checks tie-breaking, emit order and tube scores
# to the bit.


def reference_tracks_to_tubes(tracks, track_scores, trim_params):
    from tubekit.datamodel import ActionTube
    from tubekit.linking import trim_path

    out = []
    for tr in tracks:
        ts = track_scores[tr.key]
        for c in range(ts.scores.shape[1]):
            column = [float(v) for v in ts.scores[:, c]]
            for s, e in trim_path(column, trim_params):
                out.append(ActionTube(
                    tr.video_id, c, tr.geometry.slice(s, e), column[s : e + 1]
                ))
    out.sort(key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    return out


# ---------------------------------------------------------------------------
# convolution


def naive_conv1d(x, weight, bias=None, padding=0, dilation=1):
    """Pure-loop cross-correlation with zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    t_in, c_in = x.shape
    c_out, _, k = w.shape
    t_out = t_in + 2 * padding - dilation * (k - 1)
    out = np.zeros((t_out, c_out))
    for to in range(t_out):
        for co in range(c_out):
            acc = 0.0 if bias is None else float(bias[co])
            for kk in range(k):
                ti = to - padding + kk * dilation
                if 0 <= ti < t_in:
                    for ci in range(c_in):
                        acc += w[co, ci, kk] * x[ti, ci]
            out[to, co] = acc
    return out


def framewise_conv1d(x, weight, bias=None, padding=0, dilation=1):
    """Per-frame, per-tap matvec convolution; fast enough for wide channels."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    t_in = x.shape[0]
    c_out, _, k = w.shape
    t_out = t_in + 2 * padding - dilation * (k - 1)
    out = np.zeros((t_out, c_out))
    for to in range(t_out):
        acc = np.zeros(c_out) if bias is None else np.asarray(bias, dtype=np.float64).copy()
        for kk in range(k):
            ti = to - padding + kk * dilation
            if 0 <= ti < t_in:
                acc = acc + w[:, :, kk] @ x[ti]
        out[to] = acc
    return out


def composed_tcn(x, weights):
    y = framewise_conv1d(x, weights["tcn.weight"], weights["tcn.bias"],
                         padding=2, dilation=2)
    return y.max(axis=0, keepdims=True)


def composed_aspp(x, weights):
    def relu(a):
        return np.where(a > 0.0, a, 0.0)

    reduced = framewise_conv1d(x, weights["aspp.convs.0.weight"], weights["aspp.convs.0.bias"])
    outs = [relu(framewise_conv1d(reduced, weights["aspp.convs.1.weight"],
                                  weights["aspp.convs.1.bias"]))]
    for idx, dil in ((2, 1), (3, 3), (4, 5)):
        outs.append(relu(framewise_conv1d(
            reduced, weights[f"aspp.convs.{idx}.weight"], weights[f"aspp.convs.{idx}.bias"],
            padding=dil, dilation=dil,
        )))
    pooled = reduced.mean(axis=0, keepdims=True)
    pooled = relu(framewise_conv1d(pooled, weights["aspp.convs.5.weight"],
                                   weights["aspp.convs.5.bias"]))
    outs.append(np.repeat(pooled, x.shape[0], axis=0))
    cat = np.concatenate(outs, axis=1)
    projected = relu(framewise_conv1d(cat, weights["aspp.project.weight"]))
    return projected.max(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# roi pooling


def naive_bilinear(grid, x, y):
    c, h, w = grid.shape
    x0 = math.floor(x)
    y0 = math.floor(y)
    acc = np.zeros(c)
    for yy, wy in ((y0, y0 + 1 - y), (y0 + 1, y - y0)):
        for xx, wx in ((x0, x0 + 1 - x), (x0 + 1, x - x0)):
            if 0 <= yy < h and 0 <= xx < w:
                acc += (wy * wx) * np.asarray(grid[:, int(yy), int(xx)], dtype=np.float64)
    return acc


def naive_roi_align(grid, box, stride, p, s):
    grid = np.asarray(grid, dtype=np.float64)
    c = grid.shape[0]
    x1 = box.x1 / stride - 0.5
    y1 = box.y1 / stride - 0.5
    x2 = box.x2 / stride - 0.5
    y2 = box.y2 / stride - 0.5
    bw = (x2 - x1) / p
    bh = (y2 - y1) / p
    out = np.zeros((c, p, p))
    for i in range(p):
        for j in range(p):
            acc = np.zeros(c)
            for u in range(s):
                for v in range(s):
                    y = y1 + (i + (u + 0.5) / s) * bh
                    x = x1 + (j + (v + 0.5) / s) * bw
                    acc += naive_bilinear(grid, x, y)
            out[:, i, j] = acc / (s * s)
    return out


# ---------------------------------------------------------------------------
# linking


def _gate_iou(a, b):
    """IoU with the same arithmetic, in the same order, as the linker's gate."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def per_frame_greedy_link(frame_dets, class_id, iou_gate, max_misses, min_len):
    """Greedy linking that visits every frame index of the video's span.

    Returns ``(start_frame, boxes, scores)`` per kept path, in creation order.
    """
    by_frame = {}
    for fd in frame_dets:
        cands = [(d.box, d.score) for d in fd.entries if d.class_id == class_id]
        by_frame[fd.frame] = sorted(
            [(box, score, i) for i, (box, score) in enumerate(cands)],
            key=lambda c: (-c[1], c[2]),
        )
    if not by_frame:
        return []
    active = []  # [created, start, boxes, scores, score_sum, misses]
    finished = []

    def finish(p):
        keep = len(p[2]) - p[5]
        if keep > 0 and keep >= min_len:
            finished.append((p[0], (p[1], p[2][:keep], p[3][:keep])))

    created = 0
    for t in range(min(by_frame), max(by_frame) + 1):
        cands = by_frame.get(t, [])
        claimed = [False] * len(cands)
        for p in sorted(active, key=lambda p: (-p[4] / len(p[3]), p[0])):
            picked = None
            for j, (box, score, _) in enumerate(cands):
                if not claimed[j] and _gate_iou(p[2][-1], box) >= iou_gate:
                    picked = j
                    break
            if picked is None:
                p[2].append(p[2][-1])
                p[3].append(0.0)
                p[5] += 1
            else:
                claimed[picked] = True
                p[2].append(cands[picked][0])
                p[3].append(cands[picked][1])
                p[4] += cands[picked][1]
                p[5] = 0
        survivors = []
        for p in active:
            if p[5] > max_misses:
                finish(p)
            else:
                survivors.append(p)
        active = survivors
        for j, (box, score, _) in enumerate(cands):
            if not claimed[j]:
                active.append([created, t, [box], [score], score, 0])
                created += 1
    for p in active:
        finish(p)
    finished.sort(key=lambda item: item[0])
    return [path for _, path in finished]


# These are ``greedy_link`` and ``build_tubes`` as tubekit shipped them before
# the row linker: one ``Box`` per candidate, ``iou2d`` as the gate (here
# ``_gate_iou``, the same arithmetic) and one ``greedy_link`` call per class.
# They share ``Box``, ``trim_path`` and the result types with the package, so
# paths and tubes compare with ``==`` and saved tubes as bytes.


class _ReferencePath:
    __slots__ = ("start", "frames", "boxes", "scores", "score_sum", "created")

    def __init__(self, frame, box, score, created):
        self.start = frame
        self.frames = [frame]
        self.boxes = [box]
        self.scores = [score]
        self.score_sum = score
        self.created = created

    def claim(self, frame, box, score):
        self.frames.append(frame)
        self.boxes.append(box)
        self.scores.append(score)
        self.score_sum += score


def reference_greedy_link(frame_dets, class_id, params):
    from tubekit.geometry import Box
    from tubekit.linking import LinkedPath

    frames = {fd.frame: fd for fd in frame_dets}
    frames = [frames[t] for t in sorted(frames)]
    if not frames:
        return []
    boxes = np.concatenate([fd.boxes for fd in frames])
    class_ids = np.concatenate([fd.class_ids for fd in frames])
    scores = np.concatenate([fd.scores for fd in frames])
    frame_of = np.repeat(np.arange(len(frames)), [len(fd.scores) for fd in frames])
    rows = np.flatnonzero(class_ids == class_id)
    rows = rows[np.lexsort((-scores[rows], frame_of[rows]))]
    by_frame = {}
    for i, (x1, y1, x2, y2), score in zip(frame_of[rows].tolist(), boxes[rows].tolist(),
                                          scores[rows].tolist()):
        by_frame.setdefault(frames[i].frame, []).append((Box(x1, y1, x2, y2), score))
    if not by_frame:
        return []

    active = []
    finished = []
    created = 0

    def finish(p):
        if p.frames[-1] - p.start + 1 < params.min_len:
            return
        boxes, scores = [], []
        for frame, box, score in zip(p.frames, p.boxes, p.scores):
            bridged = frame - p.start - len(boxes)
            if bridged:
                boxes += [boxes[-1]] * bridged
                scores += [0.0] * bridged
            boxes.append(box)
            scores.append(score)
        finished.append((p.created, LinkedPath(class_id, p.start, boxes, scores)))

    for t, cands in by_frame.items():
        survivors = []
        for p in active:
            if t - 1 - p.frames[-1] > params.max_misses:
                finish(p)
            else:
                survivors.append(p)
        active = survivors
        claimed = [False] * len(cands)
        for p in sorted(active, key=lambda p: (-(p.score_sum / (t - p.start)), p.created)):
            last = p.boxes[-1]
            for j, (box, score) in enumerate(cands):
                if not claimed[j] and _gate_iou(last, box) >= params.iou_gate:
                    claimed[j] = True
                    p.claim(t, box, score)
                    break
        for j, (box, score) in enumerate(cands):
            if not claimed[j]:
                active.append(_ReferencePath(t, box, score, created))
                created += 1
    for p in active:
        finish(p)
    finished.sort(key=lambda item: item[0])
    return [path for _, path in finished]


def reference_build_tubes(detections, link_params, trim_params):
    from tubekit.datamodel import ActionTube
    from tubekit.geometry import TubeGeometry
    from tubekit.linking import trim_path

    by_video = {}
    for fd in detections:
        by_video.setdefault(fd.video_id, []).append(fd)
    out = []
    for video_id in sorted(by_video):
        frames = by_video[video_id]
        classes = np.unique(np.concatenate([fd.class_ids for fd in frames])).tolist()
        for c in classes:
            for path in reference_greedy_link(frames, c, link_params):
                for s, e in trim_path(path.scores, trim_params):
                    geom = TubeGeometry(path.start_frame + s, path.boxes[s : e + 1])
                    out.append(ActionTube(video_id, c, geom, path.scores[s : e + 1]))
    out.sort(key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    return out


# ---------------------------------------------------------------------------
# canonical JSON


def _reference_float(v):
    s = f"{float(v):.6f}"
    return "0.000000" if s == "-0.000000" else s


def _reference_emit(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim >= 1):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(":")
            _reference_emit(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj):
    """Element-by-element canonical JSON: six-decimal floats, no negative zero."""
    out = []
    _reference_emit(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# the NDJSON writers, kept as the reference for the array-formatted ones
#
# These are the five ``save_*`` writers as tubekit shipped them while every
# number went through ``dumps`` one element at a time (``save_detections``
# as it was while frames held Detection lists), here on ``reference_dumps``
# and a line writer of their own. They share only the schema tags and the
# record types with the package, because they check bytes exactly.


def _reference_write_lines(path, schema, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(reference_dumps({"schema": schema}) + "\n")
        for line in lines:
            fh.write(line + "\n")


def reference_save_ground_truth(tubes, path) -> None:
    from tubekit.datamodel import GT_SCHEMA

    lines = []
    for t in sorted(tubes, key=lambda t: t.key):
        lines.append(reference_dumps({
            "video": t.video_id,
            "tube": t.tube_id,
            "class": int(t.class_id),
            "start": int(t.geometry.start_frame),
            "boxes": t.geometry.boxes,
        }))
    _reference_write_lines(path, GT_SCHEMA, lines)


def reference_save_detections(frames, path) -> None:
    from tubekit.datamodel import DET_SCHEMA

    lines = []
    for fd in sorted(frames, key=lambda fd: (fd.video_id, fd.frame)):
        dets = [
            [d.box.x1, d.box.y1, d.box.x2, d.box.y2, int(d.class_id), d.score]
            for d in fd.entries
        ]
        lines.append(reference_dumps({"video": fd.video_id, "frame": int(fd.frame), "dets": dets}))
    _reference_write_lines(path, DET_SCHEMA, lines)


def reference_save_tracks(tracks, path) -> None:
    from tubekit.datamodel import TRACK_SCHEMA

    lines = []
    for t in sorted(tracks, key=lambda t: t.key):
        rec = {
            "video": t.video_id,
            "track": t.track_id,
            "start": int(t.geometry.start_frame),
            "boxes": t.geometry.boxes,
        }
        if t.box_scores is not None:
            rec["scores"] = [float(s) for s in t.box_scores]
        lines.append(reference_dumps(rec))
    _reference_write_lines(path, TRACK_SCHEMA, lines)


def reference_save_action_tubes(tubes, path) -> None:
    from tubekit.datamodel import TUBE_SCHEMA

    lines = []
    for t in sorted(tubes, key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame)):
        lines.append(reference_dumps({
            "video": t.video_id,
            "class": int(t.class_id),
            "start": int(t.geometry.start_frame),
            "boxes": t.geometry.boxes,
            "frame_scores": [float(s) for s in t.frame_scores],
            "score": float(t.tube_score),
        }))
    _reference_write_lines(path, TUBE_SCHEMA, lines)


def reference_save_track_scores(items, path) -> None:
    from tubekit.datamodel import TRACK_SCORES_SCHEMA

    items = sorted(items, key=lambda t: t.key)
    lines = []
    for ts in items:
        width, classes = items[0].scores.shape[1], ts.scores.shape[1]
        if classes != width:
            raise ValueError(f"track '{ts.track_id}' in video '{ts.video_id}' has "
                             f"{classes} classes, expected {width}")
        lines.append(reference_dumps({
            "video": ts.video_id,
            "track": ts.track_id,
            "start": int(ts.start_frame),
            "scores": ts.scores,
        }))
    _reference_write_lines(path, TRACK_SCORES_SCHEMA, lines)


# ---------------------------------------------------------------------------
# the record reader with one JSONDecoder.decode per line, kept as the reference
#
# This is ``datamodel._load_records`` as tubekit shipped it before the reader
# called the JSON scanner directly. Every ``reference_load_*`` below reads its
# records through it, so the scanner's errors, lines and values are checked
# against ``decode``'s. It shares ``FileFormatError`` and the UTF-8 error
# locator with the package.


def _reference_reject_constant(token):
    raise ValueError(f"non-finite number '{token}' not allowed")


_REFERENCE_DECODER = json.JSONDecoder(parse_constant=_reference_reject_constant)


def reference_load_records(path, schema: str, parse) -> list:
    """``parse`` of each record after the header line; a ValueError is reported at its line."""
    from tubekit.datamodel import FileFormatError, _utf8_error

    records = []
    with open(path, "r", encoding="utf-8") as fh:
        saw_header = False
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = _REFERENCE_DECODER.decode(line)
                except (ValueError, RecursionError) as exc:
                    if line.startswith("\ufeff"):
                        # json.loads' own message, which the decoder does not give
                        exc = json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                        )
                    raise ValueError(f"invalid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise ValueError("record must be a JSON object")
                if saw_header:
                    records.append(parse(obj))
                elif obj == {"schema": schema}:
                    saw_header = True
                else:
                    raise ValueError(f'expected header {{"schema":"{schema}"}}')
        except UnicodeDecodeError as exc:
            raise _utf8_error(path, exc) from None
        except ValueError as exc:
            raise FileFormatError(path, lineno, str(exc)) from None
    return records


# ---------------------------------------------------------------------------
# frame detections as Detection lists, kept as the reference for the columns
#
# This is ``load_detections`` and ``filter_by_tracks`` as tubekit shipped
# them while every frame held a list of Detection objects: a Detection + Box
# pair per row on load, and a Python pass over them to filter. (The writer of
# that time is ``reference_save_detections`` above.) They share the record
# checks, ``box_iou`` and the result types with the package, because they
# check values and order exactly. The loader also has the class bound of
# 2**63 that the package's int64 table sets, with the package's message.


def _reference_typed_dets(v, num_classes):
    from tubekit.datamodel import _INF

    if type(v) is not list:
        return None
    entries = []
    try:
        for x1, y1, x2, y2, c, s in v:
            # -inf < x1 <= x2 < inf holds only for finite, ordered corners.
            if not (type(x1) is float and type(y1) is float and type(x2) is float
                    and type(y2) is float and type(c) is int and type(s) is float
                    and -_INF < x1 <= x2 < _INF and -_INF < y1 <= y2 < _INF
                    and 0 <= c < num_classes and 0.0 <= s <= 1.0):
                return None
            entries.append(_reference_detection(x1, y1, x2, y2, c, s))
    except (TypeError, ValueError):
        return None
    return entries


def _reference_detection(x1, y1, x2, y2, class_id, score):
    """``Detection(Box(x1, y1, x2, y2), class_id, score)`` for values a typed pass accepted."""
    from tubekit.datamodel import Detection
    from tubekit.geometry import Box

    box = object.__new__(Box)
    attrs = box.__dict__
    attrs["x1"] = x1
    attrs["y1"] = y1
    attrs["x2"] = x2
    attrs["y2"] = y2
    det = object.__new__(Detection)
    attrs = det.__dict__
    attrs["box"] = box
    attrs["class_id"] = class_id
    attrs["score"] = score
    return det


def _reference_get_dets(obj, config) -> list:
    from tubekit.datamodel import _INF, Detection, _check_class, _get_number, _shown
    from tubekit.geometry import Box

    dets = obj["dets"]
    num_classes = _INF if config is None else config.num_classes
    entries = _reference_typed_dets(dets, min(num_classes, 2**63))  # class ids are int64
    if entries is not None:
        return entries
    if not isinstance(dets, list):
        raise ValueError("field 'dets' must be a list")
    entries = []
    for i, row in enumerate(dets):
        if not isinstance(row, list) or len(row) != 6:
            raise ValueError(f"dets[{i}] must be [x1,y1,x2,y2,class,score]")
        coords = [_get_number(c, f"dets[{i}]") for c in row[:4]]
        if isinstance(row[4], bool) or not isinstance(row[4], int) or row[4] < 0:
            raise ValueError(f"dets[{i}] class must be an integer >= 0")
        _check_class(row[4], config)
        if row[4] >= 2**63:
            raise ValueError(f"dets[{i}] class must be below 2**63, got {_shown(row[4])}")
        score = _get_number(row[5], f"dets[{i}] score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"dets[{i}] score {score} outside [0, 1]")
        entries.append(Detection(Box(*coords), row[4], score))
    return entries


def reference_load_detections(path, config=None) -> list:
    """Load per-frame detections, sorted by (video, frame)."""
    from tubekit.datamodel import (DET_SCHEMA, FrameDetections, _check_fields, _get_int,
                                   _get_str)

    seen = set()

    def parse(obj):
        _check_fields(obj, ("video", "frame", "dets"))
        video = _get_str(obj, "video")
        frame = _get_int(obj, "frame", minimum=0)
        if (video, frame) in seen:
            raise ValueError(f"duplicate frame {frame} in video '{video}'")
        seen.add((video, frame))
        return FrameDetections(video, frame, _reference_get_dets(obj, config))

    frames = reference_load_records(path, DET_SCHEMA, parse)
    frames.sort(key=lambda fd: (fd.video_id, fd.frame))
    return frames


def reference_filter_by_tracks(detections, tracks, match_iou: float = 0.5,
                               score_thresh: float = 0.05) -> list:
    """Keep detections that clear the score threshold and lie on a track.

    A detection survives iff score >= score_thresh and some track of the
    same video has a box at the same frame with IoU >= match_iou. Track
    class labels play no role. Per-frame ordering of survivors is preserved.
    """
    from tubekit.datamodel import FrameDetections
    from tubekit.geometry import box_iou

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


# ---------------------------------------------------------------------------
# the loaders with one parse closure each, kept as the reference for the reader
#
# These are ``load_ground_truth``, ``load_tracks``, ``load_action_tubes`` and
# ``load_track_scores`` as tubekit shipped them before the five loaders shared
# one record reader (``reference_load_detections`` above is the detection
# loader of an earlier time). They share the record and field checks and the
# result types with the package, and import them when called, so that a test
# which patches a field reader patches it here too: they pin only the order
# in which each record's fields and its duplicate-key check are read.


def reference_load_ground_truth(path, config=None) -> list:
    """Load ground-truth tubes, sorted by (video, tube). Duplicate ids are errors."""
    from tubekit.datamodel import (GT_SCHEMA, GroundTruthTube, _check_class, _check_fields,
                                   _get_boxes, _get_int, _get_str)
    from tubekit.geometry import TubeGeometry

    seen = set()

    def parse(obj):
        _check_fields(obj, ("video", "tube", "class", "start", "boxes"))
        video = _get_str(obj, "video")
        tube = _get_str(obj, "tube")
        class_id = _get_int(obj, "class", minimum=0)
        _check_class(class_id, config)
        start = _get_int(obj, "start", minimum=0)
        boxes = _get_boxes(obj)
        if (video, tube) in seen:
            raise ValueError(f"duplicate tube '{tube}' in video '{video}'")
        seen.add((video, tube))
        return GroundTruthTube(video, tube, class_id, TubeGeometry(start, boxes))

    tubes = reference_load_records(path, GT_SCHEMA, parse)
    tubes.sort(key=lambda t: t.key)
    return tubes


def reference_load_tracks(path) -> list:
    """Load tracks, sorted by (video, track)."""
    from tubekit.datamodel import (TRACK_SCHEMA, Track, _check_fields, _get_boxes, _get_int,
                                   _get_scores, _get_str)
    from tubekit.geometry import TubeGeometry

    seen = set()

    def parse(obj):
        _check_fields(obj, ("video", "track", "start", "boxes"), ("scores",))
        video = _get_str(obj, "video")
        track = _get_str(obj, "track")
        start = _get_int(obj, "start", minimum=0)
        boxes = _get_boxes(obj)
        scores = None
        if "scores" in obj:
            scores = _get_scores(obj, "scores", expected_len=len(boxes))
        if (video, track) in seen:
            raise ValueError(f"duplicate track '{track}' in video '{video}'")
        seen.add((video, track))
        return Track(video, track, TubeGeometry(start, boxes), scores)

    tracks = reference_load_records(path, TRACK_SCHEMA, parse)
    tracks.sort(key=lambda t: t.key)
    return tracks


def reference_load_action_tubes(path, config=None) -> list:
    """Load detected action tubes, sorted by (video, class, start)."""
    from tubekit.datamodel import (TUBE_SCHEMA, ActionTube, _check_class, _check_fields,
                                   _get_boxes, _get_int, _get_number, _get_scores, _get_str,
                                   _tube_order)
    from tubekit.geometry import TubeGeometry

    def parse(obj):
        _check_fields(obj, ("video", "class", "start", "boxes", "frame_scores", "score"))
        video = _get_str(obj, "video")
        class_id = _get_int(obj, "class", minimum=0)
        _check_class(class_id, config)
        start = _get_int(obj, "start", minimum=0)
        boxes = _get_boxes(obj)
        frame_scores = _get_scores(obj, "frame_scores", expected_len=len(boxes))
        score = _get_number(obj["score"], "field 'score'")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"field 'score' = {score} outside [0, 1]")
        return ActionTube(video, class_id, TubeGeometry(start, boxes), frame_scores, score)

    tubes = reference_load_records(path, TUBE_SCHEMA, parse)
    tubes.sort(key=_tube_order)
    return tubes


def reference_load_track_scores(path) -> list:
    """Load per-track class score matrices, sorted by (video, track)."""
    from itertools import chain

    from tubekit.datamodel import (TRACK_SCORES_SCHEMA, TrackScores, _check_fields, _get_int,
                                   _get_matrix, _get_str)

    seen = set()
    width = None

    def parse(obj):
        nonlocal width
        _check_fields(obj, ("video", "track", "start", "scores"))
        video = _get_str(obj, "video")
        track = _get_str(obj, "track")
        start = _get_int(obj, "start", minimum=0)
        mat = _get_matrix(obj, width)
        width = len(mat[0])
        if (video, track) in seen:
            raise ValueError(f"duplicate track '{track}' in video '{video}'")
        seen.add((video, track))
        flat = np.fromiter(chain.from_iterable(mat), np.float64, width * len(mat))
        return TrackScores(video, track, start, flat.reshape(len(mat), width))

    out = reference_load_records(path, TRACK_SCORES_SCHEMA, parse)
    out.sort(key=lambda t: t.key)
    return out


# ---------------------------------------------------------------------------
# the typed and per-field field readers, kept as the reference for the loaders
#
# These are ``_get_boxes``, ``_get_scores``, ``_get_dets`` and ``_get_matrix``
# as tubekit shipped them while each list field had two readers: a typed pass
# that only accepts, then, whenever it declines, the per-field checks run from
# the top of the field to name the failure. They share ``_get_number``, the
# class checks and ``Box`` with the package, because they check each loaded
# value, its type and each error message exactly.


def _typed_boxes(v):
    try:
        for x1, y1, x2, y2 in v:
            if not (type(x1) is float and type(y1) is float
                    and type(x2) is float and type(y2) is float):
                return None
    except (TypeError, ValueError):
        return None
    return np.array(v, dtype=np.float64) if v else None


def _typed_scores(v, n):
    if type(v) is not list or len(v) != n:
        return None
    for s in v:
        if type(s) is not float or not 0.0 <= s <= 1.0:
            return None
    return v


def _typed_dets(v, num_classes):
    from tubekit.datamodel import _INF

    if type(v) is not list:
        return None
    try:
        for x1, y1, x2, y2, c, s in v:
            # -inf < x1 <= x2 < inf holds only for finite, ordered corners.
            if not (type(x1) is float and type(y1) is float and type(x2) is float
                    and type(y2) is float and type(c) is int and type(s) is float
                    and -_INF < x1 <= x2 < _INF and -_INF < y1 <= y2 < _INF
                    and 0 <= c < num_classes and 0.0 <= s <= 1.0):
                return None
    except (TypeError, ValueError):
        return None
    return v


def _typed_matrix(v, width):
    if type(v) is not list or not v or type(v[0]) is not list:
        return None
    if width is None:
        width = len(v[0])
    if not width:
        return None
    for row in v:
        if type(row) is not list or len(row) != width:
            return None
        for s in row:
            if type(s) is not float or not 0.0 <= s <= 1.0:
                return None
    return v


def reference_get_boxes(obj, key="boxes") -> np.ndarray:
    from tubekit.datamodel import _get_number

    v = obj[key]
    arr = _typed_boxes(v)
    if arr is not None:
        return arr
    if not isinstance(v, list) or not v:
        raise ValueError(f"field '{key}' must be a non-empty list")
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"{key}[{i}] must be [x1,y1,x2,y2]")
        rows.append([_get_number(c, f"{key}[{i}]") for c in row])
    return np.array(rows, dtype=np.float64)


def reference_get_scores(obj, key, expected_len) -> list:
    from tubekit.datamodel import _get_number

    v = obj[key]
    vals = _typed_scores(v, expected_len)
    if vals is not None:
        return vals
    if not isinstance(v, list):
        raise ValueError(f"field '{key}' must be a list")
    vals = [_get_number(s, f"{key}[{i}]") for i, s in enumerate(v)]
    for i, s in enumerate(vals):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"{key}[{i}] = {s} outside [0, 1]")
    if len(vals) != expected_len:
        raise ValueError(f"field '{key}' has {len(vals)} entries, expected {expected_len}")
    return vals


def reference_get_dets(obj, config) -> list:
    """The 'dets' rows, each ``[x1, y1, x2, y2, class, score]`` of checked values."""
    from tubekit.datamodel import _CLASS_LIMIT, _check_class, _get_number, _shown
    from tubekit.geometry import Box

    dets = obj["dets"]
    rows = _typed_dets(dets, _CLASS_LIMIT if config is None else config.num_classes)
    if rows is not None:
        return rows
    if not isinstance(dets, list):
        raise ValueError("field 'dets' must be a list")
    rows = []
    for i, row in enumerate(dets):
        if not isinstance(row, list) or len(row) != 6:
            raise ValueError(f"dets[{i}] must be [x1,y1,x2,y2,class,score]")
        coords = [_get_number(c, f"dets[{i}]") for c in row[:4]]
        if isinstance(row[4], bool) or not isinstance(row[4], int) or row[4] < 0:
            raise ValueError(f"dets[{i}] class must be an integer >= 0")
        _check_class(row[4], config)
        if row[4] >= _CLASS_LIMIT:
            raise ValueError(f"dets[{i}] class must be below 2**63, got {_shown(row[4])}")
        score = _get_number(row[5], f"dets[{i}] score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"dets[{i}] score {score} outside [0, 1]")
        box = Box(*coords)
        rows.append((box.x1, box.y1, box.x2, box.y2, row[4], score))
    return rows


def reference_get_matrix(obj, width) -> list:
    """The 'scores' rows; ``width`` is the file's class count, None before its first row."""
    from tubekit.datamodel import _get_number

    rows = obj["scores"]
    mat = _typed_matrix(rows, width)
    if mat is not None:
        return mat
    if not isinstance(rows, list) or not rows:
        raise ValueError("field 'scores' must be a non-empty list")
    mat = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ValueError(f"scores[{i}] must be a non-empty list")
        vals = [_get_number(s, f"scores[{i}]") for s in row]
        if any(not 0.0 <= s <= 1.0 for s in vals):
            raise ValueError(f"scores[{i}] outside [0, 1]")
        if width is None:
            width = len(vals)
        if len(vals) != width:
            raise ValueError(f"scores[{i}] has {len(vals)} classes, expected {width}")
        mat.append(vals)
    return mat


# ---------------------------------------------------------------------------
# the scalar speed solver, kept as the reference for the lockstep one
#
# This is ``synth._solve_speed`` as tubekit shipped it while each planted tube
# was bisected on its own: one ``_lane_geometry`` and one ``motion_iou`` call
# per step. It shares both with the package, because it checks every speed
# and motion value to the bit.


def reference_solve_speed(target: float, length: int, start: int, direction: int,
                          lane_y: float, offsets) -> tuple:
    """Bisection on speed so the planted tube's motion value hits target."""
    from tubekit.motion import motion_iou
    from tubekit.synth import _BOX, _CANVAS, _MARGIN, _lane_geometry

    def measure(speed: float) -> float:
        geom = _lane_geometry(length, start, speed, direction, lane_y)
        return motion_iou(geom, offsets)[0]

    max_travel = _CANVAS - _BOX - 2.0 * _MARGIN
    v_max = max_travel / max(length - 1, 1)
    still = measure(0.0)
    if target >= 1.0 or still <= target:
        return 0.0, still
    fastest = measure(v_max)
    if fastest > target + 0.02:
        return None, fastest
    lo, hi = 0.0, v_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if measure(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi, measure(hi)
