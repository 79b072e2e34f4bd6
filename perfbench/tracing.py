"""Traced runs: spans around calls into tubekit's modules, taken from outside.

``Tracer.install`` replaces coarse public functions of the tubekit modules
with wrappers that record a span (name, layer, start, end, parent span, op)
and restores them on ``uninstall``; nothing under ``src/`` is changed. Spans
stay in memory until the run ends.

Per-pair kernels (``iou2d``, ``st_iou``) run far too often to wrap. They are
timed by replaying them over the workload's exact candidate pairs, and the
counts that explain the work are computed from the inputs. Every per-layer
metric therefore carries a source: ``measured`` (spans or values crossing a
wrapped boundary), ``replayed`` or ``computed``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, layer, role). Names that cli imports directly are
# wrapped in cli's namespace, where the commands look them up.
WRAPPED = [
    ("datamodel", "load_ground_truth", "datamodel", "load"),
    ("datamodel", "load_detections", "datamodel", "load"),
    ("datamodel", "load_tracks", "datamodel", "load"),
    ("datamodel", "load_action_tubes", "datamodel", "load"),
    ("datamodel", "load_track_scores", "datamodel", "load"),
    ("datamodel", "save_ground_truth", "datamodel", "save"),
    ("datamodel", "save_detections", "datamodel", "save"),
    ("datamodel", "save_tracks", "datamodel", "save"),
    ("datamodel", "save_action_tubes", "datamodel", "save"),
    ("motion", "label_tubes", "motion", "label"),
    ("motion", "save_motion_labels", "motion", "save"),
    ("metrics", "evaluate_frames", "metrics", "eval"),
    ("metrics", "evaluate_videos", "metrics", "eval"),
    ("metrics", "threshold_sweep", "metrics", "sweep"),
    ("linking", "build_tubes", "linking", "build"),
    ("linking", "tracks_to_tubes", "linking", "tracks"),
    ("linking", "greedy_link", "linking", "link"),
    ("linking", "trim_path", "linking", "trim"),
    ("filtering", "filter_by_tracks", "filtering", "filter"),
    ("cli", "align_tracks", "roialign", "align"),
    ("cli", "spatial_avg_pool", "roialign", "pool"),
    ("cli", "temporal_max_pool", "aggregators", "forward"),
    ("cli", "tcn_forward", "aggregators", "forward"),
    ("cli", "aspp_forward", "aggregators", "forward"),
    ("cli", "read_tensors", "tensorfile", "io"),
    ("cli", "write_tensors", "tensorfile", "io"),
    ("synth", "generate", "synth", "generate"),
    ("synth", "motion_iou", "synth", "motion_iou"),
]


class Span:
    __slots__ = ("id", "name", "layer", "role", "start", "end", "parent", "op", "info")

    def __init__(self, sid, name, layer, role, parent, op):
        self.id, self.name, self.layer, self.role = sid, name, layer, role
        self.parent, self.op = parent, op
        self.start = self.end = 0.0
        self.info = {}


class Tracer:
    """Records spans in memory. One op (one CLI command) is the root of each tree."""

    def __init__(self, package: dict):
        self.package = package          # module name -> tubekit module
        self.spans: list = []
        self._saved: list = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self.op = None

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer, role) -> Span:
        stack = self._stack()
        # A worker thread's first span hangs under the span open on the
        # main thread, which is the call that handed the work out.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), name, layer, role,
                        None if parent is None else parent.id, self.op)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def install(self) -> None:
        for mod_name, attr, layer, role in WRAPPED:
            mod = self.package[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, f"{mod_name}.{attr}", layer, role))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer, role):
        def wrapper(*args, **kwargs):
            span = self.begin(name, layer, role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            _annotate(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _annotate(span: Span, args, result) -> None:
    """Record the values crossing the boundary that per-layer counts need."""
    role = span.role
    if role == "load":
        span.info["records"] = len(result)
        span.info["bytes"] = os.path.getsize(args[0])
    elif role == "save":
        span.info["records"] = len(args[0])
        span.info["bytes"] = os.path.getsize(args[1])
    elif role == "io":
        path = args[0] if span.name.endswith("read_tensors") else args[1]
        span.info["bytes"] = os.path.getsize(path)
    elif role == "eval":
        span.info["tp"] = sum(
            round(curve.recalls[-1] * curve.num_positives)
            for curve in result.pr_curves.values() if curve.recalls
        )
    elif role == "link":
        span.info["paths"] = len(result)
    elif role == "trim":
        span.info["steps"] = len(args[0])
    elif role == "filter":
        span.info["kept"] = sum(len(fd.entries) for fd in result)
        span.info["in"] = sum(len(fd.entries) for fd in args[0])
    elif role == "generate":
        report = result[3]
        span.info["max_error"] = max(
            (abs(t["motion_iou"] - t["target"]) for t in report["tubes"]), default=0.0
        )


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def op_self_times(spans: list) -> dict:
    """Per op span: (duration, covered by its direct children, self time)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        if s.layer == "cli":
            dur = s.end - s.start
            cov = covered(children[s.id])
            out[s.id] = (dur, cov, dur - cov)
    return out


def cycle_layer_values(spans: list) -> dict:
    """Per-layer values measured over the spans of one traced cycle."""
    total = defaultdict(float)
    count = defaultdict(int)
    info = defaultdict(float)
    for s in spans:
        key = (s.layer, s.role)
        total[key] += s.end - s.start
        count[key] += 1
        for k, v in s.info.items():
            if k == "max_error":
                info[k] = max(info[k], v)
            else:
                info[(s.layer, k)] += v
    selfs = op_self_times(spans)
    return {
        "datamodel.load_s": total["datamodel", "load"],
        "datamodel.save_s": total["datamodel", "save"],
        "datamodel.records": info["datamodel", "records"],
        "datamodel.mb": info["datamodel", "bytes"] / 1e6,
        "motion.label_s": total["motion", "label"],
        "metrics.eval_s": total["metrics", "eval"],
        "metrics.evals": count["metrics", "eval"],
        "metrics.tp": info["metrics", "tp"],
        "linking.link_s": total["linking", "link"],
        "linking.trim_s": total["linking", "trim"],
        "linking.paths": info["linking", "paths"],
        "linking.dp_steps": info["linking", "steps"],
        "filtering.filter_s": total["filtering", "filter"],
        "filtering.kept_share": info["filtering", "kept"] / max(info["filtering", "in"], 1),
        "roialign.align_s": total["roialign", "align"],
        "roialign.pool_s": total["roialign", "pool"],
        "aggregators.forward_s": total["aggregators", "forward"],
        "tensorfile.io_s": total["tensorfile", "io"],
        "tensorfile.mb": info["tensorfile", "bytes"] / 1e6,
        "synth.generate_s": total["synth", "generate"],
        "synth.motion_evals": count["synth", "motion_iou"],
        "synth.max_motion_error": info["max_error"],
        "cli.self_s": sum(v[2] for v in selfs.values()),
    }


def pass_counts(spans: list) -> dict:
    """How many times one traced cycle ran each pass that ``replay`` scales by."""
    calls = Counter(s.name for s in spans)
    return {
        "frame_evals": calls["metrics.evaluate_frames"],
        "video_evals": calls["metrics.evaluate_videos"],
        "labelings": calls["motion.label_tubes"],
        "pools": calls["cli.align_tracks"],
    }


SOURCES = {
    "geometry.box_pairs": "computed", "geometry.box_pairs_s": "replayed",
    "geometry.tube_pairs": "computed", "geometry.shared_frames": "computed",
    "geometry.tube_pairs_s": "replayed", "motion.self_pairs": "computed",
    "metrics.ranked": "computed", "metrics.overlap_share": "replayed",
    "filtering.dets_in": "computed", "roialign.samples": "computed",
    "roialign.intermediate_mb": "computed", "aggregators.macs": "computed",
}


# ---------------------------------------------------------------------------
# replayed kernels and computed counts


def _median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def replay(tk: dict, in_dir, sizes: dict, per_cycle: dict) -> tuple:
    """Counts computed from the inputs, and the pair kernels replayed over them.

    ``per_cycle`` says how many times one cycle runs each pass (for example
    ten video evaluations: one plain and nine in the sweep), as
    ``pass_counts`` reads it from the spans. Returns the
    per-cycle values and the replayed overlap seconds spent inside evaluations.
    """
    dm, geo = tk["datamodel"], tk["geometry"]
    dets = dm.load_detections(in_dir / "dets.ndjson")
    gts = dm.load_ground_truth(in_dir / "gt.ndjson")
    tracks = dm.load_tracks(in_dir / "tracks.ndjson")
    tubes = dm.load_action_tubes(in_dir / "tubes.ndjson")

    gt_boxes = defaultdict(list)            # (video, frame, class) -> boxes
    track_boxes = defaultdict(list)         # (video, frame) -> boxes
    for g in gts:
        for i in range(len(g.geometry)):
            f = g.geometry.start_frame + i
            gt_boxes[g.video_id, f, g.class_id].append(g.geometry.box_at(f))
    for tr in tracks:
        for i in range(len(tr.geometry)):
            f = tr.geometry.start_frame + i
            track_boxes[tr.video_id, f].append(tr.geometry.box_at(f))
    eval_pairs, filter_pairs = [], []
    for fd in dets:
        for d in fd.entries:
            eval_pairs.extend((d.box, b) for b in gt_boxes.get((fd.video_id, fd.frame, d.class_id), ()))
            filter_pairs.extend((d.box, b) for b in track_boxes.get((fd.video_id, fd.frame), ()))

    by_video_class = defaultdict(list)
    for g in gts:
        by_video_class[g.video_id, g.class_id].append(g.geometry)
    tube_pairs = [(t.geometry, g) for t in tubes for g in by_video_class[t.video_id, t.class_id]]
    shared = sum(
        max(0, min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1)
        for a, b in tube_pairs
    )

    iou2d, st_iou = geo.iou2d, geo.st_iou
    eval_s = _median_time(lambda: [iou2d(a, b) for a, b in eval_pairs])
    filter_s = _median_time(lambda: [iou2d(a, b) for a, b in filter_pairs])
    tube_s = _median_time(lambda: [st_iou(a, b) for a, b in tube_pairs])

    offsets = (4, 8, 16, 24, 36)
    self_pairs = sum(len(g.geometry) - d for g in gts for d in offsets if len(g.geometry) > d)
    n_tr, (t_clip, c) = sizes["clip_tracks"], sizes["clip_shape"][:2]
    tcn_macs = t_clip * c * c * 3
    aspp_macs = t_clip * (c * 256 + 256 * c + 3 * 256 * c * 3 + 5 * c * c) + 256 * c
    n_det = sizes["detections"]
    values = {
        "geometry.box_pairs": len(eval_pairs) * per_cycle["frame_evals"] + len(filter_pairs),
        "geometry.box_pairs_s": eval_s * per_cycle["frame_evals"] + filter_s,
        "geometry.tube_pairs": len(tube_pairs) * per_cycle["video_evals"],
        "geometry.shared_frames": shared * per_cycle["video_evals"],
        "geometry.tube_pairs_s": tube_s * per_cycle["video_evals"],
        "motion.self_pairs": self_pairs * per_cycle["labelings"],
        "metrics.ranked": n_det * per_cycle["frame_evals"] + len(tubes) * per_cycle["video_evals"],
        "filtering.dets_in": n_det,
        "roialign.samples": n_tr * t_clip * 49 * 4 * per_cycle["pools"],
        "roialign.intermediate_mb": n_tr * t_clip * c * 49 * 8 / 1e6,
        "aggregators.macs": n_tr * (tcn_macs + aspp_macs),
    }
    return values, eval_s * per_cycle["frame_evals"] + tube_s * per_cycle["video_evals"]
