"""Seeded input generator for the benchmark workloads.

Inputs are written with the standard library and numpy only, in the formats
the tubekit README documents (NDJSON with a schema header, six-decimal
numbers; ``.tkt`` named float32 tensors). Nothing here imports tubekit, so a
change to the program cannot change the inputs it is measured on.

Sizes that set the amount of work (tube lengths, speeds, tracks per clip) are
drawn as fixed, evenly spaced sets whose order the seed shuffles. Different
seeds therefore give different layouts but almost the same total work, which
keeps the spread between runs with different seeds down.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

CANVAS = 1024.0
MULTISPORTS_CLASSES = 60
SYNTH_SEED = 7
CHANNELS = 576
REDUCED = 256

# Weight layouts of the two learned temporal aggregators (name -> shape),
# as pool-features expects them in its --weights file.
TCN_SHAPES = {
    "tcn.weight": (CHANNELS, CHANNELS, 3),
    "tcn.bias": (CHANNELS,),
}
ASPP_SHAPES = {
    "aspp.convs.0.weight": (REDUCED, CHANNELS, 1),
    "aspp.convs.0.bias": (REDUCED,),
    "aspp.convs.1.weight": (CHANNELS, REDUCED, 1),
    "aspp.convs.1.bias": (CHANNELS,),
    "aspp.convs.2.weight": (CHANNELS, REDUCED, 3),
    "aspp.convs.2.bias": (CHANNELS,),
    "aspp.convs.3.weight": (CHANNELS, REDUCED, 3),
    "aspp.convs.3.bias": (CHANNELS,),
    "aspp.convs.4.weight": (CHANNELS, REDUCED, 3),
    "aspp.convs.4.bias": (CHANNELS,),
    "aspp.convs.5.weight": (CHANNELS, REDUCED, 1),
    "aspp.convs.5.bias": (CHANNELS,),
    "aspp.project.weight": (CHANNELS, 5 * CHANNELS, 1),
}

# Per workload: the box dataset, the feature clip, the synth spec and the
# workload's own commands (by metric name), whose peak memory is its
# peak_rss_mb. The synth spec is fixed (its own seed, not the workload's) so
# that its work does not vary with the seed.
# "tiny" shrinks every workload to a size a test can run in seconds.
WORKLOADS = {
    "dense-frames": {
        "videos": 3, "frames": 150, "classes": 10, "gt_per_video": 8,
        "gt_len": (37, 150), "p_detect": 0.9, "det_sigma": 3.0,
        "confusers": 2, "clutter": 4, "cands_per_gt": 4, "cand_sigma": 6.0,
        "clip_frames": 8, "clip_tracks": 4, "jobs": 1,
        "synth": {"num_videos": 1, "frames_per_video": 60, "tubes_per_video": 4},
        "commands": ("filter_dets_s", "build_tubes_s", "eval_frames_s", "label_motion_s"),
    },
    "long-tubes": {
        "videos": 2, "frames": 600, "classes": 24, "gt_per_video": 4,
        "gt_len": (150, 600), "p_detect": 0.95, "det_sigma": 3.0,
        "confusers": 0, "clutter": 0, "cands_per_gt": 4, "cand_sigma": 6.0,
        "clip_frames": 8, "clip_tracks": 4, "jobs": 2,
        "synth": {"num_videos": 1, "frames_per_video": 120, "tubes_per_video": 2},
        "commands": ("label_motion_s", "eval_videos_s", "sweep_s", "trim_tracks_s",
                     "build_tubes_s", "synth_s"),
    },
    "pool-clip": {
        "videos": 1, "frames": 64, "classes": 10, "gt_per_video": 6,
        "gt_len": (20, 64), "p_detect": 0.9, "det_sigma": 3.0,
        "confusers": 1, "clutter": 2, "cands_per_gt": 2, "cand_sigma": 6.0,
        "clip_frames": 16, "clip_tracks": 8, "jobs": 1,
        "synth": {"num_videos": 1, "frames_per_video": 40, "tubes_per_video": 3},
        "commands": ("pool_maxpool_s", "pool_tcn_s", "pool_aspp_s"),
    },
}

TINY = {
    "videos": 1, "frames": 40, "gt_per_video": 3, "clip_frames": 6, "clip_tracks": 2,
    "synth": {"num_videos": 1, "frames_per_video": 30, "tubes_per_video": 2},
}


def workload_params(name: str, scale: str = "full") -> dict:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}' (expected one of {sorted(WORKLOADS)})")
    params = dict(WORKLOADS[name])
    if scale == "tiny":
        params.update(TINY)
        lo, hi = params["gt_len"]
        params["gt_len"] = (min(lo, 12), min(hi, TINY["frames"]))
    elif scale != "full":
        raise ValueError(f"unknown scale '{scale}'")
    return params


# ---------------------------------------------------------------------------
# writers


def _num(v: float) -> str:
    s = f"{float(v):.6f}"
    return "0.000000" if s == "-0.000000" else s


def _nums(values) -> str:
    return "[" + ",".join(_num(v) for v in values) + "]"


def _boxes(arr) -> str:
    return "[" + ",".join(_nums(row) for row in arr) + "]"


def _write_ndjson(path: Path, schema: str, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"schema": schema}, separators=(",", ":")) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_tkt(tensors: dict, path: Path) -> None:
    """Write {name: array} as a .tkt file: magic, u32 header length, JSON header, f32 data."""
    entries, payload = [], []
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape), "dtype": "f32"})
        payload.append(a.tobytes())
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"TKT1" + struct.pack("<I", len(header)) + header)
        for chunk in payload:
            fh.write(chunk)


def read_tkt(path: Path) -> dict:
    """Read a .tkt file into {name: float32 array}; the checker's own reader."""
    data = Path(path).read_bytes()
    if data[:4] != b"TKT1":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", data[4:8])
    entries = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    out, offset = {}, 8 + hlen
    for e in entries:
        count = int(np.prod(e["shape"], dtype=np.int64))
        out[e["name"]] = np.frombuffer(data, "<f4", count, offset).reshape(e["shape"])
        offset += 4 * count
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return out


# ---------------------------------------------------------------------------
# geometry


def _spread(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced values in [lo, hi] in seeded order."""
    return rng.permutation(np.linspace(lo, hi, n)) if n > 1 else np.array([lo])


def _moving_boxes(rng, length: int, speed: float) -> np.ndarray:
    """(length, 4) boxes moving at constant speed, reflected off the canvas edges."""
    w, h = rng.uniform(56.0, 160.0, size=2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    x0 = rng.uniform(0.0, CANVAS - w)
    y0 = rng.uniform(0.0, CANVAS - h)
    t = np.arange(length, dtype=np.float64)
    xs = _reflect(x0 + speed * math.cos(angle) * t, CANVAS - w)
    ys = _reflect(y0 + speed * math.sin(angle) * t, CANVAS - h)
    xs = xs + rng.normal(0.0, 0.5, size=length)
    ys = ys + rng.normal(0.0, 0.5, size=length)
    return np.stack([xs, ys, xs + w, ys + h], axis=1)


def _reflect(pos: np.ndarray, limit: float) -> np.ndarray:
    period = 2.0 * limit
    p = np.mod(pos, period)
    return np.where(p > limit, period - p, p)


def _jitter(rng, boxes: np.ndarray, sigma: float) -> np.ndarray:
    noisy = boxes + rng.normal(0.0, sigma, size=boxes.shape)
    x1 = np.minimum(noisy[:, 0], noisy[:, 2])
    x2 = np.maximum(noisy[:, 0], noisy[:, 2])
    y1 = np.minimum(noisy[:, 1], noisy[:, 3])
    y2 = np.maximum(noisy[:, 1], noisy[:, 3])
    return np.stack([x1, y1, x2, y2], axis=1)


def _make_gt(rng, p: dict, classes: np.ndarray) -> list:
    """Ground-truth tubes: (video, tube, class, start, boxes).

    A video's tubes take distinct classes when there are enough, so that the
    number of same-class tube pairs, and with it the work of video-level
    evaluation, does not depend on the seed.
    """
    n = p["videos"] * p["gt_per_video"]
    lengths = np.rint(_spread(rng, *p["gt_len"], n)).astype(int)
    # Speeds span still to fast so every motion category is populated.
    speeds = _spread(rng, 0.05, 6.0, n)
    distinct = len(classes) >= p["gt_per_video"]
    tubes = []
    for v in range(p["videos"]):
        video_classes = rng.choice(classes, size=p["gt_per_video"], replace=not distinct)
        for j in range(p["gt_per_video"]):
            k = v * p["gt_per_video"] + j
            length = int(lengths[k])
            start = int(rng.integers(0, p["frames"] - length + 1))
            boxes = _moving_boxes(rng, length, float(speeds[k]))
            tubes.append((f"v{v:03d}", f"g{j:02d}", int(video_classes[j]), start, boxes))
    return tubes


# ---------------------------------------------------------------------------
# workload inputs


def generate(name: str, seed: int, out_dir, scale: str = "full") -> dict:
    """Write every input of one workload into out_dir; return its sizes."""
    p = workload_params(name, scale)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    classes = np.sort(rng.choice(MULTISPORTS_CLASSES, size=p["classes"], replace=False))
    gts = _make_gt(rng, p, classes)

    _write_ndjson(out / "gt.ndjson", "tubekit.gt.v1", [
        f'{{"video":"{v}","tube":"{t}","class":{c},"start":{s},"boxes":{_boxes(b)}}}'
        for v, t, c, s, b in gts
    ])
    _write_ndjson(out / "tracks.ndjson", "tubekit.track.v1", [
        f'{{"video":"{v}","track":"{t}","start":{s},"boxes":{_boxes(b)}}}'
        for v, t, _, s, b in gts
    ])
    detections = _write_detections(rng, p, classes, gts, out / "dets.ndjson")
    _write_track_scores(rng, p, gts, out / "scores.ndjson")
    candidates = _write_candidates(rng, p, classes, gts, out / "tubes.ndjson")
    clip_shape = _write_clip(rng, p, out)
    _write_weights(rng, out)
    spec = dict(p["synth"], seed=SYNTH_SEED, num_classes=4,
                motion_targets=[0.9, 0.6, 0.35, 0.15], jitter_sigma=2.0,
                drop_rate=0.1, spurious_rate=0.2, fragmentation_rate=0.02)
    (out / "synth.json").write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")

    return {
        "videos": p["videos"],
        "frames": p["videos"] * p["frames"],
        "detections": detections,
        "gt_tubes": len(gts),
        "gt_boxes": int(sum(len(b) for *_, b in gts)),
        "candidate_tubes": candidates,
        "tracks": len(gts),
        "score_columns": p["classes"],
        "clip_shape": list(clip_shape),
        "clip_tracks": p["clip_tracks"],
        "synth_spec": spec,
        "input_bytes": int(sum(f.stat().st_size for f in out.iterdir() if f.is_file())),
    }


def _write_detections(rng, p, classes, gts, path) -> int:
    per_frame = {}
    for v, _, c, s, boxes in gts:
        hit = rng.random(len(boxes)) < p["p_detect"]
        noisy = _jitter(rng, boxes, p["det_sigma"])
        others = classes[classes != c]
        for i in np.flatnonzero(hit):
            rows = per_frame.setdefault((v, s + int(i)), [])
            rows.append((noisy[i], c, rng.uniform(0.4, 1.0)))
            for other in rng.choice(others, size=min(p["confusers"], len(others)), replace=False):
                rows.append((_jitter(rng, boxes[i : i + 1], p["det_sigma"])[0],
                             int(other), rng.uniform(0.02, 0.5)))
    lines, count = [], 0
    for vi in range(p["videos"]):
        v = f"v{vi:03d}"
        for f in range(p["frames"]):
            rows = per_frame.get((v, f), [])
            for _ in range(p["clutter"]):
                w, h = rng.uniform(24.0, 200.0, size=2)
                x, y = rng.uniform(0.0, CANVAS - w), rng.uniform(0.0, CANVAS - h)
                rows.append(((x, y, x + w, y + h), int(rng.choice(classes)),
                             rng.uniform(0.0, 0.4)))
            dets = ",".join(
                f"[{_num(b[0])},{_num(b[1])},{_num(b[2])},{_num(b[3])},{c},{_num(sc)}]"
                for b, c, sc in rows
            )
            lines.append(f'{{"video":"{v}","frame":{f},"dets":[{dets}]}}')
            count += len(rows)
    _write_ndjson(path, "tubekit.det.v1", lines)
    return count


def _write_track_scores(rng, p, gts, path) -> None:
    """Per-track class scores: the track's own class column is high over a sub-span."""
    width = p["classes"]
    lines = []
    for v, t, _, s, boxes in gts:
        n = len(boxes)
        mat = rng.uniform(0.0, 0.3, size=(n, width))
        col = int(rng.integers(0, width))
        lo = int(rng.integers(0, max(1, n // 4)))
        hi = n - int(rng.integers(0, max(1, n // 4)))
        mat[lo:hi, col] = rng.uniform(0.6, 0.95, size=hi - lo)
        lines.append(f'{{"video":"{v}","track":"{t}","start":{s},"scores":{_boxes(mat)}}}')
    _write_ndjson(path, "tubekit.trackscores.v1", lines)


def _write_candidates(rng, p, classes, gts, path) -> int:
    """Detected tubes around each GT: one of its class, the rest of classes absent
    from the video where there are any, so they are false positives that match
    no ground truth."""
    last = p["frames"] - 1
    present = {}
    for v, _, c, *_ in gts:
        present.setdefault(v, set()).add(c)
    lines = []
    for v, _, c, s, boxes in gts:
        others = np.array([k for k in classes if k not in present[v]])
        if not len(others):
            others = classes[classes != c]
        cands = [c] + [int(o) for o in rng.choice(others, size=p["cands_per_gt"] - 1)]
        for k, cls in enumerate(cands):
            a = min(max(s + int(rng.integers(-10, 11)), 0), last)
            b = min(max(s + len(boxes) - 1 + int(rng.integers(-10, 11)), a), last)
            idx = np.clip(np.arange(a, b + 1) - s, 0, len(boxes) - 1)
            geo = _jitter(rng, boxes[idx], p["cand_sigma"])
            lo_score = 0.3 if k == 0 else 0.05
            fs = np.round(rng.uniform(lo_score, 1.0, size=len(geo)), 6)
            lines.append(
                f'{{"video":"{v}","class":{cls},"start":{a},"boxes":{_boxes(geo)},'
                f'"frame_scores":{_nums(fs)},"score":{_num(fs.mean())}}}'
            )
    _write_ndjson(path, "tubekit.tube.v1", lines)
    return len(lines)


def _write_clip(rng, p, out: Path) -> tuple:
    """A (T, 576, 12, 12) feature clip and tracks over it, half shorter than the clip."""
    T, cells = p["clip_frames"], 12
    values = rng.standard_normal((T, CHANNELS, cells, cells), dtype=np.float32)
    write_tkt({
        "features": values,
        "spatial_stride": np.array([CANVAS / cells], dtype=np.float32),
    }, out / "features.tkt")
    lines = []
    lengths = _spread(rng, max(2, T // 2), T, p["clip_tracks"])
    for n in range(p["clip_tracks"]):
        length = T if n % 2 == 0 else int(lengths[n])
        start = int(rng.integers(0, T - length + 1))
        boxes = _moving_boxes(rng, length, float(rng.uniform(0.0, 8.0)))
        lines.append(f'{{"video":"clip","track":"k{n:02d}","start":{start},"boxes":{_boxes(boxes)}}}')
    _write_ndjson(out / "clip_tracks.ndjson", "tubekit.track.v1", lines)
    return values.shape


def _write_weights(rng, out: Path) -> None:
    for kind, shapes in (("tcn", TCN_SHAPES), ("aspp", ASPP_SHAPES)):
        tensors = {}
        for name, shape in shapes.items():
            wshape = shapes[name[: -len(".bias")] + ".weight"] if name.endswith(".bias") else shape
            bound = 1.0 / math.sqrt(wshape[1] * wshape[2])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        write_tkt(tensors, out / f"{kind}.tkt")
