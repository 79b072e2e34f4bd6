"""Command-line frontend: evaluation, labeling, tube building, pooling, fixtures.

All outputs are reproducible: reports carry no timestamps, floats print with
six decimals, and all work runs in one thread: --jobs is accepted for
compatibility and ignored.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import datamodel, filtering, linking, metrics, motion, synth
from .aggregators import CHANNELS, aspp_forward, tcn_forward, temporal_max_pool
from .datamodel import builtin_config, load_config, load_json
from .jsonfmt import dumps
# align_tracks and spatial_avg_pool go unused here but stay importable from
# this module: perfbench's --trace 1 wraps them by name.
from .roialign import FeatureGrid, align_tracks, pool_tracks, spatial_avg_pool  # noqa: F401
from .tensorfile import read_tensors, write_tensors

__all__ = ["main"]

# Most values a start:stop:step range may expand to.
_MAX_RANGE_VALUES = 100_000


def _parse_steps(text: str) -> list:
    """Parse 'start:stop:step' into an inclusive list of floats."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got '{text}'")
    a, b, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ValueError(f"bad range '{text}': start, stop and step must be finite")
    if step <= 0 or b < a:
        raise ValueError(f"bad range '{text}'")
    # Count before building: a finite range can still ask for 10**12 values.
    n = int(round(min((b - a) / step, _MAX_RANGE_VALUES)))
    if n + 1 > _MAX_RANGE_VALUES:
        raise ValueError(f"bad range '{text}': more than {_MAX_RANGE_VALUES} values")
    vals = [round(a + i * step, 9) for i in range(n + 1)]
    return [v for v in vals if v <= b + 1e-9]


def _resolve_config(args, required: bool):
    if getattr(args, "config", None):
        return load_config(args.config)
    if getattr(args, "dataset", None):
        return builtin_config(args.dataset)
    if required:
        raise ValueError("a dataset is required here: pass --dataset or --config")
    return None


def _add_dataset_args(p, default=None):
    p.add_argument("--dataset", default=default, help="built-in dataset name")
    p.add_argument("--config", default=None, help="dataset config JSON file")


def _add_jobs_arg(p):
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored; all work runs in one thread")


def _print_report(report, config, pr_csv=None):
    sys.stdout.write(metrics.render_table(report, config))
    sys.stdout.write(dumps(metrics.report_to_dict(report, config)) + "\n")
    if pr_csv:
        with open(pr_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.pr_curves_csv(report, config))


def _cmd_eval_frames(args) -> int:
    config = _resolve_config(args, required=args.motion)
    gts = datamodel.load_ground_truth(args.gt, config)
    dets = datamodel.load_detections(args.det, config)
    labels = motion.label_tubes(gts, config) if args.motion else None
    report = metrics.evaluate_frames(dets, gts, args.iou, labels)
    _print_report(report, config, args.pr_csv)
    return 0


def _cmd_eval_videos(args) -> int:
    config = _resolve_config(args, required=args.motion)
    gts = datamodel.load_ground_truth(args.gt, config)
    tubes = datamodel.load_action_tubes(args.tubes, config)
    if args.sweep:
        thresholds = _parse_steps(args.sweep)
        reports, mean = metrics.threshold_sweep(
            lambda t: metrics.evaluate_videos(tubes, gts, t),
            thresholds,
        )
        rows = []
        for t, rep in zip(thresholds, reports):
            m = "-" if rep.mean_ap is None else f"{rep.mean_ap:.6f}"
            sys.stdout.write(f"st-iou {t:.6f}  mAP {m}\n")
            rows.append({"threshold": t, "map": rep.mean_ap})
        if mean is None:
            sys.stdout.write("mean mAP -\n")
        else:
            sys.stdout.write(f"mean mAP {mean:.6f} ({mean * 100.0:.1f}%)\n")
        sys.stdout.write(dumps({
            "level": "video",
            "thresholds": thresholds,
            "per_threshold": rows,
            "mean_map": mean,
        }) + "\n")
        return 0
    labels = motion.label_tubes(gts, config) if args.motion else None
    report = metrics.evaluate_videos(tubes, gts, args.st_iou, labels)
    _print_report(report, config, args.pr_csv)
    return 0


def _cmd_label_motion(args) -> int:
    config = _resolve_config(args, required=True)
    gts = datamodel.load_ground_truth(args.gt, config)
    labels = motion.label_tubes(gts, config)
    motion.save_motion_labels(labels, args.out)
    counts = {cat.label: 0 for cat in motion.MotionCategory}
    for lab in labels.values():
        counts[lab.category.label] += 1
    sys.stdout.write(dumps({"tubes": len(labels), "counts": counts}) + "\n")
    if args.tertiles and labels:
        q1, q2 = motion.tertile_thresholds(gts, config)
        sys.stdout.write(f"tertile thresholds {q1:.6f} {q2:.6f}\n")
    return 0


def _cmd_motion_cdf(args) -> int:
    config = _resolve_config(args, required=True)
    gts = datamodel.load_ground_truth(args.gt, config)
    offset = args.offset_frames
    if offset is None:
        seconds = args.offset_seconds
        if not 0.0 < seconds * config.fps < math.inf:
            raise ValueError(f"--offset-seconds must be finite and positive, got {seconds}")
        offset = max(1, round(seconds * config.fps))
    edges = _parse_steps(args.edges)
    points, excluded = motion.motion_cdf(gts, offset, edges)
    motion.write_cdf_csv(points, excluded, args.out)
    sys.stdout.write(
        f"wrote {len(points)} edges for {len(gts) - excluded} tubes "
        f"({excluded} too short for offset {offset})\n"
    )
    return 0


def _cmd_build_tubes(args) -> int:
    config = _resolve_config(args, required=False)
    dets = datamodel.load_detections(args.det, config)
    link = linking.LinkParams(args.iou_gate, args.max_misses, args.min_len)
    trim = linking.TrimParams(args.alpha, args.min_seg)
    tubes = linking.build_tubes(dets, link, trim)
    datamodel.save_action_tubes(tubes, args.out)
    sys.stdout.write(f"wrote {len(tubes)} tubes\n")
    return 0


def _cmd_trim_tracks(args) -> int:
    tracks = datamodel.load_tracks(args.tracks)
    scores = {ts.key: ts for ts in datamodel.load_track_scores(args.scores)}
    trim = linking.TrimParams(args.alpha, args.min_seg)
    tubes = linking.tracks_to_tubes(tracks, scores, trim)
    datamodel.save_action_tubes(tubes, args.out)
    sys.stdout.write(f"wrote {len(tubes)} tubes\n")
    return 0


def _cmd_filter_dets(args) -> int:
    dets = datamodel.load_detections(args.det)
    tracks = datamodel.load_tracks(args.tracks)
    if not tracks:
        sys.stderr.write("warning: no tracks; every detection will be dropped\n")
    kept = filtering.filter_by_tracks(dets, tracks, args.match_iou, args.score_thresh)
    datamodel.save_detections(kept, args.out)
    before = sum(len(fd.scores) for fd in dets)
    after = sum(len(fd.scores) for fd in kept)
    sys.stdout.write(f"kept {after} of {before} detections\n")
    return 0


def _pooled_tracks(args) -> tuple:
    """Read the clip's features and pool them along the tracks: ((N, T, C), tracks).

    The features are released when this returns, before the aggregator's
    weights are read, so the two never occupy memory at the same time.
    """
    store = read_tensors(args.features)
    try:
        if "features" not in store or "spatial_stride" not in store:
            raise ValueError("expected tensors 'features' (T,C,H,W) and 'spatial_stride' (1)")
        stride = store["spatial_stride"].reshape(-1)
        if stride.size != 1:
            raise ValueError(f"'spatial_stride' must hold one element, got {stride.size}")
        grid = FeatureGrid(store["features"], float(stride[0]))
        channels = grid.values.shape[1]
        if args.tfa != "maxpool" and channels != CHANNELS:
            raise ValueError(f"--tfa {args.tfa} needs {CHANNELS} channels, got {channels}")
    except ValueError as exc:
        raise ValueError(f"{args.features}: {exc}") from None

    tracks = datamodel.load_tracks(args.tracks)
    if args.video:
        tracks = [t for t in tracks if t.video_id == args.video]
        if not tracks:
            raise ValueError(f"no tracks for video '{args.video}'")
    else:
        videos = sorted({t.video_id for t in tracks})
        if len(videos) != 1:
            raise ValueError(
                f"tracks cover {len(videos)} videos; pick one with --video"
            )

    pooled = pool_tracks(
        grid, tracks, output_size=args.output_size, sampling_ratio=args.sampling_ratio
    )
    return pooled, tracks


def _cmd_pool_features(args) -> int:
    pooled, tracks = _pooled_tracks(args)

    # One forward over all tracks: (N, T, C) -> (N, 1, C).
    if args.tfa == "maxpool":
        aggregated = temporal_max_pool(pooled)
    else:
        if not args.weights:
            raise ValueError(f"--weights is required for --tfa {args.tfa}")
        weights = read_tensors(args.weights)
        forward = tcn_forward if args.tfa == "tcn" else aspp_forward
        try:
            aggregated = forward(pooled, weights)
        except ValueError as exc:
            raise ValueError(f"{args.weights}: {exc}") from None
    aggregated = aggregated[:, 0].astype(np.float32)
    write_tensors({
        "track_features": pooled.astype(np.float32),
        "aggregated": aggregated,
    }, args.out)
    for n, tr in enumerate(tracks):
        sys.stdout.write(f"{n} {tr.video_id}/{tr.track_id}\n")
    return 0


def _cmd_synth(args) -> int:
    gts, dets, tracks, report, features = load_json(
        args.spec, lambda obj: synth.generate(synth.spec_from_dict(obj))
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datamodel.save_ground_truth(gts, out / "gt.ndjson")
    datamodel.save_detections(dets, out / "detections.ndjson")
    datamodel.save_tracks(tracks, out / "tracks.ndjson")
    with open(out / "oracle.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(report) + "\n")
    for video_id, grid in sorted(features.items()):
        folder = out / "features"
        folder.mkdir(exist_ok=True)
        write_tensors({
            "features": grid.values,
            "spatial_stride": np.array([grid.spatial_stride], dtype=np.float32),
        }, folder / f"{video_id}.tkt")
    sys.stdout.write(
        f"wrote {len(gts)} tubes, {len(dets)} frames, {len(tracks)} tracks to {out}\n"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubekit",
        description="Action-tube metrics, motion labeling, tube building and feature pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-frames", help="frame-level AP/mAP")
    p.add_argument("--gt", required=True)
    p.add_argument("--det", required=True)
    _add_dataset_args(p)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--motion", action="store_true", help="add per-motion-category metrics")
    p.add_argument("--pr-csv", default=None, help="also write PR curves as CSV")
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_eval_frames)

    p = sub.add_parser("eval-videos", help="video-level (tube overlap) AP/mAP")
    p.add_argument("--gt", required=True)
    p.add_argument("--tubes", required=True)
    _add_dataset_args(p)
    p.add_argument("--st-iou", type=float, default=0.5)
    p.add_argument("--sweep", default=None, help="threshold range start:stop:step")
    p.add_argument("--motion", action="store_true",
                   help="add per-motion-category metrics (not with --sweep)")
    p.add_argument("--pr-csv", default=None, help="also write PR curves as CSV (not with --sweep)")
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_eval_videos)

    p = sub.add_parser("label-motion", help="label ground-truth tubes by motion")
    p.add_argument("--gt", required=True)
    _add_dataset_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--tertiles", action="store_true",
                   help="also print empirical tertile thresholds")
    p.set_defaults(func=_cmd_label_motion)

    p = sub.add_parser("motion-cdf", help="cumulative motion distribution as CSV")
    p.add_argument("--gt", required=True)
    _add_dataset_args(p, default="multisports")
    p.add_argument("--offset-seconds", type=float, default=1.0)
    p.add_argument("--offset-frames", type=int, default=None)
    p.add_argument("--edges", default="0:1:0.05")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_motion_cdf)

    p = sub.add_parser("build-tubes", help="link and trim detections into tubes")
    p.add_argument("--det", required=True)
    _add_dataset_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--iou-gate", type=float, default=0.1)
    p.add_argument("--max-misses", type=int, default=5)
    p.add_argument("--min-len", type=int, default=8)
    p.add_argument("--min-seg", type=int, default=4)
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_build_tubes)

    p = sub.add_parser("trim-tracks", help="trim scored tracks into tubes")
    p.add_argument("--tracks", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--min-seg", type=int, default=4)
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_trim_tracks)

    p = sub.add_parser("filter-dets", help="drop detections not lying on a track")
    p.add_argument("--det", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--score-thresh", type=float, default=0.05)
    p.add_argument("--match-iou", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter_dets)

    p = sub.add_parser("pool-features", help="pool clip features along tracks")
    p.add_argument("--features", required=True, help=".tkt with 'features' and 'spatial_stride'")
    p.add_argument("--tracks", required=True)
    p.add_argument("--tfa", choices=("maxpool", "tcn", "aspp"), required=True,
                   help="temporal feature aggregator")
    p.add_argument("--weights", default=None, help=".tkt weight store for tcn/aspp")
    p.add_argument("--video", default=None, help="video id when tracks cover several")
    p.add_argument("--output-size", type=int, default=7)
    p.add_argument("--sampling-ratio", type=int, default=2)
    p.add_argument("--out", required=True)
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_pool_features)

    p = sub.add_parser("synth", help="generate a seeded synthetic fixture")
    p.add_argument("--spec", required=True, help="synth spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sweep", None):
        # A sweep prints one mAP per threshold; it has no single report to
        # write PR curves or a motion breakdown for.
        for flag, given in (("--pr-csv", args.pr_csv), ("--motion", args.motion)):
            if given:
                parser.error(f"eval-videos: {flag} cannot be combined with --sweep")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FileFormatError and TensorFileError included
        sys.stderr.write(f"error: {exc}\n")
        return 1
