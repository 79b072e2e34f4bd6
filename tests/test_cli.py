import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from tubekit import cli, metrics
from tubekit.aggregators import aspp_forward, random_weights, tcn_forward, temporal_max_pool
from tubekit.datamodel import (ActionTube, Detection, FrameDetections, load_action_tubes,
                               load_ground_truth, load_tracks, save_action_tubes)
from tubekit.geometry import Box, TubeGeometry
from tubekit.jsonfmt import format_float
from tubekit.roialign import FeatureGrid, align_tracks, spatial_avg_pool
from tubekit.tensorfile import read_tensors, write_tensors

SPEC = {
    "seed": 17,
    "num_videos": 3,
    "frames_per_video": 30,
    "num_classes": 2,
    "tubes_per_video": 2,
    "motion_targets": [1.0, 0.4, 0.1],
}


def run_cli(*args, check=True, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "tubekit", *[str(a) for a in args]],
        capture_output=True, env=None if env is None else dict(os.environ, **env),
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"tubekit {' '.join(map(str, args))} failed ({proc.returncode}):\n"
            f"{proc.stderr.decode()}"
        )
    return proc


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = root / "synth"
    run_cli("synth", "--spec", spec_path, "--out", out)
    return root


class TestSynthCommand:
    def test_outputs_exist(self, fixture_dir):
        out = fixture_dir / "synth"
        for name in ("gt.ndjson", "detections.ndjson", "tracks.ndjson", "oracle.json"):
            assert (out / name).exists()

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        spec_path = fixture_dir / "spec.json"
        again = tmp_path / "synth2"
        run_cli("synth", "--spec", spec_path, "--out", again)
        for name in ("gt.ndjson", "detections.ndjson", "tracks.ndjson", "oracle.json"):
            assert (again / name).read_bytes() == (fixture_dir / "synth" / name).read_bytes()


class TestEvalCommands:
    def test_eval_frames_closure(self, fixture_dir):
        out = fixture_dir / "synth"
        proc = run_cli(
            "eval-frames", "--gt", out / "gt.ndjson", "--det", out / "detections.ndjson",
            "--dataset", "multisports", "--iou", "0.5",
        )
        text = proc.stdout.decode()
        assert "mAP 1.000000 (100.0%)" in text
        json_line = text.strip().splitlines()[-1]
        payload = json.loads(json_line)
        assert payload["map"] == 1.0
        assert payload["level"] == "frame"

    def test_eval_frames_motion(self, fixture_dir):
        out = fixture_dir / "synth"
        proc = run_cli(
            "eval-frames", "--gt", out / "gt.ndjson", "--det", out / "detections.ndjson",
            "--dataset", "multisports", "--iou", "0.5", "--motion",
        )
        payload = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        assert set(payload["per_motion"]) == {"large", "medium", "small"}

    def test_eval_frames_requires_dataset_for_motion(self, fixture_dir):
        out = fixture_dir / "synth"
        proc = run_cli(
            "eval-frames", "--gt", out / "gt.ndjson", "--det", out / "detections.ndjson",
            "--iou", "0.5", "--motion", check=False,
        )
        assert proc.returncode == 1

    def test_eval_videos_sweep(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        tubes = tmp_path / "tubes.ndjson"
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", tubes)
        proc = run_cli(
            "eval-videos", "--gt", out / "gt.ndjson", "--tubes", tubes,
            "--sweep", "0.1:0.9:0.1",
        )
        lines = proc.stdout.decode().splitlines()
        threshold_rows = [ln for ln in lines if ln.startswith("st-iou ")]
        assert len(threshold_rows) == 9
        assert any(ln.startswith("mean mAP") for ln in lines)
        payload = json.loads(lines[-1])
        assert len(payload["per_threshold"]) == 9
        assert payload["mean_map"] == pytest.approx(
            sum(r["map"] for r in payload["per_threshold"]) / 9, abs=1e-9
        )

    def test_sweep_equals_one_evaluation_per_threshold(self, fixture_dir, tmp_path,
                                                       monkeypatch, capsys):
        # The sweep computes each st-IoU once and matches every threshold
        # against them; each result must equal a whole evaluation at that
        # threshold, every float included. Tube i is ground-truth tube i moved
        # right by i / 8 of its boxes' width, so mAP moves with the threshold.
        out = fixture_dir / "synth"
        tubes_path = tmp_path / "tubes.ndjson"
        tubes = []
        for i, g in enumerate(load_ground_truth(out / "gt.ndjson")):
            boxes = g.geometry.boxes.copy()
            boxes[:, [0, 2]] += (boxes[:, 2:3] - boxes[:, :1]) * i / 8
            tubes.append(ActionTube(g.video_id, g.class_id,
                                    TubeGeometry(g.geometry.start_frame, boxes.tolist()),
                                    [1 - i / 16] * len(boxes)))
        save_action_tubes(tubes, tubes_path)
        sweep, swept = metrics.threshold_sweep, []

        def recorded(eval_fn, thresholds):
            swept.append(sweep(eval_fn, thresholds))
            return swept[-1]

        monkeypatch.setattr(metrics, "threshold_sweep", recorded)
        argv = ["eval-videos", "--gt", out / "gt.ndjson", "--tubes", tubes_path,
                "--sweep", "0.05:0.95:0.05"]
        assert cli.main(list(map(str, argv))) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        gts, tubes = load_ground_truth(out / "gt.ndjson"), load_action_tubes(tubes_path)
        thresholds = cli._parse_steps("0.05:0.95:0.05")
        [(reports, mean)] = swept
        maps = [metrics.evaluate_videos(tubes, gts, t).mean_ap for t in thresholds]
        assert [r.mean_ap for r in reports] == maps
        assert len(set(maps)) > 3
        assert mean == sweep(lambda t: metrics.evaluate_videos(tubes, gts, t), thresholds)[1]
        assert [r["map"] for r in payload["per_threshold"]] == \
            [float(format_float(m)) for m in maps]

    def test_eval_videos_single_threshold(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        tubes = tmp_path / "tubes.ndjson"
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", tubes)
        proc = run_cli(
            "eval-videos", "--gt", out / "gt.ndjson", "--tubes", tubes, "--st-iou", "0.5",
        )
        payload = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        assert payload["map"] == 1.0

    def test_pr_csv(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        csv = tmp_path / "pr.csv"
        run_cli(
            "eval-frames", "--gt", out / "gt.ndjson", "--det", out / "detections.ndjson",
            "--iou", "0.5", "--pr-csv", csv,
        )
        assert csv.read_text().splitlines()[0] == "class,name,rank,recall,precision"


class TestMotionCommands:
    def test_label_motion(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        labels = tmp_path / "labels.json"
        proc = run_cli(
            "label-motion", "--gt", out / "gt.ndjson", "--dataset", "multisports",
            "--out", labels, "--tertiles",
        )
        payload = json.loads(labels.read_text())
        assert payload["schema"] == "tubekit.motion.v1"
        assert len(payload["labels"]) == SPEC["num_videos"] * SPEC["tubes_per_video"]
        assert "tertile" in proc.stdout.decode()

    def test_motion_cdf(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        csv = tmp_path / "cdf.csv"
        run_cli(
            "motion-cdf", "--gt", out / "gt.ndjson", "--offset-seconds", "1.0",
            "--edges", "0:1:0.25", "--out", csv,
        )
        lines = csv.read_text().splitlines()
        assert lines[0] == "edge,cumulative_fraction,excluded_tubes"
        assert len(lines) == 6  # header + five edges


class TestFilterCommand:
    def test_liberal_threshold_example(self, tmp_path):
        det = tmp_path / "det.ndjson"
        det.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,10,10,0,0.06],[50,50,60,60,0,0.99]]}\n'
        )
        tracks = tmp_path / "tracks.ndjson"
        tracks.write_text(
            '{"schema":"tubekit.track.v1"}\n'
            '{"video":"v","track":"k","start":0,"boxes":[[0,0,10,10]]}\n'
        )
        out = tmp_path / "filtered.ndjson"
        proc = run_cli(
            "filter-dets", "--det", det, "--tracks", tracks,
            "--score-thresh", "0.05", "--match-iou", "0.5", "--out", out,
        )
        assert "kept 1 of 2" in proc.stdout.decode()
        assert "0.060000" in out.read_text()

    def test_empty_tracks_warns(self, tmp_path):
        det = tmp_path / "det.ndjson"
        det.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,10,10,0,0.5]]}\n'
        )
        tracks = tmp_path / "tracks.ndjson"
        tracks.write_text('{"schema":"tubekit.track.v1"}\n')
        out = tmp_path / "filtered.ndjson"
        proc = run_cli("filter-dets", "--det", det, "--tracks", tracks, "--out", out)
        assert "warning" in proc.stderr.decode()
        assert "kept 0 of 1" in proc.stdout.decode()

    def test_huge_boxes_print_no_warning(self, tmp_path):
        # Corners near the float limit overflow the IoU arithmetic. The NaN
        # overlap fails every threshold, and numpy must not warn on stderr.
        box = "[-1e308,-1e308,1e308,1e308"
        det = tmp_path / "det.ndjson"
        det.write_text('{"schema":"tubekit.det.v1"}\n'
                       f'{{"video":"v","frame":0,"dets":[{box},0,0.5]]}}\n')
        tracks = tmp_path / "tracks.ndjson"
        tracks.write_text('{"schema":"tubekit.track.v1"}\n'
                          f'{{"video":"v","track":"k","start":0,"boxes":[{box}]]}}\n')
        proc = run_cli("filter-dets", "--det", det, "--tracks", tracks,
                       "--out", tmp_path / "filtered.ndjson")
        assert (proc.stdout.decode(), proc.stderr.decode()) == ("kept 0 of 1 detections\n", "")

    def test_class_above_float_precision_round_trips(self, tmp_path):
        # 2**53 + 1 has no float64; the class column must hold it exactly.
        det = tmp_path / "det.ndjson"
        det.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0.000000,0.000000,10.000000,10.000000,'
            f'{2**53 + 1},0.500000],[1.000000,1.000000,2.000000,2.000000,{2**63 - 1},'
            '1.000000]]}\n'
        )
        tracks = tmp_path / "tracks.ndjson"
        tracks.write_text(
            '{"schema":"tubekit.track.v1"}\n'
            '{"video":"v","track":"k","start":0,"boxes":[[0,0,10,10]]}\n'
        )
        out = tmp_path / "filtered.ndjson"
        proc = run_cli("filter-dets", "--det", det, "--tracks", tracks,
                       "--score-thresh", "0", "--match-iou", "0", "--out", out)
        assert proc.stdout.decode() == "kept 2 of 2 detections\n"
        assert out.read_bytes() == det.read_bytes()


class TestNoDetectionObjects:
    """The detection commands read the columns and never build a Detection or a Box."""

    @staticmethod
    def count_inits(monkeypatch, cls, counts):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    @pytest.mark.parametrize("command", ["filter-dets", "eval-frames", "build-tubes"])
    def test_no_detection_built(self, fixture_dir, tmp_path, monkeypatch, capsys, command):
        synth = fixture_dir / "synth"
        det = synth / "detections.ndjson"
        argv = {
            "filter-dets": ["--tracks", synth / "tracks.ndjson", "--out", tmp_path / "o.ndjson"],
            "eval-frames": ["--gt", synth / "gt.ndjson", "--dataset", "multisports",
                            "--motion", "--pr-csv", tmp_path / "pr.csv"],
            "build-tubes": ["--out", tmp_path / "o.ndjson"],
        }[command]
        rows = sum(len(json.loads(line)["dets"]) for line in det.read_text().splitlines()[1:])
        counts = {"Detection": 0, "Box": 0, "entries": 0}
        self.count_inits(monkeypatch, Detection, counts)
        self.count_inits(monkeypatch, Box, counts)
        entries = FrameDetections.entries

        def read_entries(fd):
            counts["entries"] += 1
            return entries.fget(fd)

        monkeypatch.setattr(FrameDetections, "entries", property(read_entries))
        assert cli.main([command, "--det", str(det), *map(str, argv)]) == 0
        assert counts == {"Detection": 0, "Box": 0, "entries": 0}
        assert rows > 0 and capsys.readouterr().out


class TestTrimTracksCommand:
    def test_trim(self, tmp_path):
        tracks = tmp_path / "tracks.ndjson"
        boxes = ",".join(["[0,0,10,10]"] * 10)
        tracks.write_text(
            '{"schema":"tubekit.track.v1"}\n'
            f'{{"video":"v","track":"k","start":0,"boxes":[{boxes}]}}\n'
        )
        scores = tmp_path / "scores.ndjson"
        rows = ",".join(["[0.95,0.02]"] * 6 + ["[0.02,0.02]"] * 4)
        scores.write_text(
            '{"schema":"tubekit.trackscores.v1"}\n'
            f'{{"video":"v","track":"k","start":0,"scores":[{rows}]}}\n'
        )
        out = tmp_path / "tubes.ndjson"
        proc = run_cli(
            "trim-tracks", "--tracks", tracks, "--scores", scores,
            "--out", out, "--alpha", "1.0", "--min-seg", "2",
        )
        assert "wrote 1 tubes" in proc.stdout.decode()
        text = out.read_text()
        assert '"class":0' in text
        assert '"start":0' in text


@pytest.fixture(scope="module")
def feature_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    spec = dict(SPEC)
    spec.update(num_videos=1, frames_per_video=8, emit_features=True,
                feature_cells=6)
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = root / "synth"
    run_cli("synth", "--spec", spec_path, "--out", out)
    weights = root / "tcn.tkt"
    write_tensors(random_weights("tcn", seed=2), weights)
    return root


class TestPoolFeaturesCommand:
    def test_maxpool(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        pooled = tmp_path / "pooled.tkt"
        run_cli(
            "pool-features", "--features", out / "features" / "v000.tkt",
            "--tracks", out / "tracks.ndjson", "--tfa", "maxpool", "--out", pooled,
        )
        store = read_tensors(pooled)
        assert store["track_features"].shape == (2, 8, 576)
        assert store["aggregated"].shape == (2, 576)

    def test_tcn_requires_weights(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        proc = run_cli(
            "pool-features", "--features", out / "features" / "v000.tkt",
            "--tracks", out / "tracks.ndjson", "--tfa", "tcn",
            "--out", tmp_path / "x.tkt", check=False,
        )
        assert proc.returncode == 1
        assert "weights" in proc.stderr.decode()

    def test_tcn(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        pooled = tmp_path / "pooled.tkt"
        run_cli(
            "pool-features", "--features", out / "features" / "v000.tkt",
            "--tracks", out / "tracks.ndjson", "--tfa", "tcn",
            "--weights", feature_fixture / "tcn.tkt", "--out", pooled,
        )
        assert read_tensors(pooled)["aggregated"].shape == (2, 576)

    @pytest.mark.parametrize("tfa", ["tcn", "aspp"])
    def test_features_released_before_weights_are_read(self, feature_fixture, tmp_path,
                                                       monkeypatch, capsys, tfa):
        out = feature_fixture / "synth"
        wpath = tmp_path / "w.tkt"
        write_tensors(random_weights(tfa, seed=4), wpath)
        features = []                       # weak references to the read feature arrays
        alive_at_weights = []

        def read(path):
            if str(path) == str(wpath):
                alive_at_weights.append([ref() is not None for ref in features])
            store = read_tensors(path)
            if str(path) != str(wpath):
                features.extend(weakref.ref(a) for a in store.values())
            return store

        monkeypatch.setattr(cli, "read_tensors", read)
        assert cli.main(["pool-features", "--features", str(out / "features" / "v000.tkt"),
                         "--tracks", str(out / "tracks.ndjson"), "--tfa", tfa,
                         "--weights", str(wpath), "--out", str(tmp_path / "p.tkt")]) == 0
        capsys.readouterr()
        assert len(features) == 2
        assert alive_at_weights == [[False, False]]

    def test_track_features_are_mean_of_aligned_bins(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        features = out / "features" / "v000.tkt"
        pooled = tmp_path / "pooled.tkt"
        run_cli("pool-features", "--features", features, "--tracks", out / "tracks.ndjson",
                "--tfa", "maxpool", "--out", pooled)
        store = read_tensors(features)
        grid = FeatureGrid(store["features"], float(store["spatial_stride"][0]))
        expected = spatial_avg_pool(align_tracks(grid, load_tracks(out / "tracks.ndjson")))
        got = read_tensors(pooled)["track_features"]
        assert got.dtype == np.float32 and got.shape == expected.shape == (2, 8, 576)
        assert got.tobytes() == expected.astype(np.float32).tobytes()

    def test_output_size_needs_no_bins(self, feature_fixture, tmp_path):
        # 3000 x 3000 bins per track, frame and channel would be 0.6 TiB of float64.
        out = feature_fixture / "synth"
        pooled = tmp_path / "pooled.tkt"
        run_cli("pool-features", "--features", out / "features" / "v000.tkt",
                "--tracks", out / "tracks.ndjson", "--tfa", "maxpool",
                "--output-size", "3000", "--out", pooled)
        assert read_tensors(pooled)["track_features"].shape == (2, 8, 576)

    def test_track_outside_clip_window(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        tracks = tmp_path / "tracks.ndjson"
        tracks.write_text('{"schema":"tubekit.track.v1"}\n'
                          '{"video":"v000","track":"late","start":8,"boxes":[[0,0,9,9]]}\n')
        proc = run_cli("pool-features", "--features", out / "features" / "v000.tkt",
                       "--tracks", tracks, "--tfa", "maxpool", "--out", tmp_path / "x.tkt",
                       check=False)
        assert proc.returncode == 1
        assert proc.stderr.decode() == (
            "error: track ('v000', 'late') covers frames [8, 8], "
            "outside the clip window [0, 8)\n")

    @pytest.mark.parametrize("tfa", ["maxpool", "tcn", "aspp"])
    def test_aggregated_rows_are_per_track_forwards(self, feature_fixture, tmp_path, tfa):
        out = feature_fixture / "synth"
        features = out / "features" / "v000.tkt"
        weights = random_weights(tfa, seed=4)
        wpath = tmp_path / "w.tkt"
        write_tensors(weights, wpath)
        pooled = tmp_path / "pooled.tkt"
        run_cli(
            "pool-features", "--features", features, "--tracks", out / "tracks.ndjson",
            "--tfa", tfa, *(("--weights", wpath) if weights else ()), "--out", pooled,
        )
        store = read_tensors(features)
        grid = FeatureGrid(store["features"], float(store["spatial_stride"][0]))
        per_track = spatial_avg_pool(align_tracks(grid, load_tracks(out / "tracks.ndjson")))
        forward = {"maxpool": lambda x, w: temporal_max_pool(x),
                   "tcn": tcn_forward, "aspp": aspp_forward}[tfa]
        expected = np.concatenate([forward(x, weights) for x in per_track]).astype(np.float32)
        aggregated = read_tensors(pooled)["aggregated"]
        assert aggregated.shape == expected.shape == (2, 576)
        np.testing.assert_allclose(aggregated, expected, rtol=0, atol=1e-6)


class TestConfigFile:
    def test_custom_config(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "name": "custom", "fps": 10, "class_names": ["walk", "run"],
            "motion_bins": [0.3, 0.6], "motion_offsets": [2, 4],
        }))
        proc = run_cli(
            "eval-frames", "--gt", out / "gt.ndjson", "--det", out / "detections.ndjson",
            "--config", cfg, "--iou", "0.5",
        )
        assert "walk" in proc.stdout.decode()

    def test_jobs_env_default(self, fixture_dir):
        out = fixture_dir / "synth"
        import os
        import subprocess as sp

        env = dict(os.environ, TUBEKIT_JOBS="8")
        proc = sp.run(
            [sys.executable, "-m", "tubekit", "eval-frames",
             "--gt", str(out / "gt.ndjson"), "--det", str(out / "detections.ndjson"),
             "--iou", "0.5"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
        base = run_cli("eval-frames", "--gt", out / "gt.ndjson",
                       "--det", out / "detections.ndjson", "--iou", "0.5")
        assert proc.stdout == base.stdout


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        proc = run_cli("eval-frames", "--nonsense", check=False)
        assert proc.returncode == 2

    def test_unknown_subcommand_exits_2(self):
        proc = run_cli("explode", check=False)
        assert proc.returncode == 2

    def test_missing_file_exits_1(self, tmp_path):
        proc = run_cli(
            "eval-frames", "--gt", tmp_path / "nope.ndjson",
            "--det", tmp_path / "nope2.ndjson", check=False,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr.decode()

    def test_validation_failure_has_locator(self, tmp_path):
        bad = tmp_path / "gt.ndjson"
        bad.write_text('{"schema":"tubekit.gt.v1"}\n{"video":1}\n')
        det = tmp_path / "det.ndjson"
        det.write_text('{"schema":"tubekit.det.v1"}\n')
        proc = run_cli("eval-frames", "--gt", bad, "--det", det, check=False)
        assert proc.returncode == 1
        assert "gt.ndjson:2" in proc.stderr.decode()


class TestMalformedInputErrors:
    """Each malformed input exits 1 with one ``error:`` line, never a traceback."""

    @staticmethod
    def assert_error(proc, message):
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert stderr.startswith("error: ") and message in stderr
        assert "Traceback" not in stderr

    def test_build_tubes_coordinate_beyond_float_range(self, tmp_path):
        det = tmp_path / "det.ndjson"
        det.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,1' + "0" * 400 + ',1,0,0.5]]}\n'
        )
        proc = run_cli("build-tubes", "--det", det, "--out", tmp_path / "t.ndjson",
                       check=False)
        self.assert_error(proc, "det.ndjson:2: dets[0] is beyond float range")

    @pytest.mark.parametrize("command", ["filter-dets", "build-tubes", "eval-frames"])
    @pytest.mark.parametrize("floats", [True, False])
    def test_class_beyond_int64(self, fixture_dir, tmp_path, command, floats):
        # Loaded without a vocabulary, a class must still fit the int64 column;
        # integer coordinates take the per-field checks, floats the typed pass.
        box = "0.0,0.0,1.0,1.0" if floats else "0,0,1,1"
        det = tmp_path / "det.ndjson"
        det.write_text('{"schema":"tubekit.det.v1"}\n'
                       f'{{"video":"v","frame":0,"dets":[[{box},{10**30},0.5]]}}\n')
        synth = fixture_dir / "synth"
        inputs = {"filter-dets": ("--tracks", synth / "tracks.ndjson"),
                  "build-tubes": (),
                  "eval-frames": ("--gt", synth / "gt.ndjson")}[command]
        outputs = () if command == "eval-frames" else ("--out", tmp_path / "out.ndjson")
        proc = run_cli(command, "--det", det, *inputs, *outputs, check=False)
        assert (proc.returncode, proc.stderr.decode()) == (
            1, f"error: {det}:2: dets[0] class must be below 2**63, got {10**30}\n")
        assert proc.stdout == b""

    def test_label_motion_coordinate_beyond_float_range(self, tmp_path):
        gt = tmp_path / "gt.ndjson"
        gt.write_text(
            '{"schema":"tubekit.gt.v1"}\n'
            '{"video":"v","tube":"t","class":0,"start":0,"boxes":[[0,0,1' + "0" * 400 + ',1]]}\n'
        )
        proc = run_cli("label-motion", "--gt", gt, "--dataset", "multisports",
                       "--out", tmp_path / "l.json", check=False)
        self.assert_error(proc, "gt.ndjson:2: boxes[0] is beyond float range")

    def test_pool_features_empty_stride(self, feature_fixture, tmp_path):
        out = feature_fixture / "synth"
        store = read_tensors(out / "features" / "v000.tkt")
        bad = tmp_path / "bad.tkt"
        write_tensors({"features": store["features"],
                       "spatial_stride": store["spatial_stride"][:0]}, bad)
        proc = run_cli("pool-features", "--features", bad, "--tracks", out / "tracks.ndjson",
                       "--tfa", "maxpool", "--out", tmp_path / "x.tkt", check=False)
        self.assert_error(proc, "'spatial_stride' must hold one element")

    def test_pool_features_unallocatable_shape(self, feature_fixture, tmp_path):
        import struct

        out = feature_fixture / "synth"
        bad = tmp_path / "bad.tkt"
        header = (b'[{"name":"features","shape":[0,1000000000000000000000000000000],'
                  b'"dtype":"f32"},{"name":"spatial_stride","shape":[1],"dtype":"f32"}]')
        bad.write_bytes(b"TKT1" + struct.pack("<I", len(header)) + header + b"\x00" * 4)
        proc = run_cli("pool-features", "--features", bad, "--tracks", out / "tracks.ndjson",
                       "--tfa", "maxpool", "--out", tmp_path / "x.tkt", check=False)
        self.assert_error(proc, f"{bad}: tensor 'features' has a bad shape")
        assert len(proc.stderr.decode().splitlines()) == 1

    @pytest.mark.parametrize("flag, weights", [
        ("--output-size", "output_size 100000 with sampling_ratio 2 needs 19200000"),
        ("--sampling-ratio", "output_size 7 with sampling_ratio 100000 needs 67200000"),
    ], ids=["output-size", "sampling-ratio"])
    def test_pool_features_size_beyond_weight_bound(self, feature_fixture, tmp_path,
                                                    flag, weights):
        out = feature_fixture / "synth"
        proc = run_cli("pool-features", "--features", out / "features" / "v000.tkt",
                       "--tracks", out / "tracks.ndjson", "--tfa", "maxpool", flag, "100000",
                       "--out", tmp_path / "x.tkt", check=False)
        self.assert_error(proc, f"{weights} bin weights, more than 16777216")

    def assert_range_error(self, fixture_dir, tmp_path, command, bad, message):
        gt = fixture_dir / "synth" / "gt.ndjson"
        if command == "eval-videos":
            tubes = tmp_path / "tubes.ndjson"
            tubes.write_text("")
            args = ("eval-videos", "--gt", gt, "--tubes", tubes, "--sweep", bad)
        else:
            args = ("motion-cdf", "--gt", gt, "--edges", bad, "--out", tmp_path / "cdf.csv")
        proc = run_cli(*args, check=False)
        self.assert_error(proc, message)
        assert len(proc.stderr.decode().splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval-videos", "motion-cdf"])
    def test_empty_step_range(self, fixture_dir, tmp_path, command):
        # An empty --sweep is a malformed range, not a missing one.
        self.assert_range_error(fixture_dir, tmp_path, command, "",
                                "expected start:stop:step, got ''")

    @pytest.mark.parametrize("bad", ["0:inf:1", "0:1e309:1", "nan:1:0.1"])
    @pytest.mark.parametrize("command", ["eval-videos", "motion-cdf"])
    def test_non_finite_step_range(self, fixture_dir, tmp_path, command, bad):
        self.assert_range_error(fixture_dir, tmp_path, command, bad,
                                f"bad range '{bad}': start, stop and step must be finite")

    @pytest.mark.parametrize("command, bad", [("motion-cdf", "0:1e12:1"),
                                              ("eval-videos", "0:0.5:1e-12")])
    def test_step_range_too_long(self, fixture_dir, tmp_path, command, bad):
        # Rejected from the count alone: the list of 10**12 values is never built.
        self.assert_range_error(fixture_dir, tmp_path, command, bad,
                                f"bad range '{bad}': more than 100000 values")


    @pytest.mark.parametrize("flags, message", [
        (("--offset-seconds", "-5"), "error: --offset-seconds must be finite and positive, "
                                     "got -5.0"),
        (("--offset-seconds", "nan"), "error: --offset-seconds must be finite and positive, "
                                      "got nan"),
        (("--offset-seconds", "1e308"), "error: --offset-seconds must be finite and positive, "
                                        "got 1e+308"),
        (("--offset-frames", "0"), "error: pair offset must be >= 1 frame"),
    ])
    def test_motion_cdf_bad_offset(self, fixture_dir, tmp_path, flags, message):
        proc = run_cli("motion-cdf", "--gt", fixture_dir / "synth" / "gt.ndjson", *flags,
                       "--out", tmp_path / "cdf.csv", check=False)
        assert (proc.returncode, proc.stderr.decode()) == (1, message + "\n")
        assert not (tmp_path / "cdf.csv").exists()

    def test_motion_cdf_small_offset_rounds_up_to_one_frame(self, fixture_dir, tmp_path):
        proc = run_cli("motion-cdf", "--gt", fixture_dir / "synth" / "gt.ndjson",
                       "--offset-seconds", "0.001", "--out", tmp_path / "cdf.csv")
        assert "too short for offset 1)" in proc.stdout.decode()

    @pytest.mark.parametrize("command", ["build-tubes", "trim-tracks"])
    def test_nan_alpha(self, fixture_dir, tmp_path, command):
        synth = fixture_dir / "synth"
        if command == "build-tubes":
            inputs = ("--det", synth / "detections.ndjson")
        else:
            scores = tmp_path / "scores.ndjson"
            scores.write_text('{"schema":"tubekit.trackscores.v1"}\n')
            inputs = ("--tracks", synth / "tracks.ndjson", "--scores", scores)
        out = tmp_path / "tubes.ndjson"
        proc = run_cli(command, *inputs, "--alpha", "nan", "--out", out, check=False)
        assert (proc.returncode, proc.stderr.decode()) == (1, "error: alpha must be >= 0, "
                                                              "got nan\n")
        assert not out.exists()

    def test_spec_not_utf8_names_its_line(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_bytes(b'{\n"seed": 1,\n"dataset": "\xff"}\n')
        proc = run_cli("synth", "--spec", spec, "--out", tmp_path / "out", check=False)
        assert proc.returncode == 1
        assert proc.stderr.decode() == (f"error: {spec}:3: 'utf-8' codec can't decode byte "
                                        "0xff in position 25: invalid start byte\n")


class TestSweepUsageErrors:
    """A sweep has no single report, so flags that need one are usage errors."""

    @pytest.mark.parametrize("flag", ["--pr-csv", "--motion"])
    def test_flag_with_sweep_exits_2(self, fixture_dir, tmp_path, flag):
        tubes = tmp_path / "tubes.ndjson"
        tubes.write_text("")
        csv = tmp_path / "pr.csv"
        extra = ("--pr-csv", csv) if flag == "--pr-csv" else ("--motion",)
        proc = run_cli("eval-videos", "--gt", fixture_dir / "synth" / "gt.ndjson",
                       "--tubes", tubes, "--dataset", "multisports",
                       "--sweep", "0.1:0.9:0.1", *extra, check=False)
        assert proc.returncode == 2
        assert f"{flag} cannot be combined with --sweep" in proc.stderr.decode()
        assert proc.stdout == b""
        assert not csv.exists()


class TestSynthSpecErrors:
    @pytest.mark.parametrize("text, message", [
        ('{"num_videos": "x"}', "'num_videos' must be an integer"),
        ('[1, 2]', "must be a JSON object"),
    ])
    def test_malformed_spec_exits_1(self, tmp_path, text, message):
        spec = tmp_path / "s.json"
        spec.write_text(text)
        proc = run_cli("synth", "--spec", spec, "--out", tmp_path / "out", check=False)
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert stderr.startswith("error: ") and message in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("text, message", [
        ('{"bogus": 1}', "unknown synth spec fields: ['bogus']"),
        ('{"num_videos": 0}', "need at least one video of at least two frames"),
        ('{"tubes_per_video": 24}', "too many tubes per video (24) for the canvas"),
    ])
    def test_spec_content_error_names_the_spec(self, tmp_path, text, message):
        spec = tmp_path / "s.json"
        spec.write_text(text)
        proc = run_cli("synth", "--spec", spec, "--out", tmp_path / "out", check=False)
        assert (proc.returncode, proc.stderr.decode()) == (1, f"error: {spec}:1: {message}\n")


class TestDeterminism:
    def test_stdout_reproducible_and_jobs_invariant(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        tubes = tmp_path / "tubes.ndjson"
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", tubes)
        args = ("eval-videos", "--gt", out / "gt.ndjson", "--tubes", tubes,
                "--dataset", "multisports", "--st-iou", "0.5", "--motion")
        a = run_cli(*args, "--jobs", "1").stdout
        b = run_cli(*args, "--jobs", "8").stdout
        c = run_cli(*args, "--jobs", "1").stdout
        assert a == b == c

    def test_build_tubes_file_jobs_invariant(self, fixture_dir, tmp_path):
        out = fixture_dir / "synth"
        t1 = tmp_path / "t1.ndjson"
        t8 = tmp_path / "t8.ndjson"
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", t1,
                "--jobs", "1")
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", t8,
                "--jobs", "8")
        assert t1.read_bytes() == t8.read_bytes()


class TestIgnoredJobs:
    """--jobs and TUBEKIT_JOBS are accepted and change nothing, whatever their value."""

    @pytest.fixture(scope="class")
    def commands(self, fixture_dir):
        from tubekit.datamodel import TrackScores, save_track_scores

        out = fixture_dir / "synth"
        work = fixture_dir / "jobs"
        work.mkdir()
        scores = work / "scores.ndjson"
        save_track_scores([
            TrackScores(tr.video_id, tr.track_id, tr.geometry.start_frame,
                        np.linspace(0.05, 0.95, len(tr.geometry) * 2).reshape(-1, 2))
            for tr in load_tracks(out / "tracks.ndjson")
        ], scores)
        tubes = work / "tubes.ndjson"
        run_cli("build-tubes", "--det", out / "detections.ndjson", "--out", tubes)
        return {
            "build-tubes": (("build-tubes", "--det", out / "detections.ndjson",
                             "--out", work / "bt.ndjson"), work / "bt.ndjson"),
            "trim-tracks": (("trim-tracks", "--tracks", out / "tracks.ndjson",
                             "--scores", scores, "--out", work / "tt.ndjson"),
                            work / "tt.ndjson"),
            "eval-frames": (("eval-frames", "--gt", out / "gt.ndjson",
                             "--det", out / "detections.ndjson"), None),
            "eval-videos-sweep": (("eval-videos", "--gt", out / "gt.ndjson",
                                   "--tubes", tubes, "--sweep", "0.1:0.9:0.2"), None),
        }

    @staticmethod
    def run(args, out_file, env=None):
        stdout = run_cli(*args, env=env).stdout
        return stdout, out_file.read_bytes() if out_file else None

    @pytest.mark.parametrize("name", ["build-tubes", "trim-tracks", "eval-frames",
                                      "eval-videos-sweep"])
    def test_values_change_nothing(self, commands, name):
        args, out_file = commands[name]
        base = self.run(args, out_file)
        assert self.run((*args, "--jobs", "0"), out_file) == base
        assert self.run((*args, "--jobs", "-3"), out_file) == base
        assert self.run(args, out_file, env={"TUBEKIT_JOBS": "abc"}) == base

    def test_non_integer_exits_2(self, commands):
        args, _ = commands["eval-frames"]
        proc = run_cli(*args, "--jobs", "x", check=False)
        assert proc.returncode == 2
