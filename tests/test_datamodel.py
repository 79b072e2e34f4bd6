import json
import re

import numpy as np
import pytest

from tubekit.datamodel import (
    ActionTube,
    DatasetConfig,
    Detection,
    FileFormatError,
    FrameDetections,
    GroundTruthTube,
    Track,
    TrackScores,
    builtin_config,
    load_action_tubes,
    load_config,
    load_detections,
    load_ground_truth,
    load_track_scores,
    load_tracks,
    save_action_tubes,
    save_detections,
    save_ground_truth,
    save_track_scores,
    save_tracks,
)
from tubekit.geometry import Box, TubeGeometry


class TestBuiltinConfig:
    def test_multisports_bins(self):
        cfg = builtin_config("multisports")
        assert cfg.motion_bins == (0.21, 0.51)
        assert cfg.fps == 25
        assert cfg.motion_offsets == (4, 8, 16, 24, 36)
        assert cfg.num_classes == 60

    def test_ucf24_bins(self):
        cfg = builtin_config("ucf24")
        assert cfg.motion_bins == (0.49, 0.66)
        assert cfg.fps == 25
        assert cfg.motion_offsets == (4, 8, 16, 24, 36)
        assert cfg.num_classes == 24

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            builtin_config("kinetics")

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            DatasetConfig("x", 25, ("a",), (0.5, 0.4), (4,))
        with pytest.raises(ValueError):
            DatasetConfig("x", 25, ("a",), (0.0, 0.4), (4,))

    @pytest.mark.parametrize("args, message", [
        (("x", 25, "abc", ("0.3", "0.6"), (2.9, True)),
         "config field 'class_names' must be a list of strings, got 'abc'"),
        (("x", 25.5, ("a",), (0.3, 0.6), (4,)), "config field 'fps' must be an integer, got 25.5"),
    ], ids=["converted", "fps-25.5"])
    def test_fields_checked_not_converted(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DatasetConfig(*args)

    def test_lists_stored_as_tuples(self):
        cfg = DatasetConfig("x", 25, ["a", "b"], [0.3, 0.6], [2, 4])
        assert (cfg.class_names, cfg.motion_bins, cfg.motion_offsets) == (
            ("a", "b"), (0.3, 0.6), (2, 4))

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"name":"tiny","fps":10,"class_names":["a","b"],'
            '"motion_bins":[0.3,0.6],"motion_offsets":[2,4]}'
        )
        cfg = load_config(path)
        assert cfg.name == "tiny"
        assert cfg.motion_bins == (0.3, 0.6)

    def test_config_file_missing_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"name":"tiny"}')
        with pytest.raises(FileFormatError):
            load_config(path)

    def test_config_file_number_beyond_float_range(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"name":"tiny","fps":10,"class_names":["a"],'
            '"motion_bins":[0.3,1' + "0" * 400 + '],"motion_offsets":[2]}'
        )
        with pytest.raises(FileFormatError, match=r"cfg\.json:1"):
            load_config(path)

    @pytest.mark.parametrize("field, value", [
        ("fps", 1.5), ("fps", True), ("fps", "25"),
        ("class_names", "abc"), ("class_names", [1, 2]),
        ("name", 5),
        ("motion_offsets", [2.9]), ("motion_offsets", [True]),
        ("motion_bins", ["0.3", "0.6"]),
        ("bogus", 1),
    ])
    def test_config_field_of_wrong_kind(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        cfg = {"name": "tiny", "fps": 10, "class_names": ["a", "b"],
               "motion_bins": [0.3, 0.6], "motion_offsets": [2, 4]}
        path.write_text(json.dumps(dict(cfg, **{field: value})))
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:1: .*'{field}'"):
            load_config(path)

    @pytest.mark.parametrize("value, shown", [
        (29.97, "29.97"),
        ("x" * 100, "a string of 100 characters"),
        (list(range(200_000)), "a list of 200000 items"),
    ], ids=["short", "long-string", "long-list"])
    def test_bad_value_shown_short(self, tmp_path, value, shown):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "tiny", "fps": value, "class_names": ["a"],
                                    "motion_bins": [0.3, 0.6], "motion_offsets": [2]}))
        with pytest.raises(FileFormatError) as info:
            load_config(path)
        message = str(info.value)
        assert message == f"{path}:1: config field 'fps' must be an integer, got {shown}"
        assert len(message) - len(str(path)) < 120


def _gt_fixture():
    return [
        GroundTruthTube("v1", "t1", 0, TubeGeometry(2, [(0, 0, 5, 5), (1, 1, 6, 6)])),
        GroundTruthTube("v0", "t0", 1, TubeGeometry(0, [(0.5, 0.25, 10, 10)] * 3)),
    ]


def _det_fixture():
    return [
        FrameDetections("v0", 0, [
            Detection(Box(0, 0, 5, 5), 0, 0.9),
            Detection(Box(1, 1, 6, 6), 1, 0.5),
        ]),
        FrameDetections("v0", 1, []),
        FrameDetections("v1", 0, [Detection(Box(2, 2, 4, 4), 0, 1.0)]),
    ]


def _track_fixture():
    return [
        Track("v0", "k0", TubeGeometry(0, [(0, 0, 5, 5)] * 4), [0.5, 0.25, 1.0, 0.0]),
        Track("v0", "k1", TubeGeometry(2, [(3, 3, 9, 9)] * 2)),
    ]


def _tube_fixture():
    return [
        ActionTube("v0", 0, TubeGeometry(0, [(0, 0, 5, 5)] * 4), [0.5, 0.25, 1.0, 0.25]),
        ActionTube("v0", 2, TubeGeometry(3, [(1, 1, 2, 2)] * 2), [1.0, 1.0]),
    ]


class TestRoundTrips:
    def test_ground_truth(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        save_ground_truth(_gt_fixture(), path)
        loaded = load_ground_truth(path)
        assert [t.key for t in loaded] == [("v0", "t0"), ("v1", "t1")]
        assert loaded == sorted(_gt_fixture(), key=lambda t: t.key)
        first = path.read_bytes()
        save_ground_truth(loaded, path)
        assert path.read_bytes() == first

    def test_detections(self, tmp_path):
        path = tmp_path / "det.ndjson"
        save_detections(_det_fixture(), path)
        loaded = load_detections(path)
        assert loaded == _det_fixture()
        first = path.read_bytes()
        save_detections(loaded, path)
        assert path.read_bytes() == first

    def test_tracks(self, tmp_path):
        path = tmp_path / "tracks.ndjson"
        save_tracks(_track_fixture(), path)
        loaded = load_tracks(path)
        assert loaded == _track_fixture()
        first = path.read_bytes()
        save_tracks(loaded, path)
        assert path.read_bytes() == first

    def test_action_tubes(self, tmp_path):
        path = tmp_path / "tubes.ndjson"
        save_action_tubes(_tube_fixture(), path)
        loaded = load_action_tubes(path)
        assert loaded == _tube_fixture()
        first = path.read_bytes()
        save_action_tubes(loaded, path)
        assert path.read_bytes() == first

    def test_first_frame_is_zero(self, tmp_path):
        # Frame indices are >= 0 in memory as in the files, so every saved
        # tube loads back: a start of -3 fails at construction, not on load.
        with pytest.raises(ValueError, match="start frame must be >= 0, got -3"):
            GroundTruthTube("v", "t", 0, TubeGeometry(-3, [(0, 0, 1, 1)]))
        geo = TubeGeometry(0, [(0, 0, 1, 1), (1, 1, 2, 2)])
        cases = [
            ([GroundTruthTube("v", "t", 0, geo)], save_ground_truth, load_ground_truth),
            ([Track("v", "k", geo)], save_tracks, load_tracks),
            ([ActionTube("v", 0, geo, [0.5, 1.0])], save_action_tubes, load_action_tubes),
        ]
        for items, save, load in cases:
            path = tmp_path / "start0.ndjson"
            save(items, path)
            loaded = load(path)
            assert loaded == items
            assert loaded[0].geometry.start_frame == 0

    def test_track_scores(self, tmp_path):
        path = tmp_path / "scores.ndjson"
        items = [
            TrackScores("v0", "k0", 0, np.array([[0.1, 0.9], [0.25, 0.5]])),
            TrackScores("v0", "k1", 3, np.array([[1.0, 0.0]])),
        ]
        save_track_scores(items, path)
        loaded = load_track_scores(path)
        assert [t.key for t in loaded] == [("v0", "k0"), ("v0", "k1")]
        assert np.array_equal(loaded[0].scores, items[0].scores)
        first = path.read_bytes()
        save_track_scores(loaded, path)
        assert path.read_bytes() == first

    def test_load_is_deterministic(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        save_ground_truth(_gt_fixture(), path)
        assert load_ground_truth(path) == load_ground_truth(path)

    def test_six_decimal_coordinates(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        save_ground_truth(
            [GroundTruthTube("v", "t", 0, TubeGeometry(0, [(0.1234567, 0, 1, 1)]))], path
        )
        text = path.read_text()
        assert "0.123457" in text  # rounded to 6 digits
        reloaded = load_ground_truth(path)
        assert reloaded[0].geometry.boxes[0][0] == 0.123457


class TestValidation:
    def test_empty_file_is_empty_collection(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text("")
        assert load_ground_truth(path) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text('{"schema":"tubekit.gt.v1"}\n')
        assert load_ground_truth(path) == []

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text('{"schema":"tubekit.det.v1"}\n')
        with pytest.raises(FileFormatError):
            load_ground_truth(path)

    @pytest.mark.parametrize("number, message", [
        ("1" + "0" * 400, r"boxes\[0\] is beyond float range"),
        ("-1" + "0" * 400, r"boxes\[0\] is beyond float range"),
        ("1e400", "tube boxes must be finite"),
    ], ids=["int", "negative-int", "float"])
    def test_number_beyond_float_range_has_locator(self, tmp_path, number, message):
        path = tmp_path / "gt.ndjson"
        path.write_text(
            '{"schema":"tubekit.gt.v1"}\n'
            '{"video":"v","tube":"t","class":0,"start":0,"boxes":[[0,0,' + number + ',1]]}\n'
        )
        with pytest.raises(FileFormatError, match=r"gt\.ndjson:2: " + message):
            load_ground_truth(path)

    def test_bad_json_has_locator(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text('{"schema":"tubekit.gt.v1"}\n{"video": oops}\n')
        with pytest.raises(FileFormatError, match=r"gt\.ndjson:2"):
            load_ground_truth(path)

    def test_empty_boxes_names_tube(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text(
            '{"schema":"tubekit.gt.v1"}\n'
            '{"video":"v","tube":"t9","class":0,"start":0,"boxes":[]}\n'
        )
        with pytest.raises(FileFormatError, match="boxes"):
            load_ground_truth(path)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "det.ndjson"
        path.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,1,1,0,1.5]]}\n'
        )
        with pytest.raises(FileFormatError, match="1.5"):
            load_detections(path)

    def test_unknown_class_with_config(self, tmp_path):
        path = tmp_path / "det.ndjson"
        path.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,1,1,99,0.5]]}\n'
        )
        cfg = builtin_config("ucf24")
        with pytest.raises(FileFormatError, match="99"):
            load_detections(path, cfg)
        assert len(load_detections(path)) == 1  # fine without a vocabulary

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "det.ndjson"
        path.write_text(
            '{"schema":"tubekit.det.v1"}\n'
            '{"video":"v","frame":0,"dets":[[0,0,NaN,1,0,0.5]]}\n'
        )
        with pytest.raises(FileFormatError):
            load_detections(path)

    def test_duplicate_tube_id(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        rec = '{"video":"v","tube":"t","class":0,"start":0,"boxes":[[0,0,1,1]]}'
        path.write_text('{"schema":"tubekit.gt.v1"}\n' + rec + "\n" + rec + "\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            load_ground_truth(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_text(
            '{"schema":"tubekit.gt.v1"}\n'
            '{"video":"v","tube":"t","class":0,"start":0,"boxes":[[0,0,1,1]],"extra":1}\n'
        )
        with pytest.raises(FileFormatError, match="extra"):
            load_ground_truth(path)

    def test_track_score_misalignment(self, tmp_path):
        path = tmp_path / "tracks.ndjson"
        path.write_text(
            '{"schema":"tubekit.track.v1"}\n'
            '{"video":"v","track":"k","start":0,"boxes":[[0,0,1,1],[0,0,1,1]],"scores":[0.5]}\n'
        )
        with pytest.raises(FileFormatError):
            load_tracks(path)

    def test_tube_score_must_match_mean(self, tmp_path):
        path = tmp_path / "tubes.ndjson"
        path.write_text(
            '{"schema":"tubekit.tube.v1"}\n'
            '{"video":"v","class":0,"start":0,"boxes":[[0,0,1,1],[0,0,1,1]],'
            '"frame_scores":[1.0,0.0],"score":0.9}\n'
        )
        with pytest.raises(FileFormatError):
            load_action_tubes(path)


class TestTypes:
    def test_action_tube_score_defaults_to_mean(self):
        tube = ActionTube("v", 0, TubeGeometry(0, [(0, 0, 1, 1)] * 2), [1.0, 0.5])
        assert tube.tube_score == 0.75

    def test_detection_rejects_bad_score(self):
        with pytest.raises(ValueError):
            Detection(Box(0, 0, 1, 1), 0, 1.5)

    def test_detection_class_fits_int64(self):
        # Frames store class ids as int64.
        assert Detection(Box(0, 0, 1, 1), 2**63 - 1, 0.5).class_id == 2**63 - 1
        with pytest.raises(ValueError, match=r"class id must be below 2\*\*63"):
            Detection(Box(0, 0, 1, 1), 2**63, 0.5)

    @pytest.mark.parametrize("make", [
        lambda c: Detection(Box(0, 0, 1, 1), c, 0.5),
        lambda c: GroundTruthTube("v", "t", c, TubeGeometry(0, [(0, 0, 1, 1)])),
        lambda c: ActionTube("v", c, TubeGeometry(0, [(0, 0, 1, 1)]), [0.5]),
    ], ids=["Detection", "GroundTruthTube", "ActionTube"])
    def test_class_id_must_be_an_integer(self, make):
        for c in (3, np.int64(3), np.int32(3), np.uint8(3)):
            assert make(c).class_id == 3
        for c in (3.7, 3.0, True, False, np.float64(3.0), np.bool_(True), "3", None, [3]):
            with pytest.raises(ValueError) as exc:
                make(c)
            assert str(exc.value) == f"class id must be an integer, got {c!r}"
        for c in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="^class id must be >= 0, got -1$"):
                make(c)

    def test_frame_detections_entries_are_read_from_the_columns(self):
        # A frame made from a list shows what its columns hold, which is what
        # saving, filtering, evaluation and linking read.
        given = [Detection(Box(0, 0, 1, 1), 2, 1)]
        fd = FrameDetections("v", 0, given)
        given.append(Detection(Box(0, 0, 2, 2), 0, 0.5))
        assert fd.entries == (Detection(Box(0, 0, 1, 1), 2, 1.0),)
        assert type(fd.entries[0].score) is float
        assert fd.scores.tolist() == [1.0]

    def test_frame_detections_entries_cannot_be_appended_to(self):
        # An append to a list of entries would be lost: saving reads the columns.
        fd = FrameDetections("v", 0, [])
        with pytest.raises(AttributeError):
            fd.entries.append(Detection(Box(0, 0, 1, 1), 2, 0.5))
        assert fd.entries == () and fd.scores.tolist() == []

    def test_frame_detections_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            FrameDetections("v", -1, [])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_action_tube_rejects_non_finite_tube_score(self, score):
        with pytest.raises(ValueError, match="disagrees with mean frame score 0.75"):
            ActionTube("v", 0, TubeGeometry(0, [(0, 0, 1, 1)] * 2), [1.0, 0.5], score)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("make, message", [
        (lambda s: Detection(Box(0, 0, 1, 1), 0, s), "score must lie in [0, 1], got {}"),
        (lambda s: Track("v", "k", TubeGeometry(0, [(0, 0, 1, 1)]), [s]),
         "track 'k': score {} outside [0, 1]"),
        (lambda s: ActionTube("v", 0, TubeGeometry(0, [(0, 0, 1, 1)]), [s]),
         "frame score {} outside [0, 1]"),
    ], ids=["detection", "track", "action-tube"])
    def test_non_finite_scores_fail_the_range_test(self, make, message, score):
        with pytest.raises(ValueError) as exc:
            make(score)
        assert str(exc.value) == message.format(score)


class TestNonUtf8Input:
    """A byte that is not UTF-8 is reported at its file and line."""

    def test_ndjson_names_the_line(self, tmp_path):
        path = tmp_path / "gt.ndjson"
        path.write_bytes(b'{"schema":"tubekit.gt.v1"}\n{"video":"v\xff"}\n')
        with pytest.raises(FileFormatError) as exc:
            load_ground_truth(path)
        assert str(exc.value) == (f"{path}:2: 'utf-8' codec can't decode byte 0xff "
                                  "in position 38: invalid start byte")

    def test_ndjson_line_past_the_first_read(self, tmp_path):
        # Text is decoded in chunks; the line counts from the start of the file.
        path = tmp_path / "gt.ndjson"
        path.write_bytes(b'{"schema":"tubekit.gt.v1"}' + b"\n" * 20000 + b"\xc3(\n")
        with pytest.raises(FileFormatError) as exc:
            load_ground_truth(path)
        assert exc.value.line == 20001
        assert "can't decode byte 0xc3 in position 20026" in str(exc.value)

    def test_config_names_the_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{\n  "name": "x",\n  "fps": "\xff"\n}\n')
        with pytest.raises(FileFormatError, match=r"cfg\.json:3: 'utf-8' codec can't decode"):
            load_config(path)
