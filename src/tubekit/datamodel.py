"""Canonical tube/detection/track types and their NDJSON file formats.

Files are newline-delimited JSON, UTF-8, with a one-record header carrying a
``schema`` tag. Coordinates and scores are serialized with six fractional
digits, which makes save -> load -> save byte-identical for canonical files.
Frame indices are 0-based everywhere.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import accumulate, chain
from operator import itemgetter, length_hint

import numpy as np

from .geometry import Box, TubeGeometry, _is_integer, _start_frame
from .jsonfmt import dumps, without_negative_zero

__all__ = [
    "GT_SCHEMA",
    "DET_SCHEMA",
    "TRACK_SCHEMA",
    "TUBE_SCHEMA",
    "TRACK_SCORES_SCHEMA",
    "FileFormatError",
    "DatasetConfig",
    "Detection",
    "FrameDetections",
    "GroundTruthTube",
    "Track",
    "ActionTube",
    "TrackScores",
    "builtin_config",
    "load_config",
    "load_ground_truth",
    "save_ground_truth",
    "load_detections",
    "save_detections",
    "load_tracks",
    "save_tracks",
    "load_action_tubes",
    "save_action_tubes",
    "load_track_scores",
    "save_track_scores",
]

GT_SCHEMA = "tubekit.gt.v1"
DET_SCHEMA = "tubekit.det.v1"
TRACK_SCHEMA = "tubekit.track.v1"
TUBE_SCHEMA = "tubekit.tube.v1"
TRACK_SCORES_SCHEMA = "tubekit.trackscores.v1"


class FileFormatError(ValueError):
    """A file failed to parse or validate; message carries path and line."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


# ---------------------------------------------------------------------------
# dataset configuration


@dataclass(frozen=True)
class DatasetConfig:
    """Per-dataset constants: frame rate, class labels, motion bins and offsets."""

    name: str
    fps: int
    class_names: tuple[str, ...]
    motion_bins: tuple
    motion_offsets: tuple[int, ...]

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        _check_kinds(DatasetConfig, values, "config")
        for name, value in values.items():
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        if self.fps <= 0:  # its kind keeps it in float range; offsets in seconds multiply by it
            raise ValueError("fps must be positive")
        if len(self.motion_bins) != 2:
            raise ValueError("motion_bins must hold two thresholds")
        b1, b2 = self.motion_bins
        if not (0.0 < b1 < b2 < 1.0):
            raise ValueError(f"motion bins must satisfy 0 < b1 < b2 < 1, got ({b1}, {b2})")
        if not self.motion_offsets or any(d <= 0 for d in self.motion_offsets):
            raise ValueError("motion offsets must be positive integers")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


_UCF24_CLASSES = (
    "Basketball", "BasketballDunk", "Biking", "CliffDiving", "CricketBowling",
    "Diving", "Fencing", "FloorGymnastics", "GolfSwing", "HorseRiding",
    "IceDancing", "LongJump", "PoleVault", "RopeClimbing", "SalsaSpin",
    "SkateBoarding", "Skiing", "Skijet", "SoccerJuggling", "Surfing",
    "TennisSwing", "TrampolineJumping", "VolleyballSpiking", "WalkingWithDog",
)

_MOTION_OFFSETS = (4, 8, 16, 24, 36)


def builtin_config(name: str) -> DatasetConfig:
    """Return the built-in configuration for ``multisports`` or ``ucf24``."""
    if name == "multisports":
        # 60 evaluated classes; the official label vocabulary is not embedded.
        return DatasetConfig(
            name="multisports",
            fps=25,
            class_names=tuple(f"action_{i:02d}" for i in range(60)),
            motion_bins=(0.21, 0.51),
            motion_offsets=_MOTION_OFFSETS,
        )
    if name == "ucf24":
        return DatasetConfig(
            name="ucf24",
            fps=25,
            class_names=_UCF24_CLASSES,
            motion_bins=(0.49, 0.66),
            motion_offsets=_MOTION_OFFSETS,
        )
    raise ValueError(f"unknown dataset '{name}' (expected 'multisports' or 'ucf24')")


def load_config(path) -> DatasetConfig:
    """Read a DatasetConfig from a JSON file, rejecting unknown, missing or mistyped fields."""
    return load_json(path, lambda obj: _from_json_object(DatasetConfig, obj, "config"))


def _is_number(v) -> bool:
    # Rejects NaN and Infinity, which json.load accepts, and integers beyond float range.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and _is_number(v)


# The JSON kind each dataclass field annotation accepts, and its name for errors.
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
              "a list of finite numbers"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(s, str) for s in v), "a list of strings"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


def _from_json_object(cls, obj, what: str):
    """``cls(**obj)`` for a parsed JSON object whose fields all have their annotated kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
    if missing:
        raise ValueError(f"{what} missing fields: {sorted(missing)}")
    _check_kinds(cls, obj, what)
    return cls(**obj)


def _check_kinds(cls, values: dict, what: str) -> None:
    """Reject the first of ``values`` (field name -> value) not of its field's annotated kind."""
    types = {f.name: f.type for f in fields(cls)}
    for name, value in values.items():
        ok, want = _KINDS[types[name]]
        if not ok(value):
            raise ValueError(f"{what} field '{name}' must be {want}, got {_shown(value)}")


_MAX_SHOWN = 80  # characters of a bad value's repr that a message quotes


def _shown(value) -> str:
    """A bad value for a message: its repr when short, else its JSON kind and size."""
    text = repr(value)
    if len(text) <= _MAX_SHOWN:
        return text
    if isinstance(value, (list, tuple)):
        return f"a list of {len(value)} items"
    if isinstance(value, dict):
        return f"an object of {len(value)} fields"
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"a value of type {type(value).__name__}"


# ---------------------------------------------------------------------------
# record types


_CLASS_LIMIT = 2**63  # detection class ids are stored as int64


def _check_class_id(class_id) -> None:
    """Reject a class id that is not a non-negative Python or numpy integer."""
    if not _is_integer(class_id):
        raise ValueError(f"class id must be an integer, got {_shown(class_id)}")
    if class_id < 0:
        raise ValueError(f"class id must be >= 0, got {class_id}")


def _check_id(what: str, value) -> None:
    """Reject an id that is not a non-empty string, as the loaders do."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {_shown(value)}")


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    score: float

    def __post_init__(self):
        _check_class_id(self.class_id)
        if self.class_id >= _CLASS_LIMIT:
            raise ValueError(f"class id must be below 2**63, got {self.class_id}")
        if not 0.0 <= self.score <= 1.0:  # NaN fails too
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


class FrameDetections:
    """Scored per-class box proposals for one frame of one video.

    Held as three read-only columns, row i being one detection: ``boxes``
    (n, 4) float64 in (x1, y1, x2, y2) order, ``class_ids`` (n,) int64 and
    ``scores`` (n,) float64. ``entries``, the same detections as a tuple of
    :class:`Detection`, is built from the columns on first read, also for a
    frame made from a list; every function reads the columns. Compares,
    prints and refuses hashing as a dataclass of ``(video_id, frame,
    entries)`` would.
    """

    __slots__ = ("video_id", "frame", "boxes", "class_ids", "scores", "_entries")
    __hash__ = None

    def __init__(self, video_id: str, frame: int, entries: list):
        _check_id("video id", video_id)
        if not _is_integer(frame):
            raise ValueError(f"frame must be an integer, got {_shown(frame)}")
        rows = [(d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.class_id, d.score) for d in entries]
        self._fill(video_id, frame, *_table(rows, len(rows)))

    def _fill(self, video_id, frame, boxes, class_ids, scores) -> None:
        if frame < 0:
            raise ValueError(f"frame must be >= 0, got {frame}")
        self.video_id = video_id
        self.frame = frame
        self.boxes = boxes
        self.class_ids = class_ids
        self.scores = scores
        self._entries = None

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(
                Detection(Box(*box), c, s) for box, c, s in
                zip(self.boxes.tolist(), self.class_ids.tolist(), self.scores.tolist())
            )
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.video_id, self.frame, self.entries) == \
            (other.video_id, other.frame, other.entries)

    def __repr__(self) -> str:
        return (f"FrameDetections(video_id={self.video_id!r}, frame={self.frame!r}, "
                f"entries={self.entries!r})")


# One detection row: four corners, class and score, eight bytes each, so that
# a table of rows reads as an (n, 6) float64 array and as an int64 one.
_DET_ROW = np.dtype([("x1", "f8"), ("y1", "f8"), ("x2", "f8"), ("y2", "f8"),
                     ("class", "i8"), ("score", "f8")])


def _table(rows, n: int) -> tuple:
    """Read-only ``(boxes, class_ids, scores)`` columns of ``n`` checked detection rows."""
    table = np.fromiter(map(tuple, rows), dtype=_DET_ROW, count=n)
    table.setflags(write=False)
    floats = table.view(np.float64).reshape(n, 6)
    return floats[:, :4], table.view(np.int64)[4::6], floats[:, 5]


def _columns(frames) -> tuple:
    """The ``(boxes, class_ids, scores)`` columns of a list of frames, concatenated in order."""
    if not frames:
        return np.empty((0, 4)), np.empty(0, np.int64), np.empty(0)
    return (np.concatenate([fd.boxes for fd in frames]),
            np.concatenate([fd.class_ids for fd in frames]),
            np.concatenate([fd.scores for fd in frames]))


def _split_frames(keys, boxes, class_ids, scores, counts) -> list:
    """A frame per (video, frame) key, holding the next ``counts`` rows of the columns.

    The columns are made read-only, and each frame holds views of them.
    """
    for column in (boxes, class_ids, scores):
        column.setflags(write=False)
    out = []
    lo = 0
    for (video, frame), hi in zip(keys, accumulate(counts)):
        fd = object.__new__(FrameDetections)
        fd._fill(video, frame, boxes[lo:hi], class_ids[lo:hi], scores[lo:hi])
        out.append(fd)
        lo = hi
    return out


@dataclass(frozen=True)
class GroundTruthTube:
    video_id: str
    tube_id: str
    class_id: int
    geometry: TubeGeometry

    def __post_init__(self):
        _check_id("video id", self.video_id)
        _check_id("tube id", self.tube_id)
        _check_class_id(self.class_id)

    @property
    def key(self):
        return (self.video_id, self.tube_id)


@dataclass(frozen=True)
class Track:
    """Class-agnostic actor track, optionally with per-frame detector confidences."""

    video_id: str
    track_id: str
    geometry: TubeGeometry
    box_scores: list | None = None

    def __post_init__(self):
        _check_id("video id", self.video_id)
        _check_id("track id", self.track_id)
        if self.box_scores is not None:
            if len(self.box_scores) != len(self.geometry):
                raise ValueError(
                    f"track '{self.track_id}': {len(self.box_scores)} scores for "
                    f"{len(self.geometry)} boxes"
                )
            for s in self.box_scores:
                if not 0.0 <= s <= 1.0:
                    raise ValueError(f"track '{self.track_id}': score {s} outside [0, 1]")

    @property
    def key(self):
        return (self.video_id, self.track_id)


@dataclass(frozen=True)
class ActionTube:
    """A detected, temporally trimmed action tube with per-frame scores."""

    video_id: str
    class_id: int
    geometry: TubeGeometry
    frame_scores: list
    tube_score: float = field(default=None)

    def __post_init__(self):
        _check_id("video id", self.video_id)
        _check_class_id(self.class_id)
        if len(self.frame_scores) != len(self.geometry):
            raise ValueError(
                f"{len(self.frame_scores)} frame scores for {len(self.geometry)} boxes"
            )
        for s in self.frame_scores:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"frame score {s} outside [0, 1]")
        mean = sum(self.frame_scores) / len(self.frame_scores)
        if self.tube_score is None:
            object.__setattr__(self, "tube_score", mean)
        elif not abs(self.tube_score - mean) <= 1e-5:  # NaN disagrees too
            raise ValueError(
                f"tube score {self.tube_score} disagrees with mean frame score {mean}"
            )


@dataclass(frozen=True)
class TrackScores:
    """Per-frame class score vectors aligned with one track's geometry."""

    video_id: str
    track_id: str
    start_frame: int
    scores: np.ndarray  # (frames, classes)

    def __post_init__(self):
        _check_id("video id", self.video_id)
        _check_id("track id", self.track_id)
        _start_frame(self.start_frame)
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"track '{self.track_id}': scores must be a non-empty matrix")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError(f"track '{self.track_id}': scores outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    def __reduce__(self):  # a pickled or copied matrix is checked and read-only too
        return TrackScores, (self.video_id, self.track_id, self.start_frame, self.scores)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.key, self.start_frame) == (other.key, other.start_frame)
                and np.array_equal(self.scores, other.scores))

    @property
    def key(self):
        return (self.video_id, self.track_id)


# ---------------------------------------------------------------------------
# NDJSON plumbing


def _reject_constant(token):
    raise ValueError(f"non-finite number '{token}' not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _utf8_error(path, exc: UnicodeDecodeError) -> FileFormatError:
    """``exc``, raised while reading ``path`` as text, at the line of the bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:  # its offset counts from the start of the file
        exc = whole
    return FileFormatError(path, data.count(b"\n", 0, exc.start) + 1, str(exc))


def load_json(path, parse):
    """``parse(document)`` for the JSON file ``path``; its ValueErrors are reported at line 1."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except UnicodeDecodeError as exc:
            raise _utf8_error(path, exc) from None
        except json.JSONDecodeError as exc:
            raise FileFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
        except ValueError as exc:
            raise FileFormatError(path, 1, str(exc)) from None
        except RecursionError as exc:  # nesting too deep to decode, or to repr in a message
            raise FileFormatError(path, 1, f"invalid JSON: {exc}") from None


def _load_records(path, schema: str, parse) -> list:
    """``parse`` of each record after the header line; a ValueError is reported at its line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        saw_header = False
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = _DECODER.decode(line)
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


def _check_fields(obj, required, optional=()):
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")


def _get_str(obj, key) -> str:
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ValueError(f"field '{key}' must be a non-empty string")
    return v


def _get_int(obj, key, minimum=None) -> int:
    v = obj[key]
    if not _is_integer(v):
        raise ValueError(f"field '{key}' must be an integer")
    if minimum is not None and v < minimum:
        raise ValueError(f"field '{key}' must be >= {minimum}, got {v}")
    return v


def _get_number(value, what) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:  # json keeps 10**400 exact; 1e400 reads as inf, which callers reject
        raise ValueError(f"{what} is beyond float range") from None


_INF = math.inf


# One loop reads each list field. Its fast test takes a row by exact type tests
# and local comparisons, so files written by tubekit cost no function call per
# number, nor an index count. A row the test rejects gets the per-field checks
# where it stands: they name its first problem or replace it by its converted
# values (integer coordinates stay valid), and the loop goes on with the next.


def _last_index(values: list, rest) -> int:
    """The index in ``values`` of the item last drawn from ``rest``, an iterator over it."""
    return len(values) - length_hint(rest) - 1


def _get_boxes(obj, key="boxes") -> np.ndarray:
    v = obj[key]
    if not isinstance(v, list) or not v:
        raise ValueError(f"field '{key}' must be a non-empty list")
    rows = iter(v)
    for row in rows:
        try:
            x1, y1, x2, y2 = row
        except (TypeError, ValueError):
            pass
        else:
            if (type(x1) is float and type(y1) is float
                    and type(x2) is float and type(y2) is float):
                continue
        i = _last_index(v, rows)
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"{key}[{i}] must be [x1,y1,x2,y2]")
        v[i] = [_get_number(c, f"{key}[{i}]") for c in row]
    return np.array(v, dtype=np.float64)


def _get_scores(obj, key, expected_len) -> list:
    """A list of scores; each kind is checked before any range, and both before the length."""
    v = obj[key]
    if not isinstance(v, list):
        raise ValueError(f"field '{key}' must be a list")
    outside = None  # index of the first score out of range
    rest = iter(v)
    for s in rest:
        if type(s) is not float or not 0.0 <= s <= 1.0:
            i = _last_index(v, rest)
            v[i] = s = _get_number(s, f"{key}[{i}]")
            if outside is None and not 0.0 <= s <= 1.0:
                outside = i
    if outside is not None:
        raise ValueError(f"{key}[{outside}] = {v[outside]} outside [0, 1]")
    if len(v) != expected_len:
        raise ValueError(f"field '{key}' has {len(v)} entries, expected {expected_len}")
    return v


def _get_dets(obj, config) -> list:
    """The 'dets' rows, each ``[x1, y1, x2, y2, class, score]`` of checked values."""
    dets = obj["dets"]
    if not isinstance(dets, list):
        raise ValueError("field 'dets' must be a list")
    num_classes = _CLASS_LIMIT if config is None else config.num_classes
    rows = iter(dets)
    for row in rows:
        try:
            x1, y1, x2, y2, c, s = row
        except (TypeError, ValueError):
            pass
        else:
            # -inf < x1 <= x2 < inf holds only for finite, ordered corners.
            if (type(x1) is float and type(y1) is float and type(x2) is float
                    and type(y2) is float and type(c) is int and type(s) is float
                    and -_INF < x1 <= x2 < _INF and -_INF < y1 <= y2 < _INF
                    and 0 <= c < num_classes and 0.0 <= s <= 1.0):
                continue
        i = _last_index(dets, rows)
        if not isinstance(row, list) or len(row) != 6:
            raise ValueError(f"dets[{i}] must be [x1,y1,x2,y2,class,score]")
        coords = [_get_number(c, f"dets[{i}]") for c in row[:4]]
        if not _is_integer(row[4]) or row[4] < 0:
            raise ValueError(f"dets[{i}] class must be an integer >= 0")
        _check_class(row[4], config)
        if row[4] >= _CLASS_LIMIT:
            raise ValueError(f"dets[{i}] class must be below 2**63, got {_shown(row[4])}")
        score = _get_number(row[5], f"dets[{i}] score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"dets[{i}] score {score} outside [0, 1]")
        box = Box(*coords)
        dets[i] = [box.x1, box.y1, box.x2, box.y2, row[4], score]
    return dets


def _get_matrix(obj, width) -> list:
    """The 'scores' rows; ``width`` is the file's class count, None before its first row."""
    rows = obj["scores"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("field 'scores' must be a non-empty list")
    if width is None and type(rows[0]) is list:
        width = len(rows[0]) or None  # the file's first row sets it; an empty one fails below
    rest = iter(rows)
    for row in rest:
        if type(row) is list and len(row) == width:
            for s in row:
                if type(s) is not float or not 0.0 <= s <= 1.0:
                    break
            else:
                continue
        i = _last_index(rows, rest)
        if not isinstance(row, list) or not row:
            raise ValueError(f"scores[{i}] must be a non-empty list")
        vals = [_get_number(s, f"scores[{i}]") for s in row]
        if any(not 0.0 <= s <= 1.0 for s in vals):
            raise ValueError(f"scores[{i}] outside [0, 1]")
        if len(vals) != width:
            raise ValueError(f"scores[{i}] has {len(vals)} classes, expected {width}")
        rows[i] = vals
    return rows


def _check_class(class_id, config):
    if config is not None and class_id >= config.num_classes:
        raise ValueError(
            f"class {class_id} outside the {config.num_classes}-class '{config.name}' vocabulary"
        )


def _write_lines(path, schema: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps({"schema": schema}) + "\n")
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# ground truth


def load_ground_truth(path, config: DatasetConfig | None = None) -> list:
    """Load ground-truth tubes, sorted by (video, tube). Duplicate ids are errors."""
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

    tubes = _load_records(path, GT_SCHEMA, parse)
    tubes.sort(key=lambda t: t.key)
    return tubes


def save_ground_truth(tubes, path) -> None:
    lines = []
    for t in sorted(tubes, key=lambda t: t.key):
        lines.append(dumps({
            "video": t.video_id,
            "tube": t.tube_id,
            "class": int(t.class_id),
            "start": int(t.geometry.start_frame),
            "boxes": t.geometry.boxes,
        }))
    _write_lines(path, GT_SCHEMA, lines)


# ---------------------------------------------------------------------------
# frame detections


def load_detections(path, config: DatasetConfig | None = None) -> list:
    """Load per-frame detections, sorted by (video, frame).

    The frames hold slices of one table of all the file's detections.
    """
    seen = set()

    def parse(obj):
        _check_fields(obj, ("video", "frame", "dets"))
        video = _get_str(obj, "video")
        frame = _get_int(obj, "frame", minimum=0)
        if (video, frame) in seen:
            raise ValueError(f"duplicate frame {frame} in video '{video}'")
        seen.add((video, frame))
        return (video, frame), _get_dets(obj, config)

    records = _load_records(path, DET_SCHEMA, parse)
    records.sort(key=itemgetter(0))
    counts = [len(rows) for _, rows in records]
    columns = _table(chain.from_iterable(rows for _, rows in records), sum(counts))
    return _split_frames([key for key, _ in records], *columns, counts)


def save_detections(frames, path) -> None:
    frames = sorted(frames, key=lambda fd: (fd.video_id, fd.frame))
    boxes, class_ids, scores = _columns(frames)
    rows = [
        f"[{x1:.6f},{y1:.6f},{x2:.6f},{y2:.6f},{c},{s:.6f}]"
        for (x1, y1, x2, y2), c, s in zip(boxes.tolist(), class_ids.tolist(), scores.tolist())
    ]
    videos = {v: dumps(v) for v in {fd.video_id for fd in frames}}
    lines = []
    lo = 0
    for fd in frames:
        hi = lo + len(fd.scores)
        dets = without_negative_zero(",".join(rows[lo:hi]))
        lines.append(f'{{"video":{videos[fd.video_id]},"frame":{int(fd.frame)},"dets":[{dets}]}}')
        lo = hi
    _write_lines(path, DET_SCHEMA, lines)


# ---------------------------------------------------------------------------
# tracks


def load_tracks(path) -> list:
    """Load tracks, sorted by (video, track)."""
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

    tracks = _load_records(path, TRACK_SCHEMA, parse)
    tracks.sort(key=lambda t: t.key)
    return tracks


def save_tracks(tracks, path) -> None:
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
        lines.append(dumps(rec))
    _write_lines(path, TRACK_SCHEMA, lines)


# ---------------------------------------------------------------------------
# action tubes


def load_action_tubes(path, config: DatasetConfig | None = None) -> list:
    """Load detected action tubes, sorted by (video, class, start)."""

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

    tubes = _load_records(path, TUBE_SCHEMA, parse)
    tubes.sort(key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    return tubes


def save_action_tubes(tubes, path) -> None:
    lines = []
    ordered = sorted(tubes, key=lambda t: (t.video_id, t.class_id, t.geometry.start_frame))
    for t in ordered:
        lines.append(dumps({
            "video": t.video_id,
            "class": int(t.class_id),
            "start": int(t.geometry.start_frame),
            "boxes": t.geometry.boxes,
            "frame_scores": [float(s) for s in t.frame_scores],
            "score": float(t.tube_score),
        }))
    _write_lines(path, TUBE_SCHEMA, lines)


# ---------------------------------------------------------------------------
# per-track class scores (input to track trimming)


def load_track_scores(path) -> list:
    """Load per-track class score matrices, sorted by (video, track)."""
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
        return TrackScores(video, track, start, np.array(mat))

    out = _load_records(path, TRACK_SCORES_SCHEMA, parse)
    out.sort(key=lambda t: t.key)
    return out


def save_track_scores(items, path) -> None:
    lines = []
    for ts in sorted(items, key=lambda t: t.key):
        lines.append(dumps({
            "video": ts.video_id,
            "track": ts.track_id,
            "start": int(ts.start_frame),
            "scores": ts.scores,
        }))
    _write_lines(path, TRACK_SCORES_SCHEMA, lines)
