"""The NDJSON codec's field readers against the frozen readers they replaced.

Loaders read each list field (boxes, scores, dets, a score matrix) in one
loop: an exact-type test per row, and the per-field checks for a row it
rejects. ``oracles.reference_get_*`` keep the readers that came before: a
typed pass that only accepts, then, on any rejection, the per-field checks
from the top of the field. A load must give the same objects as with those
readers patched in, field types included, or the same ``path:line:
message``, which keeps the order of errors; ``dumps`` must give the same
bytes as the element-by-element reference in ``oracles``. The writers' array
kernel must write each row of numbers as ``dumps`` does, floats as
``format_float`` and integers as ``str``, and each writer the bytes of its
reference ``oracles.reference_save_*``.
"""

import contextlib
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tubekit import datamodel, jsonfmt
from tubekit.datamodel import (
    ActionTube,
    Detection,
    FileFormatError,
    FrameDetections,
    GroundTruthTube,
    Track,
    TrackScores,
    builtin_config,
)
from tubekit.geometry import Box, TubeGeometry
from tubekit.jsonfmt import dumps, format_float

import oracles
from oracles import reference_dumps

# ---------------------------------------------------------------------------
# canonical files, written by tubekit itself (six-decimal numbers)

UCF24 = builtin_config("ucf24")


def _gt():
    return [
        GroundTruthTube("v0", "t0", 1, TubeGeometry(0, [(0.5, 0.25, 10.0, 10.5),
                                                        (1.5, 1.25, 11.0, 12.5)])),
        GroundTruthTube("v1", "t1", 23, TubeGeometry(3, [(2.0, 3.0, 4.0, 5.0)])),
    ]


def _dets():
    return [
        FrameDetections("v0", 0, [Detection(Box(0.5, 0.25, 5.5, 6.75), 3, 0.875),
                                  Detection(Box(1.0, 2.0, 8.0, 9.5), 0, 0.25)]),
        FrameDetections("v0", 2, []),
        FrameDetections("v1", 7, [Detection(Box(2.0, 2.0, 4.0, 4.0), 23, 1.0)]),
    ]


def _tracks():
    return [
        Track("v0", "k0", TubeGeometry(0, [(0.5, 0.5, 5.0, 5.0), (1.0, 0.5, 6.0, 5.5)]),
              [0.5, 0.125]),
        Track("v0", "k1", TubeGeometry(2, [(3.0, 3.0, 9.0, 9.5)])),
    ]


def _tubes():
    return [
        ActionTube("v0", 0, TubeGeometry(0, [(0.5, 0.5, 5.0, 5.0), (1.0, 1.5, 2.0, 2.5)]),
                   [0.5, 0.25]),
        ActionTube("v0", 2, TubeGeometry(3, [(1.0, 1.0, 2.0, 2.0)]), [1.0]),
    ]


def _track_scores():
    # The first record has a single row: it sets the file's class count.
    return [
        TrackScores("v0", "k0", 0, np.array([[0.125, 0.75]])),
        TrackScores("v0", "k1", 3, np.array([[1.0, 0.0], [0.25, 0.5]])),
    ]


# name -> (fixture, saver, loader, takes a config)
SCHEMAS = {
    "gt": (_gt, datamodel.save_ground_truth, datamodel.load_ground_truth, True),
    "det": (_dets, datamodel.save_detections, datamodel.load_detections, True),
    "track": (_tracks, datamodel.save_tracks, datamodel.load_tracks, False),
    "tube": (_tubes, datamodel.save_action_tubes, datamodel.load_action_tubes, True),
    "trackscores": (_track_scores, datamodel.save_track_scores,
                    datamodel.load_track_scores, False),
}


def _canonical_lines(tmp_path, name):
    fixture, save, _, _ = SCHEMAS[name]
    path = tmp_path / f"{name}.ndjson"
    save(fixture(), path)
    return path.read_text().splitlines()


READERS = ("boxes", "scores", "dets", "matrix")


@contextlib.contextmanager
def _reference_readers():
    """Read every list field with the frozen typed and per-field readers."""
    readers = {f"_get_{name}": getattr(oracles, f"reference_get_{name}") for name in READERS}
    with mock.patch.multiple(datamodel, **readers):
        yield


def _canon(x):
    """Everything a loaded value is made of, with the exact type of each part."""
    if isinstance(x, list):
        return ["list", [_canon(v) for v in x]]
    if isinstance(x, np.ndarray):
        return ["ndarray", x.dtype.str, x.shape, x.tobytes(), x.flags.writeable]
    if isinstance(x, TubeGeometry):
        return ["TubeGeometry", _canon(x.start_frame), _canon(x.boxes)]
    if isinstance(x, FrameDetections):
        return ["FrameDetections", *(_canon(getattr(x, name)) for name in
                                     ("video_id", "frame", "boxes", "class_ids", "scores",
                                      "entries"))]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__, list(vars(x)),
                [(f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)]]
    return [type(x).__name__, repr(x)]


def _outcome(load, path, config):
    args = (config,) if config is not None else ()
    try:
        return "ok", _canon(load(path, *args))
    except FileFormatError as exc:
        return "error", str(exc)


def _assert_same_as_reference(name, path):
    load, takes_config = SCHEMAS[name][2], SCHEMAS[name][3]
    for config in (None, UCF24) if takes_config else (None,):
        outcome = _outcome(load, path, config)
        with _reference_readers():
            reference = _outcome(load, path, config)
        assert outcome == reference, path.read_text()


# ---------------------------------------------------------------------------
# mutations of one record

BIG, NEG_BIG = "<1e400>", "<-1e400>"  # written as the bare numbers 1e400 / -1e400
DEEP = "<deep>"  # written as arrays nested 100,000 deep, past the recursion limit


def _mutations(v):
    """Replacements for one value: wrong types, out-of-range numbers, wrong shapes.

    The last two lists hold more than one error, so that a loader must name
    the one the reference names first.
    """
    out = [3, 0, -1, 24, 10**400, True, False, "1.5", "", 1.5, -0.5, BIG, NEG_BIG, DEEP,
           None, [], [v], {"k": v}, {}, [1.5, -0.5, 2.0], [1.5, "1.5"]]
    if type(v) is float:
        out.append(int(v))  # an int coordinate or score
    if type(v) is int and abs(v) <= 2**53:
        out.append(float(v))
    if isinstance(v, list) and v:
        out += [v[:-1], v + v[-1:]]
        if len(v) >= 4:
            out += [[v[2], v[1], v[0], *v[3:]], [v[0], v[3], v[2], v[1], *v[4:]]]  # swapped corners
    return out


def _nodes(obj, prefix=()):
    """Paths to every value below a record, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, v in items:
        yield prefix + (key,)
        if isinstance(v, (dict, list)):
            yield from _nodes(v, prefix + (key,))


def _replaced(obj, node, value):
    if not node:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[node[0]] = _replaced(obj[node[0]], node[1:], value)
    return copy


def _lookup(obj, node):
    for key in node:
        obj = obj[key]
    return obj


def _text(record):
    return (json.dumps(record, separators=(",", ":"))
            .replace(json.dumps(BIG), "1e400").replace(json.dumps(NEG_BIG), "-1e400")
            .replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_single_mutation_matches_per_field(tmp_path, name):
    lines = _canonical_lines(tmp_path, name)
    path = tmp_path / "mutated.ndjson"
    checked = 0
    for i in range(1, len(lines)):
        record = json.loads(lines[i])
        for node in _nodes(record):
            for value in _mutations(_lookup(record, node)):
                mutated = list(lines)
                mutated[i] = _text(_replaced(record, node, value))
                path.write_text("\n".join(mutated) + "\n")
                _assert_same_as_reference(name, path)
                checked += 1
    assert checked > 100


@st.composite
def _mutated_files(draw, lines):
    records = [json.loads(line) for line in lines[1:]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(records) - 1))
        node = draw(st.sampled_from(list(_nodes(records[i]))))
        value = draw(st.sampled_from(_mutations(_lookup(records[i], node))))
        records[i] = _replaced(records[i], node, value)
    return lines[:1] + [_text(r) for r in records]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@given(data=st.data())
def test_random_mutations_match_per_field(tmp_path_factory, name, data):
    tmp_path = tmp_path_factory.mktemp(name)
    lines = data.draw(_mutated_files(_canonical_lines(tmp_path, name)))
    path = tmp_path / "mutated.ndjson"
    path.write_text("\n".join(lines) + "\n")
    _assert_same_as_reference(name, path)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_canonical_files_take_the_typed_pass(tmp_path, name):
    fixture, save, load, _ = SCHEMAS[name]
    path = tmp_path / f"{name}.ndjson"
    save(fixture(), path)
    with _reference_readers():
        expected = _canon(load(path))
    # The per-field checks read every number through _get_number. The fast
    # tests read none; only a tube record's single 'score' goes through it.
    with mock.patch.object(datamodel, "_get_number", side_effect=datamodel._get_number) as spy:
        assert _canon(load(path)) == expected
    assert [c.args[1] for c in spy.call_args_list] == \
        (["field 'score'"] * len(fixture()) if name == "tube" else [])


def test_integer_coordinates_take_the_per_field_path(tmp_path):
    path = tmp_path / "det.ndjson"
    path.write_text('{"schema":"tubekit.det.v1"}\n'
                    '{"video":"v","frame":0,"dets":[[0,0,5,5,1,1]]}\n')
    with mock.patch.object(datamodel, "_get_number", side_effect=datamodel._get_number) as spy:
        (fd,) = datamodel.load_detections(path)
    assert spy.call_count == 5  # four coordinates and the score
    (det,) = fd.entries
    assert det == Detection(Box(0.0, 0.0, 5.0, 5.0), 1, 1.0)
    assert [type(v) for v in (det.box.x1, det.box.y1, det.box.x2, det.box.y2, det.score)] \
        == [float] * 5


def test_reference_readers_are_not_the_loaders_readers():
    for name in READERS:
        reference = getattr(oracles, f"reference_get_{name}")
        assert reference is not getattr(datamodel, f"_get_{name}")
        assert reference.__module__ == "oracles"


_BOX = "[0.0,0.0,1.0,1.0]"


# A row the fast test rejects is checked where it stands, so each message
# below must name what the per-field checks of the whole field would name
# first: a score's kind before any score's range, both before the length.
@pytest.mark.parametrize("name, records, lineno, message", [
    ("track", ['{"video":"v","track":"k","start":0,"boxes":[%s,%s],"scores":[1.5,"x"]}'
               % (_BOX, _BOX)], 2, "scores[1] must be a number"),
    ("tube", ['{"video":"v","class":0,"start":0,"boxes":[%s,%s],"frame_scores":[0.5,1.5,0.5],'
              '"score":0.5}' % (_BOX, _BOX)], 2, "frame_scores[1] = 1.5 outside [0, 1]"),
    ("det", ['{"video":"v","frame":0,"dets":[[0,0,5,5,1,1],[0.0,0.0,5.0,5.0,1.5,0.5]]}'], 2,
     "dets[1] class must be an integer >= 0"),
    ("trackscores", ['{"video":"v","track":"a","start":0,"scores":[[1,0,1],[0.5,0.5,0.5]]}',
                     '{"video":"v","track":"b","start":0,"scores":[[0.5,0.25,0.125],[0.5,0.25]]}'],
     3, "scores[1] has 2 classes, expected 3"),
], ids=["kind-after-range", "range-and-length", "int-row-then-bad-row", "int-first-row-width"])
def test_first_error_of_a_field(tmp_path, name, records, lineno, message):
    path = tmp_path / f"{name}.ndjson"
    path.write_text(_canonical_lines(tmp_path, name)[0] + "\n" + "\n".join(records) + "\n")
    with pytest.raises(FileFormatError) as exc:
        SCHEMAS[name][2](path)
    assert str(exc.value) == f"{path}:{lineno}: {message}"


# Loaded box lists and score matrices are packed with np.fromiter and a count
# of rows times width; fromiter stops quietly at its count, so these fields
# hold exactly that many numbers in rows of the wrong length and must still
# fail at the row check.
_ROW = "[%s]" % ",".join(["0.5"] * 24)
_ROWS_23_25 = "[[%s],[%s]]" % (",".join(["0.5"] * 23), ",".join(["0.5"] * 25))


@pytest.mark.parametrize("name, records, lineno, message", [
    ("track", ['{"video":"v","track":"k","start":0,'
               '"boxes":[[1.0,2.0,3.0],[1.0,2.0,3.0,4.0,5.0]]}'],
     2, "boxes[0] must be [x1,y1,x2,y2]"),
    ("trackscores", ['{"video":"v","track":"a","start":0,"scores":[%s]}' % _ROW,
                     '{"video":"v","track":"b","start":0,"scores":%s}' % _ROWS_23_25],
     3, "scores[0] has 23 classes, expected 24"),
    ("trackscores", ['{"video":"v","track":"b","start":0,"scores":%s}' % _ROWS_23_25,
                     '{"video":"v","track":"a","start":0,"scores":[%s]}' % _ROW],
     2, "scores[1] has 25 classes, expected 23"),
], ids=["boxes-3-and-5", "matrix-23-and-25-after-24", "matrix-23-sets-width"])
def test_packing_count_is_no_length_check(tmp_path, name, records, lineno, message):
    path = tmp_path / f"{name}.ndjson"
    path.write_text(_canonical_lines(tmp_path, name)[0] + "\n" + "\n".join(records) + "\n")
    with pytest.raises(FileFormatError) as exc:
        SCHEMAS[name][2](path)
    assert str(exc.value) == f"{path}:{lineno}: {message}"


# Edge values a packed array must hold bit for bit; integers take the
# per-field path, which converts them to floats.
_PACK_COORDS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_PACK_SCORES = [-0.0, 0.0, 5e-324, 1.0, 0.5]
_pack_coord = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from(_PACK_COORDS) | st.integers(-2**63, 2**63))
_pack_score = st.floats(0.0, 1.0) | st.sampled_from(_PACK_SCORES) | st.integers(0, 1)


def _assert_packed(packed, rows, width):
    expected = np.array(rows, dtype=np.float64)
    assert packed.dtype == np.float64 and packed.shape == (len(rows), width)
    assert packed.tobytes() == expected.tobytes()


@given(st.lists(st.lists(_pack_coord, min_size=4, max_size=4), min_size=1, max_size=12))
@example([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]])
@example([[0, -1, 2**53 + 1, -2**63], [-0.0, 0.0, -5e-324, 1.5]])
def test_packed_boxes_equal_np_array(rows):
    packed = datamodel._get_boxes({"boxes": [list(r) for r in rows]})
    _assert_packed(packed, rows, 4)


@given(st.integers(1, 24).flatmap(lambda width: st.lists(
    st.lists(st.lists(_pack_score, min_size=width, max_size=width), min_size=1, max_size=6),
    min_size=1, max_size=3)))
@example([[[-0.0, 5e-324, 1, 0]]])
@example([[[0, 1], [-0.0, 5e-324]], [[1.0, 0.5]]])
def test_packed_score_matrices_equal_np_array(tmp_path_factory, matrices):
    path = tmp_path_factory.mktemp("pack") / "trackscores.ndjson"
    path.write_text("\n".join(
        [json.dumps({"schema": datamodel.TRACK_SCORES_SCHEMA})]
        + [json.dumps({"video": "v", "track": f"k{i:02d}", "start": 0, "scores": m})
           for i, m in enumerate(matrices)]) + "\n")
    loaded = datamodel.load_track_scores(path)
    assert len(loaded) == len(matrices)
    for ts, m in zip(loaded, matrices):
        _assert_packed(ts.scores, m, len(m[0]))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@pytest.mark.parametrize("index", [0, 1, -1])
def test_byte_order_mark_keeps_json_loads_message(tmp_path, name, index):
    # One reused decoder parses every line; a line starting with a UTF-8 BOM
    # must still fail with json.loads' own message and its line number.
    lines = _canonical_lines(tmp_path, name)
    lineno = index % len(lines) + 1
    lines[index] = "\ufeff" + lines[index]
    path = tmp_path / f"bom-{name}.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as reference:
        json.loads(lines[index])
    with pytest.raises(FileFormatError) as exc:
        SCHEMAS[name][2](path)
    assert str(exc.value) == f"{path}:{lineno}: invalid JSON: {reference.value}"
    assert "Unexpected UTF-8 BOM" in str(exc.value)


# ---------------------------------------------------------------------------
# loaded frames against frames built by the public constructors


def test_loaded_detections_equal_public_constructors(tmp_path):
    path = tmp_path / "det.ndjson"
    datamodel.save_detections(_dets(), path)
    # _fill holds the frame check that every FrameDetections passes.
    fill = FrameDetections._fill
    with mock.patch.object(FrameDetections, "_fill", autospec=True, side_effect=fill) as spy:
        frames = datamodel.load_detections(path)
    assert spy.call_count == len(frames) == 3
    dets = [d for fd in frames for d in fd.entries]
    assert len(dets) == 3
    for d in dets:
        b = d.box
        ref = Detection(Box(b.x1, b.y1, b.x2, b.y2), d.class_id, d.score)
        assert d == ref and hash(d) == hash(ref) and repr(d) == repr(ref)
        assert type(d) is Detection and type(b) is Box
        assert [type(getattr(d, f.name)) for f in dataclasses.fields(Detection)] == \
            [type(getattr(ref, f.name)) for f in dataclasses.fields(Detection)] == \
            [Box, int, float]
        assert [type(getattr(b, f.name)) for f in dataclasses.fields(Box)] == [float] * 4
        assert vars(d).keys() == vars(ref).keys() and vars(b).keys() == vars(ref.box).keys()
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.score = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.x1 = 0.0
    assert frames == _dets()


# ---------------------------------------------------------------------------
# dumps against the element-by-element reference

_special = st.sampled_from([
    -0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, -4.9999999e-7, 1e300, -1e300, 1e-300,
    math.nan, -math.nan, math.inf, -math.inf, 0.1234565, 2.0**53,
])
_floats = _special | st.floats()
_ints = st.sampled_from([0, -1, 2**53 + 1, -(2**53) - 1, 10**30, -(2**63)]) | st.integers()
_np_scalars = (
    st.floats(width=32).map(np.float32) | _floats.map(np.float64)
    | st.integers(-2**31, 2**31 - 1).map(np.int32) | st.integers(0, 255).map(np.uint8)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int32, np.uint64,
                     np.uint8, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_leaves = (_floats | _ints | st.booleans() | st.none() | st.text(max_size=4)
           | _np_scalars | _arrays)
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=24,
)


def _dumps_or_error(fn, value):
    try:
        return "ok", fn(value)
    except TypeError as exc:
        return "error", str(exc)


@given(_values)
@example([-0.0, -4e-7, 1e300, math.nan, math.inf, -math.inf, 2**53 + 1, 7])
@example((0.5, -0.0, 3))
@example([1.0, True, 2])
@example([1.0, np.float64(-4e-7), np.int64(3)])
@example([])
@example(np.array([[-0.0, -4e-7], [1e300, np.nan]]))
@example(np.array([1.5, -1e-9], dtype=np.float32))
@example(np.array([2**63 + 5, 0], dtype=np.uint64))
@example(np.zeros((2, 0)))
@example(np.array(1.5))
@example(np.array([True, False]))
@example({"boxes": np.arange(8, dtype=np.float64).reshape(2, 4) - 4, "s": "é"})
def test_dumps_equals_reference(value):
    assert _dumps_or_error(dumps, value) == _dumps_or_error(reference_dumps, value)


# ---------------------------------------------------------------------------
# the writers' number kernel against format_float and str


def _kernel_texts(*columns):
    """Each row's text from jsonfmt._number_rows, without its leading comma."""
    text, ends = jsonfmt._number_rows(*columns)
    assert all(text[lo] == "," for lo in ends[:-1].tolist())
    return [text[lo + 1:hi] for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist())]


def _dumps_rows(*columns):
    """Each row's numbers as dumps writes them, the reference for _kernel_texts."""
    flat = len(columns) == 1 and columns[0].ndim == 1
    rows = zip(*((c[:, None] if c.ndim == 1 else c).tolist() for c in columns))
    return [dumps(row[0][0] if flat else [v for part in row for v in part]) for row in rows]


def _near_half(n, step):
    """The float ``step`` ulps from (n + 0.5) / 10**6: its sixth decimal is a near-tie."""
    v = (n + 0.5) / 1e6
    for _ in range(abs(step)):
        v = math.nextafter(v, math.copysign(math.inf, step))
    return v


# Written wrong without the tie flag: each lies just above or below a
# half-integer at the sixth decimal, and p = f * 1e6 rounds onto it.
NEAR_TIES = [2.5e-06, -2.5e-06, 3.5e-06, 1.25e-05, 1.35e-05]

_near_ties = (
    st.integers(-2**38, 2**38).map(lambda k: (2 * k + 1) / 128)  # exact ties
    | st.builds(_near_half, st.integers(-2**52, 2**52), st.integers(-1, 1))
    | st.sampled_from(NEAR_TIES)
)


@given(st.lists(st.floats() | _near_ties, max_size=40))
@example(NEAR_TIES)
@example([0.0078125, -0.0, -1e-9, -5e-7, 5e-7, 0.9999995, 0.9999997, -0.9999997,
          2.0**32 - 1.5, 2.0**32 - 1, 2.0**32, 1e300, -1e300, 1e-300])
def test_kernel_writes_format_float(values):
    column = np.array(values, dtype=np.float64)
    texts = _kernel_texts(column)
    assert texts == [format_float(v) for v in values] == _dumps_rows(column)
    if len(values) % 2 == 0:  # rows of a block, bracketed
        pairs = column.reshape(-1, 2)
        assert _kernel_texts(pairs) == [f"[{a},{b}]" for a, b in zip(texts[::2], texts[1::2])]
        assert _kernel_texts(pairs) == _dumps_rows(pairs)


@given(st.lists(st.integers(-2**63, 2**63 - 1)
                | st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, -1]), max_size=40))
def test_kernel_writes_integers(values):
    assert _kernel_texts(np.array(values, dtype=np.int64)) == [str(v) for v in values]


def test_kernel_rewrites_non_finite_values():
    assert _kernel_texts(np.array([math.nan, math.inf, -math.inf, 1.5])) == \
        [format_float(v) for v in (math.nan, math.inf, -math.inf, 1.5)]


def test_kernel_rewrites_every_exact_tie():
    ties = (2 * np.arange(-5000, 5000) + 1) / 128  # f * 10**6 is k + 0.5 exactly
    assert _kernel_texts(ties) == [format_float(v) for v in ties.tolist()]


def test_tie_bound_is_needed():
    """With no tie flag, the near-ties above are written wrong: the bound does work."""
    with mock.patch.object(jsonfmt, "_TIE", 0.0):
        texts = _kernel_texts(np.array(NEAR_TIES))
    assert all(t != format_float(v) for v, t in zip(NEAR_TIES, texts))


def test_kernel_rows_span_blocks():
    rng = np.random.default_rng(5)
    boxes = rng.uniform(-2000, 2000, (11, 4))
    classes = rng.integers(0, 30, 11)
    scores = rng.uniform(0, 1, 11)
    flagged = boxes.copy(), classes.copy(), scores.copy()
    # Flagged numbers in the first and last rows of 3-row blocks, and of the run.
    flagged[0][0, 0], flagged[1][3], flagged[2][5], flagged[0][10, 3] = \
        math.nan, 2**32, 0.0078125, 1e300
    for columns in ((boxes, classes, scores), flagged):
        whole = jsonfmt._number_rows(*columns)
        with mock.patch.object(jsonfmt, "_BLOCK_ROWS", 3):
            split = jsonfmt._number_rows(*columns)
            texts = _kernel_texts(*columns)
        assert whole[0] == split[0] and np.array_equal(whole[1], split[1])
        assert texts == _dumps_rows(*columns) == [
            "[" + ",".join([*map(format_float, b), str(c), format_float(s)]) + "]"
            for b, c, s in zip(*(column.tolist() for column in columns))]


def test_kernel_on_no_rows():
    text, ends = jsonfmt._number_rows(np.empty((0, 4)))
    assert text == "" and ends.tolist() == [0]
    assert _kernel_texts(np.empty(0, np.int64)) == []


# ---------------------------------------------------------------------------
# each writer against its element-by-element reference

EDGE_COORDS = [0.0078125, -0.0, -1e-9, -5e-7, 2.5e-06, 0.9999997, 2.0**32 - 1, 2.0**32,
               1e300, -1e300]
EDGE_SCORES = [0.0, 1.0, 0.0078125, 5e-7, 2.5e-06, 0.9999995, 0.9999997]
_coord = st.floats(-1e4, 1e4) | st.sampled_from(EDGE_COORDS)
_score = st.floats(0.0, 1.0) | st.sampled_from(EDGE_SCORES)
_class = st.integers(0, 30) | st.sampled_from([2**32 - 1, 2**32, 2**63 - 1])
_video = st.sampled_from(["v0", "v1", 'é"\\'])
_ident = st.text("ab1", min_size=1, max_size=3)


@st.composite
def _box(draw):
    x1, x2 = sorted([draw(_coord), draw(_coord)])
    y1, y2 = sorted([draw(_coord), draw(_coord)])
    return Box(x1, y1, x2, y2)


def _geometry(n):
    return st.builds(TubeGeometry, st.integers(0, 50), st.lists(_box(), min_size=n, max_size=n))


@st.composite
def _frames(draw):
    keys = draw(st.lists(st.tuples(_video, st.integers(0, 9)), unique=True, max_size=6))
    dets = st.builds(Detection, _box(), _class, _score)
    return [FrameDetections(v, f, draw(st.lists(dets, max_size=4))) for v, f in keys]


@st.composite
def _gt(draw):
    keys = draw(st.lists(st.tuples(_video, _ident), unique=True, max_size=5))
    return [GroundTruthTube(v, t, draw(_class), draw(_geometry(draw(st.integers(1, 4)))))
            for v, t in keys]


@st.composite
def _tracks(draw):
    keys = draw(st.lists(st.tuples(_video, _ident), unique=True, max_size=5))
    out = []
    for v, t in keys:
        n = draw(st.integers(1, 4))
        scores = draw(st.none() | st.lists(_score, min_size=n, max_size=n))
        out.append(Track(v, t, draw(_geometry(n)), scores))
    return out


@st.composite
def _tubes(draw):
    out = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 4))
        scores = draw(st.lists(_score, min_size=n, max_size=n))
        out.append(ActionTube(draw(_video), draw(_class), draw(_geometry(n)), scores))
    return out


@st.composite
def _score_matrices(draw):
    keys = draw(st.lists(st.tuples(_video, _ident), unique=True, max_size=5))
    width = draw(st.integers(1, 3))
    return [TrackScores(v, t, draw(st.integers(0, 9)), np.array(draw(st.lists(
        st.lists(_score, min_size=width, max_size=width), min_size=1, max_size=4))))
        for v, t in keys]


WRITERS = {
    "gt": (_gt(), datamodel.save_ground_truth, oracles.reference_save_ground_truth),
    "det": (_frames(), datamodel.save_detections, oracles.reference_save_detections),
    "track": (_tracks(), datamodel.save_tracks, oracles.reference_save_tracks),
    "tube": (_tubes(), datamodel.save_action_tubes, oracles.reference_save_action_tubes),
    "trackscores": (_score_matrices(), datamodel.save_track_scores,
                    oracles.reference_save_track_scores),
}


def _assert_same_bytes(tmp, name, records):
    _, save, reference = WRITERS[name]
    save(records, tmp / "out.ndjson")
    reference(records, tmp / "ref.ndjson")
    assert (tmp / "out.ndjson").read_bytes() == (tmp / "ref.ndjson").read_bytes()


@pytest.mark.parametrize("block", [2, jsonfmt._BLOCK_ROWS])
@pytest.mark.parametrize("name", sorted(WRITERS))
@given(data=st.data())
def test_writers_write_reference_bytes(tmp_path_factory, name, block, data):
    records = data.draw(WRITERS[name][0])
    with mock.patch.object(jsonfmt, "_BLOCK_ROWS", block):
        _assert_same_bytes(tmp_path_factory.mktemp(name), name, records)


def _edge_records():
    """Each writer's records: edge values, flagged or not, and frames without rows."""
    box = Box(-5e-7, -1e-9, 2.0**32, 1e300)
    tie = Box(-0.0, 2.5e-06, 0.0078125, 0.0078125)
    plain = Box(-1.0, -0.0, 3.0, 4.0)
    geometry = TubeGeometry(3, [box, tie, plain])
    scores = [0.0, 1.0, 0.0078125]
    return {
        "gt": [GroundTruthTube("v0", "t0", 2**63 - 1, geometry),
               GroundTruthTube("v0", "t1", 1, TubeGeometry(0, [plain]))],
        "det": [FrameDetections("v0", 0, []),
                FrameDetections("v0", 1, [Detection(box, 2, 0.0), Detection(tie, 3, 1.0)]),
                FrameDetections("v0", 2, [Detection(plain, 3, 1.0), Detection(plain, 0, 0.0)]),
                FrameDetections("v0", 3, []),
                FrameDetections("v1", 0, [Detection(plain, 2**63 - 1, 0.5)])],
        "track": [Track("v0", "k0", geometry, scores), Track("v0", "k1", geometry),
                  Track("v1", "k0", TubeGeometry(0, [plain]), [-0.0]),
                  Track("v1", "k1", TubeGeometry(0, [plain]))],
        "tube": [ActionTube("v0", 2**63 - 1, geometry, scores),
                 ActionTube("v0", 1, TubeGeometry(0, [plain]), [-0.0])],
        "trackscores": [TrackScores("v0", "k0", 0, np.array([scores, [1e-9, 5e-7, 0.5]])),
                        TrackScores("v0", "k1", 4, np.array([[0.25, -0.0, 1.0]]))],
    }


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_write_reference_bytes_on_edge_values(tmp_path, name):
    records = _edge_records()[name]
    rows = []

    def number_rows(*columns):
        rows.append(len(columns[0]))
        return jsonfmt._number_rows(*columns)

    # Inside jsonfmt, only _number_rows calls dumps: once per row it rewrites.
    with mock.patch.object(datamodel, "_number_rows", number_rows), \
            mock.patch.object(jsonfmt, "dumps", wraps=dumps) as rewritten:
        _assert_same_bytes(tmp_path, name, records)
    assert 0 < rewritten.call_count < sum(rows)  # rows from the kernel and from dumps
    _assert_same_bytes(tmp_path, name, [])
