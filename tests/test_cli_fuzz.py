"""In-process fuzzing of the CLI with mutants of every file it reads.

Each command runs on a small synthetic fixture with one input file replaced
by a mutant. NDJSON mutants hold the schema header and one record of the
real file, one value of which is swapped for a mutation from
``test_ndjson_codec``; spec and config mutants swap one value of the JSON
document the same way; ``.tkt`` mutants are truncated, padded, carry a
mutated header, or hold tensors of the wrong rank, shape, values or names.
Whatever the mutant holds, ``cli.main`` must return 0 or 1 without an
exception, and a 1 must come with exactly one ``error: `` line on stderr
that names the mutated file (for NDJSON, the loader's own
``path:line: message`` when loading the mutant alone already fails).
"""

import contextlib
import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import cli, datamodel
from tubekit.aggregators import random_weights
from tubekit.datamodel import FileFormatError, TrackScores, builtin_config
from tubekit.synth import spec_from_dict
from tubekit.tensorfile import read_tensors, write_tensors

from test_ndjson_codec import _lookup, _mutations, _nodes, _replaced, _text

SPEC = {
    "seed": 3,
    "num_videos": 2,
    "frames_per_video": 16,
    "num_classes": 2,
    "tubes_per_video": 2,
    "motion_targets": [1.0, 0.4],
}
MS = builtin_config("multisports")

# command -> (argv with {input} placeholders, {input: loader as the command calls it})
COMMANDS = {
    "eval-frames": (
        ["eval-frames", "--gt", "{gt}", "--det", "{det}", "--dataset", "multisports"],
        {"gt": lambda p: datamodel.load_ground_truth(p, MS),
         "det": lambda p: datamodel.load_detections(p, MS)},
    ),
    "eval-videos": (
        ["eval-videos", "--gt", "{gt}", "--tubes", "{tubes}", "--dataset", "multisports"],
        {"gt": lambda p: datamodel.load_ground_truth(p, MS),
         "tubes": lambda p: datamodel.load_action_tubes(p, MS)},
    ),
    "build-tubes": (
        ["build-tubes", "--det", "{det}", "--min-len", "2", "--out", "{out}"],
        {"det": datamodel.load_detections},
    ),
    "trim-tracks": (
        ["trim-tracks", "--tracks", "{tracks}", "--scores", "{scores}", "--out", "{out}"],
        {"tracks": datamodel.load_tracks, "scores": datamodel.load_track_scores},
    ),
    "filter-dets": (
        ["filter-dets", "--det", "{det}", "--tracks", "{tracks}", "--out", "{out}"],
        {"det": datamodel.load_detections, "tracks": datamodel.load_tracks},
    ),
    "label-motion": (
        ["label-motion", "--gt", "{gt}", "--dataset", "multisports", "--out", "{out}"],
        {"gt": lambda p: datamodel.load_ground_truth(p, MS)},
    ),
    "motion-cdf": (
        ["motion-cdf", "--gt", "{gt}", "--out", "{out}"],
        {"gt": lambda p: datamodel.load_ground_truth(p, MS)},
    ),
}
CASES = [(command, name) for command, (_, loaders) in COMMANDS.items() for name in loaders]


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert _main(["synth", "--spec", root / "spec.json", "--out", root])[0] == 0
    paths = {"gt": root / "gt.ndjson", "det": root / "detections.ndjson",
             "tracks": root / "tracks.ndjson", "tubes": root / "tubes.ndjson",
             "scores": root / "scores.ndjson"}
    assert _main(["build-tubes", "--det", paths["det"], "--min-len", "2",
                  "--out", paths["tubes"]])[0] == 0
    rng = np.random.default_rng(0)
    datamodel.save_track_scores(
        [TrackScores(t.video_id, t.track_id, t.geometry.start_frame,
                     rng.random((len(t.geometry), 2)).round(3))
         for t in datamodel.load_tracks(paths["tracks"])],
        paths["scores"],
    )
    lines = {name: path.read_text().splitlines() for name, path in paths.items()}
    assert all(len(v) > 1 for v in lines.values())
    return root, paths, lines


def test_unmutated_inputs_run_clean(inputs):
    root, paths, _ = inputs
    for command, (argv, _) in COMMANDS.items():
        code, err = _main([a.format(out=root / "out.ndjson", **paths) for a in argv])
        assert (code, err) == (0, ""), command


@pytest.mark.parametrize("command, name", CASES)
@given(data=st.data())
def test_single_record_mutant(inputs, command, name, data):
    root, paths, lines = inputs
    header, records = lines[name][0], lines[name][1:]
    record = json.loads(data.draw(st.sampled_from(records)))
    node = data.draw(st.sampled_from(list(_nodes(record))))
    value = data.draw(st.sampled_from(_mutations(_lookup(record, node))))
    mutant = root / f"mutant-{name}.ndjson"
    mutant.write_text(f"{header}\n{_text(_replaced(record, node, value))}\n")

    argv, loaders = COMMANDS[command]
    code, err = _main([a.format(out=root / "out.ndjson", **dict(paths, **{name: mutant}))
                       for a in argv])

    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    try:
        loaders[name](mutant)
    except FileFormatError as exc:
        assert (code, err) == (1, f"error: {exc}\n")


def _assert_names(code, err, path, also=None):
    """Exit 0, or exit 1 with one ``error:`` line naming ``path``.

    ``also`` is a message part that marks an error setting the mutant
    against another input, which may name that input instead.
    """
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert str(path) in err or (also is not None and also in err), err


def _json_mutant(data, doc):
    node = data.draw(st.sampled_from(list(_nodes(doc))))
    value = data.draw(st.sampled_from(_mutations(_lookup(doc, node))))
    return _text(_replaced(doc, node, value))


# Every SynthSpec field, so that each one is mutated.
FULL_SPEC = {k: list(v) if isinstance(v, tuple) else v
             for k, v in dataclasses.asdict(spec_from_dict(SPEC)).items()}


@given(data=st.data())
def test_spec_mutant(inputs, data):
    root = inputs[0]
    mutant = root / "mutant-spec.json"
    mutant.write_text(_json_mutant(data, FULL_SPEC))
    _assert_names(*_main(["synth", "--spec", mutant, "--out", root / "synth"]), mutant)


CONFIG = {"name": "custom", "fps": 25, "class_names": ["walk", "run"],
          "motion_bins": [0.21, 0.51], "motion_offsets": [4, 8]}


@pytest.mark.parametrize("command", ["label-motion", "motion-cdf"])
@given(data=st.data())
def test_config_mutant(inputs, command, data):
    root, paths, _ = inputs
    mutant = root / "mutant-config.json"
    mutant.write_text(_json_mutant(data, CONFIG))
    code, err = _main([command, "--gt", paths["gt"], "--config", mutant,
                       "--out", root / "out"])
    # A config with fewer classes than the ground truth uses rejects a GT record.
    _assert_names(code, err, mutant, also="vocabulary")


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    """One synthetic video with 576-channel features, and random aggregator weights."""
    root = tmp_path_factory.mktemp("clip")
    (root / "spec.json").write_text(json.dumps(
        dict(SPEC, num_videos=1, emit_features=True, feature_cells=4)))
    assert _main(["synth", "--spec", root / "spec.json", "--out", root])[0] == 0
    weights = {}
    for tfa in ("tcn", "aspp"):
        weights[tfa] = root / f"{tfa}.tkt"
        write_tensors(random_weights(tfa), weights[tfa])
    return root, root / "features" / "v000.tkt", weights


def _pool(clip, tfa, features=None, weights=None):
    root, base, stores = clip
    argv = ["pool-features", "--features", features or base, "--tracks",
            root / "tracks.ndjson", "--tfa", tfa, "--out", root / "pooled.tkt"]
    if tfa != "maxpool":
        argv += ["--weights", weights or stores[tfa]]
    return _main(argv)


@pytest.mark.parametrize("tfa", ["maxpool", "tcn", "aspp"])
def test_unmutated_clip_pools_clean(clip, tfa):
    assert _pool(clip, tfa) == (0, "")


@pytest.mark.parametrize("tfa", ["maxpool", "aspp"])
@given(data=st.data())
def test_features_file_mutant(clip, tfa, data):
    root, base, _ = clip
    raw = base.read_bytes()
    (size,) = struct.unpack("<I", raw[4:8])
    kind = data.draw(st.sampled_from(["truncated", "padded", "header"]))
    if kind == "truncated":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "padded":
        raw += bytes(data.draw(st.integers(1, 8)))
    else:
        header = _json_mutant(data, json.loads(raw[8:8 + size])).encode()
        raw = raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + size:]
    mutant = root / "mutant-features.tkt"
    mutant.write_bytes(raw)
    # A header may move a track's frames outside the clip.
    _assert_names(*_pool(clip, tfa, features=mutant), mutant, also="outside the clip window")


def _feature_stores(store):
    values, stride = store["features"], store["spatial_stride"]
    nan = values.copy()
    nan.flat[12345] = np.nan
    wide = np.concatenate([values, values[:, :1]], axis=1)
    return {
        "3-D": {"features": values[0], "spatial_stride": stride},
        "NaN": {"features": nan, "spatial_stride": stride},
        "no stride element": {"features": values, "spatial_stride": stride[:0]},
        "two stride elements": {"features": values, "spatial_stride": np.repeat(stride, 2)},
        "zero stride": {"features": values, "spatial_stride": stride * 0},
        "no features tensor": {"spatial_stride": stride},
        "no stride tensor": {"features": values},
        "577 channels": {"features": wide, "spatial_stride": stride},
    }


@pytest.mark.parametrize("tfa", ["maxpool", "tcn", "aspp"])
@pytest.mark.parametrize("name", ["3-D", "NaN", "no stride element", "two stride elements",
                                  "zero stride", "no features tensor", "no stride tensor",
                                  "577 channels"])
def test_features_store_mutant(clip, tfa, name):
    root, base, _ = clip
    mutant = root / "mutant-features.tkt"
    write_tensors(_feature_stores(read_tensors(base))[name], mutant)
    code, err = _pool(clip, tfa, features=mutant)
    if name == "577 channels" and tfa == "maxpool":
        assert (code, err) == (0, "")
    else:
        assert code == 1
        _assert_names(code, err, mutant)


@pytest.mark.parametrize("tfa", ["tcn", "aspp"])
def test_weights_mutant(clip, tfa):
    root, _, stores = clip
    weights = read_tensors(stores[tfa])
    mutant = root / "mutant-weights.tkt"
    for name in weights:
        missing = {k: v for k, v in weights.items() if k != name}
        misshaped = dict(weights, **{name: weights[name][..., :-1]})
        for store in (missing, misshaped):
            write_tensors(store, mutant)
            code, err = _pool(clip, tfa, weights=mutant)
            assert code == 1 and f"'{name}'" in err, err
            _assert_names(code, err, mutant)
