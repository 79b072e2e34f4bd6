"""In-process fuzzing of the CLI with single-record mutants of its NDJSON inputs.

Each command runs on a small synthetic fixture with one input file replaced
by a mutant: the schema header and one record of the real file, one value of
which is swapped for a mutation from ``test_ndjson_codec``. Whatever the
mutant holds, ``cli.main`` must return 0 or 1 without an exception, and a
1 must come with exactly one ``error: `` line on stderr: the loader's own
``path:line: message`` when loading the mutant alone already fails.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import cli, datamodel
from tubekit.datamodel import FileFormatError, TrackScores, builtin_config

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
