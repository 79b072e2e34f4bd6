"""The record reader shared by the five loaders against the loaders it replaced.

Each loader reads a record's fields in the order its schema's field table
lists them, and checks for a repeated key where the table's ``unique`` entry
stands. ``oracles.reference_load_*`` keep the loaders with one hand-written
parse closure each. A load must give the same objects as its reference, or
the same ``path:line: message``, on every single-value mutation of a
canonical file and on mutations of whole lines and records: a line JSON
decoding refuses or that holds no object, a field dropped, an unknown field
added, a record repeated, and a repeated record with one bad field. The last
pins where each schema's duplicate-key check falls.

The references read each line with their own ``JSONDecoder.decode``
(``oracles.reference_load_records``), so a line the loaders' scanner call
rejects must give ``decode``'s message at the same line; they read the
detection rows with their own reader, and every other field with the
package's field readers, which ``test_ndjson_codec`` compares with their own
references. A last test checks that those readers are looked up when a file
is loaded, so that patching them reaches the loaders.

Lines end at ``\n`` alone: a bare ``\r`` is whitespace inside a record, and
a CRLF file loads as its LF twin, errors at the same lines.
"""

import contextlib
import json
from unittest import mock

import pytest

from tubekit import datamodel

import oracles
from test_ndjson_codec import (
    READERS,
    SCHEMAS,
    UCF24,
    _canonical_lines,
    _lookup,
    _mutations,
    _nodes,
    _outcome,
    _replaced,
    _text,
)

REFERENCES = {
    "gt": oracles.reference_load_ground_truth,
    "det": oracles.reference_load_detections,
    "track": oracles.reference_load_tracks,
    "tube": oracles.reference_load_action_tubes,
    "trackscores": oracles.reference_load_track_scores,
}


def _assert_same_as_reference(name, path):
    load, takes_config = SCHEMAS[name][2], SCHEMAS[name][3]
    for config in (None, UCF24) if takes_config else (None,):
        reference = _outcome(REFERENCES[name], path, config)
        assert _outcome(load, path, config) == reference, path.read_text()


def _check_files(tmp_path, name, files):
    path = tmp_path / "mutated.ndjson"
    checked = 0
    for lines in files:
        path.write_text("\n".join(lines) + "\n")
        _assert_same_as_reference(name, path)
        checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_single_mutation_matches_reference(tmp_path, name):
    lines = _canonical_lines(tmp_path, name)

    def files():
        for i in range(1, len(lines)):
            record = json.loads(lines[i])
            for node in _nodes(record):
                for value in _mutations(_lookup(record, node)):
                    yield lines[:i] + [_text(_replaced(record, node, value))] + lines[i + 1:]

    assert _check_files(tmp_path, name, files()) > 100


# Lines that JSON decoding refuses or that hold no object. The loaders call
# the JSON scanner directly, and must name what JSONDecoder.decode names.
LINE_ERRORS = {
    "extra-data": lambda line: line + "  x",
    "extra-data-after-tab": lambda line: line + " \t x",
    "extra-object": lambda line: line + " {}",
    "expecting-value": lambda line: "x",
    "closing-bracket": lambda line: "]",
    "bom": lambda line: "\ufeff" + line,
    "nan": lambda line: line[:-1] + ',"x":NaN}',
    "infinity": lambda line: line[:-1] + ',"x":-Infinity}',
    "deep": lambda line: line[:-1] + ',"x":%s}' % ("[" * 100_000 + "]" * 100_000),
    "array": lambda line: f"[{line}]",
}


def _record_mutations(lines):
    """Files with one line or record changed as a whole: a line that is no JSON
    object, fields dropped or added, records repeated."""
    for i in range(len(lines)):
        for change in LINE_ERRORS.values():
            yield lines[:i] + [change(lines[i])] + lines[i + 1:]
    for i in range(1, len(lines)):
        record = json.loads(lines[i])
        for key in record:
            dropped = {k: v for k, v in record.items() if k != key}
            yield lines[:i] + [_text(dropped)] + lines[i + 1:]
        yield lines[:i] + [_text({**record, "extra": 1})] + lines[i + 1:]
        yield lines + [lines[i]]
        # The repeat has one bad field, so that its first error and the
        # duplicate key compete: which one is named says where the check runs.
        for key in record:
            for value in _mutations(record[key]):
                yield lines + [_text(_replaced(record, (key,), value))]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_record_mutations_match_reference(tmp_path, name):
    lines = _canonical_lines(tmp_path, name)
    assert _check_files(tmp_path, name, _record_mutations(lines)) > 50


def test_line_errors_name_what_decode_names(tmp_path):
    lines = _canonical_lines(tmp_path, "det")
    path = tmp_path / "mutated.ndjson"
    end = len(lines[2])
    expected = {
        "extra-data": f"invalid JSON: Extra data: line 1 column {end + 3} (char {end + 2})",
        "expecting-value": "invalid JSON: Expecting value: line 1 column 1 (char 0)",
        "closing-bracket": "invalid JSON: Expecting value: line 1 column 1 (char 0)",
        "bom": "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
               "line 1 column 1 (char 0)",
        "nan": "invalid JSON: non-finite number 'NaN' not allowed",
        "array": "record must be a JSON object",
    }
    for case, message in expected.items():
        path.write_text("\n".join(lines[:2] + [LINE_ERRORS[case](lines[2])] + lines[3:]) + "\n")
        assert _outcome(datamodel.load_detections, path, None) == \
            ("error", f"{path}:3: {message}"), case


def test_bare_carriage_return_is_whitespace_inside_a_record(tmp_path):
    path = tmp_path / "cr.ndjson"
    path.write_bytes(b'{"schema":"tubekit.det.v1"}\n{"video":"v","frame":0,\r"dets":[]}\n')
    assert datamodel.load_detections(path) == [datamodel.FrameDetections("v", 0, [])]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_crlf_file_loads_as_its_lf_twin(tmp_path, name):
    load = SCHEMAS[name][2]
    path = tmp_path / "twin.ndjson"
    lines = _canonical_lines(tmp_path, name)
    errors = 0
    for twin in [lines, *_record_mutations(lines)]:
        outcomes = []
        for end in ("\n", "\r\n"):
            path.write_bytes((end.join(twin) + end).encode())
            outcomes.append(_outcome(load, path, None))
        assert outcomes[0] == outcomes[1], twin
        errors += outcomes[0][0] == "error"
    assert errors > 50


# The list readers each schema's canonical file calls, and how often: one
# call per record, and 'scores' only for the one scored track.
READER_CALLS = {
    "gt": {"boxes": 2},
    "det": {"dets": 3},
    "track": {"boxes": 2, "scores": 1},
    "tube": {"boxes": 2, "scores": 2},
    "trackscores": {"matrix": 2},
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_loaders_look_up_the_field_readers(tmp_path, name):
    fixture, save, load, _ = SCHEMAS[name]
    path = tmp_path / f"{name}.ndjson"
    save(fixture(), path)
    with contextlib.ExitStack() as stack:
        spies = {reader: stack.enter_context(mock.patch.object(
            datamodel, f"_get_{reader}", side_effect=getattr(datamodel, f"_get_{reader}")))
            for reader in READERS}
        load(path)
    assert {reader: spy.call_count for reader, spy in spies.items() if spy.called} == \
        READER_CALLS[name]
