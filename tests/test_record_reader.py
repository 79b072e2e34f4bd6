"""The record reader shared by the five loaders against the loaders it replaced.

Each loader reads a record's fields in the order its schema's field table
lists them, and checks for a repeated key where the table's ``unique`` entry
stands. ``oracles.reference_load_*`` keep the loaders with one hand-written
parse closure each. A load must give the same objects as its reference, or
the same ``path:line: message``, on every single-value mutation of a
canonical file and on mutations of whole records: a field dropped, an
unknown field added, a record repeated, and a repeated record with one bad
field. The last pins where each schema's duplicate-key check falls.

Both sides read every field with the package's field readers, which
``test_ndjson_codec`` compares with their own references; a last test checks
that those readers are looked up when a file is loaded, so that patching
them reaches the loaders.
"""

import contextlib
import json
from unittest import mock

import pytest

from tubekit import datamodel
from tubekit.datamodel import Detection
from tubekit.geometry import Box

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


def _package_dets(obj, config):
    # The Detection-list reference reads its rows with a reader of its own,
    # which does not check that a class id is below 2**63; here it reads them
    # with the package's, so that only the record structure is compared.
    return [Detection(Box(*row[:4]), row[4], row[5]) for row in datamodel._get_dets(obj, config)]


def _assert_same_as_reference(name, path):
    load, takes_config = SCHEMAS[name][2], SCHEMAS[name][3]
    for config in (None, UCF24) if takes_config else (None,):
        with mock.patch.object(oracles, "_reference_get_dets", _package_dets):
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


def _record_mutations(lines):
    """Files with one record changed as a whole: fields dropped or added, records repeated."""
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
