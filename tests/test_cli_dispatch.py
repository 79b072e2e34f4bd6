"""``cli.main`` parses with the invoked command's parser alone, as the full parser would.

Each case runs ``main`` and a reference that parses with the full
``_build_parser()``, as ``main`` used to, on the same argv. Every command
function is replaced by one that prints the namespace it receives, so the
two must agree on exit code, stdout and stderr, and on the parsed values
whenever parsing succeeds.
"""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import cli

# The required arguments of each command.
REQUIRED = {
    "eval-frames": ["--gt", "g", "--det", "d"],
    "eval-videos": ["--gt", "g", "--tubes", "t"],
    "label-motion": ["--gt", "g", "--out", "o"],
    "motion-cdf": ["--gt", "g", "--out", "o"],
    "build-tubes": ["--det", "d", "--out", "o"],
    "trim-tracks": ["--tracks", "t", "--scores", "s", "--out", "o"],
    "filter-dets": ["--det", "d", "--tracks", "t", "--out", "o"],
    "pool-features": ["--features", "f", "--tracks", "t", "--tfa", "maxpool", "--out", "o"],
    "synth": ["--spec", "s", "--out", "o"],
}

# An option of each command whose value is checked by argparse.
CHECKED = {
    "eval-frames": "--iou",
    "eval-videos": "--st-iou",
    "label-motion": "--tertiles",
    "motion-cdf": "--offset-frames",
    "build-tubes": "--max-misses",
    "trim-tracks": "--alpha",
    "filter-dets": "--score-thresh",
    "pool-features": "--tfa",
    "synth": "--spec",
}


def _cases():
    yield []
    yield ["--help"]
    yield ["-h"]
    yield ["--he"]
    yield ["bogus"]
    yield ["eval"]
    yield ["--"]
    yield ["--jobs", "2", "eval-frames", *REQUIRED["eval-frames"]]
    yield ["--", "eval-frames", *REQUIRED["eval-frames"]]
    yield ["eval-videos", *REQUIRED["eval-videos"], "--sweep", "0.1:0.5:0.1"]
    yield ["eval-videos", *REQUIRED["eval-videos"], "--sweep", "0.1:0.5:0.1", "--motion"]
    yield ["eval-videos", *REQUIRED["eval-videos"], "--sweep", "0.1:0.5:0.1", "--pr-csv", "p"]
    yield ["eval-videos", *REQUIRED["eval-videos"], "--sweep", "", "--motion"]
    yield ["pool-features", *REQUIRED["pool-features"], "--tfa", "gru"]
    yield ["motion-cdf", *REQUIRED["motion-cdf"], "--offset-frames", "1.5"]
    for name, required in REQUIRED.items():
        yield [name]
        yield [name, "--help"]
        yield [name, "-h"]
        yield [name, "--he"]
        yield [name, *required]
        yield [name, *required, *required]
        yield [name, *required[:-1]]
        yield [name, *required, "extra"]
        yield [name, *required, "--bogus"]
        yield [name, *required, "--bogus=1"]
        yield [name, *required, "--"]
        yield [name, *required, "--", "extra"]
        yield [name, "--", *required]
        yield [name, *required, "--jobs", "2"]
        yield [name, *required, CHECKED[name], "x"]
        yield [name, *required, f"{CHECKED[name]}=x"]
        yield [name, "extra", *required]
        yield [name, *(f"{a}={b}" for a, b in zip(required[::2], required[1::2]))]


def _reference_main(argv) -> int:
    """``main`` as it was when every call built and used the full parser."""
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sweep", None) is not None:  # an empty --sweep is a sweep too
        for flag, given_ in (("--pr-csv", args.pr_csv), ("--motion", args.motion)):
            if given_:
                parser.error(f"eval-videos: {flag} cannot be combined with --sweep")
    return args.func(args)


def _shown(name):
    def command(args):
        values = {k: v for k, v in vars(args).items() if k != "func"}
        print(name, sorted(values.items()))
        return 0
    return command


def _run(main, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, with every command stubbed."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for name in vars(cli):
            if name.startswith("_cmd_"):
                mp.setattr(cli, name, _shown(name))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cases_cover_every_command():
    assert set(REQUIRED) == set(CHECKED) == set(cli._COMMANDS)
    parser = cli._build_parser()
    assert parser._subparsers._group_actions[0].choices.keys() == cli._COMMANDS.keys()


@pytest.mark.parametrize("argv", list(_cases()), ids=lambda argv: " ".join(argv) or "<none>")
def test_main_parses_as_the_full_parser(argv):
    assert _run(cli.main, argv) == _run(_reference_main, argv)


def test_a_parse_builds_one_command_parser(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1))
    assert "_cmd_synth [('command', 'synth')" in _run(cli.main, ["synth", *REQUIRED["synth"]])[1]
    assert built == []


# Words drawn into argv: every command and option, and values that parse or not.
_WORDS = sorted(
    set(cli._COMMANDS)
    | {opt for p in cli._build_parser()._subparsers._group_actions[0].choices.values()
       for action in p._actions for opt in action.option_strings}
    | {"x", "1", "0.5", "-1", "0:1:0.5", "maxpool", "--", "-h", "--he", "--bogus", "--gt=g", ""}
)


@given(st.one_of(st.sampled_from(sorted(cli._COMMANDS)), st.sampled_from(_WORDS)),
       st.lists(st.sampled_from(_WORDS), max_size=10))
def test_random_argv_parses_as_the_full_parser(first, rest):
    argv = [first, *rest]
    assert _run(cli.main, argv) == _run(_reference_main, argv)
