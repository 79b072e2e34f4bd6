"""Runs one workload's ops in a closed loop inside this process.

Started by run.py as its own process, so that its peak resident memory is
that of the ops alone and not of the input generator. Each op is one tubekit
CLI command run through ``tubekit.cli.main(argv)`` with stdout captured; ops
run back to back, one client, and only ``--jobs 2`` starts threads.

The first cycle (one op of each command) is a warm-up: it is checked and
counted as attempted, but not timed. Timed cycles follow until the run's
seconds are used up; in them quick commands run several times, and a
host-speed probe runs between consecutive commands. With tracing on,
untraced and traced cycles alternate; end-to-end times always come from the
untraced ones.

Usage (normally through run.py):
    python3 perfbench/worker.py --workload NAME --seed N --work DIR
        --seconds S --trace 0|1 --result FILE [--refs FILE] [--record]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 20
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); from tubekit.cli import main; main(['--help'])"


@dataclass(frozen=True)
class Op:
    name: str           # end-to-end metric this op is timed under
    kind: str           # what the checker expects of its outputs
    argv: tuple
    outputs: tuple      # files the op writes, relative to the output folder
    takes_jobs: bool


def op_table(inp: Path, out: Path, jobs: int) -> list:
    """Every workload runs every command, on its own inputs."""
    j = ("--jobs", str(jobs))
    ms = ("--dataset", "multisports")
    gt, dets, tracks = str(inp / "gt.ndjson"), str(inp / "dets.ndjson"), str(inp / "tracks.ndjson")
    tubes = str(inp / "tubes.ndjson")
    feats, clip = str(inp / "features.tkt"), str(inp / "clip_tracks.ndjson")

    def pool(tfa, weights):
        w = ("--weights", str(inp / weights)) if weights else ()
        return Op(f"pool_{tfa}_s", "pool",
                  ("pool-features", "--features", feats, "--tracks", clip, "--tfa", tfa, *w,
                   "--out", str(out / f"pool_{tfa}.tkt"), *j),
                  (f"pool_{tfa}.tkt",), True)

    return [
        Op("filter_dets_s", "filter",
           ("filter-dets", "--det", dets, "--tracks", tracks, "--out", str(out / "filtered.ndjson")),
           ("filtered.ndjson",), False),
        Op("build_tubes_s", "tubes",
           ("build-tubes", "--det", dets, "--out", str(out / "built.ndjson"), *j),
           ("built.ndjson",), True),
        Op("eval_frames_s", "eval",
           ("eval-frames", "--gt", gt, "--det", dets, *ms, "--motion", *j), (), True),
        Op("label_motion_s", "label",
           ("label-motion", "--gt", gt, *ms, "--out", str(out / "labels.json")),
           ("labels.json",), False),
        Op("eval_videos_s", "eval",
           ("eval-videos", "--gt", gt, "--tubes", tubes, *ms, "--motion", "--st-iou", "0.5", *j),
           (), True),
        Op("sweep_s", "sweep",
           ("eval-videos", "--gt", gt, "--tubes", tubes, "--sweep", "0.1:0.9:0.1", *j), (), True),
        Op("trim_tracks_s", "tubes",
           ("trim-tracks", "--tracks", tracks, "--scores", str(inp / "scores.ndjson"),
            "--out", str(out / "trimmed.ndjson"), *j),
           ("trimmed.ndjson",), True),
        Op("synth_s", "synth",
           ("synth", "--spec", str(inp / "synth.json"), "--out", str(out / "synth")),
           ("synth",), False),
        pool("maxpool", None),
        pool("tcn", "tcn.tkt"),
        pool("aspp", "aspp.tkt"),
    ]


def import_tubekit() -> dict:
    """Import tubekit from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "tubekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no tubekit sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("tubekit")
    if Path(pkg.__file__).resolve().parent != (src / "tubekit").resolve():
        raise SystemExit(f"error: imported tubekit from {pkg.__file__}, not {src}")
    names = ("cli", "datamodel", "motion", "metrics", "linking", "filtering", "synth", "geometry")
    return {n: importlib.import_module(f"tubekit.{n}") for n in names}


# A command that took less than MIN_BATCH_S in the warm-up runs back to back
# up to MAX_REPEATS times in each untraced cycle, every run one sample: quick
# commands get enough samples for a steady median while the cycle, and with
# it the sample count of the slow commands, grows little.
MIN_BATCH_S = 0.05
MAX_REPEATS = 8

# Host-speed probe. On a shared virtual machine the CPU's speed drifts by up
# to 2x for seconds to minutes, and pure-Python code slows more than numpy
# code that streams through memory. A fixed Python loop (box overlaps over
# tuples, like tubekit's per-pair code) and a fixed numpy pass over 12 MB are
# timed between consecutive ops; REF_PROBE_S is what each takes on the
# reference host (2-vCPU VM) when nothing contends for it.
REF_PROBE_S = (0.0040, 0.0020)
_PROBE_BOXES = [(float(x), float(y), float(x + w), float(y + h)) for x, y, w, h in
                np.random.default_rng(0).uniform((0, 0, 40, 40), (900, 900, 160, 160), (160, 4))]


def _python_probe() -> float:
    total = 0.0
    for a in _PROBE_BOXES[:40]:
        for b in _PROBE_BOXES:
            iw = min(a[2], b[2]) - max(a[0], b[0])
            ih = min(a[3], b[3]) - max(a[1], b[1])
            if iw > 0 and ih > 0:
                inter = iw * ih
                total += inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return total


@functools.cache
def _probe_array() -> np.ndarray:
    # Made on first use, after the warm-up has set peak_rss_mb.
    return np.random.default_rng(1).random(1_500_000)


def _numpy_probe() -> float:
    return float((_probe_array() * 1.5 + 2.0).sum())


def probe() -> tuple:
    """Best-of-two seconds of each probe."""
    best = []
    for fn in (_python_probe, _numpy_probe):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return tuple(best)


def host_factor(before: tuple, after: tuple) -> float:
    """How much slower than the reference host the probes around a sample ran.

    The geometric mean over both probes, taken before and after, of probe
    time over its reference time: a sample divided by it is the sample's time
    at the reference speed.
    """
    ratios = [t / ref for pair in (before, after) for t, ref in zip(pair, REF_PROBE_S)]
    return float(np.prod(ratios) ** (1.0 / len(ratios)))


def time_setup() -> float:
    """Seconds for a fresh interpreter to import tubekit and answer --help."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: tubekit --help failed: {proc.stderr.decode()[-300:]}")
    return elapsed


class Runner:
    def __init__(self, tk, sizes, refs, out_dir):
        self.tk, self.sizes, self.refs = tk, sizes, refs
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list = []
        self.fingerprints: dict = {}

    def run(self, op: Op, tracer=None) -> tuple:
        """Run one op; returns (wall seconds, process CPU seconds)."""
        for name in op.outputs:             # a missing write must not pass on stale files
            shutil.rmtree(self.out_dir / name, ignore_errors=True)
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        span = tracer.begin(f"cli.{op.argv[0]}", "cli", "op") if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.tk["cli"].main(list(op.argv))
        except (Exception, SystemExit):
            exc = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if span is not None:
            tracer.end(span)
        self.attempted += 1
        self._check(op, rc, exc, out.getvalue(), err.getvalue())
        return wall, cpu

    def _check(self, op, rc, exc, stdout, stderr) -> None:
        if exc is not None:
            reasons = [f"raised: {exc.strip().splitlines()[-1]}"]
        elif rc != 0:
            reasons = [f"exit {rc}: {stderr.strip()[:200]}"]
        else:
            try:
                fp = check.fingerprint(op, stdout, self.out_dir)
                ctx = {"stdout": stdout, "sizes": self.sizes, "out_dir": self.out_dir}
                reasons = check.problems(op, fp, None if self.refs is None else self.refs.get(op.name), ctx)
                self.fingerprints[op.name] = fp
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                reasons = [f"output unreadable: {type(e).__name__}: {e}"]
        if reasons:
            self.failures.append({"op": op.name, "reasons": reasons})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="folder holding in/ (inputs) and out/")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--refs", default=None, help="the workload's reference fingerprints by seed")
    ap.add_argument("--record", action="store_true",
                    help="run one cycle and write its fingerprints to --result")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    tk = import_tubekit()
    work = Path(args.work)
    inp, out = work / "in", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    sizes = json.loads((inp / "sizes.json").read_text(encoding="utf-8"))
    refs = None
    if args.refs and not args.record and Path(args.refs).is_file():
        refs = json.loads(Path(args.refs).read_text(encoding="utf-8")).get(str(args.seed))
    ops = op_table(inp, out, args.jobs)
    runner = Runner(tk, sizes, refs, out)

    start = time.perf_counter()
    # The warm-up cycle (checked, not timed) runs the workload's own commands
    # first: peak_rss_mb is the peak after them, not that of a command the
    # workload only carries along. Later cycles would add allocator
    # fragmentation that a user running one command never sees.
    own = gen.workload_params(args.workload)["commands"]
    rss_after = {}                                  # peak so far, after each warm-up op
    repeats = {}
    for op in sorted(ops, key=lambda op: op.name not in own):
        wall, _ = runner.run(op)
        rss_after[op.name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        repeats[op.name] = min(MAX_REPEATS, math.ceil(MIN_BATCH_S / wall))
    peak_rss_mb = max(rss_after[name] for name in own)
    if args.record:
        _write(args.result, {"fingerprints": runner.fingerprints, "failures": runner.failures})
        return 0

    times = {op.name: [] for op in ops}
    traced_times = {op.name: [] for op in ops}
    # Host factor of each untraced sample (see host_factor); set-up too.
    factors = {name: [] for name in [*times, "setup_s"]}
    # One set-up sample after each untraced cycle spreads them over the run
    # like the op samples; the first start only warms the file cache.
    setup = []
    if not args.trace:
        time_setup()
    jobs_cpu = jobs_wall = 0.0
    tracer = tracing.Tracer(tk) if args.trace else None
    cycle_spans: list = []
    cycle = 0
    while True:
        traced = bool(args.trace) and cycle % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.install()
        else:
            before = probe()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = i
                    traced_times[op.name].append(runner.run(op, tracer)[0])
                    continue
                walls = []
                for _ in range(repeats[op.name]):
                    wall, cpu = runner.run(op)
                    walls.append(wall)
                    if op.takes_jobs:
                        jobs_cpu += cpu
                        jobs_wall += wall
                after = probe()
                times[op.name] += walls
                factors[op.name] += [host_factor(before, after)] * len(walls)
                before = after
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            cycle_spans.append(tracer.spans[first:])
        elif not args.trace:
            setup.append(time_setup())
            factors["setup_s"].append(host_factor(before, probe()))
        cycle += 1
        enough = cycle >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_LISTED_FAILURES],
        "cycles": cycle,
        "repeats": repeats,
        "times": times,
        "setup": setup,
        "host_factors": factors,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_after_mb": rss_after,
        "peak_rss_set_by": next(n for n, v in rss_after.items() if v == peak_rss_mb),
    }
    if args.trace:
        result["traced_times"] = traced_times
        result["layers"] = _layers(tk, inp, sizes, cycle_spans, times, traced_times,
                                   jobs_cpu / max(jobs_wall, 1e-9))
        residual = 0.0
        for spans in cycle_spans:
            for dur, cov, self_s in tracing.op_self_times(spans).values():
                residual = max(residual, abs(cov + self_s - dur))
        result["span_residual_s"] = residual
        result["spans"] = sum(len(s) for s in cycle_spans)
    _write(args.result, result)
    return 0


def _layers(tk, inp, sizes, cycle_spans, times, traced_times, cpu_per_wall) -> dict:
    """Per-layer metrics: medians over traced cycles, plus replayed and computed values."""
    per_cycle = [tracing.cycle_layer_values(spans) for spans in cycle_spans]
    layers = {k: {"value": statistics.median(c[k] for c in per_cycle), "source": "measured"}
              for k in per_cycle[0]}
    replayed, overlap_s = tracing.replay(tk, inp, sizes, tracing.pass_counts(cycle_spans[0]))
    for k, v in replayed.items():
        layers[k] = {"value": v, "source": tracing.SOURCES[k]}
    eval_s = layers["metrics.eval_s"]["value"]
    layers["metrics.overlap_share"] = {"value": overlap_s / eval_s if eval_s else 0.0,
                                       "source": "replayed"}
    layers["parallel.cpu_per_wall"] = {"value": cpu_per_wall, "source": "measured"}
    untraced = sum(statistics.median(v) for v in times.values())
    traced = sum(statistics.median(v) for v in traced_times.values())
    layers["trace.overhead_share"] = {"value": traced / untraced - 1.0, "source": "measured"}
    return layers


def _write(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
