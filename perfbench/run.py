"""tubekit benchmark: per-command CLI latency on seeded workloads.

    python3 perfbench/run.py --workload dense-frames --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. For each workload this generates the inputs
from the seed (perfbench/gen.py, no tubekit code involved), then runs every
tubekit command in a closed loop in a separate worker process
(perfbench/worker.py), checks every output and times set-up in fresh
interpreters between cycles. Times are reported at the reference host speed:
see host_factor in perfbench/worker.py.

It prints a human-readable report and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones from a traced run. A full record of the run, with the
environment, input sizes, sample counts and failures, is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# A run must end within 180 s; the worker gets what input generation leaves.
RUN_LIMIT_S = 175.0


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return f"p{p}", ordered[min(n - 1, int(np.ceil(p / 100.0 * n)) - 1)]
    return "max", ordered[-1]


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tubekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def prepare(name: str, seed: int, scale: str) -> tuple:
    """Generate a workload's inputs into a fresh work folder.

    Returns the folder, the input sizes and the seconds generation took.
    """
    work = WORK / f"{name}-{scale}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    sizes = gen.generate(name, seed, work / "in", scale)
    gen_s = time.perf_counter() - t0
    (work / "in" / "sizes.json").write_text(json.dumps(sizes), encoding="utf-8")
    return work, sizes, gen_s


def run_worker(name: str, seed: int, work: Path, scale: str, extra: list, timeout: float,
               refs: Path | None = None) -> dict:
    """Run perfbench/worker.py on prepared inputs and return its result record."""
    result_file = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--work", str(work), "--jobs", str(gen.workload_params(name, scale)["jobs"]),
           "--result", str(result_file), *extra]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    # Only --jobs may start threads: numeric libraries stay single-threaded.
    # A fixed hash seed makes set and dict layouts, and their timings, repeat.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("TUBEKIT_JOBS", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-600:]}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str,
                 spec: dict, started: float) -> dict:
    load_start = os.getloadavg()
    work, sizes, gen_s = prepare(name, seed, scale)
    res = run_worker(name, seed, work, scale,
                     ["--seconds", str(seconds), "--trace", str(int(traced))],
                     RUN_LIMIT_S - (time.perf_counter() - started),
                     HERE / "refs" / f"{name}.json" if scale == "full" else None)

    metrics = {}
    if traced:
        for m in spec["per_layer"]:
            layer = res["layers"][m["name"]]
            metrics[m["name"]] = {"value": layer["value"], "unit": m["unit"],
                                  "source": layer["source"]}
    else:
        factors = res["host_factors"]
        metrics["setup_s"] = _summary(res["setup"], factors["setup_s"], "s")
        for m in spec["end_to_end"]:
            if m["name"] in res["times"]:
                metrics[m["name"]] = _summary(res["times"][m["name"]], factors[m["name"]], m["unit"])
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB", "n": 1,
                                  "set_by": res["peak_rss_set_by"]}
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(traced),
        "seconds": seconds,
        "sizes": sizes,
        "generate_s": gen_s,
        "cycles": res["cycles"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "metrics": metrics,
        "span_residual_s": res.get("span_residual_s"),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def _summary(walls: list, factors: list, unit: str) -> dict:
    """Times of one op (or of set-up) over a run.

    Each wall time is divided by its host factor (worker.host_factor), which
    gives the time at the reference host speed; the gated value is the median
    of those. The median wall time and host factor are kept to show the
    correction.
    """
    values = [w / f for w, f in zip(walls, factors)]
    label, value = tail(values)
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail": label, "tail_value": value, "wall_median": statistics.median(walls),
            "host_factor_median": statistics.median(factors)}


def print_report(rec: dict, env: dict) -> None:
    s = rec["sizes"]
    print(f"== {rec['workload']} seed {rec['seed']} ({rec['scale']}, trace {rec['trace']}, "
          f"{rec['cycles']} cycles in {rec['seconds']:g} s)")
    print(f"   env: rev {env['git_revision'][:12]} src {env['source_sha256']} nproc {env['nproc']} "
          f"python {env['python']} numpy {env['numpy']}")
    print(f"   load average {rec['loadavg_start'][0]:.2f} -> {rec['loadavg_end'][0]:.2f}")
    print(f"   inputs: {s['videos']} videos, {s['frames']} frames, {s['detections']} detections, "
          f"{s['gt_tubes']} GT tubes, {s['candidate_tubes']} candidate tubes, {s['tracks']} tracks, "
          f"{s['score_columns']} score columns, clip {tuple(s['clip_shape'])} x {s['clip_tracks']} "
          f"tracks, {s['input_bytes'] / 1e6:.1f} MB (generated in {rec['generate_s']:.2f} s)")
    for name, m in rec["metrics"].items():
        if "tail" in m:
            extra = (f"median  {m['tail']} {m['tail_value']:.4f}  n={m['n']}  (wall median "
                     f"{m['wall_median']:.4f} at host factor {m['host_factor_median']:.2f})")
        elif "set_by" in m:
            extra = f"reached in {m['set_by']}"
        else:
            extra = f"({m['source']})"
        print(f"   {name:26s} {m['value']:12.4f} {m['unit']:6s}  {extra}")
    if rec["span_residual_s"] is not None:
        print(f"   child spans + cli self time vs op duration: max residual "
              f"{rec['span_residual_s']:.2e} s")
    print(f"   {'failed_share':26s} {rec['failed_share']:12.4f} ratio   "
          f"{rec['failed']} of {rec['attempted']} ops")
    for f in rec["failures"]:
        print(f"   FAILED {f['op']}: {'; '.join(f['reasons'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tubekit benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks the inputs for quick self-tests")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "tubekit" / "__init__.py").is_file():
        print(f"error: no tubekit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload '{args.workload}' (expected one of {names} or all)",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment()
    records = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            rec = run_workload(name, args.seed, seconds, bool(args.trace), args.scale, spec,
                               time.perf_counter() if args.workload == "all" else started)
            rec["environment"] = env
            print_report(rec, env)
            records.append(rec)
            out = WORK / "results" / f"{name}-{args.scale}-s{args.seed}-t{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v["value"], "unit": v["unit"]}
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
