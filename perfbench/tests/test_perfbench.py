"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_gen_is_seeded(tmp_path):
    a = gen.generate("dense-frames", 5, tmp_path / "a", "tiny")
    b = gen.generate("dense-frames", 5, tmp_path / "b", "tiny")
    c = gen.generate("dense-frames", 6, tmp_path / "c", "tiny")
    assert a == b
    for name in ("gt.ndjson", "dets.ndjson", "features.tkt", "tcn.tkt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "dets.ndjson").read_bytes() != (tmp_path / "c" / "dets.ndjson").read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = _last_json(proc.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in WORKLOADS:
        rec = json.loads((run.WORK / "results" / f"{name}-tiny-s3-t{trace}.json").read_text())
        assert rec["failed_share"] == 0.0
        assert rec["environment"]["nproc"] >= 1 and len(rec["loadavg_end"]) == 3
        for m in wanted:
            got = last["metrics"][f"{name}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            if not trace and m["unit"] == "s":
                assert rec["metrics"][m["name"]]["n"] >= 1
                assert rec["metrics"][m["name"]]["value"] > 0.0
        if trace:
            assert rec["span_residual_s"] < 1e-9


def test_corrupted_reference_is_a_failed_op(tmp_path):
    work, _, _ = run.prepare("pool-clip", 4, "tiny")
    recorded = run.run_worker("pool-clip", 4, work, "tiny", ["--record"], 120.0)
    assert recorded["failures"] == []
    fps = recorded["fingerprints"]

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"4": fps}))
    res = run.run_worker("pool-clip", 4, work, "tiny", [], 120.0, good)
    assert res["failed"] == 0

    fps["filter_dets_s"]["filtered.ndjson"] = "0" * 20
    fps["pool_tcn_s"]["pool_tcn.tkt"]["aggregated"]["samples"][0] += 1.0
    fps["synth_s"]["synth"]["tracks"] += 1
    # The reference of a pool output with its two tracks swapped, keeping the
    # sampled elements: only the projections can tell the two apart.
    pooled = gen.read_tkt(work / "out" / "pool_maxpool.tkt")
    assert pooled["aggregated"].shape[0] == 2
    swapped = fps["pool_maxpool_s"]["pool_maxpool.tkt"]
    for key, arr in pooled.items():
        swapped[key]["proj"] = check._tensor_print(arr[::-1])["proj"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"4": fps}))
    res = run.run_worker("pool-clip", 4, work, "tiny", [], 120.0, bad)
    failed_ops = {f["op"] for f in res["failures"]}
    assert failed_ops == {"filter_dets_s", "pool_tcn_s", "pool_maxpool_s", "synth_s"}
    reasons = [r for f in res["failures"] if f["op"] == "pool_maxpool_s" for r in f["reasons"]]
    assert any("projections differ" in r for r in reasons)
    # Every run of an op is checked: once in the warm-up, then its repeats per cycle.
    runs = {name: 1 + res["cycles"] * r for name, r in res["repeats"].items()}
    assert res["attempted"] == sum(runs.values())
    assert res["failed"] == sum(runs[name] for name in failed_ops)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
