"""Output checker: fingerprints each op's outputs and compares them.

A fingerprint is what the checker keeps of one op's outputs:

- eval reports and other stdout: a digest of every number printed, so the
  reports must agree in every number at their six printed decimals;
- NDJSON and JSON outputs: a digest of the file bytes;
- ``.tkt`` outputs: the shape of each tensor, a fixed set of sampled
  elements, its sum and its dot products with ``PROJECTIONS`` Gaussian weight
  vectors drawn from a fixed seed, compared within ``RTOL``/``ATOL`` and
  ``PROJ_TOL`` (float32 results may move in their last bits when summation
  order changes). Random weights make the projections change when values
  move between positions, for example two tracks or two frames swapped;
- ``synth``: its own guarantees instead of bytes (every oracle motion value
  within 0.02 of its target; tube, frame and track counts consistent).

References are fingerprints recorded at one commit for a given seed. A seed
without references is checked against invariants only.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from gen import read_tkt

RTOL = 1e-4
ATOL = 1e-5
PROJ_TOL = 1e-5       # share of sum(|x|) a projection may move
MOTION_TOL = 0.02     # synth's guarantee on each planted tube's motion value
SAMPLES = 8
PROJECTIONS = 4
PROJ_SEED = 20220906  # the weights are redrawn from this seed at recording and at checking

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _stdout_digest(stdout: str) -> str:
    return _digest(" ".join(_NUMBER.findall(stdout)).encode())


def _tensor_print(arr: np.ndarray) -> dict:
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    idx = np.linspace(0, flat.size - 1, SAMPLES).astype(int) if flat.size else []
    weights = np.random.default_rng(PROJ_SEED).standard_normal((PROJECTIONS, flat.size))
    return {
        "shape": list(arr.shape),
        "samples": [float(flat[i]) for i in idx],
        "proj": [float(flat.sum()), *(float(v) for v in weights @ flat)],
        "abs": float(np.abs(flat).sum()),
    }


def fingerprint(op, stdout: str, out_dir: Path) -> dict:
    """What the checker keeps of one op's outputs."""
    if op.kind == "synth":
        return {"synth": _synth_counts(stdout, out_dir / op.outputs[0])}
    fp = {"stdout": _stdout_digest(stdout)}
    for name in op.outputs:
        path = out_dir / name
        if name.endswith(".tkt"):
            fp[name] = {k: _tensor_print(v) for k, v in read_tkt(path).items()}
        else:
            fp[name] = _digest(path.read_bytes())
    return fp


def _synth_counts(stdout: str, folder: Path) -> dict:
    m = re.search(r"wrote (\d+) tubes, (\d+) frames, (\d+) tracks", stdout)
    if m is None:
        raise ValueError("synth printed no summary line")
    oracle = json.loads((folder / "oracle.json").read_text(encoding="utf-8"))
    errors = [abs(t["motion_iou"] - t["target"]) for t in oracle["tubes"]]
    return {
        "tubes": int(m.group(1)),
        "frames": int(m.group(2)),
        "tracks": int(m.group(3)),
        "gt_records": _records(folder / "gt.ndjson"),
        "det_records": _records(folder / "detections.ndjson"),
        "track_records": _records(folder / "tracks.ndjson"),
        "oracle_tubes": len(errors),
        "max_motion_error": max(errors) if errors else 0.0,
    }


def _records(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


# ---------------------------------------------------------------------------
# comparison


def problems(op, fp: dict, ref: dict | None, ctx: dict) -> list:
    """Reasons the op's outputs are wrong; empty when they are correct."""
    found = _invariants(op, fp, ctx)
    if ref is None:
        return found
    if op.kind == "synth":
        for key in ("tubes", "frames", "tracks"):
            if fp["synth"][key] != ref["synth"][key]:
                found.append(f"synth {key} {fp['synth'][key]} != reference {ref['synth'][key]}")
        return found
    for key, want in ref.items():
        got = fp.get(key)
        if isinstance(want, dict):
            found.extend(_tensor_problems(key, got, want))
        elif got != want:
            found.append(f"{key} differs from the reference")
    return found


def _tensor_problems(name: str, got: dict | None, want: dict) -> list:
    if got is None or set(got) != set(want):
        return [f"{name}: tensors {sorted(got or {})} != {sorted(want)}"]
    out = []
    for key, w in want.items():
        g = got[key]
        if g["shape"] != w["shape"]:
            out.append(f"{name}:{key} shape {g['shape']} != {w['shape']}")
            continue
        a, b = np.array(g["samples"]), np.array(w["samples"])
        if not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            out.append(f"{name}:{key} sampled elements differ (max {np.abs(a - b).max():.3g})")
        tol = PROJ_TOL * max(w["abs"], 1.0)
        if np.abs(np.array(g["proj"]) - np.array(w["proj"])).max() > tol:
            out.append(f"{name}:{key} projections differ beyond {tol:.3g}")
    return out


def _invariants(op, fp: dict, ctx: dict) -> list:
    """Checks that hold for any seed: value ranges, counts and shapes."""
    stdout = ctx["stdout"]
    out = []
    if op.kind in ("eval", "sweep"):
        last = json.loads(stdout.strip().splitlines()[-1])
        maps = [r["map"] for r in last.get("per_threshold", [])]
        maps += [last.get("map"), last.get("mean_map")]
        for m in maps:
            if m is not None and not 0.0 <= m <= 1.0:
                out.append(f"mAP {m} outside [0, 1]")
    elif op.kind == "filter":
        m = re.search(r"kept (\d+) of (\d+)", stdout)
        if m is None or int(m.group(1)) > int(m.group(2)):
            out.append(f"bad filter summary: {stdout.strip()[:80]}")
        elif int(m.group(2)) != ctx["sizes"]["detections"]:
            out.append(f"filter saw {m.group(2)} detections, inputs hold {ctx['sizes']['detections']}")
    elif op.kind == "tubes":
        m = re.search(r"wrote (\d+) tubes", stdout)
        written = _records(ctx["out_dir"] / op.outputs[0])
        if m is None or int(m.group(1)) != written:
            out.append(f"tube count in stdout does not match the {written} records written")
    elif op.kind == "label":
        if json.loads(stdout)["tubes"] != ctx["sizes"]["gt_tubes"]:
            out.append("label-motion did not label every ground-truth tube")
    elif op.kind == "pool":
        n, (t, c) = ctx["sizes"]["clip_tracks"], ctx["sizes"]["clip_shape"][:2]
        shapes = {k: v["shape"] for k, v in fp[op.outputs[0]].items()}
        if shapes != {"track_features": [n, t, c], "aggregated": [n, c]}:
            out.append(f"pooled tensor shapes {shapes}")
    elif op.kind == "synth":
        s, spec = fp["synth"], ctx["sizes"]["synth_spec"]
        tubes = spec["num_videos"] * spec["tubes_per_video"]
        if not s["tubes"] == s["gt_records"] == s["oracle_tubes"] == tubes:
            out.append(f"synth tube counts {s} do not match the {tubes} planted")
        if not s["frames"] == s["det_records"] == spec["num_videos"] * spec["frames_per_video"]:
            out.append("synth frame count does not match the spec")
        if not s["tracks"] == s["track_records"] >= tubes:
            out.append("synth track count inconsistent")
        if s["max_motion_error"] > MOTION_TOL:
            out.append(f"oracle motion error {s['max_motion_error']:.4f} > {MOTION_TOL}")
    return out
