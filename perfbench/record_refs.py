"""Record reference fingerprints of every op's outputs for a range of seeds.

    python3 perfbench/record_refs.py --seeds 0-31 [--workload NAME]

Runs one cycle of every workload per seed (full size) and writes
perfbench/refs/<workload>.json, keyed by seed. The benchmark then checks each
op of a run with that seed against these fingerprints; seeds without an entry
are checked against invariants only. Recording refuses to write a seed whose
outputs already break an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="a seed or an inclusive range, e.g. 0-31")
    ap.add_argument("--workload", default="all")
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    for name in names if args.workload == "all" else [args.workload]:
        path = run.HERE / "refs" / f"{name}.json"
        refs = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in _seeds(args.seeds):
            work, _, _ = run.prepare(name, seed, "full")
            res = run.run_worker(name, seed, work, "full", ["--record"], 600.0)
            if res["failures"]:
                print(f"{name} seed {seed}: {res['failures']}", file=sys.stderr)
                return 1
            refs[str(seed)] = res["fingerprints"]
            print(f"{name} seed {seed}: {len(res['fingerprints'])} ops recorded", flush=True)
        path.parent.mkdir(exist_ok=True)
        ordered = {k: refs[k] for k in sorted(refs, key=int)}
        path.write_text(json.dumps(ordered, sort_keys=True, separators=(",", ":"), indent=0) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
