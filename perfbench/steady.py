"""Steadiness of the store benchmark: repeat whole sets of runs.

    python3 perfbench/steady.py --sets 2 --seeds 1-10
    python3 perfbench/steady.py --trace-twice --seeds 1 --seconds 4

Each set runs every workload once per seed, each run in its own process,
and alternates the order of the workloads from one seed to the next, so
a slow spell of the machine does not always land on the same workload.
For each set it prints every end-to-end metric's median, quartiles and
quartile spread (Q3 - Q1 over the median); with two or more sets it also
prints how far each later set's median moved from the first, in the
metric's worse direction.  Those between-set moves, not the spread within
one run, are what the bounds in ``BENCHMARK.json`` are set from.

``--trace-twice`` instead makes two traced runs of each workload with the
same seed and checks that the per-layer counts that must repeat exactly
(``layers.exact_counts``) do.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: checks failed\n{proc.stderr}")
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed or inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace-twice", action="store_true")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = args.seconds or config["run_seconds"]
    seeds = seeds_of(args.seeds)

    if args.trace_twice:
        sys.path.insert(0, str(HERE))
        sys.path.insert(0, str(ROOT / "src"))
        from layers import exact_counts

        exact = exact_counts(config["per_layer"])
        bad = 0
        for workload in workloads:
            for seed in seeds:
                a, b = (run_once(workload, seed, seconds, 1)["metrics"] for _ in range(2))
                differ = [m for m in exact if a[m]["value"] != b[m]["value"]]
                bad += len(differ)
                print(f"{workload} seed {seed}: {len(exact) - len(differ)}/{len(exact)} exact counts repeat"
                      + (f"; differ: {differ}" if differ else ""))
        return 1 if bad else 0

    bounds = {m["name"]: m for m in config["end_to_end"]}
    runs: dict[tuple[int, str], list[dict]] = {}
    for s in range(args.sets):
        for i, seed in enumerate(seeds):
            order = workloads if (s * len(seeds) + i) % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_once(workload, seed, seconds, 0)
                runs.setdefault((s, workload), []).append(result)
                print(f"set {s} seed {seed} {workload} ({result['wall_s']:.1f} s): " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for workload in workloads:
        print(f"\n{workload}")
        first = None
        for s in range(args.sets):
            results = runs[(s, workload)]
            share = {r["failed"] / r["attempted"] for r in results}
            row = {}
            for name, spec in bounds.items():
                stats = spread([r["metrics"][name]["value"] for r in results])
                row[name] = stats
                move = ""
                if first is not None:
                    change = stats["median"] / first[name]["median"] - 1
                    worse = change if spec["better"] == "lower" else -change
                    move = f"  worse-by {worse:+.3f} (bound {spec['bound']})"
                print(f"  set {s} {name:28s} median {stats['median']:.4g}  Q1 {stats['q1']:.4g}  "
                      f"Q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}{move}")
            print(f"  set {s} failed share {sorted(share)}")
            first = first or row
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
