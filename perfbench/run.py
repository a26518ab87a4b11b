"""Store benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the same inputs once untraced and
once traced and reports the per-layer metrics, the traced spans going to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

async def untraced(workload, seed: int, seconds: int):
    from store_bench import SETUPS, Run, peak_rss_mib, summary

    run = Run(workload, seed, seconds)
    run.build()
    setups = []
    for i in range(SETUPS):
        setups.append(await run.setup())
        if i < SETUPS - 1:
            await run.teardown()
    await run.measure()
    ratio = await run.stored_ratio()
    await run.teardown()
    gets, puts = summary(run.samples["get"]), summary(run.samples["put"])
    metrics = {
        "setup_s": statistics.median(setups),
        "goodput_MiBps": statistics.median(seg["goodput_MiBps"] for seg in run.segments),
        "get_p50_ms": statistics.median(seg["get_p50_ms"] for seg in run.segments),
        "get_tail_ms": gets["tail"] * 1e3,
        "peak_rss_MiB": peak_rss_mib(),
        "stored_bytes_per_user_byte": ratio,
    }
    lines = [f"get: {gets['count']} samples, tail is p{gets['tail_pct']:.1f}"]
    if puts["count"]:
        lines.append(f"put_p50_ms {puts['p50'] * 1e3:.3f} ms ({puts['count']} samples)")
        if "tail" in puts:
            lines.append(
                f"put_tail_ms {puts['tail'] * 1e3:.3f} ms (p{puts['tail_pct']:.1f} of {puts['count']})"
            )
    if run.repair_s:
        lines.append(
            f"repair_s {statistics.median(run.repair_s):.4f} s (median of {len(run.repair_s)} "
            f"node repairs, {run.rebuilt_bytes // workload.block} blocks rebuilt)"
        )
    return run, metrics, lines


async def traced(workload, seed: int, seconds: int):
    from layers import Tracer, UNACCOUNTED_TOLERANCE, layer_metrics, cross_rack_by_rid
    from store_bench import Run

    plain = Run(workload, seed, seconds)
    plain.build()
    await plain.setup()
    untraced_elapsed = await plain.measure()
    await plain.teardown()

    tracer = Tracer()
    tracer.install()
    try:
        run = Run(workload, seed, seconds, tracer)
        run.build()
        await run.setup()
        if workload.name == "node-repair":
            elapsed = await run.measure()  # traces each repair window itself
            spans_kept = run.traced_spans_kept
        else:
            before = run.spans_kept()
            tracer.start()
            elapsed = await run.measure()
            tracer.stop()
            spans_kept = run.spans_kept() - before
        cluster = run.svc.coordinator.cluster
        records = list(run.svc.coordinator.repairs)
        await run.stored_ratio()
        await run.teardown()
    finally:
        tracer.stop()
        tracer.uninstall()
    metrics = layer_metrics(
        tracer, elapsed=elapsed, untraced_elapsed=untraced_elapsed,
        spans_kept=spans_kept, cluster=cluster,
    )
    traced_cross = cross_rack_by_rid(tracer, cluster)
    for record in records:
        want = record["simulated"]["cross_rack_bytes"]
        if traced_cross.get(record["rid"], 0) != want:
            run.errors.append(
                f"repair {record['rid']}: traced sends crossed racks with "
                f"{traced_cross.get(record['rid'], 0)} bytes, simulate_repair predicts {want}"
            )
    if metrics["trace.unaccounted_share"] > UNACCOUNTED_TOLERANCE:
        run.errors.append(
            f"layer self times leave {metrics['trace.unaccounted_share']:.2%} of the traced "
            f"time unaccounted (tolerance {UNACCOUNTED_TOLERANCE:.0%})"
        )
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}-seed{seed}.jsonl")
    run.attempted += plain.attempted
    run.failures += plain.failures
    run.errors += plain.errors
    lines = [f"tracing overhead: traced/untraced measured time = {metrics['trace.overhead_ratio']:.3f}"]
    return run, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The metric names and units are defined once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    if not (ROOT / "src" / "repro" / "store").is_dir():
        print(f"no store sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    from store_bench import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        run, metrics, lines = asyncio.run(traced(workload, args.seed, seconds))
        listed = spec["per_layer"]
    else:
        run, metrics, lines = asyncio.run(untraced(workload, args.seed, seconds))
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        print(f"metrics computed {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 2
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for line in lines:
        print(line)
    print(f"attempted {run.attempted} failed {len(run.failures)}")
    for problem in run.failures[:5] + run.errors[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
