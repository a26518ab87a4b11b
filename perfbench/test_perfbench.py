"""The benchmark's own tests: its output checks must catch a broken store.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import Span, Tracer, cross_rack_by_rid, self_times  # noqa: E402
from store_bench import N, WORKLOADS, Run  # noqa: E402
from repro.store.repair import stored_block_key  # noqa: E402


def flip_byte(run: Run, sid: int, bid: int) -> None:
    """Corrupt one byte of one stored block, as a rotten disk would."""
    node = run.svc.coordinator.stripes[sid].placement.node_of(bid)
    blocks = run.svc.daemons[node].blocks
    key = stored_block_key(sid, bid)
    rotten = blocks[key].copy()
    rotten[len(rotten) // 2] ^= 0x01
    blocks[key] = rotten


def first_stripe(run: Run, name: str) -> int:
    return run.svc.coordinator.objects[name]["stripe_ids"][0]


async def small_run(workload: str, corrupt=None) -> Run:
    run = Run(WORKLOADS[workload], seed=7, seconds=1)
    run.build()
    await run.setup()
    try:
        if corrupt is not None:
            await corrupt(run)
        if workload != "node-repair":
            await run.measure()
        await run.stored_ratio()
    finally:
        await run.teardown()
    return run


def test_clean_run_passes_every_check():
    run = asyncio.run(small_run("small-mixed"))
    assert run.attempted > 0 and not run.failures and not run.errors


def test_flipped_data_byte_fails_the_get_check():
    async def corrupt(run):
        # Every round GETs from the Zipf head, so rotting each stable
        # object's first data block is sure to be read.
        for obj in run.stable:
            flip_byte(run, first_stripe(run, obj.name), 0)

    run = asyncio.run(small_run("small-mixed", corrupt))
    assert any("differ from the payload" in e for e in run.errors)


def test_flipped_parity_byte_fails_the_xor_check():
    async def corrupt(run):
        sid = first_stripe(run, run.stable[0].name)
        flip_byte(run, sid, N)  # P0
        await run._check_parity(run.svc)

    run = asyncio.run(small_run("node-repair", corrupt))
    assert any("P0 is not the XOR" in e for e in run.errors)


def test_leaked_block_fails_the_stored_bytes_check():
    async def corrupt(run):
        daemon = next(iter(run.svc.daemons.values()))
        daemon.blocks["b:999999:0"] = np.zeros(run.w.block, dtype=np.uint8)

    run = asyncio.run(small_run("degraded-read", corrupt))
    assert any("daemons hold" in e for e in run.errors)


def test_self_times_sum_to_the_operation():
    spans = [
        Span(1, None, 1, "op", "get", 0.0, 10.0),
        Span(2, 1, 1, "client", "get", 1.0, 9.0),
        Span(3, 2, 1, "rpc", "rpc:a", 2.0, 6.0),
        Span(4, 2, 1, "rpc", "rpc:b", 4.0, 8.0),
        Span(5, 3, 1, "wire", "connect", 2.0, 3.0),
    ]
    got = self_times(spans)
    assert abs(sum(got.values()) - 10.0) < 1e-9
    assert got["op"] == 2.0 and got["client"] == 2.0 and got["wire"] == 1.0
    assert abs(got["rpc"] - 5.0) < 1e-9


def test_cross_rack_bytes_use_the_receiver_at_call_time():
    class Racks:  # nodes 0-2 on rack 0, 3-5 on rack 1
        def same_rack(self, a, b):
            return a // 3 == b // 3

    tracer = Tracer()
    send = {"mtype": "repair.block", "rid": "r1", "src_node": 0, "port": 5000, "req_bytes": 100}
    tracer.spans = [
        Span(1, None, None, "rpc", "rpc:repair.block", 0.0, 1.0, attrs={**send, "dst_node": 4}),
        Span(2, None, None, "rpc", "rpc:repair.block", 1.0, 2.0, attrs={**send, "dst_node": 1}),
    ]
    # A daemon restarted later bound the same port on another rack.
    tracer.port_node[5000] = 1
    assert cross_rack_by_rid(tracer, Racks()) == {"r1": 100}
