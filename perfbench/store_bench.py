"""The store benchmark's workloads: set-up, seeded operations and checks.

Every workload drives the real store in one process: ``LocalService``
runs the coordinator and one ``StorageDaemon`` per node over unshaped
localhost TCP, and its ``StoreClient`` is the only client.  Load comes
from one closed-loop generator: ``concurrency`` workers each send their
next request when the previous one returns.

A run is a fixed number of whole rounds, worked out from ``--seconds``
and a nominal round rate per workload (but never fewer than give
``MIN_GETS`` GET latencies), never a fixed duration: the store
keeps every RPC's span in memory, so a fixed duration would charge a
faster program more memory.

Inputs come from the seed alone.  Object sizes are drawn inside stripe
classes (an object of c stripes is longer than c - 1 stripes and at most
c), and each class gets a fixed share of the requests, so the amount of
work per request barely depends on the seed while sizes, contents, the
request order and the node-repair victims do.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.qos import LocalService
from repro.store import StorageDaemon, StoreError
from repro.store.messages import call
from repro.store.repair import stored_block_key

KiB, MiB = 1024, 1024 * 1024
N, K = 6, 3
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Separately timed segments of a foreground measured phase.
SEGMENTS = 5
#: How often the failure detector sweeps (seconds), on every workload.
SWEEP = 0.05
#: Stripe classes of the preloaded objects by popularity rank; with Zipf
#: ranks the median GET always falls in the 2-stripe class.
RANK_CLASSES = (2, 1, 3)
#: The daemon ``degraded-read`` stops.  Fixed, so which stripes of the hot
#: objects lose a data block, and need a reconstruction, is the same for
#: every seed.
DEGRADED_VICTIM = 0
#: GET latencies a run records at the least, so its tail has ten samples
#: beyond it and at least 30 below.
MIN_GETS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    racks: int
    per_rack: int
    block: int
    #: Heartbeat period and silence threshold: generous where no node is
    #: ever stopped, so a long encode never gets a healthy daemon declared
    #: dead; short where a stop must be noticed.
    heartbeat: float
    suspect_after: float
    concurrency: int
    #: Nominal rounds per second of ``--seconds``; fixes the round count.
    rounds_per_s: float
    #: GETs timed per round (see ``Run.build``).
    gets_per_round: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-mixed", 4, 3, 64 * KiB, 0.5, 5.0, 2, 5.0, 8),
        Workload("bulk-1m", 4, 3, 1 * MiB, 0.5, 5.0, 1, 1.25, 4),
        Workload("degraded-read", 3, 3, 64 * KiB, 0.25, 1.0, 2, 4.5, 8),
        Workload("node-repair", 4, 3, 256 * KiB, 0.15, 0.75, 1, 0.45, 12),
    )
}


@dataclass
class Obj:
    name: str
    size: int
    serial: int
    payload: bytes | None = None
    #: Set once the store acknowledged the PUT; a DELETE waits for it.
    stored: asyncio.Event = field(default_factory=asyncio.Event)
    live: bool = False

    def make(self, seed: int) -> bytes:
        """The object's bytes, from the benchmark's own seeded generator."""
        if self.payload is None:
            self.payload = np.random.default_rng([seed, self.serial]).bytes(self.size)
        return self.payload


def stripes_of(size: int, block: int) -> int:
    return max(1, -(-size // (N * block)))


def size_in_class(rng, stripes: int, block: int, lo: int, hi: int) -> int:
    """A seeded size of ``stripes`` stripes within ``[lo, hi]``, drawn from
    the top eighth of the class so padding, and with it the work per byte,
    barely depends on the seed."""
    cap = N * block
    a, b = max(lo, (stripes - 1) * cap + 1), min(hi, stripes * cap)
    if a > b:
        raise ValueError(f"no size of {stripes} stripes within [{lo}, {hi}]")
    return int(rng.integers(b - (b - a) // 8, b + 1))


def zipf_schedule(rng, objects: int, total: int) -> list[int]:
    """``total`` object ranks in Zipf (s = 1) proportion, in seeded order.

    Each rank gets its exact share, rounded by largest remainder, rather
    than a random draw: the mix of object sizes the GETs see is the same
    for every seed, only the order changes.
    """
    weights = 1.0 / np.arange(1, objects + 1)
    quota = weights / weights.sum() * total
    counts = np.floor(quota).astype(int)
    for rank in np.argsort(counts - quota)[: total - counts.sum()]:
        counts[rank] += 1
    picks = np.repeat(np.arange(objects), counts)
    rng.shuffle(picks)
    return [int(p) for p in picks]


def summary(values: list[float]) -> dict:
    """Median, and the tail: the highest percentile with ten samples beyond it."""
    data = sorted(values)
    out = {"count": len(data), "p50": statistics.median(data) if data else None}
    if len(data) >= 40:
        out["tail"] = data[len(data) - 11]
        out["tail_pct"] = 100.0 * (len(data) - 10) / len(data)
    return out


class Run:
    """One run of one workload: builds the inputs, drives, checks, reports."""

    def __init__(self, workload: Workload, seed: int, seconds: int, tracer=None) -> None:
        self.w = workload
        self.seed = seed
        self.rounds = max(
            -(-MIN_GETS // workload.gets_per_round), round(seconds * workload.rounds_per_s)
        )
        self.tracer = tracer
        self.errors: list[str] = []  # failed checks
        self.failures: list[str] = []  # failed operations
        self.attempted = 0
        self.samples: dict[str, list[float]] = {"get": [], "put": []}
        self.user_bytes = 0
        self.repair_s: list[float] = []
        #: Per segment (node-repair: per node repair) goodput and GET median.
        self.segments: list[dict] = []
        self.rebuilt_bytes = 0
        self.recorders: list = []
        #: Spans the program's recorders kept during traced repair windows.
        self.traced_spans_kept = 0
        self.svc: LocalService | None = None

    # -- inputs ---------------------------------------------------------------

    def build(self) -> None:
        """Make every object and the operation list from the seed."""
        w, rng = self.w, np.random.default_rng([self.seed, 0])
        serial = iter(range(1, 1 << 30))
        self.ops: list[tuple] = []
        self.churn: list[Obj] = []
        if w.name in ("small-mixed", "degraded-read"):
            lo, hi = 256 * KiB, 1 * MiB
            self.stable = [
                Obj(f"s{r}", size_in_class(rng, RANK_CLASSES[r % 3], w.block, lo, hi), next(serial))
                for r in range(24)
            ]
            per_round = w.gets_per_round
            picks = iter(zipf_schedule(rng, len(self.stable), per_round * self.rounds))
            if w.name == "degraded-read":
                for _ in range(self.rounds):
                    self.ops += [("get", self.stable[next(picks)]) for _ in range(per_round)]
            else:
                def churn_obj(j: int) -> Obj:
                    return Obj(f"c{j}", size_in_class(rng, 1 + j % 3, w.block, lo, hi), next(serial))

                self.churn = [churn_obj(j) for j in range(3)]
                fifo = list(self.churn)
                for r in range(self.rounds):
                    gets = [("get", self.stable[next(picks)]) for _ in range(per_round)]
                    new = churn_obj(3 + r)
                    fifo.append(new)
                    self.ops += gets[:4] + [("put", new)] + gets[4:] + [("delete", fifo.pop(0))]
        elif w.name == "bulk-1m":
            lo, hi = 8 * MiB, 24 * MiB
            classes = rng.permutation([2, 3, 3, 4])
            self.stable = [
                Obj(f"s{i}", size_in_class(rng, int(c), w.block, lo, hi), next(serial))
                for i, c in enumerate(classes)
            ]
            for r in range(self.rounds):
                new = Obj(f"n{r}", size_in_class(rng, 2 + r % 3, w.block, lo, hi), next(serial))
                self.ops += [("get", self.stable[i]) for i in rng.permutation(len(self.stable))]
                self.ops += [("put", new), ("delete", new)]
        else:  # node-repair
            cap = N * w.block
            self.stable = [
                Obj(f"s{i}", size_in_class(rng, 1 + i % 3, w.block, 1, 3 * cap), next(serial))
                for i in range(12)
            ]
            nodes = w.racks * w.per_rack
            order = [int(v) for v in rng.permutation(nodes)]
            self.ops = [("repair", order[r % nodes]) for r in range(self.rounds)]

    # -- cluster --------------------------------------------------------------

    def _note_daemon(self, node_id: int, daemon: StorageDaemon) -> None:
        self.recorders.append(daemon.rec)
        if self.tracer is not None:
            self.tracer.port_node[daemon.port] = node_id

    async def bring_up(self) -> LocalService:
        w = self.w
        svc = LocalService(
            racks=w.racks, per_rack=w.per_rack, n=N, k=K, scheme="rpr",
            block_size=w.block, suspect_after=w.suspect_after,
            sweep_interval=SWEEP, heartbeat=w.heartbeat,
        )
        await svc.__aenter__()
        self.recorders = [svc.client.rec, svc.coordinator.rec]
        for nid, daemon in svc.daemons.items():
            self._note_daemon(nid, daemon)
        return svc

    async def setup(self) -> float:
        """Bring a cluster up and preload it; returns the seconds it took."""
        for obj in self.stable + self.churn:
            obj.stored, obj.live = asyncio.Event(), False
        t0 = time.perf_counter()
        svc = await self.bring_up()
        for obj in self.stable + self.churn:
            await svc.client.put(obj.name, obj.make(self.seed))
            obj.stored.set()
            obj.live = True
        if self.w.name == "degraded-read":
            await self._stop_and_detect(svc, DEGRADED_VICTIM)
        elapsed = time.perf_counter() - t0
        self.svc = svc
        if self.w.name == "degraded-read":
            self._check_refused_repairs(svc)
        return elapsed

    async def teardown(self) -> None:
        if self.svc is not None:
            await self.svc.__aexit__(None, None, None)
            self.svc = None
        gc.collect()

    async def _stop_and_detect(self, svc: LocalService, victim: int) -> float:
        """Stop ``victim``; return when the coordinator has declared it dead
        and its reaction (repair or refusal) has finished.  Returns the
        seconds from the declaration to the end of that reaction."""
        coord = svc.coordinator
        declared = asyncio.Event()
        at = [0.0]
        original = coord.on_nodes_dead

        def on_nodes_dead(node_ids):
            node_ids = list(node_ids)
            if victim in node_ids:
                at[0] = time.perf_counter()
            affected = original(node_ids)
            if victim in node_ids:
                declared.set()
            return affected

        coord.on_nodes_dead = on_nodes_dead
        try:
            await svc.kill(victim)
            await asyncio.wait_for(declared.wait(), 10 * self.w.suspect_after + 5)
            # The repair wave on_nodes_dead just scheduled; awaiting it
            # directly keeps the status RPC out of the measured window.
            await asyncio.wait_for(asyncio.gather(*list(coord._repair_tasks)), 120)
        finally:
            del coord.on_nodes_dead
        return time.perf_counter() - at[0]

    def _check_refused_repairs(self, svc: LocalService) -> None:
        coord = svc.coordinator
        degraded = {sid for sid, meta in coord.stripes.items() if meta.missing}
        refused = {e["sid"] for e in coord.repair_errors if e["fatal"]}
        if not degraded or refused != degraded:
            self.errors.append(
                f"expected every degraded stripe's repair refused as fatal: "
                f"degraded={sorted(degraded)} refused={sorted(refused)}"
            )
        # Plan reconstructions each GET must report: one per stripe whose
        # lost block is a data block.
        self.expected_plans = {}
        for obj in self.stable:
            sids = coord.objects[obj.name]["stripe_ids"]
            self.expected_plans[obj.name] = sorted(
                (sid, bid)
                for sid in sids
                for bid, node in coord.stripes[sid].placement.block_to_node.items()
                if node == DEGRADED_VICTIM and bid < N
            )

    # -- measured phase -------------------------------------------------------

    def _op(self, kind: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.op(kind)

    async def _foreground(self, op: tuple) -> None:
        kind, obj = op
        client = self.svc.client
        self.attempted += 1
        degraded = self.w.name == "degraded-read"
        try:
            if kind == "get":
                with self._op("get"):
                    t0 = time.perf_counter()
                    data, report = await client.get_with_report(obj.name, degraded=degraded)
                    latency = time.perf_counter() - t0
                self._check_get(obj, data, report if degraded else None)
                nbytes = obj.size
            elif kind == "put":
                payload = obj.make(self.seed)
                with self._op("put"):
                    t0 = time.perf_counter()
                    await client.put(obj.name, payload)
                    latency = time.perf_counter() - t0
                obj.stored.set()
                obj.live = True
                nbytes = obj.size
            else:
                await obj.stored.wait()  # delete only what the store acknowledged
                with self._op("delete"):
                    t0 = time.perf_counter()
                    await client.delete(obj.name)
                    latency = time.perf_counter() - t0
                obj.payload, obj.live = None, False
                nbytes = 0
        except (StoreError, ConnectionError, OSError) as exc:
            self.failures.append(f"{kind} {obj.name}: {type(exc).__name__}: {exc}")
            obj.stored.set()  # a DELETE waiting on a failed PUT must not hang
            return
        if kind != "delete":
            self.samples[kind].append(latency)
        self.user_bytes += nbytes

    def _check_get(self, obj: Obj, data: bytes, report: dict | None) -> None:
        if data != obj.payload:
            self.errors.append(f"GET {obj.name} returned bytes that differ from the payload written")
        if report is not None:
            got = sorted((e["sid"], e["block"]) for e in report["reconstructed"] if e["mode"] == "plan")
            modes = {e["mode"] for e in report["reconstructed"]}
            if got != self.expected_plans[obj.name] or modes - {"plan"}:
                self.errors.append(
                    f"degraded GET {obj.name} reconstructed {report['reconstructed']}, "
                    f"expected one plan per lost data block {self.expected_plans[obj.name]}"
                )

    async def measure(self) -> float:
        """Run every round; returns the seconds the measured window lasted.

        The rounds run in :data:`SEGMENTS` consecutive segments, each timed
        on its own, so a slow spell of the machine moves one segment's
        figures rather than the medians taken over segments.
        """
        if self.w.name == "node-repair":
            return await self._repair_cycles()
        per_round = len(self.ops) // self.rounds
        cuts = [round(i * self.rounds / SEGMENTS) * per_round for i in range(SEGMENTS + 1)]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if a == b:
                continue
            ops, bytes0, gets0 = iter(self.ops[a:b]), self.user_bytes, len(self.samples["get"])

            async def worker() -> None:
                for op in ops:
                    await self._foreground(op)

            t0 = time.perf_counter()
            await asyncio.gather(*(worker() for _ in range(self.w.concurrency)))
            elapsed = time.perf_counter() - t0
            total += elapsed
            self._segment((self.user_bytes - bytes0) / elapsed, self.samples["get"][gets0:])
        return total

    def _segment(self, bytes_per_s: float, gets: list[float]) -> None:
        self.segments.append({
            "goodput_MiBps": bytes_per_s / MiB,
            "get_p50_ms": statistics.median(gets) * 1e3 if gets else None,
        })

    async def _repair_cycles(self) -> float:
        """Stop, detect, rebuild, restart — once per round; returns the
        summed repair windows (declaration to every stripe repaired)."""
        svc, coord = self.svc, self.svc.coordinator
        for _, victim in self.ops:
            self.attempted += 1
            held = len(svc.daemons[victim].blocks)
            records_before = len(coord.repairs)
            spans_before = self.spans_kept()
            if self.tracer is not None:
                self.tracer.start()
            try:
                repair_s = await self._stop_and_detect(svc, victim)
            except asyncio.TimeoutError:
                self.failures.append(f"repair of node {victim} did not finish")
                return sum(self.repair_s)
            finally:
                if self.tracer is not None:
                    self.tracer.stop()
            self.traced_spans_kept += self.spans_kept() - spans_before
            self.repair_s.append(repair_s)
            records = coord.repairs[records_before:]
            self._check_repair(victim, held, records)
            self.rebuilt_bytes += held * self.w.block
            daemon = StorageDaemon(
                victim, ("127.0.0.1", coord.port), heartbeat_interval=self.w.heartbeat
            )
            await daemon.start()
            svc.daemons[victim] = daemon
            self._note_daemon(victim, daemon)
            deadline = time.perf_counter() + 10
            while not ((e := coord.detector.entry(victim)) and e.alive and e.port == daemon.port):
                if time.perf_counter() > deadline:
                    self.failures.append(f"restarted node {victim} never registered")
                    return sum(self.repair_s)
                await asyncio.sleep(0.01)
            await self._check_parity(svc)
            gets0 = len(self.samples["get"])
            for obj in self.stable:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    data = await svc.client.get(obj.name)
                except (StoreError, ConnectionError, OSError) as exc:
                    self.failures.append(f"get {obj.name}: {type(exc).__name__}: {exc}")
                    continue
                self.samples["get"].append(time.perf_counter() - t0)
                self._check_get(obj, data, None)
            self._segment(held * self.w.block / repair_s, self.samples["get"][gets0:])
        return sum(self.repair_s)

    def _check_repair(self, victim: int, held: int, records: list[dict]) -> None:
        coord = self.svc.coordinator
        rebuilt = sum(len(r["failed_blocks"]) for r in records)
        if rebuilt != held:
            self.errors.append(f"node {victim} held {held} blocks, {rebuilt} were rebuilt")
        for r in records:
            measured = r["measured"]["cross_rack_bytes"]
            if measured != r["simulated"]["cross_rack_bytes"]:
                self.errors.append(
                    f"repair {r['rid']}: {measured} cross-rack bytes measured, "
                    f"{r['simulated']['cross_rack_bytes']} simulated"
                )
        left = sorted(sid for sid, meta in coord.stripes.items() if meta.missing)
        if left or coord.repair_errors:
            self.errors.append(f"after node {victim}: degraded {left}, errors {coord.repair_errors}")

    async def _check_parity(self, svc: LocalService) -> None:
        """P0 must equal the XOR of each stripe's data blocks (paper eq. (2))."""
        for obj in self.stable:
            info, _ = await call("127.0.0.1", svc.coordinator.port, "object.lookup", {"name": obj.name})
            for spec in info["stripes"]:
                sid = int(spec["sid"])
                acc = np.zeros(self.w.block, dtype=np.uint8)
                for bid in range(N + 1):
                    host, port = info["routing"][str(spec["placement"][str(bid)])]
                    _, blob = await call(host, port, "block.get", {"key": stored_block_key(sid, bid)})
                    block = np.frombuffer(blob, dtype=np.uint8)
                    if bid < N:
                        acc ^= block
                    elif not np.array_equal(acc, block):
                        self.errors.append(f"stripe {sid}: P0 is not the XOR of its data blocks")

    # -- end-of-run figures ----------------------------------------------------

    def spans_kept(self) -> int:
        return sum(len(rec.trace().spans) for rec in self.recorders)

    async def stored_ratio(self) -> float:
        """Bytes held by live daemons over bytes of live objects, checked
        against the figure worked out from object sizes, n, k and block size."""
        svc, w = self.svc, self.w
        held = 0
        for daemon in svc.daemons.values():
            snap, _ = await call("127.0.0.1", daemon.port, "stats")
            held += int(snap["blocks"]) * w.block
        put = [obj for kind, obj in self.ops if kind == "put"]
        live = [o for o in self.stable + self.churn + put if o.live]
        width = N + K - (1 if w.name == "degraded-read" else 0)
        expected = sum(stripes_of(o.size, w.block) * width * w.block for o in live)
        if held != expected:
            self.errors.append(f"daemons hold {held} bytes, object sizes give {expected}")
        return held / sum(o.size for o in live)


def peak_rss_mib() -> float:
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / MiB
