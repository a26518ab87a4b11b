"""Per-layer tracing for the store benchmark, recorded from outside ``src/``.

The program is left untouched: :class:`Tracer` wraps each layer's public
functions where the calling module looks them up (a module attribute, a
class attribute, or the keyword default a constructor bound at import
time) and records one span per call in memory.  A context variable
carries the enclosing span, so asyncio tasks spawned inside an operation
inherit it and every span knows which benchmark operation caused it.
Server-side handler tasks start from the server's own context and
therefore belong to no operation; they are seen from the caller's side
through the RPC round trip that contains them.

:func:`layer_metrics` turns the spans into the per-layer figures listed
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import inspect
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field

import repro.repair.executor as executor_mod
import repro.store.client as client_mod
import repro.store.coordinator as coordinator_mod
import repro.store.messages as messages_mod
import repro.store.repair as store_repair_mod
from repro.repair import RPRScheme
from repro.rs.code import RSCode
from repro.store.heartbeat import HeartbeatSender

#: RPC types reported one by one (``rpc.<type>.calls_per_op`` / ``.p50_ms``).
RPC_TYPES = (
    "status", "put.begin", "put.commit", "object.lookup", "object.delete",
    "block.put", "block.get", "block.stat", "block.delete",
    "repair.exec", "repair.block",
)


def exact_counts(per_layer: list[dict]) -> list[str]:
    """Per-layer metrics (as ``BENCHMARK.json`` lists them) that are ratios
    of counts and so repeat exactly for one seed.  ``rpc.bytes_per_op`` is
    not among them: replies carry timings and heartbeat ages."""
    return [
        m["name"] for m in per_layer
        if m["unit"] == "count" and not m["name"].startswith("gc.")
    ] + ["store_repair.cross_rack_MiB_per_stripe"]


#: Largest share of an operation's traced duration that may fall outside
#: every layer span (the benchmark's own code around the client call).
UNACCOUNTED_TOLERANCE = 0.02

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: Type of the request a server connection task is answering.
_served: contextvars.ContextVar = contextvars.ContextVar("perfbench_served", default=None)


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "op": self.op,
            "layer": self.layer, "name": self.name,
            "start": self.start, "end": self.end, **self.attrs,
        }


def _mtype(args, kwargs) -> str:
    return kwargs.get("mtype", args[2] if len(args) > 2 else "?")


def _nbytes(obj) -> int:
    return 0 if obj is None else len(obj) if not hasattr(obj, "nbytes") else int(obj.nbytes)


class Tracer:
    """Wraps layer entry points and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        #: daemon port -> node id, kept current by the workload.
        self.port_node: dict[int, int] = {}
        #: Seconds spent recording, summed over every start/stop.
        self.active_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._undo: list = []

    # -- span recording -----------------------------------------------------

    def start(self) -> None:
        self.active = True
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self.active:
            self.active = False
            self.active_s += time.perf_counter() - self._started

    def _open(self, layer: str, name: str, attrs: dict, *, root: bool = False):
        parent = _current.get()
        if parent is None and not root:
            op = None
        elif parent is None:
            op = next(self._ops)
        else:
            op = parent.op
        span = Span(
            next(self._ids), parent.sid if parent else None, op, layer, name,
            time.perf_counter(), attrs=attrs,
        )
        return span, _current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, kind: str):
        """One benchmark operation: the root of its span tree."""
        if not self.active:
            yield
            return
        span, token = self._open("op", kind, {}, root=True)
        try:
            yield
        finally:
            self._close(span, token)

    def _wrap(self, fn, layer: str, name: str, attrs_of=None, *, root=False, after=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                attrs = attrs_of(args, kwargs) if attrs_of else {}
                span, token = tracer._open(layer, attrs.pop("name", name), attrs, root=root)
                try:
                    result = await fn(*args, **kwargs)
                    if after:
                        after(span, result)
                    return result
                finally:
                    tracer._close(span, token)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                attrs = attrs_of(args, kwargs) if attrs_of else {}
                span, token = tracer._open(layer, attrs.pop("name", name), attrs, root=root)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
        return wrapper

    def _patch(self, owner, attr: str, layer: str, name: str, attrs_of=None, **kw) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = self._wrap(original, layer, name, attrs_of, **kw)
        if isinstance(owner, dict):
            owner[attr] = wrapped
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, wrapped)
            self._undo.append(lambda: setattr(owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_gen2 += info.get("generation") == 2

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point at the site its callers use."""
        def call_attrs(args, kwargs):
            mtype = _mtype(args, kwargs)
            blob = kwargs.get("blob", args[4] if len(args) > 4 else None)
            body = kwargs.get("body", args[3] if len(args) > 3 else None) or {}
            parent = _current.get()
            port = int(args[1])
            return {
                "name": f"rpc:{mtype}", "mtype": mtype, "port": port,
                "req_bytes": _nbytes(blob), "rid": body.get("rid"),
                "src_node": parent.attrs.get("node") if parent else None,
                # Looked up now: a restarted daemon may later reuse the port.
                "dst_node": self.port_node.get(port),
            }

        def call_after(span, result):
            body, blob = result
            span.attrs["resp_bytes"] = _nbytes(blob)
            if span.attrs["mtype"] == "status":
                span.attrs["reply_bytes"] = len(json.dumps(body, separators=(",", ":")))

        rpc = dict(attrs_of=call_attrs, after=call_after)
        for module in (client_mod, coordinator_mod):
            self._patch(module, "call", "rpc", "rpc", **rpc)
        # Both constructors bound ``rpc=call`` when their module was imported.
        self._patch(HeartbeatSender.__init__.__kwdefaults__, "rpc", "rpc", "rpc", **rpc)
        self._patch(store_repair_mod.RepairSession.__init__.__kwdefaults__, "rpc", "rpc", "rpc", **rpc)
        def connect_attrs(args, kwargs):
            parent = _current.get()
            return {"mtype": parent.attrs.get("mtype") if parent else None}

        self._patch(messages_mod, "connect_tcp", "wire", "connect", connect_attrs)

        def frame_attrs(args, kwargs):
            header = args[1]
            mtype = header.get("t")
            if mtype == "resp":
                mtype = _served.get()
            return {"nbytes": _nbytes(args[2]), "mtype": mtype}

        self._patch(messages_mod, "send_frame", "wire", "frame", frame_attrs)
        read_request = messages_mod.read_request

        @functools.wraps(read_request)
        async def read_request_noting_type(*args, **kwargs):
            request = await read_request(*args, **kwargs)
            # Each server connection is its own task, so this marks the
            # type its response frame answers without leaking elsewhere.
            _served.set(request.mtype)
            return request

        messages_mod.read_request = read_request_noting_type
        self._undo.append(lambda: setattr(messages_mod, "read_request", read_request))

        client = client_mod.StoreClient
        self._patch(client, "put", "client", "put")
        self._patch(client, "_get_once", "client", "get")
        self._patch(client, "delete", "client", "delete")
        self._patch(RSCode, "encode", "codec", "rs.encode")
        self._patch(RSCode, "decode_many", "codec", "rs.decode")
        self._patch(executor_mod, "linear_combine", "codec", "gf.combine")
        self._patch(store_repair_mod, "linear_combine", "codec", "gf.combine")
        self._patch(client_mod, "execute_plan", "planning", "repair.execute_plan")
        self._patch(coordinator_mod, "plan_degraded_read", "planning", "repair.degraded_plan")
        self._patch(RPRScheme, "plan", "planning", "repair.plan")
        self._patch(coordinator_mod, "simulate_repair", "planning", "sim.simulate")
        # A repair wave is the root of node-repair's span trees, so the
        # wave's time outside every stripe repair counts as unaccounted.
        self._patch(
            coordinator_mod.Coordinator, "_repair_degraded", "op", "repair.wave", root=True,
        )
        self._patch(
            coordinator_mod.Coordinator, "_repair_stripe", "coordinator",
            "coordinator.repair_stripe",
        )
        self._patch(coordinator_mod, "partition_plan", "store_repair", "store_repair.partition")

        def session_attrs(args, kwargs):
            return {"node": args[0].assignment.node, "rid": args[0].rid}

        self._patch(
            store_repair_mod.RepairSession, "run", "store_repair",
            "store_repair.session", session_attrs,
        )
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# -- analysis ----------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Attribute one operation's duration to layers by deepest active span.

    Each instant of the root span goes to the deepest spans open at that
    instant, split evenly among them when concurrent children tie, so the
    layer self times of an operation sum to its traced duration.
    """
    by_id = {s.sid: s for s in spans}
    depth: dict[int, int] = {}

    def depth_of(span: Span) -> int:
        if span.sid not in depth:
            parent = by_id.get(span.parent)
            depth[span.sid] = 0 if parent is None else depth_of(parent) + 1
        return depth[span.sid]

    events = sorted(
        (t, delta, depth_of(s), s.layer)
        for s in spans
        for t, delta in ((s.start, 1), (s.end, -1))
    )
    #: depth -> layer -> number of open spans
    live: dict[int, dict[str, int]] = {}
    out: dict[str, float] = {}
    for (t, delta, d, layer), nxt in zip(events, events[1:] + [None]):
        at = live.setdefault(d, {})
        at[layer] = at.get(layer, 0) + delta
        if not at[layer]:
            del at[layer]
        if not at:
            del live[d]
        if nxt is None or nxt[0] == t or not live:
            continue
        top = live[max(live)]
        total = sum(top.values())
        for name, n in top.items():
            out[name] = out.get(name, 0.0) + (nxt[0] - t) * n / total
    return out


def layer_metrics(
    tracer: Tracer, *, elapsed: float, untraced_elapsed: float,
    spans_kept: int, cluster,
) -> dict[str, float]:
    """Every per-layer metric of one traced measured phase."""
    spans = tracer.spans
    ops: dict[int, list[Span]] = {}
    for span in spans:
        if span.op is not None:
            ops.setdefault(span.op, []).append(span)
    roots = [s for s in spans if s.parent is None and s.op is not None]
    gets = sum(1 for s in roots if s.name == "get")
    puts = sum(1 for s in roots if s.name == "put")
    repaired = [s for s in spans if s.name == "coordinator.repair_stripe"]
    stripes = len(repaired)
    # An op is one foreground request, or one stripe repaired within a wave.
    n_ops = sum(1 for s in roots if s.name != "repair.wave") + stripes

    def per(value: float, denom: int) -> float:
        return value / denom if denom else 0.0

    calls = [s for s in spans if s.layer == "rpc" and s.attrs["mtype"] != "heartbeat"]
    beats = sum(1 for s in spans if s.layer == "rpc" and s.attrs["mtype"] == "heartbeat")
    # Heartbeats are background load, not per-op work: their connects
    # and frames are left out of the per-op figures.
    wire = [s for s in spans if s.layer == "wire" and s.attrs.get("mtype") != "heartbeat"]
    connects = sum(1 for s in wire if s.name == "connect")
    frames = [s for s in wire if s.name == "frame"]
    m: dict[str, float] = {
        "rpc.calls_per_op": per(len(calls), n_ops),
        "rpc.connects_per_op": per(connects, n_ops),
        "rpc.busy_ms_per_op": per(sum(s.end - s.start for s in calls) * 1e3, n_ops),
        "rpc.wall_ms_per_op": per(
            sum(
                _union((s.start, s.end) for s in members if s.layer == "rpc")
                for members in ops.values()
            ) * 1e3,
            n_ops,
        ),
        "rpc.bytes_per_op": per(sum(s.attrs["nbytes"] for s in frames), n_ops),
        "wire.frames_per_op": per(len(frames), n_ops),
    }
    for t in RPC_TYPES:
        durs = [s.end - s.start for s in calls if s.attrs["mtype"] == t]
        m[f"rpc.{t}.calls_per_op"] = per(len(durs), n_ops)
        m[f"rpc.{t}.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0.0
    m["rpc.heartbeat.calls_per_s"] = beats / tracer.active_s if tracer.active_s else 0.0
    m["coordinator.stat_calls_per_put"] = per(
        sum(1 for s in calls if s.attrs["mtype"] == "block.stat"), puts
    )
    status = [s.attrs["reply_bytes"] for s in calls if s.attrs["mtype"] == "status"]
    m["coordinator.status_reply_KiB"] = statistics.median(status) / 1024 if status else 0.0

    def total_ms(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name) * 1e3

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    selfs: dict[str, float] = {}
    for members in ops.values():
        for layer, secs in self_times(members).items():
            selfs[layer] = selfs.get(layer, 0.0) + secs
    traced = sum(s.end - s.start for s in roots)
    m["client.self_ms_per_op"] = per(selfs.get("client", 0.0) * 1e3, n_ops)
    m["rs.encode_calls_per_op"] = per(count("rs.encode"), n_ops)
    m["rs.encode_ms_per_op"] = per(total_ms("rs.encode"), n_ops)
    m["rs.decode_ms_per_op"] = per(total_ms("rs.decode"), n_ops)
    m["gf.combine_calls_per_op"] = per(count("gf.combine"), n_ops)
    m["gf.combine_ms_per_op"] = per(total_ms("gf.combine"), n_ops)
    m["repair.degraded_plan_ms_per_get"] = per(total_ms("repair.degraded_plan"), gets)
    m["repair.execute_plan_ms_per_get"] = per(total_ms("repair.execute_plan"), gets)
    # Plan calls made while repairing stripes; degraded-read planning
    # calls the scheme too, and is reported on its own line above.
    in_repair = {s.op for s in repaired}
    plans = [s for s in spans if s.name == "repair.plan" and s.op in in_repair]
    m["repair.plan_calls_per_stripe"] = per(len(plans), stripes)
    m["repair.plan_ms_per_stripe"] = per(sum(s.end - s.start for s in plans) * 1e3, stripes)
    m["sim.simulate_ms_per_stripe"] = per(total_ms("sim.simulate"), stripes)
    m["store_repair.partition_ms_per_stripe"] = per(total_ms("store_repair.partition"), stripes)
    m["store_repair.sessions_per_stripe"] = per(count("store_repair.session"), stripes)
    m["store_repair.session_ms_per_stripe"] = per(total_ms("store_repair.session"), stripes)
    cross = sum(cross_rack_by_rid(tracer, cluster).values())
    m["store_repair.cross_rack_MiB_per_stripe"] = per(cross / 2**20, stripes)
    m["telemetry.spans_per_op"] = per(spans_kept, n_ops)
    m["gc.pause_ms_per_op"] = per(tracer.gc_pause_s * 1e3, n_ops)
    m["gc.gen2_collections"] = float(tracer.gc_gen2)
    m["trace.overhead_ratio"] = elapsed / untraced_elapsed if untraced_elapsed else 0.0
    m["trace.unaccounted_share"] = selfs.get("op", 0.0) / traced if traced else 0.0
    return m


def cross_rack_by_rid(tracer: Tracer, cluster) -> dict[str, int]:
    """Bytes of daemon-to-daemon repair sends that crossed racks, per repair.

    Worked out from the traced ``repair.block`` round trips alone: the
    sender is the node whose session made the call, the receiver the
    daemon that listened on the called port when the call was made.
    """
    out: dict[str, int] = {}
    for s in tracer.spans:
        if s.layer != "rpc" or s.attrs["mtype"] != "repair.block":
            continue
        src, dst = s.attrs["src_node"], s.attrs["dst_node"]
        if not cluster.same_rack(src, dst):
            out[s.attrs["rid"]] = out.get(s.attrs["rid"], 0) + s.attrs["req_bytes"]
    return out
