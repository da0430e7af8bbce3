"""Span tracer installed around the program's public layer entry points.

The traced run of each workload calls :func:`install` in the process that
runs the system under test, before the system is built.  Every wrapped
call records one span (name, start, end, parent) in flat arrays that stay
in memory until the run ends; :func:`layer_report` then derives
per-layer self time (a span minus the time its child spans cover) and the
work counters recorded at the same boundaries.  Nothing under ``src/`` is
changed: the wrappers replace class attributes in this process only.
"""

from __future__ import annotations

import selectors
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

CountHook = Callable[["Tracer", tuple, Any, bool], None]


class Tracer:
    """Flat in-memory span store plus per-layer counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, float] = {}
        self.build_marks: Dict[int, Tuple[Any, int]] = {}
        self._restore: List[Tuple[Any, str, Optional[Any]]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _outer(self, nid: int) -> bool:
        """True when the innermost open span is not of layer ``nid``."""
        top = self._stack[-1]
        return top < 0 or self.name_of[top] != nid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner: Any, attr: str, layer: str,
             count: Optional[CountHook] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(tracer, args, result, outer)`` runs after the call;
        ``outer`` is False when the call is nested inside another span of
        the same layer, so work is counted once per layer entry.
        """
        own = attr in owner.__dict__
        orig = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        nid = self._id(layer)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = tracer._outer(nid)
            idx = tracer._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, args, result, outer)
            return result

        wrapper.__name__ = getattr(orig, "__name__", attr)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig if own else None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (span minus its direct children)."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, float] = {name: 0.0 for name in self.names}
        names = self.names
        for i in range(n):
            out[names[name_of[i]]] += (end[i] - start[i]) - child[i]
        return out

    def calls(self) -> Dict[str, int]:
        out = {name: 0 for name in self.names}
        for nid in self.name_of:
            out[self.names[nid]] += 1
        return out


# -- count hooks -------------------------------------------------------------
def _rules_count(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if not outer:
        return
    event_or_events = args[1]
    n_in = len(event_or_events) if isinstance(event_or_events, list) else 1
    n_out = result if isinstance(result, int) else len(result)
    tracer.add("rules.in", n_in)
    tracer.add("rules.out", n_out)


def _chkpt_initiate(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if result is not None:
        tracer.add("checkpoint.rounds")


def _chkpt_reply(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if result is not None:
        tracer.add("checkpoint.commits")


def _adapt_count(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    tracer.add("adaptation.evaluations")
    if result is not None:
        tracer.add("adaptation.switches")


def _ede_one(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if outer:
        tracer.add("ede.events")


def _ede_many(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if outer:
        tracer.add("ede.events", result)


def _snapshot_count(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    if not outer:
        return
    store = args[0]
    tracer.add("state.snapshot_calls")
    tracer.add("state.response_bytes", getattr(result, "size", 0))
    # builds only happen inside these wrapped calls, so the store's build
    # counter moved by exactly this call's rebuilds (the store is kept
    # referenced so its id cannot be reused by a later store)
    _store, seen = tracer.build_marks.get(id(store), (store, 0))
    tracer.build_marks[id(store)] = (store, store.snapshot_builds)
    tracer.add("state.rebuilds", store.snapshot_builds - seen)


def _match_count(tracer: Tracer, args: tuple, result: Any, outer: bool) -> None:
    tracer.add("sub.match_events", len(result))
    tracer.add("sub.matches", sum(len(clients) for clients in result))


_ENCODER_METHODS = (
    "reset", "encode_event", "encode_batch", "encode_chkpt", "encode_chkpt_rep",
    "encode_commit", "encode_request", "encode_response", "encode_shard_map",
    "encode_handoff", "encode_transfer", "encode_subscribe", "encode_sub_ack",
    "encode_eos", "encode_hello", "encode_message",
)
_DECODER_METHODS = ("decode_body", "decode_frame", "decode_all")


def install(idle_span: bool = False) -> Tracer:
    """Wrap every traced layer entry point; returns the live tracer.

    ``idle_span`` also wraps the event loop's selector so the time a live
    server spends blocked waiting for I/O is its own span (``rt.idle``).
    """
    from repro.core.adaptation import AdaptationController
    from repro.core.checkpoint import CheckpointCoordinator
    from repro.core.rules import RuleEngine
    from repro.ois.ede import EventDerivationEngine
    from repro.ois.state import OperationalStateStore
    from repro.shard.handoff import RoutingCore
    from repro.sub.registry import SubscriptionRegistry
    from repro.wire import FrameSplitter, WireDecoder, WireEncoder

    tracer = Tracer()
    for attr in ("on_receive", "on_send", "forward_into", "forward_many"):
        tracer.wrap(RuleEngine, attr, "rules", _rules_count)
    tracer.wrap(CheckpointCoordinator, "initiate", "checkpoint", _chkpt_initiate)
    tracer.wrap(CheckpointCoordinator, "on_reply", "checkpoint", _chkpt_reply)
    tracer.wrap(AdaptationController, "evaluate", "adaptation", _adapt_count)
    tracer.wrap(EventDerivationEngine, "process", "ede", _ede_one)
    tracer.wrap(EventDerivationEngine, "process_many", "ede", _ede_many)
    tracer.wrap(OperationalStateStore, "snapshot", "state", _snapshot_count)
    tracer.wrap(OperationalStateStore, "delta_snapshot", "state", _snapshot_count)
    tracer.wrap(OperationalStateStore, "rebuild_snapshot", "state", _snapshot_count)
    for attr in _ENCODER_METHODS:
        tracer.wrap(WireEncoder, attr, "wire.encode")
    for attr in _DECODER_METHODS:
        tracer.wrap(WireDecoder, attr, "wire.decode")
    tracer.wrap(FrameSplitter, "feed", "wire.decode")
    tracer.wrap(SubscriptionRegistry, "match_clients_batch", "sub", _match_count)
    tracer.wrap(RoutingCore, "route", "shard")
    tracer.wrap(RoutingCore, "complete", "shard")
    if idle_span:
        selector_cls = type(selectors.DefaultSelector())
        tracer.wrap(selector_cls, "select", "rt.idle")
    return tracer


def layer_report(tracer: Tracer, root: str) -> Dict[str, float]:
    """Per-layer metrics from one traced run; ``root`` is the harness span
    whose self time is the time outside every wrapped call."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rounds = c.get("checkpoint.rounds", 0.0)
    snaps = c.get("state.snapshot_calls", 0.0)
    rules_in = c.get("rules.in", 0.0)
    return {
        "rules.calls": float(calls.get("rules", 0)),
        "rules.self_s": self_s.get("rules", 0.0),
        "rules.out_per_in": ratio(c.get("rules.out", 0.0), rules_in),
        "checkpoint.rounds": rounds,
        "checkpoint.commits_per_round": ratio(c.get("checkpoint.commits", 0.0), rounds),
        "checkpoint.self_s": self_s.get("checkpoint", 0.0),
        "adaptation.evaluations": c.get("adaptation.evaluations", 0.0),
        "adaptation.switches": c.get("adaptation.switches", 0.0),
        "adaptation.self_s": self_s.get("adaptation", 0.0),
        "ede.events": c.get("ede.events", 0.0),
        "ede.self_s": self_s.get("ede", 0.0),
        "state.snapshot_calls": snaps,
        "state.rebuilds": c.get("state.rebuilds", 0.0),
        "state.cache_hit_frac": ratio(snaps - c.get("state.rebuilds", 0.0), snaps),
        "state.snapshot_self_s": self_s.get("state", 0.0),
        "state.bytes_per_response": ratio(c.get("state.response_bytes", 0.0), snaps),
        "wire.encode_self_s": self_s.get("wire.encode", 0.0),
        "wire.decode_self_s": self_s.get("wire.decode", 0.0),
        "sub.match_calls": float(calls.get("sub", 0)),
        "sub.match_self_s": self_s.get("sub", 0.0),
        "sub.matches_per_event": ratio(
            c.get("sub.matches", 0.0), c.get("sub.match_events", 0.0)
        ),
        "shard.route_self_s": self_s.get("shard", 0.0),
        "root.self_s": self_s.get(root, 0.0),
        "rt.idle_s": self_s.get("rt.idle", 0.0),
        "trace.spans": float(len(tracer.start)),
        "trace.self_sum_s": sum(self_s.values()),
    }
