"""Subscription routing over the socket runtimes (`repro.rt`).

The push path under test: subscriber connections register predicates
with the mirror/central broker, matched events travel back as shared
broadcast frames, and on the sharded runtime the ingress router
scope-routes each subscription to the owning shards — following
handoffs so the matched stream is shard-count-invariant.
"""

import asyncio

import pytest

from repro.core.events import HANDOFF, EventBatch, UpdateEvent, VectorTimestamp
from repro.ois import FlightDataConfig, generate_script
from repro.rt.net import SubscriptionFanout, WireStats, run_net_scenario
from repro.rt.shards import run_sharded_scenario
from repro.sub.messages import Subscribe
from repro.sub.predicate import ByAirport, ByFlight, ByKind, Or
from repro.wire import WireDecoder

SEED = 31


def run(coro):
    return asyncio.run(coro)


def script(**kw):
    defaults = dict(n_flights=4, positions_per_flight=25, seed=SEED)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def by_client(summary):
    return {r["client_id"]: r for r in summary.subscriber_results}


# ------------------------------------------------------------- net push
def test_net_subscribers_receive_exact_matched_stream():
    sc = script()
    summary = run(
        run_net_scenario(
            sc, n_mirrors=2,
            subscribers=[
                ("alice", ByFlight("DL100")),
                ("bob", ByKind("delta.status")),
            ],
        )
    )
    results = by_client(summary)
    assert set(results) == {"alice", "bob"}
    # soundness: every pushed event satisfies the client's predicate...
    assert all(ev.key == "DL100" for ev in results["alice"]["events"])
    assert all(
        ev.kind == "delta.status" for ev in results["bob"]["events"]
    )
    # ...and completeness: exactly the script's matching events arrive
    # (registration is acked before the source starts)
    expected_alice = sum(1 for se in sc.fresh_events() if se.event.key == "DL100")
    expected_bob = sum(
        1 for se in sc.fresh_events() if se.event.kind == "delta.status"
    )
    assert len(results["alice"]["events"]) == expected_alice
    assert len(results["bob"]["events"]) == expected_bob
    assert results["alice"]["acks"] == 1
    assert summary.wire.sub_acks == 2
    assert summary.wire.sub_events_delivered > 0


def test_net_equal_interests_share_encoded_frames():
    """Two clients with the same canonical predicate form one
    subscription group: the broadcast frame is encoded once and the
    second member's encode is elided (the SharedFrameCache economics)."""
    sc = script()
    pred = Or((ByFlight("DL101"), ByFlight("DL100")))
    equiv = Or((ByFlight("DL100"), ByFlight("DL101")))  # same canonical form
    summary = run(
        run_net_scenario(
            sc, n_mirrors=1,
            subscribers=[("a", pred), ("b", equiv)],
        )
    )
    results = by_client(summary)
    a = [(ev.key, ev.kind, ev.seqno) for ev in results["a"]["events"]]
    b = [(ev.key, ev.kind, ev.seqno) for ev in results["b"]["events"]]
    assert a == b and a
    assert summary.wire.sub_encodes_saved > 0


def test_net_subscribers_without_mirrors_hit_central():
    sc = script(n_flights=3, positions_per_flight=10)
    summary = run(
        run_net_scenario(
            sc, n_mirrors=0, subscribers=[("solo", ByFlight("DL102"))],
        )
    )
    got = by_client(summary)["solo"]["events"]
    assert len(got) == sum(
        1 for se in sc.fresh_events() if se.event.key == "DL102"
    )


# --------------------------------------------------- broker re-SUBSCRIBE
class _BufferWriter:
    """Stands in for a subscriber connection's StreamWriter."""

    def __init__(self):
        self.data = bytearray()

    def write(self, frame):
        self.data += frame


def _pushed(writer):
    """Every event one connection's decoder recovers from its bytes."""
    events = []
    for msg in WireDecoder().decode_all(bytes(writer.data)):
        if isinstance(msg, EventBatch):
            events.extend(msg.events)
        elif isinstance(msg, UpdateEvent):
            events.append(msg)
    return [(ev.stream, ev.seqno, ev.key, ev.kind) for ev in events]


@pytest.mark.parametrize("retry_sub_id", [1, 2], ids=["same-sub-id", "new-sub-id"])
def test_resubscribe_keeps_pushed_streams_decodable(retry_sub_id):
    """Re-sending a SUBSCRIBE for a predicate the connection already
    holds leaves its group unchanged; the ack still resets the decoder,
    so the broker must fence it back onto the group cache.  A second
    member of the same group must keep decoding too."""
    vt = VectorTimestamp()
    stream = []
    for se in script().fresh_events():
        vt = vt.advanced(se.event.stream, se.event.seqno)
        stream.append(se.event.stamped(vt, 0.0))
    flight = stream[0].key
    expected = [
        (ev.stream, ev.seqno, ev.key, ev.kind) for ev in stream if ev.key == flight
    ]
    fan = SubscriptionFanout(WireStats())
    writers = {name: _BufferWriter() for name in ("alice", "bob")}
    conns = {name: fan.attach(name, w) for name, w in writers.items()}
    for name, conn in conns.items():
        fan.apply(conn, Subscribe.from_predicate(name, 1, ByFlight(flight)))
    half = len(stream) // 2
    fan.fanout(EventBatch(stream[:half]))
    fan.apply(
        conns["alice"],
        Subscribe.from_predicate("alice", retry_sub_id, ByFlight(flight)),
    )
    assert fan.group_count() == 1
    fan.fanout(EventBatch(stream[half:]))
    fan.eos()
    assert _pushed(writers["alice"]) == expected
    assert _pushed(writers["bob"]) == expected


# --------------------------------------------------------- sharded push
def test_sharded_subscriptions_shard_count_invariant():
    """The matched stream a client sees must not depend on the shard
    layout: flight-scoped, airport-scoped and unscoped predicates all
    deliver the same (flight, kind) multiset on 1 shard and on 4 —
    across cross-shard handoffs (the router re-registers flight-scoped
    subscriptions on the new owner before buffered events ship)."""
    sc = script(n_flights=10, positions_per_flight=10, handoffs=6)
    flights = sorted({se.event.key for se in sc.fresh_events()})
    subs = [(f"cl-{fid}", ByFlight(fid)) for fid in flights]
    subs.append(("handoff-watch", ByKind(HANDOFF)))
    subs.append(("hub", Or((ByAirport("ATL"), ByAirport("ORD")))))
    s1 = run(
        run_sharded_scenario(script=sc, n_shards=1, subscriptions=subs)
    )
    s4 = run(
        run_sharded_scenario(script=sc, n_shards=4, subscriptions=subs)
    )
    assert s4.transfers_completed > 0  # the hard case actually ran
    assert s1.merged_digest == s4.merged_digest
    assert s1.sub_delivery_log == s4.sub_delivery_log
    assert s1.sub_deliveries == s4.sub_deliveries > 0
    # with every flight subscribed, each routed event is delivered at
    # least once (its own flight's subscription)
    assert s1.sub_deliveries >= s1.events_in


def test_sharded_handoff_reregisters_moved_subscriptions():
    sc = script(n_flights=6, positions_per_flight=10, handoffs=8)
    flights = sorted({se.event.key for se in sc.fresh_events()})
    subs = [(f"cl-{fid}", ByFlight(fid)) for fid in flights]
    summary = run(
        run_sharded_scenario(script=sc, n_shards=3, subscriptions=subs)
    )
    assert summary.subscriptions_registered == len(subs)
    assert summary.sub_acks >= len(subs)
    # cross-shard transfers re-register the moved flight's subscription
    # on the new owner — except when that shard already holds it from an
    # earlier registration (the router tracks where each sub was sent),
    # so the count is bounded by, not equal to, the transfer count
    assert 0 < summary.subs_reregistered <= summary.transfers_completed
    # full coverage: every event has a subscriber, none may be lost
    assert summary.sub_deliveries == summary.events_in
