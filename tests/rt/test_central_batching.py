"""The live central site ships what its ready queue already holds.

``AsyncCentralSite.sending_task`` drains every event already waiting on
the ready queue into one ``forward_many`` / ``publish_batch`` step, at
every ``batch_size`` — the default of 1 included — and never waits for
more.  A saturated run therefore sends far fewer central->mirror frames
than events, while a lone event on an idle loop still goes out at once
as a single EVENT frame.
"""

import asyncio
from collections import Counter

from repro.core import simple_mirroring
from repro.core.events import UpdateEvent
from repro.ois import FlightDataConfig, generate_script
from repro.rt.channels import AsyncChannel
from repro.rt.shards import IngressRouter, ShardRuntime, run_sharded_scenario
from repro.rt.sites import AsyncCentralSite
from repro.sub.predicate import ByFlight
from repro.wire.codec import HEADER, T_EVENT, SharedFrameCache


def capture(monkeypatch, cls):
    """Record every instance of ``cls`` built while the test runs."""
    made = []
    orig = cls.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", init)
    return made


def test_saturated_default_config_run_batches_mirror_frames(monkeypatch):
    script = generate_script(FlightDataConfig(
        n_flights=40, positions_per_flight=50, handoffs=16, seed=5,
    ))
    runtimes = capture(monkeypatch, ShardRuntime)
    routers = capture(monkeypatch, IngressRouter)
    config = simple_mirroring()
    assert config.batch_size == 1
    subscriptions = [
        (f"c{i}", ByFlight(key)) for i, key in enumerate(script.flight_keys())
    ]
    summary = asyncio.run(run_sharded_scenario(
        script, n_shards=2, n_mirrors=1, config=config,
        subscriptions=subscriptions,
    ))

    # every frame a mirror read came from its central (no clients here):
    # data frames plus the checkpoint control traffic
    frames = sum(m.stats.frames_received for rt in runtimes for m in rt.mirrors)
    mirrored = sum(
        rt.central.site.mirrored_events * rt.n_mirrors for rt in runtimes
    )
    assert mirrored >= len(script)
    assert frames / mirrored < 0.5

    # every event delivered exactly once, with its identity
    expected = {
        (se.event.stream, se.event.seqno): (se.event.key, se.event.kind)
        for se in script.fresh_events()
    }
    delivered = routers[0].sub_events
    assert all(
        expected.get((e.stream, e.seqno)) == (e.key, e.kind) for e in delivered
    )
    assert Counter((e.stream, e.seqno) for e in delivered) == Counter(list(expected))
    assert summary.replicas_consistent
    assert summary.transfers_started == summary.transfers_completed > 0


def test_lone_event_on_idle_loop_ships_at_once_as_one_event_frame():
    async def scenario():
        site = AsyncCentralSite(
            simple_mirroring(), AsyncChannel("data"),
            AsyncChannel("ctrl", kind="control"), {"central", "mirror1"},
        )
        mirror = site.mirror_channel.subscribe("mirror1")
        tasks = [
            asyncio.create_task(site.receiving_task()),
            asyncio.create_task(site.sending_task()),
            asyncio.create_task(site.main.event_loop()),
        ]
        script = generate_script(FlightDataConfig(n_flights=1, seed=3))
        event = next(iter(script.fresh_events())).event
        try:
            await site.data_in.put([event])
            # no flush deadline, no waiting for company: the event is out
            # within a few bare loop turns (sleep(0) arms no timer)
            for _ in range(10):
                if mirror.level():
                    break
                await asyncio.sleep(0)
            assert mirror.level() == 1
            assert not site.stream_done.is_set()
            return site, event, await mirror.get()
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    site, event, shipped = asyncio.run(scenario())
    assert isinstance(shipped, UpdateEvent)
    assert (shipped.stream, shipped.seqno) == (event.stream, event.seqno)
    assert site.mirrored_events == 1
    assert site.mirror_channel.published == 1
    frame = SharedFrameCache().encode(shipped)
    assert HEADER.unpack_from(frame, 0)[2] == T_EVENT
