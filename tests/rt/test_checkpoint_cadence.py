"""Live checkpoint cadence: rounds commit under load, queues stay bounded.

The live central site starts a checkpoint round every
``checkpoint_freq`` processed events, but on a saturated event loop a
round's CHKPT -> CHKPT_REP round trip takes several cadence points.
:class:`~repro.rt.sites.CheckpointCadence` lets a collecting round stay
open for ``patience`` cadence points before it is superseded, so rounds
commit and every backup queue stays near ``checkpoint_freq`` times the
round trip instead of growing with the stream.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.core import simple_mirroring
from repro.faults.link import LinkFaultController
from repro.faults.plan import FaultPlan
from repro.ois import FlightDataConfig, generate_script
from repro.rt import AsyncChannel, AsyncMirroredServer
from repro.rt.cli import main as rt_main
from repro.rt.net import run_net_scenario
from repro.rt.sites import AsyncCentralSite, CheckpointCadence

BATCH = 64


def run(coro):
    return asyncio.run(coro)


def saturated():
    """Batch 64 with the default checkpoint cadence (every 50 events)."""
    return replace(simple_mirroring(), batch_size=BATCH)


def script(n_flights):
    return generate_script(
        FlightDataConfig(n_flights=n_flights, positions_per_flight=100, seed=7)
    )


# ------------------------------------------------------ cadence state machine
def test_patience_doubles_on_supersede_up_to_cap_and_halves_on_commit():
    cadence = CheckpointCadence()
    assert cadence.patience == 1
    assert cadence.admit(collecting=False)  # nothing open: start
    # patience 1 is the paper's rule: the next cadence point supersedes
    assert cadence.admit(collecting=True)
    assert cadence.patience == 2
    assert not cadence.admit(collecting=True)
    assert cadence.admit(collecting=True)
    assert cadence.patience == 4
    for _ in range(10):
        for _ in range(cadence.patience - 1):
            assert not cadence.admit(collecting=True)
        assert cadence.admit(collecting=True)
    assert cadence.patience == CheckpointCadence.MAX_PATIENCE
    cadence.on_commit()
    assert cadence.patience == CheckpointCadence.MAX_PATIENCE // 2
    for _ in range(10):
        cadence.on_commit()
    assert cadence.patience == 1


def test_wedged_round_superseded_within_cap():
    """A round whose CHKPT or CHKPT_REP was lost never completes; it is
    superseded within MAX_PATIENCE cadence points however long the
    rounds before it were allowed to stay open."""
    cadence = CheckpointCadence()
    cadence.patience = CheckpointCadence.MAX_PATIENCE
    waited = 1
    while not cadence.admit(collecting=True):
        waited += 1
    assert waited == CheckpointCadence.MAX_PATIENCE


def test_final_round_always_starts():
    async def scenario():
        site = AsyncCentralSite(
            saturated(), AsyncChannel("data"),
            AsyncChannel("ctrl", kind="control"), {"central", "mirror1"},
        )
        sc = script(1)
        event = next(iter(sc.fresh_events())).event
        site.backup.append(event.stamped(site.clock_vt.advanced(
            event.stream, event.seqno), 0.0))
        await site._initiate_checkpoint()  # mirror1 never answers
        site.cadence.patience = CheckpointCadence.MAX_PATIENCE
        await site._initiate_checkpoint()
        started_while_patient = site.coordinator.rounds_started
        await site._initiate_checkpoint(final=True)
        return started_while_patient, site.coordinator

    started_while_patient, coordinator = run(scenario())
    assert started_while_patient == 1
    assert coordinator.rounds_started == 2
    assert coordinator.rounds_superseded == 1


# ------------------------------------------------------------- saturation
def _bounded(summary):
    """Rounds commit and no backup queue nears the stream length."""
    assert summary.checkpoint_commits >= 0.25 * summary.checkpoint_rounds
    assert 0 < summary.backup_peak <= BATCH * saturated().checkpoint_freq
    assert summary.backup_peak < summary.events_in / 2
    assert summary.replicas_consistent


def test_saturated_in_memory_rounds_commit():
    sc = script(60)
    summary = run(AsyncMirroredServer(n_mirrors=2, mirror_config=saturated()).run(sc))
    assert summary.events_processed_central == summary.events_in
    _bounded(summary)


def test_saturated_tcp_rounds_commit():
    """Over loopback TCP a round trip spans several 64-event batches;
    with the paper's supersede-at-every-cadence rule no round ever
    committed here and every queue held the whole stream."""
    sc = script(60)
    summary = run(run_net_scenario(sc, n_mirrors=2, config=saturated()))
    assert summary.events_processed_central == summary.events_in
    _bounded(summary)


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=3).drop_control(0.0, duration=10_000.0, drop_prob=0.2),
        FaultPlan(seed=3).degrade_link(
            0.0, "central", "mirror1", duration=10_000.0,
            drop_prob=0.3, traffic="control",
        ),
    ],
    ids=["every-control-link", "mirror1-control-link"],
)
def test_saturated_tcp_rounds_commit_through_control_loss(plan):
    """A lost CHKPT wedges its round, which is superseded within
    MAX_PATIENCE cadence points; a lost COMMIT leaves a mirror untrimmed
    until the next one.  Rounds keep committing for the rest of the
    stream and the queues stay bounded."""
    sc = script(100)
    summary = run(
        run_net_scenario(
            sc, n_mirrors=2, config=saturated(),
            fault_controller=LinkFaultController(plan),
        )
    )
    assert summary.wire.frames_dropped > 0
    assert summary.checkpoint_commits >= 0.2 * summary.checkpoint_rounds
    assert summary.backup_peak <= 2 * BATCH * saturated().checkpoint_freq
    assert summary.backup_peak < summary.events_in / 2
    assert summary.replicas_consistent


def test_rt_cli_summary_reports_backup_peak(capsys):
    assert rt_main(
        ["--mirrors", "1", "--flights", "2", "--positions", "30", "--requests", "0"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["backup_peak"] <= payload["events_mirrored"]
