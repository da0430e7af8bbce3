"""Live mirrored server: wires asyncio sites into the Figure-2 shape.

``AsyncMirroredServer.run`` feeds an event script and a request
schedule through real asyncio tasks and returns a summary.  Timing
reflects the host interpreter (DESIGN.md: the asyncio backend is the
runnable prototype; the calibrated figures come from ``repro.sim``),
but every protocol property — rule filtering, checkpoint consistency,
adaptation decisions, replica convergence — is the real thing and is
asserted by ``tests/rt``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set

if TYPE_CHECKING:
    from .faults import AsyncFaultInjector

from ..core.adaptation import AdaptationController
from ..core.config import MirrorConfig
from ..core.functions import default_registry, simple_mirroring
from ..ois.clients import InitStateRequest
from ..ois.flightdata import EventScript
from ..workload import RoundRobinBalancer
from .channels import AsyncChannel
from .sites import EOS, AsyncCentralSite, AsyncMirrorSite

__all__ = ["AsyncRunSummary", "AsyncMirroredServer"]


@dataclass
class AsyncRunSummary:
    """What a live run produced (counters + consistency evidence)."""

    events_in: int = 0
    events_mirrored: int = 0
    events_processed_central: int = 0
    updates_distributed: int = 0
    requests_served: int = 0
    checkpoint_rounds: int = 0
    checkpoint_commits: int = 0
    #: deepest any site's backup queue ran: committed rounds keep it
    #: near ``checkpoint_freq`` x the rounds a commit takes, not the
    #: stream length
    backup_peak: int = 0
    adaptations: int = 0
    reversions: int = 0
    #: snapshot fast-path accounting, aggregated across all sites
    snapshot_builds: int = 0
    snapshot_cache_hits: int = 0
    delta_snapshots_served: int = 0
    bytes_saved_by_delta: int = 0
    adaptation_log: List[tuple] = field(default_factory=list)
    replica_digests: List[tuple] = field(default_factory=list)
    wall_seconds: float = 0.0
    mean_update_delay: float = 0.0
    #: channel backpressure evidence: deepest any subscription queue ran
    #: and how many publisher puts blocked on a full queue
    channel_high_watermark: int = 0
    channel_blocked_puts: int = 0

    @property
    def replicas_consistent(self) -> bool:
        return len(set(self.replica_digests)) <= 1


class AsyncMirroredServer:
    """Build and run one live scenario.

    Parameters
    ----------
    n_mirrors:
        Secondary mirror sites.
    mirror_config:
        Mirroring function/parameters (same objects as the simulation).
    adaptation:
        Enable the adaptation controller (config must carry monitors
        and directives).
    time_factor:
        Multiplier applied to script/request timestamps when replaying
        in wall-clock time; 0 replays as fast as possible.
    snapshot_fast_path:
        Turn on request coalescing + cached snapshot serving on every
        site (delta serving additionally honours the mirror config's
        ``delta_snapshots``/``delta_fallback_fraction``).  Off keeps the
        original serve-every-request-from-scratch behaviour.
    """

    def __init__(
        self,
        n_mirrors: int = 1,
        mirror_config: Optional[MirrorConfig] = None,
        adaptation: bool = False,
        time_factor: float = 0.0,
        request_service_delay: float = 0.0,
        engine_factory: Optional[Callable[[], Any]] = None,
        snapshot_fast_path: bool = False,
    ):
        if n_mirrors < 0:
            raise ValueError("n_mirrors must be >= 0")
        if time_factor < 0:
            raise ValueError("time_factor must be >= 0")
        if request_service_delay < 0:
            raise ValueError("request_service_delay must be >= 0")
        self.n_mirrors = n_mirrors
        self.config = mirror_config if mirror_config is not None else simple_mirroring()
        self.time_factor = time_factor
        self.request_service_delay = request_service_delay
        self.engine_factory = engine_factory
        self.adaptation_enabled = adaptation
        self.snapshot_fast_path = snapshot_fast_path
        self.central: Optional[AsyncCentralSite] = None
        self.mirrors: List[AsyncMirrorSite] = []
        #: sites killed by a fault injector during the current run
        self.crashed: Set[str] = set()
        self._site_tasks: Dict[str, List[asyncio.Task]] = {}

    def _configure_main(self, main: Any) -> None:
        main.request_service_delay = self.request_service_delay
        if self.snapshot_fast_path:
            main.coalesce_requests = True
            main.serve_cached_snapshots = True
        main.delta_snapshots = self.config.delta_snapshots
        main.delta_fallback_fraction = self.config.delta_fallback_fraction

    def _build(self) -> None:
        mirror_channel = AsyncChannel("mirror.data")
        ctrl_channel = AsyncChannel("mirror.ctrl", kind="control")
        participants = {"central"} | {f"mirror{i+1}" for i in range(self.n_mirrors)}
        adaptation = (
            AdaptationController(self.config, registry=default_registry())
            if self.adaptation_enabled
            else None
        )
        self.central = AsyncCentralSite(
            self.config, mirror_channel, ctrl_channel, participants,
            adaptation=adaptation,
        )
        if self.engine_factory is not None:
            self.central.main.ede = self.engine_factory()
        self._configure_main(self.central.main)
        self.mirrors = []
        for i in range(self.n_mirrors):
            site = f"mirror{i+1}"
            data_sub = mirror_channel.subscribe(site)
            ctrl_sub = ctrl_channel.subscribe(site)
            mirror = AsyncMirrorSite(site, data_sub, ctrl_sub, self.central.ctrl_in)
            if self.engine_factory is not None:
                mirror.main.ede = self.engine_factory()
            self._configure_main(mirror.main)
            self.mirrors.append(mirror)

    async def _source(self, script: EventScript) -> None:
        start = time.monotonic()
        for se in script.fresh_events():
            if self.time_factor > 0:
                target = start + se.at * self.time_factor
                delay = target - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            await self.central.data_in.put(se.event)
            await asyncio.sleep(0)
        await self.central.data_in.put(EOS)

    async def _requests(
        self, request_times: Sequence[float], balancer: RoundRobinBalancer
    ) -> None:
        start = time.monotonic()
        sites = {"central": self.central.main}
        for mirror in self.mirrors:
            sites[mirror.site] = mirror.main
        for i, at in enumerate(sorted(request_times)):
            if self.time_factor > 0:
                target = start + at * self.time_factor
                delay = target - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            target_site = balancer.pick()
            # re-route around crashed sites (central never crashes here:
            # live failover is the simulation backend's job, see rt.faults)
            for _ in range(len(sites)):
                if target_site not in self.crashed:
                    break
                target_site = balancer.pick()
            if target_site in self.crashed:
                target_site = "central"
            await sites[target_site].requests.put(
                InitStateRequest(client_id=f"thin{i}", issued_at=time.monotonic())
            )
            await asyncio.sleep(0)

    def crash_site(self, site: str) -> None:
        """Fail-stop ``site`` mid-run: cancel its tasks, drop its feeds.

        Only mirror sites can be killed in the live prototype — central
        failover (detection + promotion) belongs to the simulation
        backend (:mod:`repro.faults`).
        """
        if site == "central":
            raise ValueError(
                "the live runtime supports mirror crashes only; central "
                "failover is modelled by the simulation backend"
            )
        if site not in self._site_tasks:
            raise ValueError(f"unknown site {site!r}")
        if site in self.crashed:
            return
        self.crashed.add(site)
        # stop event/control delivery first so publishers never block on
        # a queue nobody will drain again
        self.central.mirror_channel.unsubscribe(site)
        self.central.ctrl_channel.unsubscribe(site)
        for task in self._site_tasks[site]:
            task.cancel()
        # unblock any publisher caught mid-put on the dead site's full
        # queues: drop whatever was queued (fail-stop loses volatile state)
        mirror = next(m for m in self.mirrors if m.site == site)
        for queue in (mirror.data_in.queue, mirror.ctrl_in.queue,
                      mirror.main.inbox, mirror.main.requests):
            while not queue.empty():
                queue.get_nowait()

    async def run(
        self,
        script: EventScript,
        request_times: Sequence[float] = (),
        fault_injector: Optional["AsyncFaultInjector"] = None,
    ) -> AsyncRunSummary:
        """Replay ``script`` (and requests) through the live server.

        ``fault_injector`` (an :class:`~repro.rt.faults.AsyncFaultInjector`)
        runs alongside the drivers and may fail-stop mirror sites
        mid-run; crashed sites are excluded from request routing, the
        drain barrier, and the consistency evidence.
        """
        self._build()
        self.crashed = set()
        central = self.central
        t0 = time.monotonic()

        self._site_tasks = {
            "central": [
                asyncio.create_task(central.receiving_task()),
                asyncio.create_task(central.sending_task()),
                asyncio.create_task(central.control_task()),
                asyncio.create_task(central.main.event_loop()),
                asyncio.create_task(central.main.request_loop()),
            ]
        }
        for mirror in self.mirrors:
            self._site_tasks[mirror.site] = [
                asyncio.create_task(mirror.receiving_task()),
                asyncio.create_task(mirror.control_task()),
                asyncio.create_task(mirror.main.event_loop()),
                asyncio.create_task(mirror.main.request_loop()),
            ]
        tasks = [t for ts in self._site_tasks.values() for t in ts]

        drivers = [asyncio.create_task(self._source(script))]
        if request_times:
            targets = (
                [m.site for m in self.mirrors] if self.mirrors else ["central"]
            )
            drivers.append(
                asyncio.create_task(
                    self._requests(request_times, RoundRobinBalancer(targets))
                )
            )
        if fault_injector is not None:
            drivers.append(asyncio.create_task(fault_injector.drive(self)))

        await asyncio.gather(*drivers)
        await central.stream_done.wait()
        # propagate shutdown: mirrors drain their data queues, then stop
        await central.mirror_channel.publish(EOS)
        await central.ctrl_channel.publish(EOS)
        # let queues drain (a crashed mirror's queues will never move)
        alive_mirrors = [m for m in self.mirrors if m.site not in self.crashed]
        while any(
            m.main.inbox.qsize() or m.data_in.level() for m in alive_mirrors
        ) or central.main.inbox.qsize():
            await asyncio.sleep(0.001)
        for site_main in [central.main] + [m.main for m in alive_mirrors]:
            await site_main.requests.put(EOS)
        await central.ctrl_in.put(EOS)
        # crashed sites' tasks end in CancelledError; don't let that
        # propagate past the survivors' clean exits
        await asyncio.gather(*tasks, return_exceptions=True)

        mains = [central.main] + [m.main for m in alive_mirrors]
        subs = (
            central.mirror_channel.subscriptions
            + central.ctrl_channel.subscriptions
        )
        summary = AsyncRunSummary(
            events_in=len(script),
            events_mirrored=central.mirrored_events,
            events_processed_central=central.main.ede.processed,
            updates_distributed=central.main.updates_distributed,
            requests_served=len(central.main.responses)
            + sum(len(m.main.responses) for m in self.mirrors),
            checkpoint_rounds=central.coordinator.rounds_started,
            checkpoint_commits=central.coordinator.rounds_committed,
            backup_peak=max(
                [central.backup.peak] + [m.backup.peak for m in self.mirrors]
            ),
            adaptations=(
                central.adaptation.adaptations if central.adaptation else 0
            ),
            reversions=(
                central.adaptation.reversions if central.adaptation else 0
            ),
            snapshot_builds=sum(m.snapshot_builds for m in mains),
            snapshot_cache_hits=sum(m.snapshot_cache_hits for m in mains),
            delta_snapshots_served=sum(m.delta_snapshots_served for m in mains),
            bytes_saved_by_delta=sum(m.bytes_saved_by_delta for m in mains),
            adaptation_log=list(central.adaptation_log),
            replica_digests=[central.main.ede.state_digest()]
            + [m.main.ede.state_digest() for m in alive_mirrors],
            wall_seconds=time.monotonic() - t0,
            mean_update_delay=(
                central.main.update_delay_sum / central.main.updates_distributed
                if central.main.updates_distributed
                else 0.0
            ),
            channel_high_watermark=max(
                (s.high_watermark for s in subs), default=0
            ),
            channel_blocked_puts=sum(s.blocked_puts for s in subs),
        )
        return summary
