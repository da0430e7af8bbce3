"""Live (asyncio) central and mirror sites.

Each site runs the same unit split as the simulation backend — an
auxiliary unit (receiving/sending/control tasks) and a main unit (EDE +
request service) — as asyncio tasks.  All protocol logic is the *same
objects* the simulation uses: :class:`~repro.core.rules.RuleEngine`,
:class:`~repro.core.checkpoint.CheckpointCoordinator` /
:class:`MainUnitCheckpointer`, :class:`~repro.core.queues.BackupQueue`
and :class:`~repro.core.adaptation.AdaptationController`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional

from ..core.adaptation import (
    MONITOR_BACKUP_QUEUE,
    MONITOR_PENDING_REQUESTS,
    MONITOR_READY_QUEUE,
    AdaptationController,
)
from ..core.checkpoint import (
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from ..core.config import MirrorConfig
from ..core.events import EventBatch, UpdateEvent, VectorTimestamp
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.ede import EventDerivationEngine
from ..core.queues import BackupQueue
from ..shard.handoff import (
    ShardControl,
    ShardHandoff,
    ShardTransfer,
    extract_transfer,
    install_transfer,
)
from .channels import AsyncChannel, AsyncSubscription

__all__ = [
    "EOS",
    "AsyncMainUnit",
    "CheckpointCadence",
    "AsyncCentralSite",
    "AsyncMirrorSite",
]

EOS = "__end_of_stream__"


class CheckpointCadence:
    """Whether a live cadence point may start a new checkpoint round.

    The paper's rule starts a round at every cadence point and lets it
    supersede a round still collecting replies.  On a saturated event
    loop that supersedes every round before its CHKPT -> CHKPT_REP round
    trip can finish, so nothing ever commits and every backup queue
    keeps the whole stream.  Here a round still collecting is
    superseded only once it has stayed open for ``patience`` cadence
    points.  ``patience`` starts at 1 (the paper's rule), doubles on
    every supersede up to :attr:`MAX_PATIENCE` and halves on every
    commit, so it settles near the round-trip time the loop actually
    delivers.  A round wedged by a lost CHKPT or CHKPT_REP is still
    superseded within ``MAX_PATIENCE`` cadence points.
    """

    MAX_PATIENCE = 16

    __slots__ = ("patience", "_waited")

    def __init__(self) -> None:
        self.patience = 1
        #: cadence points the collecting round has seen so far
        self._waited = 0

    def admit(self, collecting: bool) -> bool:
        """One cadence point: True when a new round should start now."""
        if not collecting:
            self._waited = 0
            return True
        self._waited += 1
        if self._waited < self.patience:
            return False
        self._waited = 0
        self.patience = min(self.patience * 2, self.MAX_PATIENCE)
        return True

    def on_commit(self) -> None:
        self.patience = max(1, self.patience // 2)


class AsyncMainUnit:
    """EDE host + request service for one live site."""

    def __init__(
        self,
        site: str,
        clock: Callable[[], float] = time.monotonic,
        request_service_delay: float = 0.0,
        engine_factory: Optional[Callable[[], Any]] = None,
    ):
        self.site = site
        self.clock = clock
        #: wall-clock seconds each initial-state request takes to serve
        #: (stands in for the snapshot-build CPU cost the simulation
        #: backend models explicitly)
        self.request_service_delay = request_service_delay
        #: business logic: anything with process(event) -> outputs and
        #: state_digest(); defaults to the airline EDE.  Engines exposing
        #: .state.snapshot() serve real snapshots; others get a stub.
        self.ede = engine_factory() if engine_factory is not None else EventDerivationEngine()
        self.checkpointer = MainUnitCheckpointer(site)
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.requests: asyncio.Queue = asyncio.Queue()
        self.responses: List[InitStateResponse] = []
        #: outputs distributed (distribute_updates on) and the sum of
        #: their update delays: counters, not lists, so a long run does
        #: not retain every output
        self.updates_distributed = 0
        self.update_delay_sum = 0.0
        self._pending_requests = 0
        self.distribute_updates = False
        #: snapshot fast path (all off = the original serve-from-scratch
        #: behaviour; AsyncMirroredServer(snapshot_fast_path=True) wires
        #: these on for every site)
        self.coalesce_requests = False
        self.serve_cached_snapshots = False
        self.delta_snapshots = False
        self.delta_fallback_fraction = 0.25
        #: fast-path accounting (mirrors RunMetrics in the sim backend)
        self.snapshot_builds = 0
        self.snapshot_cache_hits = 0
        self.delta_snapshots_served = 0
        self.bytes_saved_by_delta = 0
        #: cross-shard handoff (repro.shard): a central main unit with a
        #: queue here replies to tombstones with transfer frames; mirrors
        #: (and unsharded centrals) leave it None and only apply them
        self.shard_out: Optional[asyncio.Queue] = None
        self.handoffs_out = 0
        self.transfers_in = 0

    def pending_requests(self) -> int:
        """Outstanding request count (queued + in service)."""
        return self.requests.qsize() + self._pending_requests

    async def event_loop(self) -> None:
        """Drain the inbox through the business logic until EOS.

        Accepts whole :class:`EventBatch` items as well as single
        events: batched mirror transports forward a batch as one queue
        item, paying the asyncio hop once per batch instead of once per
        event."""
        while True:
            item = await self.inbox.get()
            if item == EOS:
                break
            if isinstance(item, ShardControl):
                # arrives on the same queue as events, so everything
                # enqueued before it has been applied by now
                await self._apply_shard_control(item)
                continue
            events = item.events if isinstance(item, EventBatch) else (item,)
            ede = self.ede
            note_processed = self.checkpointer.note_processed
            if self.distribute_updates:
                clock = self.clock
                for event in events:
                    outputs = ede.process(event)
                    note_processed(event.stream, event.seqno)
                    for out in outputs:
                        self.updates_distributed += 1
                        self.update_delay_sum += clock() - out.entered_at
            elif getattr(ede, "supports_discard", False):
                # outputs are dropped anyway: one fused bulk call skips
                # building per-event update copies and per-event frames;
                # advancing the checkpoint floor directly skips the
                # note_processed wrapper (same in-place advance)
                ede.process_many(
                    events, self.checkpointer.processed_vt.advance
                )
            else:
                for event in events:
                    ede.process(event)
                    note_processed(event.stream, event.seqno)
            await asyncio.sleep(0)  # cooperative yield

    async def _apply_shard_control(self, item: ShardControl) -> None:
        """Apply a handoff tombstone or transfer install in stream order.

        A :class:`ShardHandoff` extracts + removes the flight; when this
        unit has a ``shard_out`` queue (a central shard's main unit) the
        resulting :class:`ShardTransfer` is emitted for the router —
        mirrors just tombstone.  A received transfer installs the
        flight's state ahead of its post-handoff updates.
        """
        if isinstance(item, ShardHandoff):
            transfer = extract_transfer(self.ede, item)
            self.handoffs_out += 1
            if self.shard_out is not None:
                await self.shard_out.put(transfer)
        elif isinstance(item, ShardTransfer):
            install_transfer(self.ede, item)
            self.transfers_in += 1

    async def request_loop(self) -> None:
        """Serve initial-state requests until EOS.

        With ``coalesce_requests`` on, every request already queued when
        one is picked up is drained into the same service batch: the
        snapshot-build delay is paid once for the whole batch instead of
        once per request (the coalescing the simulation backend models
        with shared build events).  All flags off reproduces the
        original serve-from-scratch loop exactly.
        """
        while True:
            request = await self.requests.get()
            if request == EOS:
                break
            batch = [request]
            if self.coalesce_requests:
                while True:
                    try:
                        batch.append(self.requests.get_nowait())
                    except asyncio.QueueEmpty:
                        break
            eos_drained = EOS in batch
            live = [r for r in batch if r != EOS]
            self._pending_requests += len(live)
            state = getattr(self.ede, "state", None)
            if self.request_service_delay > 0:
                if self.serve_cached_snapshots and state is not None:
                    # one build amortised over the batch; a fresh cache
                    # skips the build delay entirely
                    if not state.cache_fresh:
                        await asyncio.sleep(self.request_service_delay)
                else:
                    for _ in live:
                        await asyncio.sleep(self.request_service_delay)
            # the straddle is the point: _pending_requests is a monitor-
            # visible in-service gauge, raised before the service delay
            # and drained per response; this loop is its only writer
            for req in live:
                self.responses.append(self._serve_one(req, state))
                self._pending_requests -= 1  # lint: allow-async-interleaving
            await asyncio.sleep(0)
            if eos_drained:
                break

    def _serve_one(
        self, request: InitStateRequest, state: Any
    ) -> InitStateResponse:
        """Build the response for one request (delta path when enabled
        and the request carries resume capability)."""
        if state is None:
            # engines without a state store (e.g. alternate scoreboard
            # engines) get the stub snapshot, as before
            return InitStateResponse(
                client_id=request.client_id,
                issued_at=request.issued_at,
                served_at=self.clock(),
                snapshot_size=2048,
                served_by=self.site,
            )
        if self.delta_snapshots and getattr(request, "resumable", False):
            builds_before = state.snapshot_builds
            view = state.delta_snapshot(
                self.clock(),
                since_generation=request.resume_generation,
                since_marks=request.resume_as_of,
                max_fraction=self.delta_fallback_fraction,
            )
            if state.snapshot_builds > builds_before:
                self.snapshot_builds += 1
            elif not view.is_delta:
                self.snapshot_cache_hits += 1
            if view.is_delta:
                self.delta_snapshots_served += 1
                self.bytes_saved_by_delta += view.bytes_saved
            return InitStateResponse(
                client_id=request.client_id,
                issued_at=request.issued_at,
                served_at=self.clock(),
                snapshot_size=view.size,
                served_by=self.site,
                generation=view.generation,
                delta=view.is_delta,
                full_size=view.full_size if view.is_delta else view.size,
            )
        builds_before = state.snapshot_builds
        snapshot = state.snapshot(self.clock())
        if state.snapshot_builds > builds_before:
            self.snapshot_builds += 1
        else:
            self.snapshot_cache_hits += 1
        return InitStateResponse(
            client_id=request.client_id,
            issued_at=request.issued_at,
            served_at=self.clock(),
            snapshot_size=snapshot.size,
            served_by=self.site,
            generation=snapshot.generation,
        )


class AsyncCentralSite:
    """Live central site: auxiliary unit + main unit + coordinator."""

    def __init__(
        self,
        config: MirrorConfig,
        mirror_channel: AsyncChannel,
        ctrl_channel: AsyncChannel,
        participants: set,
        adaptation: Optional[AdaptationController] = None,
        clock: Callable[[], float] = time.monotonic,
        site: str = "central",
    ):
        self.config = config
        self.clock = clock
        self.site = site
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        self.adaptation = adaptation
        self.main = AsyncMainUnit(site, clock=clock)
        self.main.distribute_updates = True
        self.data_in: asyncio.Queue = asyncio.Queue(maxsize=256)
        self.ctrl_in: asyncio.Queue = asyncio.Queue()
        self.ready: asyncio.Queue = asyncio.Queue(maxsize=64)
        self.backup = BackupQueue()
        self.engine = config.build_engine()
        self.coordinator = CheckpointCoordinator(participants)
        self.cadence = CheckpointCadence()
        self.clock_vt = VectorTimestamp()
        self.processed_events = 0
        self.mirrored_events = 0
        self.adaptation_log: List[tuple] = []
        self.stream_done = asyncio.Event()

    def apply_config(self, config: MirrorConfig) -> None:
        """Hot-swap the mirroring configuration (status table survives)."""
        self.config = config
        self.engine = config.build_engine(table=self.engine.table)

    def monitor_readings(self) -> Dict[str, float]:
        """Central-site monitored variables."""
        return {
            MONITOR_READY_QUEUE: float(self.ready.qsize()),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main.pending_requests()),
        }

    async def receiving_task(self) -> None:
        """Stamp incoming events and feed the ready queue.

        Accepts either single events or lists of events per queue item:
        a chunked feed pays the ``data_in`` hop once per chunk (the
        stamping itself is identical either way)."""
        while True:
            item = await self.data_in.get()
            if item == EOS:
                await self.ready.put(EOS)
                break
            if isinstance(item, ShardControl):
                # no stamp (control frames carry no vt); queue position
                # alone orders it against the surrounding events
                await self.ready.put(item)
                continue
            events = item if type(item) is list else (item,)
            ready = self.ready
            clock = self.clock
            for event in events:
                self.clock_vt = self.clock_vt.advanced(event.stream, event.seqno)
                stamped = event.stamped(self.clock_vt, clock())
                # a put on a non-full queue never blocks: skip the
                # per-event coroutine when there is room
                if ready.full():
                    await ready.put(stamped)
                else:
                    ready.put_nowait(stamped)

    async def sending_task(self) -> None:
        """fwd() everything; mirror() what the rules pass; checkpoint."""
        while True:
            item = await self.ready.get()
            if item == EOS:
                await self._finish_stream()
                break
            if isinstance(item, ShardControl):
                await self._shard_barrier(item)
                continue
            # drain events already waiting on the ready queue, at every
            # batch size (never awaiting more — an empty queue ships what's
            # in hand, so a lone event on an idle loop goes out at once)
            cap = max(self.config.batch_size, self.ready.maxsize)
            members = [item]
            eos_seen = False
            pending_ctrl: Optional[ShardControl] = None
            while len(members) < cap:
                try:
                    nxt = self.ready.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt == EOS:
                    eos_seen = True
                    break
                if isinstance(nxt, ShardControl):
                    # barrier: ship what's in hand first, then the frame
                    pending_ctrl = nxt
                    break
                members.append(nxt)
            outs = self.engine.forward_many(members)
            drained = len(members)
            # fwd(): the local EDE sees everything, one inbox hop per
            # batch (its event loop unpacks EventBatch items)
            if drained == 1:
                await self.main.inbox.put(item)
            else:
                await self.main.inbox.put(EventBatch(members))
            await self._mirror_batch(outs)
            for _ in range(drained):
                self.processed_events += 1
                if self.processed_events % self.config.checkpoint_freq == 0:
                    await self._initiate_checkpoint()
            if pending_ctrl is not None:
                await self._shard_barrier(pending_ctrl)
            if eos_seen:
                await self._finish_stream()
                break

    async def _shard_barrier(self, ctrl: ShardControl) -> None:
        """Pass a handoff control frame through in strict stream order.

        Both engine stages flush first — a coalescing window could
        otherwise hold a pre-handoff update for the transferring flight
        past its tombstone.  The frame then goes to the local main unit
        *and* to every mirror on the data channel, bypassing mirroring
        rules (control must never be filtered or coalesced) and the
        backup queue (it carries no vector timestamp to trim by).
        """
        for out in self.engine.flush("receive"):
            await self._mirror(self.engine.on_send(out))
        for out in self.engine.flush("send"):
            await self._mirror([out])
        await self.main.inbox.put(ctrl)
        await self.mirror_channel.publish(ctrl)

    async def _finish_stream(self) -> None:
        for out in self.engine.flush("receive"):
            await self._mirror(self.engine.on_send(out))
        for out in self.engine.flush("send"):
            await self._mirror([out])
        await self._initiate_checkpoint(final=True)
        await self.main.inbox.put(EOS)
        self.stream_done.set()

    async def _mirror(self, outs: List[UpdateEvent]) -> None:
        for out in outs:
            await self.mirror_channel.publish(out)
            self.backup.append(out)
            self.mirrored_events += 1

    async def _mirror_batch(self, outs: List[UpdateEvent]) -> None:
        if not outs:
            return
        if len(outs) == 1:
            await self._mirror(outs)
            return
        await self.mirror_channel.publish_batch(outs)
        self.backup.extend(outs)
        self.mirrored_events += len(outs)

    async def _initiate_checkpoint(self, final: bool = False) -> None:
        """Start a round at a cadence point (``final``: end of stream,
        which always starts one so the last commit covers every event)."""
        proposal = self.backup.last_vt()
        if proposal is None:
            return
        if not final and not self.cadence.admit(self.coordinator.collecting):
            return
        msg = self.coordinator.initiate(proposal)
        if msg is None:
            return
        reply = self.main.checkpointer.on_chkpt(msg, self.monitor_readings())
        commit = self.coordinator.on_reply(reply)
        if commit is not None:
            await self._broadcast_commit(commit)
            return
        await self.ctrl_channel.publish(msg)

    async def control_task(self) -> None:
        """Collect checkpoint votes; broadcast commits."""
        while True:
            msg = await self.ctrl_in.get()
            if msg == EOS:
                break
            if isinstance(msg, ChkptRepMsg):
                commit = self.coordinator.on_reply(msg)
                if commit is not None:
                    await self._broadcast_commit(commit)

    async def _broadcast_commit(self, commit: CommitMsg) -> None:
        if self.adaptation is not None:
            monitored = dict(self.coordinator.monitored_view())
            for index, value in self.monitor_readings().items():
                monitored[index] = max(monitored.get(index, 0.0), value)
            command = self.adaptation.evaluate(monitored)
            if command is not None:
                commit = commit.with_adapt(command)
                self.apply_config(command.config)
                self.adaptation_log.append(
                    (self.clock(), command.action, command.config.function_name)
                )
        self.cadence.on_commit()
        self.backup.trim(self.main.checkpointer.on_commit(commit))
        await self.ctrl_channel.publish(commit)


class AsyncMirrorSite:
    """Live mirror site: receive mirrored events, serve requests,
    answer checkpoint control traffic."""

    def __init__(
        self,
        site: str,
        data_in: AsyncSubscription,
        ctrl_in: AsyncSubscription,
        reply_to: asyncio.Queue,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.site = site
        self.clock = clock
        self.data_in = data_in
        self.ctrl_in = ctrl_in
        self.reply_to = reply_to
        self.main = AsyncMainUnit(site, clock=clock)
        self.backup = BackupQueue()
        self.applied_config: Optional[MirrorConfig] = None
        self._applied_adapt_seq = 0
        self.stopped = asyncio.Event()

    def monitor_readings(self) -> Dict[str, float]:
        """Mirror-site monitored variables (piggybacked on votes)."""
        return {
            MONITOR_READY_QUEUE: float(self.data_in.level()),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main.pending_requests()),
        }

    async def receiving_task(self) -> None:
        """Back up and forward mirrored events to the local main unit."""
        while True:
            event = await self.data_in.get()
            if event == EOS:
                await self.main.inbox.put(EOS)
                break
            if isinstance(event, ShardControl):
                # ordered passthrough: no backup (nothing to trim by),
                # no stamping — the main unit applies it in-place
                await self.main.inbox.put(event)
                continue
            if isinstance(event, EventBatch):
                self.backup.extend(event.events)
                # forward the batch whole: one inbox hop per batch (the
                # event loop unpacks it)
                await self.main.inbox.put(event)
                continue
            self.backup.append(event)
            await self.main.inbox.put(event)

    async def control_task(self) -> None:
        """Answer CHKPT proposals; apply COMMITs and adaptations."""
        while True:
            msg = await self.ctrl_in.get()
            if msg == EOS:
                break
            if isinstance(msg, ChkptMsg):
                reply = self.main.checkpointer.on_chkpt(
                    msg, self.monitor_readings()
                )
                await self.reply_to.put(reply)
            elif isinstance(msg, CommitMsg):
                if msg.adapt is not None and msg.adapt.seq > self._applied_adapt_seq:
                    self._applied_adapt_seq = msg.adapt.seq
                    self.applied_config = msg.adapt.config
                self.backup.trim(self.main.checkpointer.on_commit(msg))
