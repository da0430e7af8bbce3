"""The system under test, one instance per process.

``run.py`` launches this file as a child process with one JSON argument
(the workload spec) and ``src`` on ``PYTHONPATH``.  The child speaks a
line protocol on stdout: one JSON object per line, ``{"kind": ...}``.

* ``sim``: runs Figure 9 scenarios through the DES until its time budget
  is spent and reports each scenario's ``RunMetrics.summary()``.
* ``live``: central plus mirrors on one event loop over loopback TCP,
  built from ``NetCentral``/``NetMirror``.  Events arrive on a ``source``
  connection the load generator opens; thin clients and subscribers
  connect to mirror 1.  Prints ``ready`` once listeners are bound and the
  mirrors are connected, ``stream_done`` when the central site has
  processed the generator's EOS, then waits for ``finish`` on stdin
  before shutting the topology down and printing ``result``.
* ``sharded``: one ``run_sharded_scenario`` call; the ingress router's
  own ``route_script`` is the (closed-loop) generator.

With ``trace`` set, :mod:`tracer` wraps the layer entry points before the
system is built, and the result carries the per-layer report.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional

#: width of the simulated-time slices whose wall cost is the DES latency
SIM_SLICE_S = 0.1


#: the host-speed probe: a fixed pure-Python kernel of PROBE_ITERS
#: iterations, timed PROBE_REPS times at each probe point outside the
#: measured work; a live server also runs a 1/PROBE_SLICES slice of it
#: every PROBE_PERIOD_S while it serves
PROBE_ITERS = 20_000
PROBE_REPS = 7
PROBE_SLICES = 20
PROBE_PERIOD_S = 0.05
#: the DES times a 1/SIM_PROBE_SLICES slice at every slice boundary
SIM_PROBE_SLICES = 80


def _probe_kernel(iters: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iters):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc = (acc + i * 7) ^ (acc >> 3)
    return acc


def probe() -> float:
    """Seconds the probe kernel takes on this process's CPU now (median of
    PROBE_REPS): the host-speed reference ``run.py`` scales by."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_kernel(PROBE_ITERS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_slice(slices: int = PROBE_SLICES) -> float:
    """Seconds a 1/slices slice of the probe kernel takes, scaled to a
    whole kernel.  The collector is held off meanwhile: a collection the
    slice happened to trigger would read as a many times slower host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_kernel(PROBE_ITERS // slices)
        return (time.perf_counter() - t0) * slices
    finally:
        if enabled:
            gc.enable()


def robust_mean(values: List[float]) -> float:
    """Mean of the probe samples no more than twice their median.  The
    host speed flips between two modes about 1.7x apart, so a mean, not a
    median, is the time-average; a slice the host stalled for a few ms is
    an outlier 20x over, and is dropped."""
    limit = 2.0 * statistics.median(values)
    return statistics.mean(v for v in values if v <= limit)


async def probe_while_serving(samples: List[List[float]]) -> None:
    """Time a kernel slice every PROBE_PERIOD_S on the server's own loop,
    each sample scaled to a whole kernel and stamped with the monotonic
    clock the generator also reads: the host speed during the measured
    window itself, at a cost of about 0.5% of the loop."""
    while True:
        await asyncio.sleep(PROBE_PERIOD_S)
        samples.append([time.monotonic(), probe_slice()])


def root_span(tracer: Any, name: str) -> ContextManager[None]:
    """The harness span a traced run's layer spans nest in (no-op untraced)."""
    return nullcontext() if tracer is None else tracer.span(name)


def emit(kind: str, **fields: Any) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lanes() -> Dict[str, Any]:
    from repro.sim import SIM_ACCEL_ACTIVE
    from repro.wire import accel as wire_accel

    return {"wire": "c" if wire_accel.AVAILABLE else "py",
            "sim": "c" if SIM_ACCEL_ACTIVE else "py"}


def sim_script(seed: int):
    """Figure 9 at paper scale: 30 flights, 2,000 positions/s for 15 s."""
    from repro.experiments import figure9
    from repro.ois import FlightDataConfig, generate_script

    n_events = int(figure9.WINDOW_S * figure9.POSITION_RATE)
    wl = FlightDataConfig(
        n_flights=30,
        positions_per_flight=max(1, n_events // 30),
        event_size=figure9.EVENT_SIZE,
        position_rate=figure9.POSITION_RATE,
        seed=seed,
    )
    return wl, generate_script(wl)


def sim_config(wl):
    from repro.core import ScenarioConfig
    from repro.experiments import figure9
    from repro.workload import BurstyPattern, arrival_times

    requests = arrival_times(
        BurstyPattern(base_rate=figure9.BASE_REQ_RATE, bursts=(figure9.BURST,)),
        horizon=figure9.WINDOW_S,
    )
    return ScenarioConfig(
        n_mirrors=1,
        mirror_config=figure9.adaptive_base_config(),
        workload=wl,
        request_times=requests,
        adaptation=True,
    )


class SliceClock:
    """Wall time the DES spends on each slice of simulated time, read at
    every update the central EDE sends (``UpdateDelayTracker.observe``
    carries the simulated send time).  Adds no simulation events.

    At every slice boundary it also times a 1/SIM_PROBE_SLICES slice of
    the probe kernel (about 1% of the slice): the host speed while the
    scenario itself runs.  Each slice sample is paired with the mean of
    the probes at its two ends (``speeds``).  The probe's own time is
    kept out of the slice samples and counted in ``probe_wall``, which
    the caller takes off the scenario's wall time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.speeds: List[float] = []
        self.probes: List[float] = []
        self.probe_wall = 0.0
        self._slice = -1
        self._t = 0.0

    def start(self) -> None:
        self._slice = -1
        self.probes = []
        self.probe_wall = 0.0
        self._t = time.perf_counter()

    def install(self) -> None:
        from repro.metrics.collectors import UpdateDelayTracker

        orig = UpdateDelayTracker.observe
        clock = self

        def observe(tracker: Any, now: float, entered_at: float) -> None:
            orig(tracker, now, entered_at)
            k = int(now / SIM_SLICE_S)
            if k != clock._slice:
                t = time.perf_counter()
                speed = probe_slice(SIM_PROBE_SLICES)
                t_end = time.perf_counter()
                clock.probe_wall += t_end - t
                if clock._slice >= 0:
                    clock.samples.append(t - clock._t)
                    clock.speeds.append((clock.probes[-1] + speed) / 2)
                clock.probes.append(speed)
                clock._slice = k
                clock._t = t_end

        UpdateDelayTracker.observe = observe


def run_sim(spec: Dict[str, Any]) -> None:
    from repro.core import run_scenario
    from repro.experiments import figure9  # noqa: F401  (import before ready)

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    slices = SliceClock()
    slices.install()
    t0 = time.monotonic()
    probes = [probe()]
    emit("ready", t=time.monotonic(), probe_wall_s=time.monotonic() - t0,
         lanes=lanes(), loop="none")
    scenarios = []
    run_wall = 0.0
    traced_wall = 0.0
    window: List[float] = []
    for seed in spec["scenario_seeds"]:
        wl, script = sim_script(seed)
        config = sim_config(wl)
        if scenarios:
            probes.append(probe())
        slices.start()
        t0 = time.perf_counter()
        with root_span(tracer, "sim"):
            metrics = run_scenario(config, script=script).metrics
        elapsed = time.perf_counter() - t0
        traced_wall += elapsed
        wall = elapsed - slices.probe_wall
        run_wall += wall
        window += slices.probes
        scenarios.append({
            "seed": seed,
            "events": len(script),
            "wall_s": wall,
            "probe_s": robust_mean(slices.probes) if slices.probes else None,
            "summary": metrics.summary(),
        })
        # stop when another scenario would overrun the budget by more
        # than half a scenario
        if run_wall + wall / 2 >= spec["budget_s"]:
            break
    probes.append(probe())
    report = None
    if tracer is not None:
        import tracer as tracing

        report = tracing.layer_report(tracer, "sim")
        report["trace.wall_s"] = traced_wall
    emit("result", scenarios=scenarios, slice_s=slices.samples,
         slice_probe_s=slices.speeds,
         probe_s=statistics.mean(probes),
         window_probe_s=robust_mean(window) if window else None,
         rss_mb=peak_rss_mb(), trace=report)


async def _read_stdin_line() -> str:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    try:
        return (await reader.readline()).decode().strip()
    finally:
        transport.close()


async def serve_live(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.functions import simple_mirroring
    from repro.rt.net import NetCentral, NetMirror, WireStats
    from repro.rt.sites import EOS

    config = simple_mirroring()
    config.batch_size = spec["batch_size"]
    central = NetCentral(n_mirrors=spec["mirrors"], config=config)
    window: List[List[float]] = []
    mirrors: List[NetMirror] = []
    mirror_tasks: List[asyncio.Task] = []
    central_tasks: List[asyncio.Task] = []
    try:
        port = await central.start()
        mirrors = [NetMirror(name, config=config) for name in central.mirror_names]
        client_ports = [await m.serve_clients() for m in mirrors]
        mirror_tasks = [asyncio.create_task(m.run("127.0.0.1", port)) for m in mirrors]
        await central.mirrors_connected.wait()
        site = central.site
        central_tasks = [
            asyncio.create_task(site.receiving_task()),
            asyncio.create_task(site.sending_task()),
            asyncio.create_task(site.control_task()),
            asyncio.create_task(site.main.event_loop()),
        ]
        cpu0 = time.process_time()
        t_ready = time.monotonic()
        loop = asyncio.get_running_loop()
        emit("ready", t=t_ready, central_port=port, client_port=client_ports[0],
             probe_wall_s=spec["probe_wall_s"], lanes=lanes(),
             loop=f"{type(loop).__module__}.{type(loop).__name__}")
        prober = asyncio.create_task(probe_while_serving(window))
        await site.stream_done.wait()
        t_done = time.monotonic()
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
        cpu_s = time.process_time() - cpu0
        emit("stream_done", t=t_done, processed=site.processed_events)
        if await _read_stdin_line() != "finish":
            raise RuntimeError("generator went away before finishing")
        await central.shutdown_stream()
        await central.wait_mirrors_done()
        await asyncio.gather(*mirror_tasks)
        await site.ctrl_in.put(EOS)
        await asyncio.gather(*central_tasks)
        await central.close()
    finally:
        for task in (*mirror_tasks, *central_tasks):
            task.cancel()
        await asyncio.gather(*mirror_tasks, *central_tasks, return_exceptions=True)
        await central.close()
        for mirror in mirrors:
            await mirror.close()
    stats = WireStats()
    stats.merge(central.stats)
    for mirror in mirrors:
        stats.merge(mirror.stats)
    subs = [sub for channel in (site.mirror_channel, site.ctrl_channel)
            for sub in channel.subscriptions]
    subs += [m.data_sub for m in mirrors] + [m.ctrl_sub for m in mirrors]
    return {
        "t_ready": t_ready,
        "t_done": t_done,
        "server_cpu_s": cpu_s,
        "digests": [repr(site.main.ede.state_digest())]
        + [repr(m.site.main.ede.state_digest()) for m in mirrors],
        "wire": dataclasses.asdict(stats),
        "queue_high_watermark": max((s.high_watermark for s in subs), default=0),
        "blocked_puts": sum(s.blocked_puts for s in subs),
        "window_probe_s": robust_mean([v for _t, v in window]) if window else None,
        "window_probes": window,
    }


def run_live(spec: Dict[str, Any]) -> None:
    # the same GC pacing run_net_scenario applies around a live run
    gc.set_threshold(50_000, *gc.get_threshold()[1:])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(idle_span=True)
    t_probe = time.monotonic()
    first = probe()
    spec = dict(spec, probe_wall_s=time.monotonic() - t_probe)
    t0 = time.perf_counter()
    with root_span(tracer, "rt.loop"):
        out = asyncio.run(serve_live(spec))
    wall = time.perf_counter() - t0
    out["probe_s"] = (first + probe()) / 2
    if tracer is not None:
        import tracer as tracing

        out["trace"] = tracing.layer_report(tracer, "rt.loop")
        out["trace"]["trace.wall_s"] = wall
    out["rss_mb"] = peak_rss_mb()
    emit("result", **out)


class _StampedList(list):
    """``IngressRouter.sub_events`` replacement that notes when each chunk
    of matched events arrived back at the router."""

    def __init__(self) -> None:
        super().__init__()
        self.chunks: List[tuple] = []  # (end index, monotonic time)

    def append(self, item: Any) -> None:
        super().append(item)
        self.chunks.append((len(self), time.monotonic()))

    def extend(self, items: Any) -> None:
        super().extend(items)
        self.chunks.append((len(self), time.monotonic()))


def run_sharded(spec: Dict[str, Any]) -> None:
    from repro.ois import FlightDataConfig, generate_script
    from repro.rt.shards import IngressRouter, ShardRuntime, run_sharded_scenario
    from repro.shard.handoff import RoutingCore
    from repro.sub.predicate import ByFlight

    t_imported = time.monotonic()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(idle_span=True)
    script = generate_script(FlightDataConfig(
        n_flights=spec["flights"],
        positions_per_flight=spec["positions_per_flight"],
        handoffs=spec["handoffs"],
        seed=spec["seed"],
    ))
    subscriptions = [(f"c{i}", ByFlight(key))
                     for i, key in enumerate(script.flight_keys())]

    # end-to-end probes: when the router first routes each event, when
    # the router begins routing, and when each shard finishes
    routed_at: Dict[tuple, float] = {}
    marks: Dict[str, Any] = {"route_start": None, "shards_done": 0.0}
    routers: List[Any] = []
    orig_route = RoutingCore.route
    orig_init = IngressRouter.__init__
    orig_run_script = IngressRouter.run_script
    orig_complete = ShardRuntime.run_to_completion

    def route(core: Any, event: Any) -> Any:
        routed_at.setdefault((event.stream, event.seqno), time.monotonic())
        return orig_route(core, event)

    def init(router: Any, *args: Any, **kwargs: Any) -> None:
        orig_init(router, *args, **kwargs)
        router.sub_events = _StampedList()
        routers.append(router)

    async def run_script(router: Any, script_: Any) -> None:
        marks["route_start"] = time.monotonic()
        await orig_run_script(router, script_)

    async def run_to_completion(runtime: Any) -> None:
        await orig_complete(runtime)
        marks["shards_done"] = max(marks["shards_done"], time.monotonic())

    RoutingCore.route = route
    IngressRouter.__init__ = init
    IngressRouter.run_script = run_script
    ShardRuntime.run_to_completion = run_to_completion

    first = probe()
    emit("ready", t=t_imported, lanes=lanes(), loop="asyncio.run default")
    t_call = time.monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    window: List[List[float]] = []

    async def serve() -> Any:
        prober = asyncio.create_task(probe_while_serving(window))
        try:
            return await run_sharded_scenario(
                script, n_shards=spec["shards"], n_mirrors=1, strategy="hash",
                subscriptions=subscriptions,
            )
        finally:
            prober.cancel()
            await asyncio.gather(prober, return_exceptions=True)

    with root_span(tracer, "rt.loop"):
        summary = asyncio.run(serve())
    wall = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    probe_s = (first + probe()) / 2
    delivered = routers[0].sub_events
    latencies: List[float] = []
    identity_errors = 0
    start = 0
    expected = {(se.event.stream, se.event.seqno): (se.event.key, se.event.kind)
                for se in script.fresh_events()}
    seen: Dict[tuple, int] = {}
    for end, at in delivered.chunks:
        for event in delivered[start:end]:
            ident = (event.stream, event.seqno)
            if expected.get(ident) != (event.key, event.kind):
                identity_errors += 1
                continue
            seen[ident] = seen.get(ident, 0) + 1
            latencies.append(at - routed_at[ident])
        start = end
    out: Dict[str, Any] = {
        "t_imported": t_imported,
        "setup_in_call_s": marks["route_start"] - t_call,
        "route_start": marks["route_start"],
        "t_done": max(marks["shards_done"], delivered.chunks[-1][1] if delivered.chunks else 0.0),
        "events": len(script),
        "latencies": latencies,
        "identity_errors": identity_errors,
        "missing": sum(1 for ident in expected if ident not in seen),
        "duplicates": sum(n - 1 for n in seen.values() if n > 1),
        "transfers_started": summary.transfers_started,
        "transfers_completed": summary.transfers_completed,
        "replicas_consistent": summary.replicas_consistent,
        "events_routed": summary.events_routed,
        "events_buffered": summary.events_buffered,
        "per_shard_events": summary.per_shard_events,
        "wire": dataclasses.asdict(summary.wire),
        "server_cpu_s": cpu_s,
        "call_wall_s": wall,
        "probe_s": probe_s,
        "window_probe_s": robust_mean([v for _t, v in window]) if window else None,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        import tracer as tracing

        out["trace"] = tracing.layer_report(tracer, "rt.loop")
        out["trace"]["trace.wall_s"] = wall
    emit("result", **out)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    spec = json.loads(args[0])
    mode = spec["mode"]
    if mode == "sim":
        run_sim(spec)
    elif mode == "live":
        run_live(spec)
    elif mode == "sharded":
        run_sharded(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
