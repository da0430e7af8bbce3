"""Repository benchmark: one workload per invocation, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload live_push --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and sample count, plus the run's
lane/host fingerprint.  See ``perfbench/README.md`` for the workloads.

The system under test runs in child processes (``perfbench/sut.py``), one
after another, each freshly launched; this process is the load generator:
one thread, at most two connections to the system (one ``source``
connection feeding BATCH frames, one client-side connection).
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from sut import PROBE_PERIOD_S, robust_mean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sim_storm", "live_push", "live_requests", "live_sharded")

#: system-under-test processes per run: each is one setup_s sample, and
#: the measured work is split evenly between them
CHILDREN = 5
#: seconds the host-speed probe kernel (sut.probe) takes at the reference
#: speed; wall-clock metrics are reported scaled to this speed
PROBE_REF_S = 0.0055
#: a run whose generator sent its open-loop items later than this at the
#: 99th percentile is invalid: the schedule, not the system, set the load
GEN_LATE_LIMIT_MS = 10.0

# -- workload sizes ----------------------------------------------------------
#: live topology: central + 2 mirrors, simple mirroring, batch 64
LIVE_MIRRORS = 2
LIVE_BATCH = 64
#: live_push: 200 flights; phase A is open loop at PUSH_RATE ev/s sent on
#: a PUSH_TICK_S tick, phase B offers PUSH_B_EVENTS_PER_S x seconds
#: events as fast as the server accepts them
PUSH_FLIGHTS = 200
PUSH_RATE = 6000.0
PUSH_TICK_S = 0.001
PUSH_A_SHARE = 0.5
PUSH_B_EVENTS_PER_S = 30000
#: live_push latency is summarised per PUSH_WINDOW_S window of phase A
#: (by due time); p50_ms/tail_ms are the lower quartile, over every full
#: window of the run, of the window's percentile.  A stall of the host
#: (another tenant on a shared CPU) or of the program that hits fewer than
#: a quarter of the windows does not move them; it shows in update_p99_ms
PUSH_WINDOW_S = 0.1
PUSH_WINDOW_QUANTILE = 25
#: the percentile tail_ms reports: 95 unless named here.  On live_requests
#: the 95th falls at the foot of the one long collector stall each child
#: takes and spread 0.15-0.25 over ten runs of unchanged code; the 99th
#: lies inside that stall, which is CPU work, so it is scaled by the
#: child's host speed (spread 0.09 over eleven runs, 0.10 raw)
TAIL_PCT = {"live_requests": 99}
#: live_requests: a 2,000-flight state, REQ_EVENTS_PER_S x seconds events
#: offered as fast as accepted, init-state requests open loop at REQ_RATE
REQ_FLIGHTS = 2000
REQ_EVENTS_PER_S = 20000
REQ_RATE = 200.0
#: live_sharded: 2 shards of 1 mirror, hash partitioning, 200 flights,
#: 64 handoffs, one flight-scoped subscription per flight
SHARD_FLIGHTS = 200
SHARD_HANDOFFS = 64
SHARD_EVENTS_PER_S = 10000
#: sim_storm: scenario flight-data seeds whose summaries are pinned in
#: expected_sim.json; each run draws its scenarios from --seed
SIM_POOL = 32

PER_LAYER = (
    ("rules.calls", "count"), ("rules.self_s", "s"), ("rules.out_per_in", "ratio"),
    ("checkpoint.rounds", "count"), ("checkpoint.commits_per_round", "ratio"),
    ("checkpoint.self_s", "s"),
    ("adaptation.evaluations", "count"), ("adaptation.switches", "count"),
    ("adaptation.self_s", "s"),
    ("ede.events", "count"), ("ede.self_s", "s"),
    ("state.snapshot_calls", "count"), ("state.rebuilds", "count"),
    ("state.cache_hit_frac", "ratio"), ("state.snapshot_self_s", "s"),
    ("state.bytes_per_response", "B"),
    ("wire.encode_self_s", "s"), ("wire.decode_self_s", "s"),
    ("wire.frames_per_event", "ratio"), ("wire.bytes_per_event", "B"),
    ("wire.shared_encode_frac", "ratio"),
    ("rt.flushes_per_event", "ratio"), ("rt.deadline_flush_frac", "ratio"),
    ("rt.queue_high_watermark", "count"), ("rt.blocked_puts", "count"),
    ("rt.server_cpu_frac", "ratio"), ("rt.loop_self_s", "s"), ("rt.idle_s", "s"),
    ("sub.match_calls", "count"), ("sub.match_self_s", "s"),
    ("sub.matches_per_event", "ratio"),
    ("shard.route_self_s", "s"), ("shard.buffered_frac", "ratio"),
    ("shard.transfers", "count"), ("shard.skew", "ratio"),
    ("sim.self_s", "s"),
    ("gen.late_p99_ms", "ms"), ("gen.cpu_frac", "ratio"),
    ("trace.wall_s", "s"), ("trace.reconcile_err_frac", "ratio"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


# -- preparation ---------------------------------------------------------------
def prepare() -> None:
    """Check the checkout and build the compiled lanes (outside setup_s)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    subprocess.run(
        [sys.executable, "-m", "repro.wire.accel_build"],
        env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- child process -------------------------------------------------------------
def cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """(generator CPUs, system-under-test CPUs): the last CPU for the
    system under test, the rest for the generator; None on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


class Child:
    """One system-under-test process and its stdout/stdin line protocol,
    pinned to ``cpus`` when given."""

    def __init__(self, spec: Dict[str, Any], cpus: Optional[set]):
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        self.msgs: Dict[str, Dict[str, Any]] = {}
        self._seen: Dict[str, asyncio.Event] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._transport: Any = None

    def flag(self, kind: str) -> asyncio.Event:
        if kind not in self._seen:
            self._seen[kind] = asyncio.Event()
        return self._seen[kind]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=1 << 28)
        self._transport, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), self.proc.stdout
        )
        self._reader_task = asyncio.create_task(self._read(reader))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            msg = json.loads(line)
            self.msgs[msg["kind"]] = msg
            self.flag(msg["kind"]).set()
        # the child is gone: wake every waiter (wait() then reports what
        # never arrived)
        for kind in ("ready", "stream_done", "result"):
            self.flag(kind).set()

    async def wait(self, kind: str, timeout: float) -> Dict[str, Any]:
        try:
            await asyncio.wait_for(self.flag(kind).wait(), timeout)
        except asyncio.TimeoutError:
            raise BenchError(f"system under test sent no {kind!r} in {timeout}s")
        if kind not in self.msgs:
            raise BenchError(f"system under test exited before {kind!r}")
        return self.msgs[kind]

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    async def close(self) -> None:
        if self.proc.poll() is None:
            deadline = time.monotonic() + 30.0
            while self.proc.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            if self.proc.poll() is None:
                self.proc.kill()
        self.proc.wait()
        if self._reader_task is not None:
            await asyncio.gather(self._reader_task, return_exceptions=True)
        if self._transport is not None:
            self._transport.close()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        if self.proc.returncode != 0:
            raise BenchError(f"system under test exited with {self.proc.returncode}")


# -- generator connections -----------------------------------------------------
class Generator:
    """The single-threaded load generator's connection budget."""

    MAX_CONNECTIONS = 2

    def __init__(self) -> None:
        self.opened = 0

    async def connect(self, port: int) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self.opened >= self.MAX_CONNECTIONS:
            raise BenchError("generator may open at most two connections")
        self.opened += 1
        return await asyncio.open_connection("127.0.0.1", port)


class FrameSink:
    """Decode one inbound connection with the program's own codec."""

    def __init__(self) -> None:
        from repro.wire import RESET, FrameSplitter, WireDecoder

        self._splitter = FrameSplitter()
        self._decoder = WireDecoder()
        self._reset = RESET

    def feed(self, chunk: bytes) -> List[Any]:
        out = []
        for mtype, body in self._splitter.feed(chunk):
            msg = self._decoder.decode_body(mtype, body)
            if msg is not self._reset:
                out.append(msg)
        return out


async def settle(flag: asyncio.Event, timeout: float) -> None:
    """Wait for ``flag``; on timeout carry on, so whatever never arrived is
    counted as missing by the output checks."""
    try:
        await asyncio.wait_for(flag.wait(), timeout)
    except asyncio.TimeoutError:
        pass


def script_for(flights: int, events: int, seed: int):
    from repro.ois import FlightDataConfig, generate_script

    per_flight = max(1, events // flights)
    return generate_script(FlightDataConfig(
        n_flights=flights, positions_per_flight=per_flight, seed=seed,
    ))


def live_spec(trace: bool) -> Dict[str, Any]:
    return {"mode": "live", "trace": trace, "mirrors": LIVE_MIRRORS,
            "batch_size": LIVE_BATCH}


class Tally:
    """Checked-output accounting shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fatal: List[str] = []

    def check(self, n_ok: int, n_bad: int) -> None:
        self.attempted += n_ok + n_bad
        self.failed += n_bad


def check_digests(tally: Tally, digests: List[str]) -> None:
    tally.check(1, 0)
    if len(set(digests)) != 1:
        tally.fatal.append("central and mirror replica digests disagree")


# -- live_push -----------------------------------------------------------------
class PushPlan:
    """The generated live_push inputs, encoded once per run and replayed
    by every child (each child is a fresh connection, so the same frame
    sequence decodes identically)."""

    def __init__(self, seconds: float, seed: int):
        from repro.core.events import EventBatch
        from repro.sub.messages import Subscribe
        from repro.sub.predicate import ByFlight
        from repro.wire import Hello, WireEncoder

        n_a = int(PUSH_RATE * seconds * PUSH_A_SHARE)
        n_b = int(PUSH_B_EVENTS_PER_S * seconds * (1.0 - PUSH_A_SHARE))
        script = script_for(PUSH_FLIGHTS, n_a + n_b, seed)
        events = [se.event for se in script.fresh_events()][: n_a + n_b]
        self.n_a = n_a
        self.n_b = len(events) - n_a
        self.n = len(events)
        self.index = {(e.stream, e.seqno): (i, e.key, e.kind)
                      for i, e in enumerate(events)}
        self.due = [i / PUSH_RATE for i in range(n_a)]
        # phase A frames: one per tick, holding every event due by that tick
        enc = WireEncoder()
        self.hello = enc.encode_hello(Hello("source", "generator"))
        self.ticks: List[Tuple[float, bytes]] = []
        i = 0
        k = 0
        while i < n_a:
            t_tick = k * PUSH_TICK_S
            j = i
            while j < n_a and self.due[j] <= t_tick + 1e-12:
                j += 1
            if j > i:
                self.ticks.append((t_tick, enc.encode_batch(EventBatch(events[i:j]))))
                i = j
            k += 1
        self.frames_b = [enc.encode_batch(EventBatch(events[s:s + LIVE_BATCH]))
                         for s in range(n_a, self.n, LIVE_BATCH)]
        self.eos = enc.encode_eos()
        sub_enc = WireEncoder()
        self.keys = sorted({e.key for e in events})
        self.sub_frames = [sub_enc.encode_hello(Hello("subscriber", "bench"))] + [
            sub_enc.encode_message(Subscribe.from_predicate("bench", n + 1, ByFlight(key)))
            for n, key in enumerate(self.keys)
        ]


async def push_child(plan: PushPlan, trace: bool, tally: Tally,
                     gen: Generator, cpus: Optional[set]) -> Dict[str, Any]:
    from repro.core.events import EventBatch, UpdateEvent
    from repro.sub.messages import SubAck

    n_a, n_b, index, due, keys = plan.n_a, plan.n_b, plan.index, plan.due, plan.keys
    child = Child(live_spec(trace), cpus)
    await child.start()
    counts = [0] * plan.n
    lat_a: List[float] = []
    n_windows = int(n_a / (PUSH_RATE * PUSH_WINDOW_S))
    windows: List[List[float]] = [[] for _ in range(n_windows)]
    state = {"acks": 0, "t0": 0.0, "a_seen": 0, "b_seen": 0, "b_last": 0.0,
             "wrong": 0}
    acked = asyncio.Event()
    a_done = asyncio.Event()
    b_done = asyncio.Event()

    async def subscriber(reader: asyncio.StreamReader) -> None:
        sink = FrameSink()
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            now = time.monotonic()
            for msg in sink.feed(chunk):
                if isinstance(msg, SubAck):
                    state["acks"] += 1
                    if state["acks"] >= len(keys):
                        acked.set()
                    continue
                batch = msg.events if isinstance(msg, EventBatch) else (
                    (msg,) if isinstance(msg, UpdateEvent) else ())
                for ev in batch:
                    hit = index.get((ev.stream, ev.seqno))
                    if hit is None or hit[1] != ev.key or hit[2] != ev.kind:
                        state["wrong"] += 1
                        continue
                    n = hit[0]
                    counts[n] += 1
                    if counts[n] != 1:
                        continue
                    if n < n_a:
                        lat = now - state["t0"] - due[n]
                        lat_a.append(lat)
                        w = int(due[n] / PUSH_WINDOW_S)
                        if w < n_windows:
                            windows[w].append(lat)
                        state["a_seen"] += 1
                        if state["a_seen"] == n_a:
                            a_done.set()
                    else:
                        state["b_seen"] += 1
                        state["b_last"] = now
                        if state["b_seen"] == n_b:
                            b_done.set()

    sub_task = None
    try:
        ready = await child.wait("ready", 120)
        _src_r, src_w = await gen.connect(ready["central_port"])
        sub_r, sub_w = await gen.connect(ready["client_port"])
        sub_task = asyncio.create_task(subscriber(sub_r))
        src_w.write(plan.hello)
        sub_w.writelines(plan.sub_frames)
        await asyncio.wait_for(acked.wait(), 60)
        setup_s = time.monotonic() - child.t_launch - ready["probe_wall_s"]
        # phase A: open loop on the tick schedule
        late: List[float] = []
        cpu0 = time.process_time()
        t0 = state["t0"] = time.monotonic()
        for t_tick, frame in plan.ticks:
            wait = t0 + t_tick - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(time.monotonic() - t0 - t_tick)
            src_w.write(frame)
            await src_w.drain()
        await settle(a_done, 20)
        # phase B: offered faster than the server drains
        t_b = time.monotonic()
        for frame in plan.frames_b:
            src_w.write(frame)
            await src_w.drain()
        src_w.write(plan.eos)
        await src_w.drain()
        await settle(b_done, 60)
        gen_cpu = time.process_time() - cpu0
        gen_wall = time.monotonic() - t0
        done = await child.wait("stream_done", 60)
        child.send("finish")
        result = await child.wait("result", 60)
        await asyncio.wait([sub_task], timeout=30)
        src_w.close()
        sub_w.close()
    finally:
        if sub_task is not None and not sub_task.done():
            sub_task.cancel()
            await asyncio.gather(sub_task, return_exceptions=True)
        await child.close()
    missing = sum(1 for c in counts if c == 0)
    dupes = sum(c - 1 for c in counts if c > 1)
    tally.check(plan.n - missing - dupes, missing + dupes + state["wrong"])
    check_digests(tally, result["digests"])
    if done["processed"] != plan.n:
        tally.fatal.append(f"central processed {done['processed']} of {plan.n}")
    return {
        "setup_s": setup_s, "lat": lat_a, "late": late, "windows": windows,
        "events": n_b, "wall": state["b_last"] - t_b, "span": (t_b, state["b_last"]),
        "gen_cpu_frac": gen_cpu / gen_wall,
        "result": result, "lanes": ready["lanes"], "loop": ready["loop"],
    }


# -- live_requests -------------------------------------------------------------
class RequestsPlan:
    """The generated live_requests stream, encoded once per run."""

    def __init__(self, seconds: float, seed: int):
        from repro.core.events import EventBatch
        from repro.wire import Hello, WireEncoder

        script = script_for(REQ_FLIGHTS, int(REQ_EVENTS_PER_S * seconds), seed)
        events = [se.event for se in script.fresh_events()]
        self.n = len(events)
        enc = WireEncoder()
        self.frames = [enc.encode_hello(Hello("source", "generator"))] + [
            enc.encode_batch(EventBatch(events[s:s + LIVE_BATCH]))
            for s in range(0, self.n, LIVE_BATCH)
        ] + [enc.encode_eos()]


async def requests_child(plan: RequestsPlan, trace: bool, tally: Tally,
                         gen: Generator, cpus: Optional[set]) -> Dict[str, Any]:
    from repro.ois.clients import InitStateRequest, InitStateResponse
    from repro.wire import Hello, WireEncoder

    frames = plan.frames
    client_enc = WireEncoder()
    client_hello = client_enc.encode_hello(Hello("client", "bench"))

    child = Child(live_spec(trace), cpus)
    await child.start()
    answered: Dict[int, float] = {}
    arrived: List[float] = []
    state = {"t0": 0.0, "sent": 0, "wrong": 0}
    all_answered = asyncio.Event()
    stop = child.flag("stream_done")

    async def responses(reader: asyncio.StreamReader) -> None:
        sink = FrameSink()
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            now = time.monotonic()
            for msg in sink.feed(chunk):
                j = -1
                if isinstance(msg, InitStateResponse) and msg.client_id[1:].isdigit():
                    j = int(msg.client_id[1:])
                if not 0 <= j < state["sent"] or j in answered:
                    state["wrong"] += 1
                    continue
                answered[j] = now - state["t0"] - j / REQ_RATE
                arrived.append(now)
            if stop.is_set() and len(answered) >= state["sent"]:
                all_answered.set()

    async def source(writer: asyncio.StreamWriter) -> None:
        for frame in frames:
            writer.write(frame)
            await writer.drain()

    resp_task = src_task = None
    late: List[float] = []
    try:
        ready = await child.wait("ready", 120)
        _src_r, src_w = await gen.connect(ready["central_port"])
        cli_r, cli_w = await gen.connect(ready["client_port"])
        cli_w.write(client_hello)
        await cli_w.drain()
        resp_task = asyncio.create_task(responses(cli_r))
        setup_s = time.monotonic() - child.t_launch - ready["probe_wall_s"]
        cpu0 = time.process_time()
        t0 = state["t0"] = time.monotonic()
        src_task = asyncio.create_task(source(src_w))
        j = 0
        while True:
            wait = t0 + j / REQ_RATE - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            if stop.is_set():
                break
            late.append(time.monotonic() - t0 - j / REQ_RATE)
            cli_w.write(client_enc.encode_request(
                InitStateRequest(client_id=f"q{j}", issued_at=t0 + j / REQ_RATE)))
            j += 1
            state["sent"] = j
        await src_task
        done = await child.wait("stream_done", 120)
        if len(answered) < state["sent"]:
            await settle(all_answered, 30)
        gen_cpu = time.process_time() - cpu0
        gen_wall = time.monotonic() - t0
        cli_w.write(client_enc.encode_eos())
        await cli_w.drain()
        cli_w.close()
        src_w.close()
        await asyncio.wait([resp_task], timeout=30)
        child.send("finish")
        result = await child.wait("result", 60)
    finally:
        for task in (resp_task, src_task):
            if task is not None and not task.done():
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        await child.close()
    sent = state["sent"]
    tally.check(len(answered), sent - len(answered) + state["wrong"])
    check_digests(tally, result["digests"])
    if done["processed"] != plan.n:
        tally.fatal.append(f"central processed {done['processed']} of {plan.n}")
    return {
        "setup_s": setup_s, "lat": list(answered.values()), "lat_t": arrived,
        "late": late,
        "events": plan.n, "wall": done["t"] - t0, "span": (t0, done["t"]),
        "gen_cpu_frac": gen_cpu / gen_wall,
        "result": result, "lanes": ready["lanes"], "loop": ready["loop"],
    }


# -- live_sharded --------------------------------------------------------------
async def sharded_child(seconds: float, seed: int, trace: bool,
                        tally: Tally, cpus: Optional[set]) -> Dict[str, Any]:
    events = int(SHARD_EVENTS_PER_S * seconds)
    spec = {"mode": "sharded", "trace": trace, "shards": 2, "seed": seed,
            "flights": SHARD_FLIGHTS, "handoffs": SHARD_HANDOFFS,
            "positions_per_flight": max(1, events // SHARD_FLIGHTS)}
    child = Child(spec, cpus)
    await child.start()
    try:
        ready = await child.wait("ready", 120)
        result = await child.wait("result", 170)
    finally:
        await child.close()
    bad = result["missing"] + result["duplicates"] + result["identity_errors"]
    tally.check(result["events"] - result["missing"] - result["duplicates"], bad)
    tally.check(1, 0)
    if not result["replicas_consistent"]:
        tally.fatal.append("shard replica digests disagree")
    if result["transfers_started"] != result["transfers_completed"]:
        tally.fatal.append("handoff transfers started != completed")
    return {
        "setup_s": (ready["t"] - child.t_launch) + result["setup_in_call_s"],
        "lat": result["latencies"], "late": [],
        "events": result["events"], "wall": result["t_done"] - result["route_start"],
        "span": (result["route_start"], result["t_done"]),
        "gen_cpu_frac": 0.0,
        "result": result, "lanes": ready["lanes"], "loop": ready["loop"],
    }


# -- sim_storm -----------------------------------------------------------------
def expected_sim() -> Dict[str, Any]:
    with open(os.path.join(HERE, "expected_sim.json")) as fh:
        return json.load(fh)["summaries"]


async def sim_child(seconds: float, seeds: List[int], trace: bool,
                    tally: Tally, cpus: Optional[set]) -> Dict[str, Any]:
    spec = {"mode": "sim", "trace": trace, "budget_s": seconds,
            "scenario_seeds": seeds}
    child = Child(spec, cpus)
    await child.start()
    try:
        ready = await child.wait("ready", 120)
        result = await child.wait("result", 170)
    finally:
        await child.close()
    pinned = expected_sim()
    for sc in result["scenarios"]:
        ok = pinned.get(str(sc["seed"])) == sc["summary"]
        tally.check(int(ok), int(not ok))
    return {
        "setup_s": ready["t"] - child.t_launch - ready["probe_wall_s"],
        "lat": result["slice_s"], "late": [],
        "events": sum(sc["events"] for sc in result["scenarios"]),
        "wall": sum(sc["wall_s"] for sc in result["scenarios"]),
        "gen_cpu_frac": 0.0,
        "result": result, "lanes": ready["lanes"], "loop": ready["loop"],
    }


# -- orchestration ---------------------------------------------------------------
async def run_children(workload: str, seed: int, seconds: float,
                       traced: List[bool], tally: Tally,
                       cpus: Optional[set]) -> List[Dict[str, Any]]:
    share = seconds / len(traced)
    runs: List[Dict[str, Any]] = []
    plan: Any = None
    if workload == "live_push":
        plan = PushPlan(share, seed)
    elif workload == "live_requests":
        plan = RequestsPlan(share, seed)
    pool = random.Random(seed).sample(range(SIM_POOL), SIM_POOL)
    # the generator's own collector pauses would read as late sends: the
    # inputs are built, so freeze them and collect nothing while driving
    gc.collect()
    gc.freeze()
    gc.disable()
    for n, trace in enumerate(traced):
        if workload == "sim_storm":
            used = sum(len(r["result"]["scenarios"]) for r in runs)
            seeds = (pool[used:] + pool[:used])
            runs.append(await sim_child(share, seeds, trace, tally, cpus))
        elif workload == "live_push":
            runs.append(await push_child(plan, trace, tally, Generator(), cpus))
        elif workload == "live_requests":
            runs.append(await requests_child(plan, trace, tally, Generator(), cpus))
        else:
            runs.append(await sharded_child(share, seed * 1000 + n, trace, tally, cpus))
    return runs


def speed(run: Dict[str, Any], scaled: bool) -> float:
    """How much slower than the reference the child's CPU ran (1 = the
    reference host speed): timed while a live server served or the
    scenarios ran; 1.0 when reporting raw values."""
    if not scaled:
        return 1.0
    probe_s = run["result"].get("window_probe_s") or run["result"]["probe_s"]
    return probe_s / PROBE_REF_S


def speed_between(run: Dict[str, Any], t_from: float, t_to: float,
                  scaled: bool) -> float:
    """speed() from the probes a live server took between t_from and t_to
    (the monotonic clock both processes read), or from the last one before
    t_to when none fell in between."""
    probes = run["result"].get("window_probes")
    if not scaled or not probes:
        return speed(run, scaled)
    times = [t for t, _v in probes]
    hi = bisect.bisect_right(times, t_to)
    lo = min(bisect.bisect_left(times, t_from), max(0, hi - 1))
    return robust_mean([v for _t, v in probes[lo:max(hi, lo + 1)]]) / PROBE_REF_S


def throughput(workload: str, runs: List[Dict[str, Any]], scaled: bool) -> float:
    """Median events/s over the run's samples: scenarios on sim_storm,
    children on the live workloads."""
    if workload == "sim_storm":
        # each scenario at the speed timed while it ran
        return statistics.median(
            sc["events"] / sc["wall_s"]
            * (sc["probe_s"] / PROBE_REF_S if scaled and sc["probe_s"] else speed(r, scaled))
            for r in runs for sc in r["result"]["scenarios"])
    # each child at the speed timed while its measured events flowed
    return statistics.median(r["events"] / r["wall"] * speed_between(r, *r["span"], scaled)
                             for r in runs)


def window_pct(runs: List[Dict[str, Any]], q: float) -> float:
    """live_push latency in ms: the PUSH_WINDOW_QUANTILE-th percentile,
    over every full phase-A window of every child, of the window's q-th
    percentile."""
    per_window = [pct(w, q) * 1e3 for r in runs for w in r["windows"] if w]
    if not per_window:
        raise BenchError("live_push produced no full latency window")
    return pct(per_window, PUSH_WINDOW_QUANTILE)


def end_to_end(workload: str, runs: List[Dict[str, Any]], scaled: bool = True) -> Dict[str, float]:
    """Medians over the run's children; latency percentiles per child, or
    per window on live_push (p99 is printed but not in BENCHMARK.json: see
    perfbench/README.md).

    ``scaled`` reports figures scaled to the reference host speed for
    what is CPU work of the system-under-test process: throughput and
    setup_s everywhere, and latency on the closed-loop workloads, where
    it is work queued in the system divided by the rate the CPU drains
    it, and on live_requests the median request, which waits on the
    saturated server's CPU work, and the tail, its collector stall.  Open-loop live latency below capacity
    is mostly the flusher's deadlines and the generator's ticks, which do
    not slow with the host, so it stays raw."""
    lat_scaled = scaled and workload in ("sim_storm", "live_sharded")
    if workload == "sim_storm" and scaled:
        # each slice at the host speed timed next to it
        lat_ms = [[v * 1e3 * PROBE_REF_S / p
                   for v, p in zip(r["lat"], r["result"]["slice_probe_s"])] for r in runs]
    else:
        lat_ms = [[v * 1e3 / speed(r, lat_scaled) for v in r["lat"]] for r in runs]
    if not all(lat_ms):
        raise BenchError("a child produced no latency samples")
    if workload == "live_push":
        p50, p95 = window_pct(runs, 50), window_pct(runs, 95)
    elif workload == "live_requests" and scaled:
        # the median request waits on CPU work of the saturated server
        # (its snapshot, the stream batch ahead of it) and is scaled by
        # the probes next to it; the tail is set by collector pauses and
        # does not follow the host speed, so p95 stays raw
        local = [[v * 1e3 / speed_between(r, t - v - PROBE_PERIOD_S, t, True)
                  for v, t in zip(r["lat"], r["lat_t"])] for r in runs]
        p50 = statistics.median(pct(v, 50) for v in local)
        p95 = statistics.median(pct(v, 95) for v in lat_ms)
    else:
        p50 = statistics.median(pct(v, 50) for v in lat_ms)
        p95 = statistics.median(pct(v, 95) for v in lat_ms)
    return {
        "events_per_s": throughput(workload, runs, scaled),
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": statistics.median(pct(v, 99) for v in lat_ms),
        "tail_ms": p95 if workload not in TAIL_PCT else statistics.median(
            pct(r["lat"], TAIL_PCT[workload]) * 1e3 / speed(r, scaled) for r in runs),
        "setup_s": statistics.median(r["setup_s"] / speed(r, scaled) for r in runs),
        "peak_rss_mb": statistics.median(r["result"]["rss_mb"] for r in runs),
    }


def print_end_to_end(workload: str, runs: List[Dict[str, Any]],
                     metrics: Dict[str, float]) -> None:
    """One line per metric: scaled value, raw value, unit, sample count;
    latencies also under the name the workload's docs use."""
    raw = end_to_end(workload, runs, scaled=False)
    lat_name = {"live_requests": "req", "sim_storm": "slice"}.get(workload, "update")
    n_lat = sum(len(r["lat"]) for r in runs)
    n_eps = sum(len(r["result"]["scenarios"]) for r in runs) \
        if workload == "sim_storm" else len(runs)
    rows = (
        ("events_per_s", "events_per_s", "1/s", n_eps),
        ("p50_ms", f"{lat_name}_p50_ms", "ms", n_lat),
        ("p95_ms", f"{lat_name}_p95_ms", "ms", n_lat),
        ("p99_ms", f"{lat_name}_p99_ms", "ms", n_lat),
        ("setup_s", "setup_s", "s", len(runs)),
        ("peak_rss_mb", "peak_rss_mb", "MB", len(runs)),
    )
    for key, name, unit, n in rows:
        print(f"metric {name} = {metrics[key]:.6g} {unit} (raw {raw[key]:.6g}, n={n})")
    print(f"metric tail_ms = {metrics['tail_ms']:.6g} ms (raw {raw['tail_ms']:.6g}, "
          f"{lat_name} p{TAIL_PCT.get(workload, 95)}, n={n_lat})")
    if workload == "live_push":
        n_win = sum(1 for r in runs for w in r["windows"] if w)
        print(f"metric update_windows = {n_win} count "
              f"({PUSH_WINDOW_S * 1e3:g} ms windows of phase A)")
        for q in (50, 95):
            whole = statistics.median(pct(v, q) * 1e3 for v in (r["lat"] for r in runs))
            print(f"metric update_p{q}_whole_ms = {whole:.6g} ms "
                  f"(per child over all of phase A, median of children, n={n_lat})")
    speeds = [speed(r, True) for r in runs]
    print(f"metric host_slowdown = {statistics.median(speeds):.4g} ratio "
          f"(probe vs reference, n={len(speeds)})")


def per_layer(workload: str, runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum the traced children's reports; derive the ratio metrics."""
    traced = [r for r in runs if r["result"].get("trace")]
    sums: Dict[str, float] = {}
    for r in traced:
        for key, value in r["result"]["trace"].items():
            sums[key] = sums.get(key, 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n = len(traced)
    out = {name: 0.0 for name, _unit in PER_LAYER}
    for key in ("rules.calls", "rules.self_s", "checkpoint.rounds", "checkpoint.self_s",
                "adaptation.evaluations", "adaptation.switches", "adaptation.self_s",
                "ede.events", "ede.self_s", "state.snapshot_calls", "state.rebuilds",
                "state.snapshot_self_s", "wire.encode_self_s", "wire.decode_self_s",
                "sub.match_calls", "sub.match_self_s", "shard.route_self_s",
                "rt.idle_s", "trace.wall_s", "trace.spans"):
        out[key] = sums.get(key, 0.0)
    # ratios: average of the children's own ratios
    for key in ("rules.out_per_in", "checkpoint.commits_per_round",
                "state.cache_hit_frac", "state.bytes_per_response",
                "sub.matches_per_event"):
        out[key] = sums.get(key, 0.0) / n if n else 0.0
    root = sums.get("root.self_s", 0.0)
    out["sim.self_s" if workload == "sim_storm" else "rt.loop_self_s"] = root
    out["trace.reconcile_err_frac"] = ratio(
        abs(sums.get("trace.self_sum_s", 0.0) - sums.get("trace.wall_s", 0.0)),
        sums.get("trace.wall_s", 0.0))
    events = sum(r["events"] for r in traced)
    if workload != "sim_storm":
        wire = [r["result"]["wire"] for r in traced]
        frames = sum(w["frames_sent"] for w in wire)
        out["wire.frames_per_event"] = ratio(frames, events)
        out["wire.bytes_per_event"] = ratio(sum(w["bytes_sent"] for w in wire), events)
        saved = sum(w["shared_encodes_saved"] for w in wire)
        out["wire.shared_encode_frac"] = ratio(
            saved, saved + sum(w["frames_shared"] for w in wire))
        flushes = sum(w["flushes"] for w in wire)
        out["rt.flushes_per_event"] = ratio(flushes, events)
        out["rt.deadline_flush_frac"] = ratio(
            sum(w["deadline_flushes"] for w in wire), flushes)
        cpu = sum(r["result"]["server_cpu_s"] for r in traced)
        if workload == "live_sharded":
            wall = sum(r["result"]["call_wall_s"] for r in traced)
        else:
            wall = sum(r["result"]["t_done"] - r["result"]["t_ready"] for r in traced)
        out["rt.server_cpu_frac"] = ratio(cpu, wall)
    if workload in ("live_push", "live_requests"):
        out["rt.queue_high_watermark"] = max(
            r["result"]["queue_high_watermark"] for r in traced)
        out["rt.blocked_puts"] = sum(r["result"]["blocked_puts"] for r in traced)
    if workload == "live_sharded":
        res = [r["result"] for r in traced]
        out["shard.buffered_frac"] = ratio(
            sum(x["events_buffered"] for x in res), sum(x["events_routed"] for x in res))
        out["shard.transfers"] = sum(x["transfers_completed"] for x in res)
        out["shard.skew"] = statistics.mean(
            max(x["per_shard_events"]) / statistics.mean(x["per_shard_events"])
            for x in res)
    late = [v * 1e3 for r in traced for v in r["late"]]
    out["gen.late_p99_ms"] = pct(late, 99) if late else 0.0
    out["gen.cpu_frac"] = statistics.mean(r["gen_cpu_frac"] for r in traced)
    base_eps = throughput(workload, [r for r in runs if r not in traced], True)
    traced_eps = throughput(workload, traced, True)
    out["trace.overhead_frac"] = ratio(base_eps - traced_eps, base_eps)
    return out


def fingerprint(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    lanes = runs[0]["lanes"]
    if any(r["lanes"] != lanes for r in runs):
        raise BenchError("children ran on different lanes")
    return {
        "lanes": lanes,
        "event_loop": runs[0]["loop"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


async def bench(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    gen_cpus, sut_cpus = cpu_split()
    if gen_cpus is not None:
        os.sched_setaffinity(0, gen_cpus)
    tally = Tally()
    if trace:
        plan = [False] + [True] * (CHILDREN - 1)
    else:
        plan = [False] * CHILDREN
    runs = await run_children(workload, seed, seconds, plan, tally, sut_cpus)
    fp = fingerprint(runs)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    invalid = []
    late = [v * 1e3 for r in runs for v in r["late"]]
    if late:
        late_p99 = pct(late, 99)
        print(f"metric gen.late_p99_ms = {late_p99:.4f} ms (n={len(late)})")
        if late_p99 > GEN_LATE_LIMIT_MS:
            invalid.append(f"generator fell behind its schedule "
                           f"(late p99 {late_p99:.2f} ms > {GEN_LATE_LIMIT_MS} ms)")
    untraced = [r for r in runs if not r["result"].get("trace")]
    metrics = end_to_end(workload, untraced)
    print_end_to_end(workload, untraced, metrics)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"metric failed_frac = {failed_frac:.6g} ratio "
          f"(n={tally.attempted})")
    if trace:
        units = dict(PER_LAYER)
        out = per_layer(workload, runs)
        for name, value in out.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        shown = {name: {"value": value, "unit": units[name]} for name, value in out.items()}
    else:
        units = {"events_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in units.items()}
    for reason in tally.fatal:
        print(f"FAIL: {reason}")
    # an invalid run measured the generator, not the system: its outputs
    # may still be correct, but compare.py refuses to use its figures
    for reason in invalid:
        print(f"INVALID: {reason}")
    correct = not tally.fatal and tally.failed == 0
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": shown}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    try:
        prepare()
        result = asyncio.run(bench(args.workload, args.seed, args.seconds,
                                   bool(args.trace)))
    except (BenchError, subprocess.CalledProcessError, OSError, TimeoutError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
