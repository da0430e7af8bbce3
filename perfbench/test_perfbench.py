"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def test_generator_stays_within_two_connections_and_one_thread():
    run.prepare()
    plan = run.PushPlan(0.6, seed=7)
    gen = run.Generator()
    tally = run.Tally()
    threads = []

    async def drive():
        async def watch():
            while True:
                threads.append(threading.active_count())
                await asyncio.sleep(0.005)

        watcher = asyncio.create_task(watch())
        try:
            return await run.push_child(plan, False, tally, gen, None)
        finally:
            watcher.cancel()

    out = asyncio.run(drive())
    assert gen.opened == 2
    assert threads and max(threads) == 1
    assert tally.failed == 0 and not tally.fatal
    assert tally.attempted == plan.n + 1
    assert out["lat"]

    async def third():
        await gen.connect(1)

    with pytest.raises(run.BenchError):
        asyncio.run(third())


class _Layer:
    def outer(self, n):
        time.sleep(0.002)
        return [self.inner() for _ in range(n)]

    def inner(self):
        time.sleep(0.001)
        return 1


def test_self_times_reconcile_with_wall_time():
    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "outer", "a")
    tracer.wrap(_Layer, "inner", "b")
    try:
        t0 = time.perf_counter()
        with tracer.span("root"):
            _Layer().outer(3)
            _Layer().inner()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    self_s = tracer.self_times()
    assert tracer.calls() == {"a": 1, "b": 4, "root": 1}
    assert self_s["b"] >= 0.004 and self_s["a"] >= 0.002
    assert abs(sum(self_s.values()) - wall) < 0.05 * wall
    assert "wrapper" not in _Layer.outer.__code__.co_name


def _fake_output(path, fingerprint):
    lines = [
        "workload live_push seed 1 seconds 1 trace 0",
        "fingerprint " + json.dumps(fingerprint, sort_keys=True),
        json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "events_per_s": {"value": 100.0, "unit": "1/s"}}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_compare_refuses_runs_with_different_fingerprints(tmp_path, capsys):
    a = _fake_output(tmp_path / "a.txt", {"lanes": {"sim": "c", "wire": "c"}})
    b = _fake_output(tmp_path / "b.txt", {"lanes": {"sim": "py", "wire": "py"}})
    assert compare.main([a, "--", b]) == 2
    assert "fingerprints differ" in capsys.readouterr().out
    assert compare.main([a, "--", a]) == 0


def test_probe_mean_drops_stalled_slices_and_keeps_both_speed_modes():
    import sut

    # two host-speed modes 1.7x apart average; a 20x-amplified stall drops
    assert sut.robust_mean([4.0, 6.8, 4.0, 6.8, 160.0]) == pytest.approx(5.4)
    probes = [[10.0, 4.0], [10.05, 6.8], [10.1, 160.0], [20.0, 8.0]]
    child = {"result": {"window_probes": probes, "window_probe_s": 5.0}}
    ref = run.PROBE_REF_S
    assert run.speed_between(child, 9.99, 10.11, True) == pytest.approx(5.4 / ref)
    # no probe inside the span: the last one before it
    assert run.speed_between(child, 10.2, 10.3, True) == pytest.approx(160.0 / ref)
    assert run.speed_between(child, 10.2, 10.3, False) == 1.0


def test_push_latency_is_the_lower_quartile_of_window_percentiles():
    # 8 windows with p95 1..8 ms, one host stall window at 90 ms
    windows = [[0.001 * k] * 20 for k in range(1, 9)] + [[0.09] * 20]
    assert run.window_pct([{"windows": windows[:5]}, {"windows": windows[5:]}], 95) \
        == pytest.approx(3.0)
