"""``python -m repro rt``: exit status and JSON shape."""

import dataclasses
import json

import pytest

import repro.rt.shards as shards
from repro.rt.cli import _failures, main as rt_main

SHARDED = [
    "--net", "tcp", "--shards", "2", "--mirrors", "1", "--flights", "4",
    "--positions", "10", "--handoffs", "4", "--requests", "4", "--seed", "7",
]


def test_passing_sharded_run_exits_zero_and_prints_digest_hashes(capsys):
    assert rt_main(SHARDED) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["requests_served"] == 4
    assert payload["transfers_started"] == payload["transfers_completed"]
    # fixed-length hashes, not the flight-state tuples
    assert isinstance(payload["merged_digest"], str)
    assert len(payload["merged_digest"]) == 16
    assert [len(d) for d in payload["shard_digests"]] == [16, 16]


@pytest.mark.parametrize("override, reason", [
    ({"replicas_consistent": False}, "replicas inconsistent"),
    ({"requests_served": 3}, "3 of 4 requests served"),
    ({"transfers_started": 2, "transfers_completed": 1},
     "1 of 2 handoff transfers completed"),
])
def test_failed_check_exits_nonzero(monkeypatch, capsys, override, reason):
    real = shards.run_sharded_scenario

    async def broken(*args, **kwargs):
        return dataclasses.replace(await real(*args, **kwargs), **override)

    monkeypatch.setattr(shards, "run_sharded_scenario", broken)
    assert rt_main(SHARDED) == 1
    assert f"rt: FAILED: {reason}" in capsys.readouterr().err


def test_process_runner_payload_is_judged_by_its_client():
    payload = {
        "replicas_consistent": True,
        "client": {"requests": 6, "responses": 5},
        "transfers_started": 1,
        "transfers_completed": 1,
    }
    # the client issued 6 (one per flight), not the 8 asked for
    assert _failures(payload, issued=8) == ["5 of 6 requests served"]
    payload["client"]["responses"] = 6
    assert _failures(payload, issued=8) == []


def test_unsharded_subscriber_run_prints_delivery_counts(capsys):
    assert rt_main([
        "--net", "tcp", "--subscribers", "2", "--mirrors", "1",
        "--flights", "2", "--positions", "10", "--requests", "2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    results = payload["subscriber_results"]
    assert [r["client_id"] for r in results] == ["sub-0", "sub-1"]
    assert all(type(r["events"]) is int and r["events"] > 0 for r in results)
    assert [len(d) for d in payload["replica_digests"]] == [16, 16]
