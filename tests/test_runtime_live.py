"""End-to-end: real MSPastry overlays on localhost UDP sockets.

The protocol state machines under these tests are byte-for-byte the ones
the simulator runs — what is under test here is the runtime around them:
seed bootstrap over the wire, join completion on real timers, lookup
routing and consistency, the metrics endpoint, and the live artifact.
"""

import asyncio
import json

import pytest

from repro.experiments import live_compare
from repro.runtime import live
from repro.runtime.live import (
    LIVE_SCHEMA,
    LiveError,
    LiveSpec,
    format_live_report,
    live_config,
    make_plan,
    root_of,
    run_live,
    verify_live_schema,
    write_live_artifact,
)
from repro.runtime.service import NodeService


def test_plan_is_deterministic():
    spec = LiveSpec(n_nodes=6, n_lookups=20, seed=99)
    assert make_plan(spec) == make_plan(spec)
    other = make_plan(LiveSpec(n_nodes=6, n_lookups=20, seed=100))
    assert other != make_plan(spec)


def test_root_of_matches_ring_semantics():
    node_ids = [10, 20, 30]
    assert root_of(11, node_ids) == 10
    assert root_of(19, node_ids) == 20
    # equidistant: tie resolves to the numerically smaller id
    assert root_of(15, node_ids) == 10


def test_spec_validation():
    with pytest.raises(LiveError):
        LiveSpec(n_nodes=0)
    with pytest.raises(LiveError):
        LiveSpec(n_lookups=-1)


def test_three_node_live_overlay():
    spec = LiveSpec(n_nodes=3, n_lookups=12, seed=5)
    artifact = run_live(spec)
    verify_live_schema(artifact)
    assert artifact["schema"] == LIVE_SCHEMA
    assert artifact["joins"]["completed"] == 3
    lookups = artifact["lookups"]
    assert lookups["delivered"] == 12
    assert lookups["routing_consistency"] == 1.0
    assert artifact["transport"]["messages_malformed"] == 0
    assert artifact["clock"]["callback_errors"] == 0
    report = format_live_report(artifact)
    assert "3 nodes" in report and "12/12" in report


def test_artifact_roundtrip_and_schema_gate(tmp_path):
    artifact = run_live(LiveSpec(n_nodes=2, n_lookups=4, seed=11))
    path = tmp_path / "live.json"
    write_live_artifact(artifact, str(path))
    loaded = json.loads(path.read_text())
    verify_live_schema(loaded)
    assert loaded["lookups"]["issued"] == 4

    with pytest.raises(LiveError, match="schema"):
        verify_live_schema({"schema": "repro-live/0"})
    broken = dict(artifact)
    del broken["lookups"]
    with pytest.raises(LiveError, match="lookups"):
        verify_live_schema(broken)


def test_single_node_overlay_self_delivers():
    artifact = run_live(LiveSpec(n_nodes=1, n_lookups=5, seed=3))
    assert artifact["lookups"]["delivered"] == 5
    assert artifact["lookups"]["routing_consistency"] == 1.0
    assert artifact["lookups"]["hops_mean"] == 1.0


def test_live_compare_runs_one_plan_on_both_substrates():
    """``experiments/live_compare``: the simulated twin delivers every lookup
    at its root, the live overlay delivers every lookup, and the report
    has a row for each."""
    result = live_compare.run(n_nodes=4, n_lookups=10)
    assert result["sim"]["issued"] == result["sim"]["delivered"] == 10
    assert result["sim"]["consistency"] == 1.0
    assert result["live"]["issued"] == result["live"]["delivered"] == 10
    rows = {line.split()[0]: line for line in
            live_compare.format_report(result).splitlines() if line.strip()}
    assert "10/10" in rows["sim"] and "10/10" in rows["live"]


def test_service_bootstrap_and_metrics_endpoint():
    async def main():
        seed = await NodeService.start(node_id=1 << 100, rng_seed=1,
                                       config=live_config(), metrics_port=0)
        joiner = await NodeService.start(node_id=1 << 90, rng_seed=2,
                                         config=live_config(),
                                         seed_addr=seed.node.addr,
                                         metrics_port=0)
        deadline = asyncio.get_event_loop().time() + 10.0
        while not (seed.is_active and joiner.is_active):
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.02)
        assert not joiner.bootstrap_failed

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", joiner.metrics.port)
        writer.write(b"GET / HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        snapshot = json.loads(body)
        assert snapshot["schema"] == "repro-node/1"
        assert snapshot["active"] is True
        assert snapshot["peers"] >= 1
        assert snapshot["transport"]["messages_sent"] > 0

        await joiner.stop()
        await seed.stop()
        assert joiner.node.crashed
    asyncio.run(main())


def test_bootstrap_against_dead_seed_fails_cleanly():
    async def main():
        # Point the joiner at a port with no listener and give up fast.
        from repro.runtime import service as service_mod
        original = service_mod.MAX_BOOTSTRAP_ATTEMPTS
        service_mod.MAX_BOOTSTRAP_ATTEMPTS = 2
        service_mod_retry = service_mod.BOOTSTRAP_RETRY
        service_mod.BOOTSTRAP_RETRY = 0.05
        try:
            from repro.runtime.transport import pack_addr
            svc = await NodeService.start(
                node_id=7, rng_seed=7,
                seed_addr=pack_addr("127.0.0.1", 1))
            deadline = asyncio.get_event_loop().time() + 5.0
            while not svc.bootstrap_failed:
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert not svc.is_active
            await svc.stop()
        finally:
            service_mod.MAX_BOOTSTRAP_ATTEMPTS = original
            service_mod.BOOTSTRAP_RETRY = service_mod_retry
    asyncio.run(main())


def test_join_timeout_raises_liveerror(monkeypatch):
    # A zero join budget must fail fast with a diagnostic, not hang:
    # joiners need real round trips, so they cannot be active by the
    # time the (already expired) deadline is first checked.
    monkeypatch.setattr(live, "JOIN_STAGGER", 0.0)
    spec = LiveSpec(n_nodes=3, n_lookups=1, seed=1, join_timeout=0.0)
    with pytest.raises(LiveError, match="timed out"):
        run_live(spec)
