"""The resilient client SDKs: retry policy, idempotency keys, typed
errors, and the hardened server edge they talk to.

The exactly-once crash matrix lives in ``test_exactly_once.py``; here
the clients face a *live* server (bounded connections, read deadlines,
oversized lines) and the retry decisions are checked directly.
"""

import asyncio
import json
import os
import random
import socket

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import ResourceVector
from repro.service import (
    AllocationServer,
    AllocationService,
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.client import ServiceUnavailable, _BaseClient, _SessionRefused
from repro.service.protocol import MAX_LINE_BYTES, RETRYABLE_CODES


def _config(**overrides):
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        n_shards=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _serve(tmpdir: str, **overrides):
    sock = os.path.join(tmpdir, "svc.sock")
    service = AllocationService(_config(**overrides))
    await service.start()
    server = AllocationServer(service, socket_path=sock)
    await server.start()
    return sock, service, server


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_delay_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, seed=9)
    first = [policy.delay(i, random.Random(9)) for i in range(6)]
    second = [policy.delay(i, random.Random(9)) for i in range(6)]
    assert first == second  # same seed, same jittered schedule
    for i, delay in enumerate(first):
        base = min(0.5, 0.1 * 2.0**i)
        assert base * 0.5 <= delay <= base  # jitter=0.5 shrinks, never grows


def test_retry_policy_honors_retry_after_floor():
    policy = RetryPolicy(backoff_base=0.001)
    assert policy.delay(0, random.Random(0), retry_after=0.75) >= 0.75


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Key/id bookkeeping and the resend-safety rule
# ---------------------------------------------------------------------------


def test_auto_key_stamps_mutating_ops_only():
    client = _BaseClient(socket_path="unused.sock", client_id="c1")
    allocate = client._prepare({"op": "allocate", "category": "a", "task_id": 1})
    assert allocate["key"] == "c1/1"
    assert allocate["id"] == "c1#1"
    ping = client._prepare({"op": "ping"})
    assert "key" not in ping
    explicit = client._prepare(
        {"op": "record", "category": "a", "task_id": 1, "key": "mine"}
    )
    assert explicit["key"] == "mine"  # caller keys are never overwritten


def test_auto_key_off_leaves_ops_bare():
    client = _BaseClient(socket_path="unused.sock", auto_key=False, client_id="c2")
    doc = client._prepare({"op": "allocate", "category": "a", "task_id": 1})
    assert "key" not in doc


def test_auto_key_stamps_nested_batch_requests():
    client = _BaseClient(socket_path="unused.sock", client_id="c3")
    requests = [
        {"op": "allocate", "category": "a", "task_id": 1},
        {"op": "record", "category": "a", "task_id": 1, "peaks": {"memory": 1.0}, "key": "mine"},
        {"op": "allocate_retry", "category": "b", "task_id": 2},
    ]
    batch = client._prepare({"op": "allocate_batch", "requests": requests})
    assert [sub["key"] for sub in batch["requests"]] == ["c3/1", "mine", "c3/2"]
    assert "key" not in batch  # only the nested requests are applied
    assert "key" not in requests[0]  # the caller's documents are not mutated
    assert _BaseClient._safe_to_resend(batch)
    bare = _BaseClient(socket_path="unused.sock", auto_key=False, client_id="c4")
    assert not _BaseClient._safe_to_resend(
        bare._prepare({"op": "allocate_batch", "requests": requests})
    )


def test_safe_to_resend_rules():
    safe = _BaseClient._safe_to_resend
    assert safe({"op": "ping"})
    assert safe({"op": "stats"})
    assert safe({"op": "allocate", "key": "k"})
    assert not safe({"op": "allocate"})
    assert not safe({"op": "record"})
    assert safe({"op": "allocate_batch", "requests": [{"op": "allocate", "key": "k"}]})
    assert not safe({"op": "allocate_batch", "requests": [{"op": "allocate"}]})


@pytest.mark.parametrize("last", [False, True], ids=["early", "last"])
@pytest.mark.parametrize("keyed", [False, True], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("connected", [False, True], ids=["idle", "connected"])
@pytest.mark.parametrize("code", [None, *RETRYABLE_CODES, "too_large", "bad_request"])
def test_retry_decision_table(code, connected, keyed, last):
    """The one retry decision, over failure x connected x keyed x last attempt.

    ``code`` None is a transport failure; otherwise the server refused
    the request with that typed code (``bad_request`` and ``too_large``
    as the server sends them: without an ``id``, for a garbled or an
    oversized line).  No sockets are involved.
    """
    policy = RetryPolicy(max_attempts=3, seed=5)
    client = _BaseClient(socket_path="unused.sock", retry=policy, client_id="d")
    payload = {"op": "allocate", "category": "a", "task_id": 1, "id": "d#1"}
    if keyed:
        payload["key"] = "d/1"
    if code is None:
        failure = ConnectionResetError("reset")
    else:
        failure = _SessionRefused(code, "refused", None)
    attempt = policy.max_attempts - 1 if last else 0

    def decide():
        return client._decide(payload, failure, attempt, connected)

    if code == "too_large":
        with pytest.raises(ServiceError) as permanent:
            decide()
        assert permanent.value.code == code
    elif code is None and connected and not keyed:
        with pytest.raises(ServiceUnavailable, match="outcome unknown"):
            decide()
    elif last:
        with pytest.raises(ServiceUnavailable, match="attempts exhausted"):
            decide()
    else:
        drop, delay = decide()
        assert drop == (code in (None, "timeout", "shutting_down"))
        assert delay == policy.delay(0, random.Random(5))  # first draw of the seeded RNG
        return
    # Giving up never consumes a backoff draw.
    assert client._rng.random() == random.Random(5).random()


def test_retry_decision_honors_retry_after():
    client = _BaseClient(socket_path="unused.sock", client_id="d")
    failure = _SessionRefused("overloaded", "busy", 0.75)
    drop, delay = client._decide({"op": "ping", "id": "d#1"}, failure, 0, True)
    assert not drop and delay >= 0.75


# ---------------------------------------------------------------------------
# Live round trips
# ---------------------------------------------------------------------------


def test_sync_client_round_trip(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))

        def drive():
            with ServiceClient(socket_path=sock, client_id="sync") as client:
                vector = client.allocate("proc", 1)
                assert isinstance(vector, ResourceVector)
                count = client.record("proc", vector, 1)
                assert count == 1
                retried = client.allocate_retry(
                    "proc", 2, previous=vector, observed=vector, exhausted=["memory"]
                )
                assert isinstance(retried, ResourceVector)
                assert client.ping()
                health = client.health()
                assert health["ok"] is True and health["connections"] == 1
                stats = client.server_stats()
                assert stats["ops"] == 3
                return client.stats()

        stats = await asyncio.to_thread(drive)
        assert stats["retries"] == 0 and stats["reconnects"] == 0
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_async_client_round_trip(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        async with AsyncServiceClient(socket_path=sock, client_id="async") as client:
            vector = await client.allocate("proc", 1)
            assert await client.record("proc", vector, 1) == 1
            assert await client.ping()
            health = await client.health()
            assert health["ok"] is True
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_bad_request_raises_service_error_without_retry(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        async with AsyncServiceClient(socket_path=sock, client_id="bad") as client:
            with pytest.raises(ServiceError) as excinfo:
                await client.call({"op": "allocate", "category": "proc"})  # no task_id
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as unknown:
                await client.call({"op": "frobnicate"})
            assert unknown.value.code == "unknown_op"
            # Malformed requests are never retried (they cannot succeed).
            assert client.retries == 0
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_internal_error_detail_never_reaches_the_wire(tmp_path):
    """Satellite: a server-side exception yields code 'internal' only."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        # Sabotage one shard so dispatch raises something with a juicy
        # internal message.
        secret = "secret-internal-detail-12345"

        def explode(*args, **kwargs):
            raise RuntimeError(secret)

        for shard in service.shards:
            shard.allocator.allocate = explode
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(
            json.dumps(
                {"id": 1, "op": "allocate", "category": "proc", "task_id": 1}
            ).encode()
            + b"\n"
        )
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.close()
        await server.stop()
        await service.stop()
        return response, secret

    response, secret = asyncio.run(scenario())
    assert response["ok"] is False
    assert response["error"]["code"] == "internal"
    assert secret not in json.dumps(response)


def test_connection_limit_sheds_with_retry_after(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path), max_connections=1)
        holder_reader, holder_writer = await asyncio.open_unix_connection(sock)
        # Second connection is answered with one typed overloaded error
        # and closed.
        reader, writer = await asyncio.open_unix_connection(sock)
        refusal = json.loads(await reader.readline())
        assert refusal["ok"] is False
        assert refusal["error"]["code"] == "overloaded"
        assert refusal["error"]["retry_after"] > 0
        assert await reader.read() == b""  # server closed it cleanly
        writer.close()
        assert server.rejected_connections == 1
        # Once the holder leaves, the resilient client gets in by
        # backing off and reconnecting on its own.
        holder_writer.close()
        await holder_writer.wait_closed()
        async with AsyncServiceClient(
            socket_path=sock,
            client_id="patient",
            retry=RetryPolicy(backoff_base=0.01, backoff_max=0.05),
        ) as client:
            assert await client.ping()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_read_deadline_disconnects_slow_loris(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path), read_timeout=0.2)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'{"op": "pi')  # dribble a partial request, then stall
        await writer.drain()
        response = json.loads(await asyncio.wait_for(reader.readline(), timeout=5.0))
        assert response["ok"] is False
        assert response["error"]["code"] == "timeout"
        assert await reader.read() == b""  # then a clean disconnect
        writer.close()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_oversized_line_gets_typed_error_and_clean_close(tmp_path):
    """Satellite: no LimitOverrunError traceback, a typed error instead."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'{"op": "ping", "pad": "' + b"x" * (MAX_LINE_BYTES + 2048))
        await writer.drain()
        response = json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
        assert response["ok"] is False
        assert response["error"]["code"] == "too_large"
        assert await reader.read() == b""
        writer.close()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def _oversized_batch():
    """A batch whose request line is over the protocol cap."""
    return [{"op": "allocate", "category": "c" * 2000, "task_id": i} for i in range(600)]


def test_oversized_batch_raises_too_large_at_once_sync(tmp_path):
    """An id-less permanent refusal is raised, not slept on and resent."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))

        def drive():
            with ServiceClient(socket_path=sock, client_id="big-sync") as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.allocate_batch(_oversized_batch())
                attempts = client.attempts
                assert client.ping()  # the next call dials a fresh session
                return excinfo.value.code, attempts

        code, attempts = await asyncio.to_thread(drive)
        await server.stop()
        await service.stop()
        return code, attempts

    code, attempts = asyncio.run(scenario())
    assert code == "too_large"
    assert attempts == 1


def test_oversized_batch_raises_too_large_at_once_async(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        async with AsyncServiceClient(socket_path=sock, client_id="big-async") as client:
            with pytest.raises(ServiceError) as excinfo:
                await client.allocate_batch(_oversized_batch())
            attempts = client.attempts
            assert await client.ping()
        await server.stop()
        await service.stop()
        return excinfo.value.code, attempts

    code, attempts = asyncio.run(scenario())
    assert code == "too_large"
    assert attempts == 1


def test_sync_client_reconnects_after_server_restart(tmp_path):
    """Kill the server between calls; the SDK redials transparently."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))

        def first_leg(client):
            assert client.ping()
            # The shutdown response closes this session server-side, so
            # the next call finds a dead socket and must redial.
            assert client.shutdown()

        def second_leg(client):
            assert client.ping()
            return client.stats()

        client = ServiceClient(
            socket_path=sock,
            client_id="redial",
            retry=RetryPolicy(backoff_base=0.01, backoff_max=0.05),
        )
        await asyncio.to_thread(first_leg, client)
        await server.stop()
        await service.stop()
        # Same socket path, fresh daemon.
        service = AllocationService(_config())
        await service.start()
        os.unlink(sock)
        server = AllocationServer(service, socket_path=sock)
        await server.start()
        stats = await asyncio.to_thread(second_leg, client)
        client.close()
        assert stats["reconnects"] >= 1
        await server.stop()
        await service.stop()

    asyncio.run(scenario())
