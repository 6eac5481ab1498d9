"""Resilient client SDKs for the allocation service wire protocol.

:class:`ServiceClient` (blocking sockets) and
:class:`AsyncServiceClient` (asyncio streams) speak the NDJSON protocol
with the failure semantics ``docs/SERVICE.md`` documents:

* connect and read **timeouts** on every wire interaction;
* **reconnect with exponential backoff + jitter** from the client's own
  seeded :class:`random.Random` stream (reprolint-R2 clean, and a fixed
  ``RetryPolicy.seed`` makes a retry schedule replayable in tests);
* client-generated **idempotency keys** (``"<client_id>/<n>"``) on
  every mutating operation by default, nested batch requests included,
  so a retry after an *ambiguous* failure — the connection died after
  the request was sent, before a response arrived — is answered
  exactly-once by the server's dedup window rather than double-applied.

The retry decision is principled, not heuristic:

* a **typed retryable error** (``overloaded``, ``timeout``,
  ``shutting_down``, ``storage_unavailable`` — see ``RETRYABLE_CODES``)
  means the server *refused* the request before dispatching it, so
  resending is always safe, key or no key; ``retry_after`` hints are
  honored as a backoff floor;
* any other typed error answering the request is permanent and raises
  :class:`ServiceError` at once; so does ``too_large`` without an ``id``
  — the line is over the cap and a resend cannot shrink it — while an
  ``id``-less ``bad_request`` means the line was garbled in transit and
  is resent like a retryable refusal;
* a **transport failure after send** is ambiguous — the operation may
  or may not have been applied.  With an idempotency key the client
  reconnects and resends (the dedup window collapses the duplicate);
  a mutating operation *without* a key raises
  :class:`ServiceUnavailable` instead of risking a double-apply.

Everything but the IO is written once, in :class:`_BaseClient`: id/key
stamping, response matching, the retry decision (which does no IO) and
every typed helper.  The two clients only connect, close, and run a
short ``call`` loop that moves bytes and obeys the decision.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.resources import Resource, ResourceVector
from repro.service.protocol import (
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    ERR_TOO_LARGE,
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    encode,
)
from repro.service.shards import MUTATING_OPS, OP_ALLOCATE, OP_RECORD, OP_RETRY

__all__ = [
    "RetryPolicy",
    "ServiceError",
    "ServiceUnavailable",
    "ServiceClient",
    "AsyncServiceClient",
]

#: Unmatched response lines tolerated while hunting for a request's
#: ``id`` echo before the stream is declared corrupt.
MAX_SKIPPED_LINES = 64


class ServiceError(RuntimeError):
    """The server answered with a non-retryable typed error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code

    @property
    def message(self) -> str:
        return str(self).split(": ", 1)[1]


class ServiceUnavailable(RuntimeError):
    """Retries exhausted, or an ambiguous failure that is unsafe to retry."""


class _SessionRefused(Exception):
    """A typed error line: the server refused the request before dispatch."""

    def __init__(self, code: str, message: str, retry_after: Optional[float]) -> None:
        super().__init__(code)
        self.code = code
        self.message = message
        self.retry_after = retry_after


class _StreamCorrupt(Exception):
    """The response stream stopped being parseable NDJSON."""


#: Failures a ``call`` attempt hands to the retry decision.
_FAILURES: Tuple[type, ...] = (_SessionRefused, _StreamCorrupt, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client reconnects and retries.

    ``backoff_base * backoff_factor**attempt`` seconds, capped at
    ``backoff_max``, jittered down by up to ``jitter`` of itself from a
    :class:`random.Random` seeded with ``seed`` — two clients with the
    same policy and seed sleep the same schedule, which is what makes
    chaos tests replayable.
    """

    max_attempts: int = 6
    connect_timeout: float = 5.0
    read_timeout: float = 5.0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(
        self, attempt: int, rng: random.Random, retry_after: Optional[float] = None
    ) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)
        jittered = base * (1.0 - self.jitter * rng.random())
        if retry_after is not None:
            jittered = max(jittered, float(retry_after))
        return jittered


class _BaseClient:
    """The transport-free client core shared by both SDKs.

    Typed helpers build their request literal here and hand it to the
    subclass's ``call``; :meth:`_then` decodes the result — directly in
    the blocking client, after ``await`` in the asyncio one — so each
    helper is written once and returns a coroutine under asyncio.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        retry: Optional[RetryPolicy] = None,
        auto_key: bool = True,
        client_id: Optional[str] = None,
    ) -> None:
        if socket_path is None and not port:
            raise ValueError("give a UNIX socket path or a TCP port")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.auto_key = auto_key
        #: Stable prefix of generated idempotency keys.  Injectable so
        #: tests (and deterministic replays) control the key stream;
        #: defaults to a fresh UUID per client instance.
        # reprolint: disable=F3  # client identity is wire metadata, injectable for deterministic replays
        self.client_id = client_id if client_id is not None else uuid.uuid4().hex
        self._rng = random.Random(self.retry.seed)
        self._next_id = 0
        self._next_key = 0
        #: Wire attempts, including the first try of each call.
        self.attempts = 0
        #: Re-dials after a dropped/declared-dead connection.
        self.reconnects = 0
        #: Requests resent after a retryable error or ambiguous failure.
        self.retries = 0
        #: Unmatched response lines skipped while matching ids.
        self.skipped_lines = 0

    @staticmethod
    def _then(pending: Any, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """Decode the result of :meth:`call` (the blocking case)."""
        return decode(pending)

    # -- document building -----------------------------------------------------

    def _prepare(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        payload = dict(doc)
        if "id" not in payload:
            self._next_id += 1
            payload["id"] = f"{self.client_id}#{self._next_id}"
        if not self.auto_key:
            return payload
        requests = payload.get("requests")
        if payload.get("op") == "allocate_batch" and isinstance(requests, list):
            payload["requests"] = [self._keyed(sub) for sub in requests]
        return self._keyed(payload)

    def _keyed(self, doc: Any) -> Any:
        """``doc`` with a fresh key if it is a mutating request without one."""
        if isinstance(doc, dict) and doc.get("op") in MUTATING_OPS and "key" not in doc:
            return dict(doc, key=self.new_key())
        return doc

    def new_key(self) -> str:
        """A fresh idempotency key: ``"<client_id>/<n>"``."""
        self._next_key += 1
        return f"{self.client_id}/{self._next_key}"

    # -- response matching -----------------------------------------------------

    def _match(self, line: bytes, request_id: Any, skipped: int) -> Optional[Dict[str, Any]]:
        """One response line: the request's result, a refusal, or noise.

        Returns the result payload when ``line`` answers ``request_id``
        and ``None`` for a line to skip; raises :class:`ServiceError` for
        a permanent error answer and ``_SessionRefused`` for a retryable
        one or for any ``id``-less error (the server refused the session).
        """
        try:
            doc = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _StreamCorrupt("response line is not valid JSON") from None
        if not isinstance(doc, dict):
            raise _StreamCorrupt("response line is not a JSON object")
        if doc.get("id") == request_id:
            if doc.get("ok"):
                result = doc.get("result")
                return result if isinstance(result, dict) else {}
            refusal = self._refusal(doc)
            if refusal.code not in RETRYABLE_CODES:
                raise ServiceError(refusal.code, refusal.message)
            raise refusal
        if "id" not in doc and doc.get("ok") is False:
            raise self._refusal(doc)
        self.skipped_lines += 1
        if skipped + 1 > MAX_SKIPPED_LINES:
            raise _StreamCorrupt(
                f"no response matching id {request_id!r} within "
                f"{MAX_SKIPPED_LINES} lines"
            )
        return None

    @staticmethod
    def _refusal(doc: Dict[str, Any]) -> _SessionRefused:
        error = doc.get("error") or {}
        return _SessionRefused(
            str(error.get("code", "unknown")),
            str(error.get("message", "")),
            error.get("retry_after"),
        )

    # -- the retry decision ----------------------------------------------------

    def _attempts(self) -> Iterator[int]:
        """Counted attempt numbers, without end: :meth:`_decide` raises on the last."""
        for attempt in itertools.count():
            self.attempts += 1
            if attempt:
                self.retries += 1
            yield attempt

    @staticmethod
    def _safe_to_resend(payload: Dict[str, Any]) -> bool:
        """Is a resend after an *ambiguous* failure safe?

        Non-mutating requests always are; mutating ones only with an
        idempotency key (the server's dedup window absorbs the copy).
        A batch is safe only if every nested request carries a key.
        """
        op = payload.get("op")
        if op == "allocate_batch":
            return all(
                isinstance(sub, dict) and sub.get("key")
                for sub in payload.get("requests", [])
            )
        if op in MUTATING_OPS:
            return bool(payload.get("key"))
        return True

    def _decide(
        self, payload: Dict[str, Any], failure: BaseException, attempt: int, connected: bool
    ) -> Tuple[bool, float]:
        """What to do after ``failure`` ended try ``attempt`` (0-based).

        ``connected`` says whether a connection was open when it failed,
        i.e. whether the request may have reached the server.  Returns
        ``(drop, delay)``: close the session first or not, then sleep
        ``delay`` seconds and resend.  Raises :class:`ServiceError` for
        an ``id``-less ``too_large`` and :class:`ServiceUnavailable`
        when a resend is unsafe or the attempts are spent; the caller
        closes its session before letting either escape.
        """
        if isinstance(failure, _SessionRefused):
            # Typed refusal: never dispatched, so a resend is always safe
            # — but only helps if the request is not over the line cap.
            if failure.code == ERR_TOO_LARGE:
                raise ServiceError(failure.code, failure.message)
            drop = failure.code in (ERR_TIMEOUT, ERR_SHUTTING_DOWN)
            retry_after = failure.retry_after
            cause: BaseException = ServiceUnavailable(f"server refused: {failure.code}")
        else:
            if connected and not self._safe_to_resend(payload):
                raise ServiceUnavailable(
                    "connection failed after an un-keyed mutating request "
                    "was sent; outcome unknown, refusing to double-apply"
                ) from failure
            drop, retry_after, cause = True, None, failure
        if attempt + 1 >= self.retry.max_attempts:
            raise ServiceUnavailable(f"{self.retry.max_attempts} attempts exhausted") from cause
        return drop, self.retry.delay(attempt, self._rng, retry_after)

    def stats(self) -> Dict[str, int]:
        return {
            "attempts": self.attempts,
            "reconnects": self.reconnects,
            "retries": self.retries,
            "skipped_lines": self.skipped_lines,
        }

    # -- typed helpers ---------------------------------------------------------

    def ping(self) -> Any:
        return self._then(self.call({"op": "ping"}), lambda r: bool(r.get("pong")))

    def server_stats(self) -> Any:
        return self.call({"op": "stats"})

    def health(self) -> Any:
        return self.call({"op": "health"})

    def shutdown(self) -> Any:
        return self._then(self.call({"op": "shutdown"}), lambda r: bool(r.get("shutting_down")))

    def snapshot(self) -> Any:
        """Force a snapshot cut; returns the written envelope path."""
        return self._then(self.call({"op": "snapshot"}), lambda r: str(r["path"]))

    def allocate_batch(self, requests: Sequence[Dict[str, Any]]) -> Any:
        """Submit mutating sub-requests in one round trip.

        Each entry is a mutating request document (``allocate`` /
        ``allocate_retry`` / ``record``, no nesting); the server answers
        with one response document per entry, in request order.
        """
        doc = {"op": "allocate_batch", "requests": [dict(sub) for sub in requests]}
        return self._then(self.call(doc), _responses)

    def allocate(self, category: str, task_id: int, key: Optional[str] = None) -> Any:
        doc: Dict[str, Any] = {"op": OP_ALLOCATE, "category": category, "task_id": task_id}
        if key is not None:
            doc["key"] = key
        return self._then(self.call(doc), _allocation)

    def allocate_retry(
        self,
        category: str,
        task_id: int,
        previous: ResourceVector,
        observed: ResourceVector,
        exhausted: Sequence[Union[Resource, str]],
        key: Optional[str] = None,
    ) -> Any:
        doc: Dict[str, Any] = {
            "op": OP_RETRY,
            "category": category,
            "task_id": task_id,
            "previous": previous.state_dict(),
            "observed": observed.state_dict(),
            "exhausted": [str(res) for res in exhausted],
        }
        if key is not None:
            doc["key"] = key
        return self._then(self.call(doc), _allocation)

    def record(
        self,
        category: str,
        peaks: ResourceVector,
        task_id: int,
        significance: Optional[float] = None,
        key: Optional[str] = None,
    ) -> Any:
        doc: Dict[str, Any] = {
            "op": OP_RECORD,
            "category": category,
            "task_id": task_id,
            "peaks": peaks.state_dict(),
        }
        if significance is not None:
            doc["significance"] = significance
        if key is not None:
            doc["key"] = key
        return self._then(self.call(doc), lambda r: int(r["records_count"]))


def _allocation(result: Dict[str, Any]) -> ResourceVector:
    return ResourceVector.from_state(result["allocation"])


def _responses(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    responses = result["responses"]
    return list(responses) if isinstance(responses, list) else []


class ServiceClient(_BaseClient):
    """Blocking client over a UNIX socket path or a ``(host, port)`` pair.

    Usable as a context manager; safe to call from one thread at a time.
    """

    _sock: Optional[socket.socket] = None
    _buffer = b""

    def connect(self) -> None:
        if self._sock is not None:
            return
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.retry.connect_timeout)
            sock.connect(self._socket_path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.retry.connect_timeout
            )
        sock.settimeout(self.retry.read_timeout)
        self._sock = sock
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer = b""

    def _drop(self) -> None:
        self.close()
        self.reconnects += 1

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_line(self) -> bytes:
        assert self._sock is not None
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise _StreamCorrupt("unterminated response line over protocol cap")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def call(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request document; returns the result payload.

        Retries per :class:`RetryPolicy`; raises :class:`ServiceError`
        on a non-retryable server error and
        :class:`ServiceUnavailable` when retries are exhausted or an
        ambiguous failure cannot safely be retried.
        """
        payload = self._prepare(doc)
        for attempt in self._attempts():
            try:
                self.connect()
                assert self._sock is not None
                try:
                    self._sock.sendall(encode(payload))
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the server may have refused and hung up; read its answer
                for skipped in itertools.count():
                    result = self._match(self._read_line(), payload["id"], skipped)
                    if result is not None:
                        return result
            except _FAILURES as exc:
                try:
                    drop, delay = self._decide(payload, exc, attempt, self._sock is not None)
                except (ServiceError, ServiceUnavailable):
                    self._drop()
                    raise
                if drop:
                    self._drop()
                time.sleep(delay)


class AsyncServiceClient(_BaseClient):
    """asyncio client with the same retry semantics as :class:`ServiceClient`."""

    _reader: Optional[asyncio.StreamReader] = None
    _writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        if self._writer is not None:
            return
        if self._socket_path is not None:
            opening = asyncio.open_unix_connection(
                self._socket_path, limit=MAX_LINE_BYTES + 1024
            )
        else:
            opening = asyncio.open_connection(
                self._host, self._port, limit=MAX_LINE_BYTES + 1024
            )
        self._reader, self._writer = await asyncio.wait_for(
            opening, timeout=self.retry.connect_timeout
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._reader = None
            self._writer = None

    async def _drop(self) -> None:
        await self.close()
        self.reconnects += 1

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @staticmethod
    def _then(pending: Any, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        async def decoded() -> Any:
            return decode(await pending)

        return decoded()

    async def call(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Async twin of :meth:`ServiceClient.call` (same semantics)."""
        payload = self._prepare(doc)
        for attempt in self._attempts():
            try:
                await self.connect()
                assert self._reader is not None and self._writer is not None
                self._writer.write(encode(payload))
                await self._writer.drain()
                for skipped in itertools.count():
                    line = await asyncio.wait_for(
                        self._reader.readline(), timeout=self.retry.read_timeout
                    )
                    if not line:
                        raise ConnectionError("server closed the connection")
                    result = self._match(line, payload["id"], skipped)
                    if result is not None:
                        return result
            # ValueError: readline() overran the stream limit.
            except (*_FAILURES, asyncio.TimeoutError, ValueError) as exc:
                try:
                    drop, delay = self._decide(payload, exc, attempt, self._writer is not None)
                except (ServiceError, ServiceUnavailable):
                    await self._drop()
                    raise
                if drop:
                    await self._drop()
                await asyncio.sleep(delay)
