"""The service workloads: a ``repro.cli serve`` daemon driven over its UNIX socket.

``svc-open-wide`` sends single NDJSON requests open-loop (Poisson task
arrivals at a fixed rate, two connections, every request of a task on
one connection) over thousands of Zipf-popular categories, so every op
pays the whole per-request path and the allocator mostly sees
categories with a handful of records.  ``svc-batch-hot`` sends
``allocate_batch`` requests of 64 closed-loop on one connection over 16
hot categories, so wire and WAL costs are shared by 64 ops and the
allocator works at hundreds to thousands of records per category.

Both run ``repro.cli serve`` with its defaults plus ``--durability
none`` (see DURABILITY), with the data directory inside the checkout.
After the load the daemon is SIGKILLed and restarted several times, each
time on a copy of its data directory; every restart must recover exactly
the acknowledged operations.  Outside the timed region,
each shard's acknowledged ops are replayed in ``seq`` order through
:func:`repro.service.shards.apply_op` on a fresh allocator, and every
response must match.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench import BenchError
from perfbench.layers import zero_layer_metrics
from perfbench.spans import percentile, residual
from perfbench.speed import calibrate, scaled
from perfbench.traffic import (
    RESOURCE_KEYS,
    Task,
    TrafficTally,
    check_regime,
    hot_tasks,
    wide_tasks,
)

__all__ = ["run_open_wide", "run_batch_hot", "WIDE_OPS_PER_S", "HOT_TASKS_PER_S"]

#: Offered load of svc-open-wide: about half of one daemon's capacity here.
WIDE_OPS_PER_S = 400.0
#: svc-batch-hot work per second of ``--seconds`` (sized to about 0.3 s
#: of load per unit on a 2-core x86 VM, so that each of the HOT_RESTARTS
#: replays of the whole WAL stays short).
HOT_TASKS_PER_S = 800
BATCH_SIZE = 64
#: svc-batch-hot batches outstanding on its one connection.
PIPELINE = 2
#: svc-batch-hot drains its pipeline and times the reference job (see
#: perfbench.speed) on the idle daemon's CPU after this many answered
#: batches; its rates are medians over these segments of the load.
SEGMENT_BATCHES = 10
#: WAL commit policy.  The benchmark may write only inside its checkout,
#: which sits on a shared virtual disk whose fsync latency swings from
#: 0.2 ms to 10 ms+ between runs; ``none`` runs the whole WAL code path
#: (frame, write, flush) minus the physical flush, which is what a data
#: directory on tmpfs (where fsync is a no-op) would measure.
DURABILITY = "none"
#: A generator whose p99 send lag exceeds this did not offer the stated load.
MAX_GEN_LAG_P99_MS = 50.0
SETUP_SPAWNS = 9
#: Restarts per phase whose mean is ``recover_s``: each one's time
#: depends on how much of it the host spent in its slow state, so a run
#: takes several.  svc-open-wide's ~1.3 s restart is half process start;
#: svc-batch-hot's ~2 s restart is mostly WAL replay.
WIDE_RESTARTS = 9
HOT_RESTARTS = 7
READY_TIMEOUT_S = 120.0
_CPUS = sorted(os.sched_getaffinity(0))
#: The daemon runs alone on one logical CPU and the client on the others,
#: so the reference job (perfbench.speed) can time the daemon's CPU
#: whenever the daemon is idle: around every spawn and restart, around
#: the open loop's load and around every segment of the closed loop's.
DAEMON_CPU = _CPUS[-1]
CLIENT_CPUS = set(_CPUS[:-1]) or {DAEMON_CPU}
_TICKS = os.sysconf("SC_CLK_TCK")


# -- daemon process management ------------------------------------------------------


@dataclass
class Daemon:
    proc: subprocess.Popen
    stderr_path: str
    summary_path: Optional[str]
    #: Spawn to ready line.
    ready_s: float

    def cpu_s(self) -> float:
        """utime + stime of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def dump_summary(self) -> Dict[str, Any]:
        """Ask a traced daemon for its per-layer sums (SIGUSR1) and read them."""
        assert self.summary_path is not None
        if os.path.exists(self.summary_path):
            os.remove(self.summary_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(self.summary_path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced daemon did not write its span summary")
            time.sleep(0.01)
        with open(self.summary_path, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> int:
        """SIGTERM (drain, snapshot, exit 143) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


class Workspace:
    """Run directory, socket and data dir inside the checkout; removed at exit."""

    def __init__(self, root: str, name: str) -> None:
        self.root = root
        self.rel = os.path.join(".perfbench_run", f"{name}-{os.getpid()}")
        self.path = os.path.join(root, self.rel)
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        # Relative to the checkout root (the daemons' cwd): keeps the
        # UNIX socket path short whatever the checkout's location.
        self.socket = os.path.join(self.rel, "d.sock")
        self.daemons: List[Daemon] = []

    def data_dir(self, tag: str) -> str:
        return os.path.join(self.rel, f"data-{tag}")

    def spawn(self, data_dir: str, traced: bool, calibrations: List[float]) -> Daemon:
        """Start a daemon on ``data_dir`` and wait for its ready line.

        The reference job is timed on the daemon's CPU before the spawn
        and after the ready line, into ``calibrations``.
        """
        index = len(self.daemons)
        serve = ["serve", "--socket", self.socket, "--checkpoint-dir", data_dir,
                 "--durability", DURABILITY]
        summary = None
        if traced:
            summary = os.path.join(self.rel, f"summary-{index}.json")
            argv = [sys.executable, os.path.join("perfbench", "launcher.py"), summary, *serve]
        else:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        stderr_path = os.path.join(self.path, f"daemon-{index}.err")
        if os.path.exists(os.path.join(self.root, self.socket)):
            os.remove(os.path.join(self.root, self.socket))
        calibrations.append(calibrate(DAEMON_CPU))
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL,
                preexec_fn=lambda: os.sched_setaffinity(0, {DAEMON_CPU}),
            )
        daemon = Daemon(proc, stderr_path, summary, 0.0)
        self.daemons.append(daemon)
        line = _read_line(proc, READY_TIMEOUT_S)
        daemon.ready_s = time.perf_counter() - start
        calibrations.append(calibrate(DAEMON_CPU))
        if not line.startswith(b"{") or not json.loads(line).get("ready"):
            raise BenchError(f"daemon did not announce readiness: {line[:200]!r}")
        return daemon

    def close(self) -> None:
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
            daemon.proc.wait()
            if daemon.proc.stdout is not None:
                daemon.proc.stdout.close()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass

    def check_stderr(self) -> None:
        for daemon in self.daemons:
            with open(daemon.stderr_path, "rb") as handle:
                text = handle.read()
            if b"Traceback" in text:
                raise BenchError(f"daemon wrote a traceback: {text[-400:]!r}")


def _read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no ready line within {timeout}s")
    return proc.stdout.readline()


def spawn_measured(
    ws: Workspace, traced: bool, calibrations: List[float]
) -> Tuple[Daemon, float]:
    """Spawn the daemon SETUP_SPAWNS times on fresh data dirs; keep the last.

    Returns the live daemon and the median spawn-to-ready time.
    """
    times = []
    for i in range(SETUP_SPAWNS):
        daemon = ws.spawn(ws.data_dir(f"{'t' if traced else 'u'}{i}"), traced, calibrations)
        times.append(daemon.ready_s)
        if i < SETUP_SPAWNS - 1:
            code = daemon.stop()
            if code != 128 + signal.SIGTERM:
                raise BenchError(f"daemon exited {code} on SIGTERM, expected 143")
    return daemon, statistics.median(times)


# -- client side ---------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything the client saw for one workload phase."""

    tally: TrafficTally = field(default_factory=TrafficTally)
    attempted: int = 0
    failed: int = 0
    acked: List[Tuple[Dict[str, Any], Dict[str, Any]]] = field(default_factory=list)
    alloc_latency_s: List[float] = field(default_factory=list)
    send_lag_s: List[float] = field(default_factory=list)
    client_latency_s: float = 0.0
    allocations: Dict[int, List[Dict[str, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    tasks_done: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Reference job times on the daemon's CPU (perfbench.speed): around
    #: the open loop's load, and around every closed-loop segment.
    calibrations: List[float] = field(default_factory=list)
    #: Closed loop only: (time, acked ops, tasks done, daemon CPU s) at the
    #: start and end of every segment.
    marks: List[Tuple[float, int, int, float]] = field(default_factory=list)


def _encode(doc: Dict[str, Any]) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _first_doc(task: Task) -> Dict[str, Any]:
    return {"op": "allocate", "category": task.category, "task_id": task.task_id}


def _next_doc(task: Task, step: int, previous: Dict[str, float]) -> Dict[str, Any]:
    """The request after ``step`` answered requests of ``task``."""
    if step <= task.retries:
        res = task.exhausted[step - 1]
        observed = {k: min(task.peaks[k], previous[k]) for k in RESOURCE_KEYS}
        observed[res] = previous[res]
        return {
            "op": "allocate_retry", "category": task.category, "task_id": task.task_id,
            "previous": previous, "observed": observed, "exhausted": [res],
        }
    return {"op": "record", "category": task.category, "task_id": task.task_id,
            "peaks": task.peaks}


def _accept(out: Outcome, task: Task, doc: Dict[str, Any], response: Dict[str, Any]) -> bool:
    """Check one response; returns whether the task may continue."""
    if not response.get("ok"):
        out.failed += 1
        return False
    result = response["result"]
    out.acked.append((doc, result))
    if doc["op"] == "record":
        out.tasks_done += 1
        return True
    allocation = result.get("allocation")
    if not isinstance(allocation, dict) or sorted(allocation) != sorted(RESOURCE_KEYS) or not all(
        isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in allocation.values()
    ):
        raise BenchError(f"bad allocation {allocation!r} for {doc['op']} of task {task.task_id}")
    out.allocations[task.task_id].append(allocation)
    return True


async def _open_loop(socket_path: str, tasks: List[Task], out: Outcome, cpu) -> None:
    """Two connections; each task's requests on one; allocate latency from due time.

    Every request is a timer callback at its due time (``loop.call_at``),
    so a slow response never delays another task's send.
    """
    loop = asyncio.get_running_loop()
    conns = [await asyncio.open_unix_connection(socket_path, limit=1 << 22) for _ in range(2)]
    out.calibrations.append(calibrate(DAEMON_CPU))
    start = loop.time() + 0.05
    cpu0 = cpu()

    async def drive(index: int, reader, writer) -> None:
        mine = [t for t in tasks if t.task_id % 2 == index]
        inflight: deque = deque()

        def send(due: float, step: int, task: Task, doc: Dict[str, Any]) -> None:
            sent = loop.time()
            out.send_lag_s.append(sent - due)
            out.tally.sent(doc)
            out.attempted += 1
            inflight.append((due, sent, step, task, doc))
            writer.write(_encode(doc))

        for task in mine:
            due = start + task.arrival
            loop.call_at(due, send, due, 0, task, _first_doc(task))
        remaining = len(mine)
        while remaining:
            line = await reader.readline()
            if not line:
                raise BenchError("daemon closed the connection")
            now = loop.time()
            due, sent, step, task, doc = inflight.popleft()
            out.client_latency_s += now - sent
            response = json.loads(line)
            if doc["op"] == "allocate" and response.get("ok"):
                out.alloc_latency_s.append(now - due)
            if not _accept(out, task, doc, response) or doc["op"] == "record":
                remaining -= 1
                continue
            nxt = _next_doc(task, step + 1, response["result"]["allocation"])
            loop.call_at(now + task.gap, send, now + task.gap, step + 1, task, nxt)

    await asyncio.gather(*(drive(i, r, w) for i, (r, w) in enumerate(conns)))
    out.wall_s = loop.time() - start
    out.cpu_s = cpu() - cpu0
    out.calibrations.append(calibrate(DAEMON_CPU))
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()


async def _batch_loop(socket_path: str, tasks: List[Task], out: Outcome, cpu) -> None:
    """One connection, closed loop, ``allocate_batch`` of BATCH_SIZE ops.

    Up to PIPELINE batches are outstanding, so the daemon finds the next
    batch waiting when it answers one.  Each batch carries the follow-ups
    (retries and records) of tasks whose previous request was answered,
    then fresh allocates up to BATCH_SIZE.  After every SEGMENT_BATCHES
    answers it stops sending until the outstanding batches are answered,
    then times the reference job on the idle daemon's CPU.
    """
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_unix_connection(socket_path, limit=1 << 22)
    follow: List[Tuple[Task, int, Dict[str, Any]]] = []
    inflight: deque = deque()
    fresh = iter(tasks)
    exhausted = False
    out.calibrations.append(calibrate(DAEMON_CPU))
    start = loop.time()
    cpu0 = cpu()

    def mark() -> None:
        out.marks.append((loop.time(), len(out.acked), out.tasks_done, cpu()))

    mark()
    answered = 0
    draining = False
    while True:
        if draining and not inflight:
            mark()
            out.calibrations.append(calibrate(DAEMON_CPU))
            mark()
            draining = False
        while not draining and len(inflight) < PIPELINE and (follow or not exhausted):
            batch, follow = follow, []
            while len(batch) < BATCH_SIZE and not exhausted:
                task = next(fresh, None)
                if task is None:
                    exhausted = True
                else:
                    batch.append((task, 0, _first_doc(task)))
            docs = [doc for _, _, doc in batch]
            for doc in docs:
                out.tally.sent(doc)
            out.attempted += len(docs)
            inflight.append((loop.time(), batch))
            writer.write(_encode({"op": "allocate_batch", "requests": docs}))
        if not inflight:
            break
        line = await reader.readline()
        now = loop.time()
        sent, batch = inflight.popleft()
        out.alloc_latency_s.append(now - sent)
        out.client_latency_s += now - sent
        response = json.loads(line)
        if not response.get("ok"):
            out.failed += len(batch)
            continue
        for (task, step, doc), result in zip(batch, response["result"]["responses"]):
            if _accept(out, task, doc, {"ok": True, "result": result}) and doc["op"] != "record":
                follow.append((task, step + 1, _next_doc(task, step + 1, result["allocation"])))
        answered += 1
        if answered % SEGMENT_BATCHES == 0:
            draining = True
    out.wall_s = loop.time() - start
    out.cpu_s = cpu() - cpu0
    mark()
    out.calibrations.append(calibrate(DAEMON_CPU))
    writer.close()
    await writer.wait_closed()


async def _request(socket_path: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    reader, writer = await asyncio.open_unix_connection(socket_path, limit=1 << 22)
    writer.write(_encode(doc))
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    response = json.loads(line)
    if not response.get("ok"):
        raise BenchError(f"{doc['op']} failed: {response}")
    return response["result"]


# -- checks --------------------------------------------------------------------------


def replay_check(acked: List[Tuple[Dict[str, Any], Dict[str, Any]]]) -> None:
    """Replay each shard's acknowledged ops in seq order on a fresh allocator."""
    from repro.cli import build_parser
    from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
    from repro.service.config import ServiceConfig
    from repro.service.shards import apply_op

    args = build_parser().parse_args(["serve"])
    config = ServiceConfig(
        allocator=AllocatorConfig(algorithm=args.service_algorithm, seed=args.service_seed),
        n_shards=args.shards,
    )
    by_shard: Dict[int, List[Tuple[int, Dict[str, Any], Dict[str, Any]]]] = defaultdict(list)
    for doc, result in acked:
        by_shard[int(result["shard"])].append((int(result["seq"]), doc, result))
    for index, rows in sorted(by_shard.items()):
        rows.sort(key=lambda row: row[0])
        if [row[0] for row in rows] != list(range(1, len(rows) + 1)):
            raise BenchError(f"shard {index} acknowledged seqs are not 1..{len(rows)}")
        allocator = TaskOrientedAllocator(config.shard_allocator_config(index))
        for seq, doc, result in rows:
            replayed = apply_op(allocator, doc, shed=result.get("mode") == "conservative")
            expected = {k: v for k, v in result.items() if k not in ("shard", "seq")}
            if replayed != expected:
                raise BenchError(
                    f"shard {index} seq {seq}: replay gave {replayed!r}, daemon said {expected!r}"
                )


def _awe_mean(tasks: List[Task], out: Outcome) -> float:
    """Mean over resources of peak use covered by the final allocation / all allocated.

    The generator fixes each task's retry count, so a final allocation
    may fall short of the peak; only the covered part counts as used.
    """
    ratios = []
    for key in RESOURCE_KEYS:
        used = given = 0.0
        for task in tasks:
            attempts = out.allocations[task.task_id]
            used += min(task.peaks[key], attempts[-1][key])
            given += sum(a[key] for a in attempts)
        ratios.append(used / given)
    value = statistics.fmean(ratios)
    if not 0.0 < value <= 1.0 or not math.isfinite(value):
        raise BenchError(f"service AWE {value!r} outside (0, 1]")
    return value


def _shard_counts(acked: List[Tuple[Dict[str, Any], Dict[str, Any]]]) -> Tuple[int, Dict[int, int]]:
    records: Dict[int, int] = defaultdict(int)
    for doc, result in acked:
        if doc["op"] == "record":
            records[int(result["shard"])] += 1
    return len(acked), records


# -- one phase: spawn, load, kill, recover -------------------------------------------


@dataclass
class Phase:
    setup_s: float
    out: Outcome
    recover_s: float
    wal_bytes: int
    #: Reference job times on the daemon's CPU throughout the phase.
    #: Reference job times on the daemon's CPU around the set-up spawns
    #: ("setup"), during the load ("load") and around the restarts ("recover").
    calibrations: Dict[str, List[float]]
    summary: Optional[Dict[str, Any]] = None
    recover_summary: Optional[Dict[str, Any]] = None


def _run_phase(
    ws: Workspace, tasks: List[Task], closed_loop: bool, restarts: int, traced: bool
) -> Phase:
    calibrations: Dict[str, List[float]] = {"setup": [], "recover": []}
    daemon, setup_s = spawn_measured(ws, traced, calibrations["setup"])
    data_dir = ws.data_dir(f"{'t' if traced else 'u'}{SETUP_SPAWNS - 1}")
    out = Outcome()
    socket_path = os.path.join(ws.root, ws.socket)
    load = _batch_loop if closed_loop else _open_loop
    asyncio.run(
        asyncio.wait_for(load(socket_path, tasks, out, daemon.cpu_s), timeout=150.0)
    )
    summary = daemon.dump_summary() if traced else None
    health = asyncio.run(_request(socket_path, {"op": "health"}))
    stats = asyncio.run(_request(socket_path, {"op": "stats"}))
    n_acked, records = _shard_counts(out.acked)
    if stats["ops"] != n_acked:
        raise BenchError(f"daemon applied {stats['ops']} ops, client saw {n_acked} acked")
    daemon.proc.send_signal(signal.SIGKILL)
    daemon.proc.wait()
    recover_times = []
    recover_summary = None
    for i in range(restarts):
        # Each restart recovers its own copy of the SIGKILLed data dir,
        # so every one replays the same WAL.
        copy = f"{data_dir}-r{i}"
        shutil.copytree(os.path.join(ws.root, data_dir), os.path.join(ws.root, copy))
        restarted = ws.spawn(copy, traced, calibrations["recover"])
        recover_times.append(restarted.ready_s)
        if traced and i == 0:
            recover_summary = restarted.dump_summary()
        _check_recovered(asyncio.run(_request(socket_path, {"op": "stats"})), n_acked, records)
        code = restarted.stop()
        if code != 128 + signal.SIGTERM:
            raise BenchError(f"restarted daemon exited {code} on SIGTERM, expected 143")
    return Phase(
        setup_s, out, statistics.fmean(recover_times), int(health["wal_bytes"]),
        {**calibrations, "load": out.calibrations}, summary, recover_summary,
    )


def _check_recovered(stats: Dict[str, Any], n_acked: int, records: Dict[int, int]) -> None:
    """A restart must hold exactly the acknowledged ops and records."""
    if stats["ops"] != n_acked or stats["recovered_ops"] != n_acked:
        raise BenchError(
            f"restart recovered {stats['recovered_ops']} ops (stats.ops={stats['ops']}), "
            f"{n_acked} were acknowledged"
        )
    for row in stats["shards"]:
        if row["records"] != records.get(row["index"], 0):
            raise BenchError(
                f"shard {row['index']} holds {row['records']} records after restart, "
                f"{records.get(row['index'], 0)} were acknowledged"
            )


def _end_to_end(phase: Phase, tasks: List[Task]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end metrics scaled to the reference host (perfbench.speed), and as measured.

    A closed-loop segment lasts a fraction of a second, so it is scaled
    by the reference job timed just before and after it.  The set-up
    spawns and the restarts are each scaled by all the reference job
    times around them, and the open loop's CPU, spent over its whole
    load, by every reference job time of the phase.
    """
    out = phase.out
    n_acked = len(out.acked)
    measured = {
        "setup_s": phase.setup_s,
        "awe_mean": _awe_mean(tasks, out),
        "server_cpu_ms_per_op": 1e3 * out.cpu_s / n_acked,
        "recover_s": phase.recover_s,
    }
    metrics = dict(measured)
    cal = phase.calibrations
    metrics["setup_s"] = scaled(measured["setup_s"], *cal["setup"])
    metrics["recover_s"] = scaled(measured["recover_s"], *cal["recover"])
    if out.marks:
        # Closed loop: rates are medians over segments; CPU is summed
        # over them (/proc counts 10 ms ticks).
        segments = [
            (t1 - t0, n1 - n0, d1 - d0, c1 - c0, out.calibrations[i:i + 2])
            for i, ((t0, n0, d0, c0), (t1, n1, d1, c1))
            in enumerate(zip(out.marks[::2], out.marks[1::2]))
            if n1 > n0
        ]
        metrics["sim_tasks_per_s"] = statistics.median(
            d / scaled(t, *cal) for t, _, d, _, cal in segments
        )
        metrics["ops_per_s"] = statistics.median(
            n / scaled(t, *cal) for t, n, _, _, cal in segments
        )
        metrics["server_cpu_ms_per_op"] = 1e3 * sum(
            scaled(c, *cal) for _, _, _, c, cal in segments
        ) / n_acked
        measured["sim_tasks_per_s"] = statistics.median(d / t for t, _, d, _, _ in segments)
        measured["ops_per_s"] = statistics.median(n / t for t, n, _, _, _ in segments)
    else:
        # Open loop: the rates are the offered load's, not a time the
        # program spent, so they are not scaled.
        metrics["sim_tasks_per_s"] = measured["sim_tasks_per_s"] = out.tasks_done / out.wall_s
        metrics["ops_per_s"] = measured["ops_per_s"] = n_acked / out.wall_s
        metrics["server_cpu_ms_per_op"] = scaled(
            measured["server_cpu_ms_per_op"], *cal["setup"], *cal["load"], *cal["recover"]
        )
    return metrics, measured


def _per_layer(phase: Phase, untraced: Phase) -> Dict[str, float]:
    """Per-layer metrics of a traced phase (sums from the daemon / client counts)."""
    s = phase.summary or {}
    r = phase.recover_summary or {}
    out = phase.out
    ops = len(out.acked)
    total = s.get("total_s", {})
    calls = s.get("calls", {})
    self_s = s.get("self_s", {})
    request_s = s.get("request_span_s", 0.0)
    commits = calls.get("checkpoint.append", 0)
    residual_s, residual_frac = residual(out.client_latency_s, request_s)
    row = zero_layer_metrics()
    row.update({
        "alloc_p50_ms": 1e3 * statistics.median(untraced.out.alloc_latency_s),
        "alloc_p99_ms": 1e3 * percentile(untraced.out.alloc_latency_s, 99),
        "core.share": s.get("allocator_union_s", 0.0) / out.wall_s,
        "core.apply_us_per_op": 1e6 * total.get("core.apply_op", 0.0)
        / max(1, calls.get("core.apply_op", 0)),
        "core.first_touch_us": s.get("first_touch_us", 0.0),
        "core.allocate_us_p50": s.get("allocate_us_p50", 0.0),
        "core.observe_us_p50": s.get("observe_us_p50", 0.0),
        "core.records_per_category_p50": s.get("records_per_category_p50", 0.0),
        "protocol.parse_us_per_op": 1e6 * total.get("protocol.parse", 0.0) / ops,
        "protocol.validate_us_per_op": 1e6 * total.get("protocol.validate", 0.0) / ops,
        "protocol.encode_us_per_op": 1e6 * total.get("protocol.encode", 0.0) / ops,
        "protocol.validate_calls_per_op": s.get("validated_ops", 0) / ops,
        "shards.queue_wait_us_per_op": 1e6 * s.get("queue_wait_s", 0.0)
        / max(1, s.get("queue_wait_ops", 0)),
        "shards.ops_per_commit": s.get("counts", {}).get("checkpoint.entries", 0)
        / max(1, commits),
        "service.submit_self_us_per_op": 1e6 * self_s.get("service.submit", 0.0) / ops,
        "checkpoint.append_us_per_commit": 1e6 * total.get("checkpoint.append", 0.0)
        / max(1, commits),
        "checkpoint.wal_bytes_per_op": phase.wal_bytes / ops,
        "recover.decode_s": r.get("total_s", {}).get("recover.decode", 0.0),
        "recover.replay_s": r.get("total_s", {}).get("recover.replay", 0.0),
        "server.residual_us_per_op": 1e6 * residual_s / ops,
        "gen.lag_p99_ms": 1e3 * percentile(out.send_lag_s, 99) if out.send_lag_s else 0.0,
        "trace.overhead_frac": (out.cpu_s / ops) / (untraced.out.cpu_s / len(untraced.out.acked))
        - 1.0,
        "residual_frac": residual_frac,
        "failed_frac": out.failed / max(1, out.attempted),
    })
    return row


def _finish_phase(ws: Workspace, phase: Phase, tasks: List[Task], regime: str, open_loop: bool):
    out = phase.out
    if out.failed:
        raise BenchError(f"{out.failed} of {out.attempted} ops failed or were refused")
    problems = check_regime(out.tally.profile(), regime)
    if problems:
        raise BenchError("; ".join(problems))
    if open_loop:
        lag = 1e3 * percentile(out.send_lag_s, 99)
        if lag > MAX_GEN_LAG_P99_MS:
            raise BenchError(
                f"invalid run: generator p99 send lag {lag:.1f} ms > {MAX_GEN_LAG_P99_MS} ms"
            )
    if out.tasks_done != len(tasks):
        raise BenchError(f"{out.tasks_done} of {len(tasks)} tasks completed")
    replay_check(out.acked)
    ws.check_stderr()


def _run(
    name: str,
    root: str,
    tasks: List[Task],
    regime: str,
    closed_loop: bool,
    restarts: int,
    trace: bool,
):
    ws = Workspace(root, name)
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        phase = _run_phase(ws, tasks, closed_loop, restarts, traced=False)
        _finish_phase(ws, phase, tasks, regime, open_loop=not closed_loop)
        result = {
            "attempted": phase.out.attempted,
            "failed": phase.out.failed,
            "traffic": phase.out.tally.profile(),
        }
        result["end_to_end"], result["unscaled"] = _end_to_end(phase, tasks)
        if trace:
            traced = _run_phase(ws, tasks, closed_loop, restarts, traced=True)
            _finish_phase(ws, traced, tasks, regime, open_loop=not closed_loop)
            if closed_loop and [a for a, _ in traced.out.acked] != [a for a, _ in phase.out.acked]:
                raise BenchError("traced run sent different requests than the untraced run")
            if closed_loop and [r for _, r in traced.out.acked] != [r for _, r in phase.out.acked]:
                raise BenchError("traced run got different responses than the untraced run")
            result["per_layer"] = _per_layer(traced, phase)
            result["attempted"] += traced.out.attempted
            result["failed"] += traced.out.failed
        return result
    finally:
        os.sched_setaffinity(0, affinity)
        ws.close()


def run_open_wide(root: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    tasks = wide_tasks(seed, WIDE_OPS_PER_S, seconds)
    return _run(
        "svc-open-wide", root, tasks, "wide", closed_loop=False, restarts=WIDE_RESTARTS,
        trace=trace,
    )


def run_batch_hot(root: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    tasks = hot_tasks(seed, int(HOT_TASKS_PER_S * seconds))
    return _run(
        "svc-batch-hot", root, tasks, "hot", closed_loop=True, restarts=HOT_RESTARTS,
        trace=trace,
    )
