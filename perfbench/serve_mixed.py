"""serve-mixed: a real ``bmbp serve`` daemon with its state directory,
driven by this process over at most 2 NDJSON connections.

1. Open loop: the seeded event stream at a fixed rate on the freshly booted
   daemon; mutations on one connection, ``forecast`` reads (one per four
   jobs) on the other, each timed from when it was due.
2. Closed loop: the stream continues pipelined, a fixed window of requests
   in flight per connection, in whole rounds until the time is up.
3. The client closes both connections; the daemon gets SIGTERM, and the
   time until it exits is ``shutdown_s``.

Event times are explicit in every request, so what the daemon computes
depends on the seed alone.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

import checks
import common
import inputs

OPEN_RATE = 2000.0  # requests per second, reads and mutations together
OPEN_SHARE = 0.5  # of --seconds spent in the open loop
CLOSED_WINDOW = {"write": 256, "read": 32}  # requests in flight per connection
CLOSED_MAX_RATE = 15000.0  # requests per second the stream is sized for
ROUND_EVENTS = 4000  # the closed loop runs whole rounds of this many requests
SETUP_SPAWNS = 3  # daemons started per run; the last one serves the load
BOOT_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0


# --------------------------------------------------------------------------
# Daemon lifecycle.
# --------------------------------------------------------------------------


def _http_get(port: int, path: str, timeout: float = 5.0) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise common.BenchError(f"GET {path}: {head[:60]!r}")
    return body.decode()


class Daemon:
    """``python -m repro serve`` on an ephemeral port with a state dir.

    The same command as ``repro.server.loadgen.spawn_daemon``, started here
    because this process is the load client and does not import ``repro``
    (see ``inputs.py``).
    """

    def __init__(self, workdir: Path, name: str, cpus) -> None:
        self.state = workdir / name
        self.state.mkdir()
        self.log = open(workdir / f"{name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(self.state)],
            stdout=self.log, stderr=subprocess.STDOUT,
            env=common.child_env(workdir), cwd=str(common.ROOT),
        )
        os.sched_setaffinity(self.proc.pid, cpus)
        self.port = 0
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self) -> float:
        deadline = self.started + BOOT_TIMEOUT_S
        port_file = self.state / "server.port"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise common.BenchError(f"daemon exited during boot ({self.proc.returncode})")
            try:
                if not self.port:
                    self.port = int(port_file.read_text().strip() or 0)
                if self.port and json.loads(_http_get(self.port, "/healthz")).get("ok"):
                    return time.perf_counter() - self.started
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise common.BenchError("daemon did not answer healthz in time")

    def peak_rss_mb(self) -> float:
        """The daemon's RSS high-water mark (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM in the daemon's status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the daemon has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def prometheus(self, name: str) -> float:
        for line in _http_get(self.port, "/metrics").splitlines():
            if line.startswith(name + " ") or line.startswith(name + "{"):
                return float(line.rsplit(" ", 1)[1])
        raise common.BenchError(f"no {name} in /metrics")

    def terminate(self, timeout: float = 60.0) -> float:
        """SIGTERM; seconds until the process has exited."""
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        finally:
            self.kill()
        if code != 0:
            raise common.BenchError(f"daemon exited with {code} on SIGTERM")
        return time.perf_counter() - t0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# --------------------------------------------------------------------------
# Client.
# --------------------------------------------------------------------------


class Conn:
    """One NDJSON connection; replies come back in request order."""

    def __init__(self, kind: str, reader, writer) -> None:
        self.kind = kind
        self.reader, self.writer = reader, writer
        self.inflight: deque = deque()  # (request index, due or sent time)
        self.answered: List[int] = []  # request indices, in reply order
        self.chunks: List[bytes] = []  # raw reply bytes, parsed after the load

    @classmethod
    async def open(cls, kind: str, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
        return cls(kind, reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Client:
    """Sends a stream of requests and keeps every reply.

    While the load runs the client only counts reply lines (a reply's time
    is when the chunk holding its newline arrived) and parses them after,
    so the client's own CPU use stays small beside the daemon's.
    """

    def __init__(self, stream: List[Dict[str, Any]], tracer=None) -> None:
        self.stream = stream
        self.tracer = tracer
        self.traced = [False] * len(stream)
        self._sent_all = False
        self.lines = [json.dumps({**req, "id": i}).encode() + b"\n"
                      for i, req in enumerate(stream)]
        self.kinds = ["read" if req["op"] == "forecast" else "write" for req in stream]
        self.latency: Dict[int, float] = {}
        self.sent = 0  # requests written so far, in stream order
        # Requests written when each reply arrived: the daemon can have
        # seen no later one when it answered.
        self.horizon: Dict[int, int] = {}

    async def _receive(self, conn: Conn, on_reply=None) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                chunk = await conn.reader.read(1 << 16)
            except ConnectionError:
                chunk = b""
            if not chunk:
                return  # requests still in flight get no reply: failed
            now = loop.time()
            conn.chunks.append(chunk)
            for _ in range(chunk.count(b"\n")):
                index, since = conn.inflight.popleft()
                conn.answered.append(index)
                self.latency[index] = now - since
                self.horizon[index] = self.sent
                if self.traced[index]:
                    self.tracer.record(f"server.op.{self.stream[index]['op']}", since, now)
                if on_reply is not None:
                    on_reply(conn.kind)
            if not conn.inflight and self._sent_all:
                return

    async def _finish(self, conns: Dict[str, Conn], receivers) -> None:
        """Flush the sends, then wait for every reply still in flight."""
        self._sent_all = True
        for conn in conns.values():
            await conn.writer.drain()
        for conn, task in zip(conns.values(), receivers):
            if not conn.inflight:
                task.cancel()  # idle on read, nothing more to come
        for task in receivers:
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    raise

    def responses(self, conns: Dict[str, Conn]) -> Dict[int, Dict[str, Any]]:
        """Every reply, parsed, by request index."""
        out: Dict[int, Dict[str, Any]] = {}
        for conn in conns.values():
            lines = b"".join(conn.chunks).split(b"\n")
            for index, line in zip(conn.answered, lines):
                out[index] = json.loads(line)
        return out

    async def open_loop(self, conns: Dict[str, Conn], lo: int, hi: int,
                        rate: float) -> Dict[str, float]:
        """Send ``lo:hi`` on a fixed schedule; each latency counts from due."""
        loop = asyncio.get_running_loop()
        self._sent_all = False
        receivers = [asyncio.create_task(self._receive(c)) for c in conns.values()]
        start = loop.time() + 0.01
        late: List[float] = []
        k = lo
        while k < hi:
            now = loop.time()
            while k < hi and start + (k - lo) / rate <= now:
                due = start + (k - lo) / rate
                conn = conns[self.kinds[k]]
                conn.inflight.append((k, due))
                conn.writer.write(self.lines[k])
                late.append(now - due)
                k += 1
            self.sent = k
            if k < hi:
                await asyncio.sleep(max(0.0, start + (k - lo) / rate - loop.time()))
        await self._finish(conns, receivers)
        return {"seconds": loop.time() - start, "late_ms_mean": 1e3 * sum(late) / len(late),
                "late_ms_max": 1e3 * max(late)}

    async def closed_loop(self, conns: Dict[str, Conn], lo: int,
                          seconds: float) -> Dict[str, Any]:
        """Whole rounds of ``ROUND_EVENTS`` requests, in stream order, with at
        most ``CLOSED_WINDOW`` in flight per connection, until ``seconds``
        have passed.  Whatever the windows allow goes out in one write."""
        loop = asyncio.get_running_loop()
        self._sent_all = False
        free = dict(CLOSED_WINDOW)
        room = asyncio.Event()

        def on_reply(kind: str) -> None:
            free[kind] += 1
            room.set()

        receivers = [asyncio.create_task(self._receive(c, on_reply)) for c in conns.values()]
        start = loop.time()
        rounds: List[Dict[str, Any]] = []
        k = lo
        while k + ROUND_EVENTS <= len(self.stream) and (not rounds or loop.time() - start < seconds):
            # Traced runs alternate plain and traced rounds; a traced
            # round records one span per request, send to reply.
            traced = self.tracer is not None and len(rounds) % 2 == 1
            rounds.append({"lo": k, "hi": k + ROUND_EVENTS, "start": loop.time(),
                           "traced": traced})
            end = k + ROUND_EVENTS
            while k < end:
                batch: Dict[str, List[bytes]] = {"write": [], "read": []}
                now = loop.time()
                while k < end and free[self.kinds[k]] > 0:
                    kind = self.kinds[k]
                    free[kind] -= 1
                    self.traced[k] = traced
                    conns[kind].inflight.append((k, now))
                    batch[kind].append(self.lines[k])
                    k += 1
                for kind, items in batch.items():
                    if items:
                        conns[kind].writer.write(b"".join(items))
                self.sent = k
                if k < end:
                    room.clear()
                    await room.wait()
        await self._finish(conns, receivers)
        end_time = loop.time()
        for i, rnd in enumerate(rounds):
            rnd["end"] = rounds[i + 1]["start"] if i + 1 < len(rounds) else end_time
        return {"lo": lo, "hi": k, "seconds": end_time - start, "rounds": rounds}


async def _bounded(phase, seconds: float):
    """Run a load phase; a daemon that stops answering ends the run."""
    try:
        return await asyncio.wait_for(phase, seconds + REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise common.BenchError("the daemon stopped answering") from None


async def _connect(port: int) -> Dict[str, Conn]:
    return {"write": await Conn.open("write", port), "read": await Conn.open("read", port)}


async def _ndjson(port: int, op: str) -> Dict[str, Any]:
    """One request on its own connection (used after the load)."""
    conn = await Conn.open("admin", port)
    try:
        conn.writer.write(json.dumps({"op": op, "id": 0}).encode() + b"\n")
        response = json.loads(await conn.reader.readline())
    finally:
        await conn.close()
    if not response.get("ok"):
        raise common.BenchError(f"{op} failed: {response}")
    return response["result"]


# --------------------------------------------------------------------------
# Checks.
# --------------------------------------------------------------------------


def _check(client: Client, responses: Dict[int, Dict[str, Any]], hi: int) -> Dict[str, Any]:
    """Replies must be ok and carry their request's id; every bound is the
    wait of a job of its queue that had started when it was served; the
    quotes cover.

    Submits and starts share one connection, so a submit's quote can only
    come from starts before it in the stream; a ``forecast`` on the other
    connection can have seen any request written before its reply came.
    """
    stream = client.stream[:hi]
    started = checks.started_waits(stream)
    failed = 0
    errors = [f"reply with id {r.get('id')} for request {i}"
              for i, r in responses.items() if r.get("id") != i][:5]
    served, quoted = [], []
    quote_of: Dict[str, float] = {}
    for i, req in enumerate(stream):
        response = responses.get(i)
        if response is None or not response.get("ok"):
            failed += 1
            continue
        result = response["result"]
        if req["op"] == "submit" and result["bound"] is not None:
            served.append((req["queue"], result["bound"], i))
            quote_of[req["job"]] = result["bound"]
        elif req["op"] == "forecast" and result["bound"] is not None:
            served.append((req["queue"], result["bound"], client.horizon[i]))
        elif req["op"] == "start" and req["job"] in quote_of:
            quoted.append((quote_of[req["job"]], result["wait"]))
    errors += checks.check_served_values(served, started)
    errors += checks.check_quote_coverage(quoted)
    return {"failed": failed, "errors": errors, "served": len(served), "quoted": len(quoted)}


# --------------------------------------------------------------------------
# In-process layers (traced runs): a fresh interpreter of their own.
# --------------------------------------------------------------------------


def worker(task: Dict[str, Any], ready) -> Dict[str, Any]:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import)
    import_s = time.perf_counter() - t0
    from repro.core.rare_event import default_rare_event_table
    t0 = time.perf_counter()
    default_rare_event_table()
    table_s = time.perf_counter() - t0
    from repro.server import protocol
    from repro.service.forecaster import QueueForecaster

    ready()
    stream = inputs.serve_stream(task["seed"], task["jobs"])[:task["requests"]]
    forecaster = QueueForecaster()
    mutations = 0
    t0 = time.perf_counter()
    for req in stream:
        op = req["op"]
        if op == "submit":
            forecaster.job_submitted(req["job"], req["queue"], req["procs"], req["now"])
        elif op == "start":
            forecaster.job_started(req["job"], req["now"])
        elif op == "cancel":
            forecaster.job_cancelled(req["job"])
        else:
            forecaster.forecast(req["queue"], req.get("procs"))
        mutations += op != "forecast"
    apply_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    forecaster.save(Path(task["workdir"]) / "forecaster.json")
    save_s = time.perf_counter() - t0
    lines = [json.dumps({**req, "id": i}).encode() for i, req in enumerate(stream[:20000])]
    t0 = time.perf_counter()
    for line in lines:
        protocol.parse_request(line)
    decode_us = 1e6 * (time.perf_counter() - t0) / len(lines)
    result = {"job": "j1", "bound": 1234.5, "now": 1.7e9}
    t0 = time.perf_counter()
    for i in range(len(lines)):
        protocol.encode(protocol.ok_response(i, result))
    encode_us = 1e6 * (time.perf_counter() - t0) / len(lines)
    return {"import_s": import_s, "table_s": table_s,
            "service.forecaster.events_per_s": mutations / apply_s,
            "service.forecaster.save_s": save_s, "service.forecaster.apply_s": apply_s,
            "server.protocol.decode_us": decode_us, "server.protocol.encode_us": encode_us}


# --------------------------------------------------------------------------
# Orchestrator side.
# --------------------------------------------------------------------------


def _stream_jobs(seconds: float) -> int:
    """Jobs enough for both phases: each job is 2 mutations and a quarter
    of a read, and the closed loop stays well below CLOSED_MAX_RATE."""
    per_job = 2.0 + 1.0 / inputs.SERVE_READ_EVERY
    return int((OPEN_RATE * OPEN_SHARE + CLOSED_MAX_RATE) * seconds / per_job)


def run(args, workdir) -> tuple:
    from tracer import Tracer

    jobs = _stream_jobs(args.seconds)
    stream = inputs.serve_stream(args.seed, jobs)
    split = int(OPEN_RATE * OPEN_SHARE * args.seconds)
    tracer = Tracer() if args.trace else None
    # Daemon and client each get a core of their own when there are two,
    # so where the OS happens to place them does not move the figures.
    cpus = sorted(os.sched_getaffinity(0))
    daemon_cpus, client_cpus = ({cpus[0]}, {cpus[1]}) if len(cpus) > 1 else (set(cpus),) * 2
    os.sched_setaffinity(0, client_cpus)
    try:
        return _run(args, workdir, stream, jobs, split, tracer, daemon_cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(args, workdir, stream, jobs, split, tracer, cpus) -> tuple:
    setup: List[float] = []
    for n in range(SETUP_SPAWNS - 1):
        probe = Daemon(workdir, f"probe-{n}", cpus)
        try:
            setup.append(probe.setup_s)
            probe.terminate()
        finally:
            probe.kill()
    daemon = Daemon(workdir, "serve", cpus)
    setup.append(daemon.setup_s)
    try:
        report, layers = asyncio.run(_drive(daemon, Client(stream, tracer), split, args))
        report["shutdown_s"] = daemon.terminate()
    finally:
        daemon.kill()
    report["setup_samples"] = setup
    client, closed = report.pop("client"), report.pop("closed")
    verdict = _check(client, report.pop("responses"), closed["hi"])
    attempted = closed["hi"]
    ops = [stream[i]["op"] for i in range(closed["hi"])]
    # Rates are medians over the closed loop's untraced rounds, so a
    # passing stall on the machine moves one round, not the figure.
    closed["mutations"] = sum(op != "forecast" for op in ops[closed["lo"]:closed["hi"]])
    job_rates, event_rates = [], []
    for rnd in closed["rounds"]:
        if rnd["traced"]:
            continue
        span = rnd["end"] - rnd["start"]
        window = ops[rnd["lo"]:rnd["hi"]]
        job_rates.append(sum(op in ("start", "cancel") for op in window) / span)
        event_rates.append(sum(op != "forecast" for op in window) / span)
    e2e = {
        "setup_s": common.median(setup),
        "jobs_per_s": common.median(job_rates),
        "peak_rss_mb": report.pop("peak_rss_mb"),
    }
    report.update({
        "workload": "serve-mixed", "e2e": e2e, "errors": verdict["errors"][:20],
        "events_per_s": common.median(event_rates),
        "closed_loop": {"requests": closed["hi"] - closed["lo"], "seconds": closed["seconds"],
                        "daemon_cpu_s": closed["daemon_cpu_s"],
                        "rounds": len(closed["rounds"]), "window": CLOSED_WINDOW},
        "served_bounds": verdict["served"], "quoted_jobs": verdict["quoted"],
    })
    if args.trace:
        layers.update(_traced_layers(workdir, args.seed, jobs, closed, report))
        tracer.dump(common.spans_path("serve-mixed", args.seed))
        report["layers"] = layers
    return report, not verdict["errors"], attempted, verdict["failed"], e2e, layers


async def _drive(daemon: Daemon, client: Client, split: int, args) -> tuple:
    conns = await _connect(daemon.port)
    open_stats = await _bounded(client.open_loop(conns, 0, split, OPEN_RATE),
                                split / OPEN_RATE)
    cpu_before = daemon.cpu_s()
    closed_s = args.seconds * (1 - OPEN_SHARE)
    closed = await _bounded(client.closed_loop(conns, split, closed_s), closed_s)
    closed["daemon_cpu_s"] = daemon.cpu_s() - cpu_before
    for conn in conns.values():
        await conn.close()
    t0 = time.perf_counter()
    await _ndjson(daemon.port, "checkpoint")
    checkpoint_s = time.perf_counter() - t0
    await asyncio.sleep(0.2)  # let the daemon see every close
    # The HTTP request doing the asking is itself one open connection.
    open_after = daemon.prometheus("bmbp_connections_open") - 1
    final = await _ndjson(daemon.port, "metrics")
    peak = daemon.peak_rss_mb()

    reads = [client.latency.get(i) for i in range(split) if client.kinds[i] == "read"]
    writes = [client.latency.get(i) for i in range(split) if client.kinds[i] == "write"]
    report: Dict[str, Any] = {
        "client": client, "responses": client.responses(conns), "closed": closed,
        "peak_rss_mb": peak,
        "open_loop": {"rate": OPEN_RATE, "requests": split, "connections": 2,
                      "reads": len(reads), "writes": len(writes), **open_stats},
    }
    for name, values in (("read", reads), ("write", writes)):
        ms = [1e3 * v for v in values if v is not None]
        report[f"{name}_p50_ms"] = common.median(ms)
        report[f"{name}_p99_ms"] = common.tail_percentile(ms, 0.99)
        report[f"{name}_samples"] = len(ms)
    report["connections_open_after_close"] = open_after
    layers = {
        "server.state.checkpoint_s": checkpoint_s,
        "server.state.checkpoints": final["durability"]["checkpoints"],
        "server.state.events_journaled": final["durability"]["events_journaled"],
        "server.daemon.loop_lag_max_ms": final["event_loop"]["lag_max_ms"],
        "server.daemon.connections_open_after_close": open_after,
        "server.loadgen.late_ms": open_stats["late_ms_mean"],
    }
    for op in ("submit", "start", "cancel", "forecast"):
        layers[f"server.op.{op}.mean_ms"] = final["latency"][op]["mean_ms"]
    return report, layers


def _traced_layers(workdir: Path, seed: int, jobs: int, closed, report) -> Dict[str, float]:
    """The in-process service and protocol layers, the layer table and the
    tracing overhead of the closed loop."""
    inproc = common.run_workers(workdir, [{"workload": "serve-layers", "seed": seed,
                                           "jobs": jobs, "requests": closed["hi"],
                                           "index": 0, "workdir": str(workdir)}])[0]
    layers = {k: v for k, v in inproc.items()
              if k.startswith(("service.forecaster.events_per_s", "service.forecaster.save_s",
                               "server.protocol."))}
    layers["import_s"] = inproc["import_s"]
    layers["core.rare_event.table_s"] = inproc["table_s"]
    # Layer table of the closed loop: the forecaster's share of the
    # daemon's CPU time is what the same mutations cost in-process; the
    # rest of that CPU time is the server (framing, journal, checkpoints);
    # the wall time the daemon was not on a CPU is the residual (client,
    # transport, waiting).
    layers["self_s.service"] = closed["mutations"] / inproc["service.forecaster.events_per_s"]
    layers["self_s.server"] = closed["daemon_cpu_s"] - layers["self_s.service"]
    layers["trace.residual_s"] = closed["seconds"] - closed["daemon_cpu_s"]
    rates = {True: [], False: []}
    for rnd in closed["rounds"][:-1]:
        rates[rnd["traced"]].append(ROUND_EVENTS / (rnd["end"] - rnd["start"]))
    if rates[True] and rates[False]:
        layers["trace.overhead_pct"] = 100.0 * (
            common.median(rates[False]) / common.median(rates[True]) - 1.0)
    return layers
