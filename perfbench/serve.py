"""The ``serve-durable`` workload: an out-of-process journaled server
under open-loop load, then SIGKILL and recovery.

The server is ``repro serve --scale 0.05 --clamp-time`` with a fresh
write-ahead-log directory, started through ``launcher.py``.  Load is the
synthetic Table-I op mix (``SyntheticWorkload``, ``WorkloadSpec(users=40)``,
default ``StageMix``) on Poisson schedules from ``stage_arrivals``, sent
over two connections by one asyncio thread.  Requests are written at
their due times whether or not earlier ones were answered (open loop),
and every latency is measured from the request's due time, so a stall
also charges the requests queued behind it.

Phases: an unmeasured warm-up, a fixed ``light`` rate, a fixed ``heavy``
rate and -- in traced runs -- a rate ladder.  The server's CPU time over
the two fixed-rate phases, plus the time it spent blocked in ``fsync``
for its journal and snapshots, gives the rate a saturated server
sustains.
Finally the server is SIGKILLed and restarted on the same journal, and
the ``coverage`` op must answer as it did before the kill.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import calib
from stats import metric_sum, parse_prometheus, percentile, tail_percentile

HOST = "127.0.0.1"
SERVER_SCALE = 0.05
SNAPSHOT_EVERY = 2000
USERS = 40
CONNECTIONS = 2
#: Wall seconds -> request-timestamp seconds, as ``LoadPlan.time_scale``.
TIME_SCALE = 60.0
#: Requests per fixed-rate phase: the p99 has 20 or 30 samples beyond it.
LIGHT_REQUESTS = 2000
HEAVY_REQUESTS = 3000
#: Unmeasured requests first, so that code paths run once and start-up
#: garbage is collected before any latency counts.
WARMUP_REQUESTS = 300
#: Ladder rungs are longer, so that one collector pause in the server
#: does not decide a rung: the 20 samples beyond its p99 outnumber the
#: requests a pause of a few tens of milliseconds delays.
RUNG_REQUESTS = 2000
LADDER_START = 800.0
LADDER_STEP = 1.08
#: The request stream's content is the same in every run, so every run
#: asks the server for the same work; ``--seed`` draws the Poisson
#: schedule.
CONTENT_SEED = 0
P99_LIMIT_S = 0.050
OP_TIMEOUT_S = 5.0
READY_TIMEOUT_S = 60.0
SETUP_SPAWNS = 3
RESTARTS = 1


# The harness speaks to the server with its own few lines of socket code
# rather than ``repro.service.client``, so that a change to the
# program's client cannot change how the program is measured.


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 5.0) -> Tuple[int, str]:
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].split()
    return (int(status[1]) if len(status) > 1 else 0), body.decode()


def request(port: int, payload: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
    """One JSON-lines request on a fresh connection."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


class Server:
    """One ``launcher.py`` child; its start is timed to ``/healthz``."""

    def __init__(self, root: str, port: int, wal_dir: str, log_path: str,
                 dump_path: str, trace: bool, cpu: int) -> None:
        self.port = port
        self.cpu = cpu
        self.dump_path = dump_path
        self.cmd = [sys.executable, os.path.join(root, "perfbench", "launcher.py"),
                    "--dump", dump_path]
        if trace:
            self.cmd.append("--trace")
        self.cmd += [
            "--host", HOST, "--port", str(port), "--scale", str(SERVER_SCALE),
            "--clamp-time", "--wal-dir", wal_dir, "--fsync", "interval",
            "--snapshot-every", str(SNAPSHOT_EVERY),
        ]
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        #: perf_counter() at spawn and at the first healthy answer.
        self.window = (0.0, 0.0)

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the seconds it took."""
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.root, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
        deadline = started + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} "
                                   f"before /healthz (log {self.log_path})")
            try:
                if http_get(self.port, "/healthz", timeout=1.0)[0] == 200:
                    self.window = (started, time.perf_counter())
                    return self.window[1] - started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError(f"server not ready in {READY_TIMEOUT_S}s")
            time.sleep(0.01)

    def cpu_seconds(self) -> float:
        """CPU time the server process has used, to the nanosecond.  Time
        the host takes the virtual CPU away (steal) is not in it, unlike
        the server's own wall-clock request timings."""
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def shutdown(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            request(self.port, {"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------


class OpSource:
    """Seeded synthetic requests, encoded ahead of their due times."""

    def __init__(self, seed: int) -> None:
        from repro.loadgen.plan import StageMix, WorkloadSpec
        from repro.loadgen.workload import SyntheticWorkload

        self.mix = StageMix()
        self.workload = SyntheticWorkload(WorkloadSpec(users=USERS), CONTENT_SEED)
        self.seed = seed
        self.virtual_base = 0.0

    def phase(self, name: str, rate: float, requests: int) -> Tuple[List[float], List[bytes]]:
        """Due offsets (s) and encoded requests for one Poisson phase."""
        from repro.loadgen.arrivals import stage_arrivals
        from repro.loadgen.plan import LoadStage

        # A Poisson stage 20% longer than needed, cut at exactly *requests*
        # arrivals, so every phase has the sample count its p99 needs.
        stage = LoadStage(name=name, duration_s=1.2 * requests / rate, rate=rate)
        arrivals = stage_arrivals(stage, self.seed)[:requests]
        due: List[float] = []
        lines: List[bytes] = []
        for arrival in arrivals:
            op = self.workload.make_op(
                arrival, self.virtual_base + arrival.offset_s * TIME_SCALE, self.mix
            )
            due.append(arrival.offset_s)
            lines.append(json.dumps(op, separators=(",", ":")).encode() + b"\n")
        self.virtual_base += arrivals[-1].offset_s * TIME_SCALE
        return due, lines


class PhaseResult:
    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.latency: List[Optional[float]] = [None] * n
        self.lag: List[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def p(self, q: float) -> float:
        """Latency percentile from due time; a failed request counts as
        slower than every answered one."""
        inf = float("inf")
        return percentile([inf if x is None else x for x in self.latency], q)

    def backlog_growing(self) -> bool:
        """True when the phase ends with a standing queue: the median
        request of its last tenth waited longer than the p99 limit."""
        tenth = self.latency[-max(1, len(self.latency) // 10):]
        return self.failed > 0 or percentile(
            [float("inf") if x is None else x for x in tenth], 50) > P99_LIMIT_S


async def _connect(port: int) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(HOST, port, limit=1 << 22)


async def run_phase(port: int, name: str, due: Sequence[float],
                    lines: Sequence[bytes]) -> PhaseResult:
    """Send *lines* at their *due* offsets over fresh connections."""
    loop = asyncio.get_running_loop()
    result = PhaseResult(name, len(lines))
    conns = [await _connect(port) for _ in range(CONNECTIONS)]
    start = loop.time() + 0.02
    deadline = start + (due[-1] if due else 0.0) + OP_TIMEOUT_S
    queues: List[deque] = [deque() for _ in conns]

    async def sender(c: int) -> None:
        writer = conns[c][1]
        mine = range(c, len(lines), len(conns))
        k = 0
        while k < len(mine):
            now = loop.time()
            wait = start + due[mine[k]] - now
            if wait > 0:
                await asyncio.sleep(wait)
                now = loop.time()
            # Everything already due goes out now, in order.
            while k < len(mine) and start + due[mine[k]] <= now:
                i = mine[k]
                writer.write(lines[i])
                queues[c].append(i)
                result.lag.append(now - (start + due[i]))
                k += 1
            await writer.drain()

    async def receiver(c: int) -> None:
        reader = conns[c][0]
        expected = len(range(c, len(lines), len(conns)))
        for _ in range(expected):
            line = await asyncio.wait_for(reader.readline(), max(0.01, deadline - loop.time()))
            if not line:
                raise ConnectionError("server closed the connection")
            i = queues[c].popleft()
            now = loop.time()
            if b'"ok":true' in line or json.loads(line).get("ok") is True:
                result.latency[i] = now - (start + due[i])
            else:
                result.failed += 1

    tasks = [loop.create_task(f(c)) for c in range(len(conns)) for f in (sender, receiver)]
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    for _reader, writer in conns:
        writer.close()
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    if errors:
        # Whatever was not answered -- timed out, refused, reset -- failed.
        result.failed = sum(1 for x in result.latency if x is None)
        print(f"perfbench: phase {name}: {len(errors)} connection error(s): "
              f"{errors[0]!r}", file=sys.stderr)
    return result


async def drive(server: "Server", source: OpSource, light_rate: float, heavy_rate: float,
                ladder_budget_s: float, ladder: bool) -> Dict[str, Any]:
    port = server.port
    phases: List[PhaseResult] = []

    async def phase(name: str, rate: float, requests: int) -> PhaseResult:
        due, lines = source.phase(name, rate, requests)
        # A collector pause in the client would show up as server latency.
        gc.collect()
        gc.disable()
        try:
            result = await run_phase(port, name, due, lines)
        finally:
            gc.enable()
        phases.append(result)
        return result

    await phase("warmup", light_rate, WARMUP_REQUESTS)
    cpu_before = server.cpu_seconds()
    window_start = time.perf_counter()
    light = await phase("light", light_rate, LIGHT_REQUESTS)
    heavy = await phase("heavy", heavy_rate, HEAVY_REQUESTS)
    window_end = time.perf_counter()
    out: Dict[str, Any] = {
        "light_p50_ms": light.p(50) * 1e3, "light_p99_ms": light.p(99) * 1e3,
        "heavy_p50_ms": heavy.p(50) * 1e3, "heavy_p99_ms": heavy.p(99) * 1e3,
        "server_cpu_s": server.cpu_seconds() - cpu_before,
        "window": (window_start, window_end),
        "answered": sum(r.attempted - r.failed for r in (light, heavy)),
    }
    if ladder:
        out.update(await _ladder(phase, ladder_budget_s))
    lags = [lag for r in phases for lag in r.lag]
    out["lag_p99_ms"] = (tail_percentile(lags)[1] or 0.0) * 1e3
    out["phases"] = phases
    return out


async def _ladder(phase: Any, budget_s: float) -> Dict[str, Any]:
    """Rungs of increasing rate; the capacity is the highest rung whose
    p99 from due time is within the limit with no growing backlog.  One
    stalled rung (a collector pause, say) does not end the ladder; two
    failing rungs in a row mean the server has saturated."""
    capacity = 0.0
    rate = LADDER_START
    started = time.perf_counter()
    rungs = []
    consecutive_failures = 0
    while consecutive_failures < 2 and time.perf_counter() - started < budget_s:
        rung = await phase(f"ladder-{rate:.0f}", rate, RUNG_REQUESTS)
        passed = rung.p(99) <= P99_LIMIT_S and not rung.backlog_growing()
        rungs.append({"rate": rate, "p99_ms": rung.p(99) * 1e3, "passed": passed})
        if passed:
            capacity = rate
            consecutive_failures = 0
        else:
            consecutive_failures += 1
        rate *= LADDER_STEP
    return {"capacity_ops_s": capacity, "rungs": rungs}


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def _coverage(port: int) -> Dict[str, Any]:
    reply = request(port, {"op": "coverage"})
    if not reply.get("ok"):
        raise RuntimeError(f"coverage op failed: {reply}")
    return reply["variants"]


def _wait_for_dump(server: Server) -> Dict[str, Any]:
    """SIGUSR1 the server and wait for its ``fsync`` timings (and spans,
    when traced).  The /healthz pokes wake an event loop idling in select()."""
    path = server.dump_path
    if os.path.exists(path):
        os.remove(path)
    server.proc.send_signal(signal.SIGUSR1)
    deadline = time.perf_counter() + 60.0
    while not os.path.exists(path):
        if time.perf_counter() > deadline:
            raise TimeoutError("the server wrote no dump")
        http_get(server.port, "/healthz")
        time.sleep(0.05)
    with open(path) as handle:
        return json.load(handle)


def run(root: str, seed: int, seconds: float, trace: bool, light_rate: float,
        heavy_rate: float, ladder: bool) -> Dict[str, Any]:
    work = os.path.join(root, ".perfbench", f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Client and server each get a CPU of their own, so that neither
    # waits for the other to be descheduled.
    affinity = os.sched_getaffinity(0)
    client_cpu, server_cpu = min(affinity), max(affinity)
    os.sched_setaffinity(0, {client_cpu})
    log_path = os.path.join(work, "server.log")
    dump_path = os.path.join(work, "dump.json")
    servers: List[Server] = []
    try:
        # Set-up: cold starts on fresh journals; the last one serves.
        setup_times, setup_wall, setup_cpu = [], [], []
        for i in range(SETUP_SPAWNS):
            server = Server(root, free_port(), os.path.join(work, f"wal-{i}"), log_path,
                            dump_path, trace, server_cpu)
            servers.append(server)
            setup_wall.append(server.start())
            # The CPU time it took, which the host taking the CPU away
            # does not inflate, in reference seconds (see calib.py); it
            # idles once /healthz has answered.
            setup_cpu.append(server.cpu_seconds())
            setup_times.append(setup_cpu[-1] * calib.scale(
                _wait_for_dump(server)["probe"], *server.window))
            if i < SETUP_SPAWNS - 1:
                server.shutdown()
        server = servers[-1]
        wal_dir = server.cmd[server.cmd.index("--wal-dir") + 1]
        load = asyncio.run(drive(server, OpSource(seed), light_rate, heavy_rate, seconds,
                                 ladder))
        before = _coverage(server.port)
        dump = _wait_for_dump(server)
        metrics = parse_prometheus(http_get(server.port, "/metrics")[1])
        rss_mb = server.vm_hwm_mb()

        # Kill and recover over the same journal tail.
        restart_times = []
        coverage_after = []
        for _ in range(RESTARTS):
            killed_at = time.perf_counter()
            server.kill()
            server = Server(root, server.port, wal_dir, log_path, dump_path, False,
                            server_cpu)
            servers.append(server)
            server.start()
            restart_times.append(time.perf_counter() - killed_at)
            coverage_after.append(_coverage(server.port))
        recovered = parse_prometheus(http_get(server.port, "/metrics")[1])
        server.shutdown()
    finally:
        for server in servers:
            server.kill()
        os.sched_setaffinity(0, affinity)
    phases: List[PhaseResult] = load.pop("phases")
    start, end = load.pop("window")
    fsync_s = sum(elapsed for started, elapsed in dump["fsyncs"] if start <= started <= end)
    # Not scaled by the probe, unlike set-up: the server idles between
    # requests, so a share of the probe's ticks falls in idle spells, and
    # that share depends on how fast the server is, not only the host.
    busy_s = load["server_cpu_s"] + fsync_s
    answered = load.pop("answered")
    out = {
        "setup_times": setup_times,
        "setup_wall": setup_wall,
        "setup_cpu": setup_cpu,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "peak_rss_mb": rss_mb,
        "restart_times": restart_times,
        "restart_s": statistics.median(restart_times),
        "coverage_before": before,
        "coverage_after": coverage_after,
        "server_metrics": metrics,
        "recovery_s": metric_sum(recovered, "repro_service_recovery_seconds_sum"),
        "answered": answered,
        "busy_s": busy_s,
        "saturation_ops_s": answered / busy_s,
        "fsync_s": fsync_s,
        **load,
    }
    if trace:
        out["trace"] = dump
    shutil.rmtree(work, ignore_errors=True)
    return out
