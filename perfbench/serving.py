"""Serving layer: the shipped server in its own process, driven over TCP.

* :class:`Server` starts ``python3 -m repro serve STORE --endpoint-file F``
  (the public CLI with its shipped defaults) and stops it with SIGINT.
* :func:`select_queries` draws a query list from the workload seed and
  keeps only queries of one answer class, using the in-process engine
  on the same store. One class per workload keeps latency percentiles
  off the boundary between empty frames and megabyte frames.
* :func:`closed_loop` keeps one request in flight per connection;
  :func:`open_loop` sends on a fixed schedule over one pipelined
  connection and times each request from its due time.
* Answers are checked against the in-process engine outside the timed
  path: the CRC of each response line is compared with the CRC of the
  frame the engine's answer encodes to, and a line that differs is kept
  and decoded after the phase ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.buildpath import BenchError
from perfbench.spans import SpanLog
from repro.errors import WireProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient

#: How long a response may take before the connection counts as dead.
SOCKET_TIMEOUT_S = 60.0

#: The server must be listening within this many seconds of its start.
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class AnswerClass:
    """Which queries a serving workload sends, and at what open-loop rate."""

    name: str
    k_lo: int
    #: highest k drawn; None draws up to the store's largest trussness
    k_hi: int | None
    #: total community edges an answer must have to be in the class
    min_edges: int
    max_edges: int
    #: distinct queries in the list (the loops cycle through it)
    list_len: int
    #: open-loop offered rate, about half the closed-loop capacity
    open_rate: float
    #: untimed requests sent before the closed loop
    warmup: int


#: The giant community of the orkut stand-in: 1.2-1.4 MB frames. Three
#: k values, taken in turn, put the open loop's p50 inside the middle k's
#: latency mode and its p90 inside the top one, not on a boundary.
HEAVY = AnswerClass("heavy", 3, 5, 50_000, 1 << 62, 512, 8.0, 8)
#: Empty or small answers: at most 256 edges, a few KB.
LIGHT = AnswerClass("light", 3, None, 0, 256, 8192, 250.0, 256)

#: The answer class each serving workload sends.
CLASSES = {"serve-heavy": HEAVY, "serve-light": LIGHT}


def select_queries(engine, cls: AnswerClass, seed: int) -> list[tuple[int, int]]:
    """``cls.list_len`` seeded ``(vertex, k)`` queries whose answers are in ``cls``.

    Position ``p`` asks at the ``p``-th k of the class's range in turn
    (stratified, so every stretch of the list holds each k equally
    often); its vertex is drawn until the answer falls in the class.
    """
    rng = np.random.default_rng([seed, 2])
    n = engine.index.graph.num_vertices
    k_hi = cls.k_hi if cls.k_hi is not None else int(engine.components.levels.max())
    ks = range(cls.k_lo, k_hi + 1)
    out: list[tuple[int, int]] = []
    for draw in range(100 * cls.list_len):
        k = ks[len(out) % len(ks)]
        v = int(rng.integers(n))
        size = sum(int(c.edge_ids.size) for c in engine.query(v, k, record=False))
        if cls.min_edges <= size <= cls.max_edges:
            out.append((v, k))
            if len(out) == cls.list_len:
                return out
    raise BenchError(f"too few {cls.name} queries in {draw + 1} draws")


@dataclass
class Expected:
    """What the server must send for each query-list position ``p``.

    The request id is the position, so each position has exactly one
    correct response line; ``crc[p]`` is that line's CRC-32.
    """

    queries: list[tuple[int, int]]
    crc: list[int]
    frame_bytes: list[int]
    answer_edges: list[int]


_MARK = "perfbench:communities"


def expected_frames(engine, queries: list[tuple[int, int]]) -> Expected:
    """Encode each expected response once, reusing the bytes of shared answers."""
    mark = json.dumps(_MARK).encode()
    bodies: dict[tuple, bytes] = {}
    crc, sizes, edges = [], [], []
    for pos, (v, k) in enumerate(queries):
        comms = engine.query(v, k, record=False)
        key = (k, *(hashlib.sha1(np.ascontiguousarray(c.edge_ids)).digest() for c in comms))
        body = bodies.get(key)
        if body is None:
            body = json.dumps(
                protocol.serialize_communities(comms), separators=(",", ":")
            ).encode()
            bodies[key] = body
        frame = protocol.encode_frame(
            protocol.ok_response(pos, vertex=v, k=k, communities=_MARK)
        )
        head, tail = frame.split(mark)
        crc.append(zlib.crc32(tail, zlib.crc32(body, zlib.crc32(head))))
        sizes.append(len(head) + len(body) + len(tail))
        edges.append(sum(int(c.edge_ids.size) for c in comms))
    return Expected(queries, crc, sizes, edges)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """``repro serve`` as a child process; its shards are its children."""

    def __init__(self, root: Path, env: dict, store: Path, workdir: Path) -> None:
        self.root, self.env, self.store = root, env, store
        self.endpoint = workdir / "endpoint"
        self.logpath = workdir / "server.log"
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "", 0
        self.shard_pids: list[int] = []

    def start(self) -> None:
        """Start and return once the frontend listens and every shard is ready."""
        with open(self.logpath, "wb") as logfile:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.store),
                 "--endpoint-file", str(self.endpoint)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=logfile, stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.endpoint.exists():
                text = self.endpoint.read_text(encoding="utf-8")
                if text.endswith("\n"):
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"server did not become ready; log:\n{self._log_tail()}")

    def _log_tail(self) -> str:
        return self.logpath.read_text(encoding="utf-8", errors="replace")[-4000:]

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=SOCKET_TIMEOUT_S)

    def stats(self) -> dict:
        """The frontend's ``stats`` reply; also notes the shard pids."""
        with self.client() as c:
            stats = c.stats()
        self.shard_pids = [int(s["pid"]) for s in stats["shards"] if s.get("pid")]
        return stats

    def stop(self) -> None:
        """SIGINT makes the frontend stop its shards; kill the group if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # shards left behind by a frontend that died share its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.perf_counter() + 10.0
        while any(_running(pid) for pid in self.shard_pids):
            if time.perf_counter() > deadline:
                raise BenchError(f"shards {self.shard_pids} outlived their frontend")
            time.sleep(0.01)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------


class _Conn:
    """One TCP connection speaking the NDJSON protocol, bytes in and out."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def send(self, pos: int, query: tuple[int, int]) -> None:
        v, k = query
        self.sock.sendall(protocol.encode_frame({"id": pos, "op": "query", "vertex": v, "k": k}))

    def recv(self) -> bytes:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("the frontend closed the connection")
        return line

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@dataclass
class Phase:
    """Requests of one loop: position, due time, send time, receive time, check."""

    name: str
    start: float = 0.0
    end: float = 0.0
    pos: list[int] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    #: True when the CRC matched; otherwise the line, checked by :func:`verify`
    check: list = field(default_factory=list)
    #: requests that got no response (connection error or timeout)
    lost: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, pos: int, due: float, sent: float, done: float, line: bytes,
               expected: Expected) -> None:
        ok = zlib.crc32(line) == expected.crc[pos]
        with self.lock:
            self.pos.append(pos)
            self.due.append(due)
            self.sent.append(sent)
            self.done.append(done)
            self.check.append(True if ok else line)

    def good(self) -> int:
        """Correct answers (after :func:`verify` has resolved the kept lines)."""
        return sum(1 for c in self.check if c is True)

    def qps(self) -> float:
        """Correct answers per wall second of the phase."""
        return self.good() / (self.end - self.start)


def warmup(host: str, port: int, expected: Expected, count: int) -> Phase:
    """The first ``count`` queries of the list, one at a time and untimed."""
    phase = Phase("warmup")
    conn = _Conn(host, port)
    try:
        phase.start = time.perf_counter()
        for pos in range(count):
            t0 = time.perf_counter()
            conn.send(pos, expected.queries[pos])
            line = conn.recv()
            phase.record(pos, t0, t0, time.perf_counter(), line, expected)
        phase.end = time.perf_counter()
    finally:
        conn.close()
    return phase


def closed_loop(host: str, port: int, expected: Expected, first: int, seconds: float,
                connections: int, log: SpanLog, name: str) -> Phase:
    """``connections`` clients, each sending its next query when the last returns."""
    n = len(expected.queries)
    phase = Phase(name)
    counter = iter(range(first, 1 << 62))
    counter_lock = threading.Lock()
    errors: list[BaseException] = []

    def client() -> None:
        try:
            conn = _Conn(host, port)
        except OSError as exc:
            errors.append(exc)
            return
        try:
            while time.perf_counter() < deadline:
                with counter_lock:
                    pos = next(counter) % n
                t0 = time.perf_counter()
                conn.send(pos, expected.queries[pos])
                line = conn.recv()
                t1 = time.perf_counter()
                log.add("request", t0, t1, parent=span_id, pos=pos, bytes=len(line))
                phase.record(pos, t0, t0, t1, line, expected)
        except OSError as exc:  # a lost connection fails its request
            with phase.lock:
                phase.lost += 1
            errors.append(exc)
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)
        finally:
            conn.close()

    with log.span(name, connections=connections) as sp:
        span_id = sp.id
        phase.start = time.perf_counter()
        deadline = phase.start + seconds
        threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 2 * SOCKET_TIMEOUT_S)
        if any(t.is_alive() for t in threads):
            raise BenchError(f"{name}: a client thread did not finish")
    phase.end = max(phase.done, default=deadline)
    _report(name, errors)
    return phase


def _report(name: str, errors: list[BaseException]) -> None:
    """Re-raise a client thread's bug; log its connection errors."""
    for exc in errors:
        if not isinstance(exc, OSError):
            raise exc
    if errors:
        print(f"{name}: {len(errors)} connection error(s): {errors[0]!r}", file=sys.stderr)


_ID = re.compile(rb'\{"id":(\d+),')


def _response_pos(line: bytes) -> int:
    """The request id a response echoes, read without decoding the answer."""
    m = _ID.match(line)
    if m is not None:
        return int(m.group(1))
    return int(protocol.decode_frame(line)["id"])


def open_loop(host: str, port: int, expected: Expected, first: int, rate: float,
              count: int, log: SpanLog, name: str) -> Phase:
    """``count`` requests at ``rate``/s on one pipelined connection.

    Latency runs from each request's due time, so a sender that falls
    behind makes the requests it delays slower instead of hiding them.
    """
    n = len(expected.queries)
    if count >= n:
        raise BenchError(f"{name}: {count} requests would reuse in-flight ids")
    phase = Phase(name)
    conn = _Conn(host, port)
    sent = [0.0] * count
    errors: list[BaseException] = []

    def sender() -> None:
        try:
            for j in range(count):
                due = phase.start + j / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pos = (first + j) % n
                sent[j] = time.perf_counter()
                conn.send(pos, expected.queries[pos])
        except BaseException as exc:  # logged or re-raised by the main thread
            errors.append(exc)

    with log.span(name, rate=rate, count=count) as sp:
        phase.start = time.perf_counter() + 0.01
        thread = threading.Thread(target=sender, daemon=True)
        thread.start()
        try:
            for _ in range(count):
                line = conn.recv()
                t1 = time.perf_counter()
                pos = _response_pos(line)
                j = (pos - first) % n
                due = phase.start + j / rate
                log.add("request", due, t1, parent=sp.id, pos=pos, bytes=len(line))
                phase.record(pos, due, sent[j], t1, line, expected)
        except OSError as exc:  # the unanswered requests count as lost
            errors.append(exc)
        finally:
            thread.join(count / rate + SOCKET_TIMEOUT_S)
            conn.close()
        if thread.is_alive():
            raise BenchError(f"{name}: the sender thread did not finish")
    phase.end = max(phase.done, default=phase.start)
    phase.lost = count - len(phase.pos)
    _report(name, errors)
    return phase


def verify(phase: Phase, expected: Expected, oracle) -> tuple[int, int]:
    """Resolve the lines whose CRC differed: (wrong answers, error responses).

    A line differs when the server's frame layout does not match the
    expected encoding byte for byte, so each is decoded and its
    answer compared with the engine's; an error frame (typed error or
    rejection) counts as failed, not wrong.
    """
    wrong = errors = 0
    for i, (pos, check) in enumerate(zip(phase.pos, phase.check)):
        if check is True:
            continue
        try:
            obj = protocol.decode_frame(check)
        except WireProtocolError:
            wrong += 1
            phase.check[i] = False
            continue
        v, k = expected.queries[pos]
        if not obj.get("ok"):
            errors += 1
            phase.check[i] = False
            continue
        good = (
            obj.get("id") == pos and obj.get("vertex") == v and obj.get("k") == k
            and obj.get("communities")
            == protocol.serialize_communities(oracle.query(v, k, record=False))
        )
        wrong += not good
        phase.check[i] = good
    return wrong, errors


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def tail_percentile(samples: int) -> float:
    """The highest of p99, p95 and p90 that leaves at least 10 samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if samples * (1.0 - q / 100.0) >= 10:
            return q
    raise BenchError(f"{samples} open-loop samples are too few for a tail percentile")
