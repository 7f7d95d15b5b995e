"""Load generator: one asyncio loop, a few persistent HTTP/1.1 connections.

Open loop: a dispatcher wakes at each request's due time (a seeded
Poisson schedule) and hands the request to the connection pool; every
request is timed from when it was *due*, so a stalled server charges
its stall to every request that queued behind it.  How late the
dispatcher itself woke is recorded per request (``lag``): when that
lag, not the server, dominates, the run is invalid.

Closed loop: each connection sends its next request as soon as the
previous answer arrived.

Each request carries an ``X-Request-Id`` header so that server-side
spans of traced runs can be joined to the client's timings.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass, field

from common import clock

#: Per-request timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT = 30.0


@dataclass
class Op:
    """One request of a workload schedule."""

    kind: str  # metric family: "read" or "write"
    method: str
    path: str
    body: bytes | None = None
    due: float = 0.0  # seconds after the schedule start
    check: bool = False  # keep the response body for a correctness check
    rid: str = ""


@dataclass
class Result:
    """What happened to one request (times are ``clock()`` values)."""

    op: Op
    due: float
    woke: float
    sent: float
    done: float
    status: int
    body: bytes | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """A 2xx answer arrived."""
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due to answered."""
        return self.done - self.due


class Connection:
    """A keep-alive HTTP/1.1 connection over asyncio streams."""

    def __init__(self, port: int):
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        """Connect (again)."""
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def close(self) -> None:
        """Close the socket, if open."""
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(self, op: Op) -> tuple[int, bytes]:
        """Send one request and read its whole answer."""
        if self.writer is None:
            await self.open()
        body = op.body or b""
        head = (
            f"{op.method} {op.path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"X-Request-Id: {op.rid}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload


async def _send(conn: Connection, op: Op, due: float, woke: float) -> Result:
    sent = clock()
    try:
        status, body = await asyncio.wait_for(conn.request(op), REQUEST_TIMEOUT)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
        await conn.close()
        status, body = 0, b""
    done = clock()
    keep = body if (op.check or not 200 <= status < 300) else None
    return Result(op, due, woke, sent, done, status, keep)


async def _open_loop(port, lanes, n_conns_per_lane):
    """Run every lane's schedule; a lane is (ops, number of connections)."""
    t0 = clock() + 0.25  # time to open every connection first
    results: list[Result] = []

    async def lane(ops, n_conns):
        queue: asyncio.Queue = asyncio.Queue()
        conns = [Connection(port) for _ in range(n_conns)]
        for conn in conns:
            await conn.open()

        async def serve(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                op, due, woke = item
                results.append(await _send(conn, op, due, woke))

        servers = [asyncio.create_task(serve(c)) for c in conns]
        try:
            for op in ops:
                due = t0 + op.due
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                queue.put_nowait((op, due, clock()))
            for _ in conns:
                queue.put_nowait(None)
            await asyncio.gather(*servers)
        finally:
            for task in servers:
                task.cancel()
            for conn in conns:
                await conn.close()

    await asyncio.gather(*(lane(ops, n) for ops, n in zip(lanes, n_conns_per_lane)))
    return results


def run_open_loop(port: int, lanes, n_conns_per_lane) -> list[Result]:
    """Drive one or more independent open-loop lanes to completion.

    Each lane has its own FIFO and connections: a lane with a single
    connection sends its requests strictly in schedule order.
    """
    return asyncio.run(_open_loop(port, lanes, n_conns_per_lane))


async def _closed_loop(port, streams, seconds):
    results: list[Result] = []
    started = clock()
    stop_at = started + seconds

    async def client(ops):
        conn = Connection(port)
        await conn.open()
        try:
            # Check the clock before drawing: a drawn op is a sent op.
            while clock() < stop_at:
                op = next(ops, None)
                if op is None:
                    return
                now = clock()
                results.append(await _send(conn, op, now, now))
        finally:
            await conn.close()

    await asyncio.gather(*(client(ops) for ops in streams))
    return results, clock() - started


def run_closed_loop(port: int, streams, seconds: float):
    """Each stream is one back-to-back client; returns (results, elapsed).

    Clients start no request after ``seconds``; ``elapsed`` runs until
    the last answer arrived.
    """
    return asyncio.run(_closed_loop(port, streams, seconds))


def blocking_request(port: int, method: str, path: str, body: bytes = b""):
    """One control-plane request on a fresh connection (not measured)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        sock.sendall(head.encode("latin-1") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload
