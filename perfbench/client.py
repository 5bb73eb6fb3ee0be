"""Closed-loop keep-alive HTTP client for the ``serve-mixed`` workload.

Stdlib only: one thread per connection, each sending its next request
only after the previous response's last body byte has arrived.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.plan import EXPECTED_STATUS, REVALIDATE, Request


def connect(port: int) -> Tuple[socket.socket, object]:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def encode(target: str, etag: Optional[str] = None) -> bytes:
    extra = f"If-None-Match: {etag}\r\n" if etag else ""
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n{extra}\r\n".encode()


def read_response(rfile) -> Tuple[int, Dict[bytes, bytes], bytes]:
    """One HTTP/1.1 response off a keep-alive connection."""
    line = rfile.readline()
    if not line:
        raise EOFError("connection closed mid-stream")
    status = int(line.split()[1])
    headers: Dict[bytes, bytes] = {}
    while True:
        header = rfile.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get(b"content-length", 0))
    body = rfile.read(length) if length else b""
    return status, headers, body


def get(port: int, target: str) -> Tuple[int, Dict[bytes, bytes], bytes]:
    """One request on a fresh connection (set-up and scrapes)."""
    sock, rfile = connect(port)
    with sock, rfile:
        sock.sendall(encode(target))
        return read_response(rfile)


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}``."""
    status, _, body = get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


@dataclass
class StreamResult:
    """What one connection saw in one window."""

    latencies_ns: List[int] = field(default_factory=list)
    #: Requests with an unexpected status, or lost to an exception.
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: (request, status, ETag header, body) of the bodies kept for the
    #: oracle comparison.
    kept: List[Tuple[Request, int, bytes, bytes]] = field(
        default_factory=list
    )


class Connection:
    """One keep-alive connection sending its request stream closed-loop.

    :meth:`run_until` sends until a deadline and returns, leaving the
    connection open and idle, so a window can pause between slices.
    """

    def __init__(self, port: int, stream: Iterator[Request],
                 etags: Dict[str, str]) -> None:
        self.stream = stream
        self.etags = etags
        self.result = StreamResult()
        self._encoded: Dict[Tuple[str, bool], bytes] = {}
        self.sock = self.rfile = None
        try:
            self.sock, self.rfile = connect(port)
        except OSError as exc:
            self._lost(repr(exc))

    def _lost(self, error: str) -> None:
        self.result.failed += 1
        self.result.errors.append(error)
        self.close()

    def run_until(self, deadline_ns: int) -> None:
        """Send requests until one completes at or after ``deadline_ns``."""
        result = self.result
        append = result.latencies_ns.append
        while self.sock is not None:
            request = next(self.stream)
            reval = request.kind == REVALIDATE
            raw = self._encoded.get((request.target, reval))
            if raw is None:
                raw = encode(request.target, self.etags[request.target]
                             if reval else None)
                if request.target in self.etags:
                    self._encoded[(request.target, reval)] = raw
            t0 = perf_counter_ns()
            try:
                self.sock.sendall(raw)
                status, headers, body = read_response(self.rfile)
            except (OSError, EOFError, ValueError) as exc:
                self._lost(f"{request.target}: {exc!r}")
                return
            t1 = perf_counter_ns()
            append(t1 - t0)
            if status != EXPECTED_STATUS[request.kind]:
                result.failed += 1
                if len(result.errors) < 5:
                    result.errors.append(f"{request.target}: {status}")
            elif request.check:
                result.kept.append(
                    (request, status, headers.get(b"etag", b""), body)
                )
            if t1 >= deadline_ns:
                return

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None
