"""A small blocking client for the simulation service.

This is the test harness's view of the wire: a raw ``socket`` plus the
minimal HTTP/1.1 the server speaks — deliberately dependency-free and
deliberately *not* asyncio, so the differential and chaos suites drive
the server from plain threads the way external clients would.

:meth:`ServiceClient.run` returns a :class:`ResultStream` — iterate it
for envelope dicts as the server emits them; ``close()`` mid-iteration
drops the connection, which is exactly how the abandonment tests model
a client that went away.
"""

from __future__ import annotations

import json
import socket
from typing import TYPE_CHECKING, Any, Iterator

from repro.service.protocol import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec

__all__ = ["ServiceClient", "ServiceClientError", "ResultStream"]


class ServiceClientError(Exception):
    """A non-200 service response, with its typed error code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class ResultStream:
    """One in-flight NDJSON response; iterate for envelope dicts.

    The stream is close-delimited: iteration ends at EOF. A stream
    whose last envelope is not ``{"event": "end", ...}`` was aborted
    server-side (fault injection, drain race) — callers that need the
    distinction check :attr:`ended`.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self.ended = False
        self._closed = False

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for raw in self._file:
            line = raw.strip()
            if not line:
                continue
            envelope = json.loads(line)
            if envelope.get("event") == "end":
                self.ended = True
            yield envelope
        self.close()

    def close(self) -> None:
        """Drop the connection (abandons any cells still streaming)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ResultStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ServiceClient:
    """Blocking HTTP client for one service endpoint.

    Args:
        host/port: where the server listens.
        client_id: stable fairness identity sent as ``x-repro-client``
            (defaults to per-connection identities assigned server-side).
        timeout: socket timeout per connection, seconds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request_json("GET", "/health")

    def stats(self) -> dict[str, Any]:
        return self._request_json("GET", "/stats")

    def run(
        self,
        spec: "ExperimentSpec",
        *,
        trace: bool = False,
        order: str | None = None,
    ) -> ResultStream:
        """Submit one spec; stream result envelopes back.

        ``order="spec"`` asks for canonical spec order (byte-comparable
        across runs); default is completion order. ``trace=True`` adds
        provenance (``source``: computed/warm/attached) per envelope
        and a counter block on the end envelope.
        """
        params = []
        if trace:
            params.append("trace=1")
        if order is not None:
            params.append(f"order={order}")
        path = "/run" + (f"?{'&'.join(params)}" if params else "")
        sock = self._open("POST", path, body=spec.to_dict())
        stream = ResultStream(sock)
        status, payload = _read_head(stream._file)
        if status != 200:
            error = (payload or {}).get("error", {})
            stream.close()
            raise ServiceClientError(
                status,
                error.get("code", "internal"),
                error.get("message", "service error"),
            )
        return stream

    def run_grid(
        self, spec: "ExperimentSpec", **kwargs: Any
    ) -> list[dict[str, Any]]:
        """Convenience: run and collect every envelope into a list."""
        with self.run(spec, **kwargs) as stream:
            return list(stream)

    # -- plumbing ------------------------------------------------------

    def _open(
        self, method: str, path: str, *, body: dict[str, Any] | None = None
    ) -> socket.socket:
        payload = canonical_json(body).encode() if body is not None else b""
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: close",
        ]
        if self.client_id is not None:
            head.append(f"x-repro-client: {self.client_id}")
        if payload:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(payload)}")
        request = ("\r\n".join(head) + "\r\n\r\n").encode() + payload
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            sock.sendall(request)
        except BaseException:
            sock.close()
            raise
        return sock

    def _request_json(self, method: str, path: str) -> dict[str, Any]:
        sock = self._open(method, path)
        # The reader holds its own reference to the descriptor: closing
        # only the socket would leave the fd open until the reader is
        # collected (on the error path, until the traceback is).
        with sock, sock.makefile("rb") as file:
            status, payload = _read_head(file)
            if payload is None:
                payload = json.loads(file.read() or b"{}")
            if status != 200:
                error = payload.get("error", {})
                raise ServiceClientError(
                    status,
                    error.get("code", "internal"),
                    error.get("message", "service error"),
                )
            return payload


def _read_head(file: Any) -> tuple[int, dict[str, Any] | None]:
    """Parse a response head; return (status, body-if-content-length).

    Close-delimited bodies (NDJSON streams) return ``None`` — the
    caller keeps reading lines from ``file``.
    """
    status_line = file.readline().decode("latin-1").strip()
    try:
        status = int(status_line.split(" ", 2)[1])
    except (IndexError, ValueError) as exc:
        raise ServiceClientError(
            0, "protocol", f"malformed status line: {status_line!r}"
        ) from exc
    length: int | None = None
    while True:
        line = file.readline().decode("latin-1").strip()
        if not line:
            break
        name, _sep, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if length is None:
        return status, None
    return status, json.loads(file.read(length) or b"{}")
