"""Blocking JSON-lines client for the ``repro serve`` daemon.

Used by the test suite, the load generator, and anyone scripting
against a running daemon.  Supports strict request/response lockstep
(:meth:`request`) and deep pipelining (:meth:`send` + :meth:`recv`) —
the daemon guarantees responses come back in request-arrival order,
so ``recv`` after N ``send`` calls yields responses for requests
1..N in order.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Tuple, Union

from . import protocol

Address = Union[str, Tuple]


def _connect(address: Address, timeout: float) -> socket.socket:
    if isinstance(address, str):
        address = ("unix", address)
    kind = address[0]
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(address[1])
        except BaseException:
            sock.close()
            raise
        return sock
    if kind == "tcp":
        return socket.create_connection(address[1:3], timeout=timeout)
    raise ValueError(f"unknown address kind {kind!r}")


class ServeError(Exception):
    """An ``ok: false`` response, surfaced as an exception on demand."""

    def __init__(self, response: dict):
        error = response.get("error") or {}
        super().__init__(f"{error.get('code')}: {error.get('message')}")
        self.response = response
        self.code = error.get("code")
        self.message = error.get("message")


class ServeClient:
    """One connection to a daemon (unix socket path or TCP address)."""

    def __init__(self, address: Address, timeout: float = 120.0):
        self.address = address
        self.timeout = timeout
        self._sock = _connect(address, timeout)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------ basics
    def send(self, payload: Dict[str, Any]) -> Any:
        """Send one request line; returns the request id used."""
        if "id" not in payload:
            self._next_id += 1
            payload = {"id": self._next_id, **payload}
        self._sock.sendall(protocol.encode(payload))
        return payload["id"]

    def send_raw(self, data: bytes) -> None:
        """Send raw bytes (fault injection: malformed lines)."""
        self._sock.sendall(data)

    def recv(self) -> dict:
        """Read one response line (responses arrive in request order)."""
        return protocol.decode(self.recv_raw())

    def recv_raw(self) -> bytes:
        """Read one raw response line, newline included (the trace
        determinism suite digests these bytes verbatim)."""
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def request(self, payload: Dict[str, Any], check: bool = False) -> dict:
        self.send(payload)
        response = self.recv()
        if check and not response.get("ok"):
            raise ServeError(response)
        return response

    # ------------------------------------------------------ conveniences
    def ping(self) -> dict:
        return self.request({"op": "ping"}, check=True)

    def stats(self) -> dict:
        return self.request({"op": "stats"}, check=True)["result"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"}, check=True)

    def compile(self, source: str, *, name: str = "anon", entry: str = "",
                prog_type: str = "xdp", mcpu: str = "v2",
                ctx_size: int = 64, validate: Union[bool, str] = False,
                asm: bool = False, check: bool = True, **extra) -> dict:
        payload = {"op": "compile", "source": source, "name": name,
                   "entry": entry, "prog_type": prog_type, "mcpu": mcpu,
                   "ctx_size": ctx_size, "asm": asm, **extra}
        if validate:
            payload["validate"] = validate
        return self.request(payload, check=check)

    def compile_pipelined(self, payloads: List[Dict[str, Any]]) -> List[dict]:
        """Send every request before reading any response."""
        ids = [self.send(p) for p in payloads]
        responses = [self.recv() for _ in ids]
        assert [r.get("id") for r in responses] == ids, \
            "daemon broke arrival-order response guarantee"
        return responses

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def abort(self) -> None:
        """Tear the connection down abruptly (fault injection)."""
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00")
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
