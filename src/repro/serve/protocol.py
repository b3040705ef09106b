"""The ``repro serve`` wire protocol: JSON lines over a local socket.

One request per line, one response per line, UTF-8 JSON.  Every
request carries a client-chosen ``id`` that is echoed verbatim in the
response, so clients may pipeline arbitrarily deep; the daemon
guarantees responses on a connection come back in request-arrival
order.

Requests::

    {"id": 1, "op": "compile", "source": "...", "entry": "f",
     "prog_type": "xdp", "mcpu": "v2", "ctx_size": 64}
    {"id": 2, "op": "validate", "source": "..."}   # compile + certify
    {"id": 6, "op": "compile", "source": "...",
     "pgo": {"tests": 8, "seed": 7}}               # profile-guided layout
    {"id": 7, "op": "compile", "source": "...",
     "superopt": {"window": 4, "iterations": 32}}  # superoptimizer tier
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "ping"}
    {"id": 5, "op": "shutdown"}

Responses::

    {"id": 1, "ok": true, "result": {"name": ..., "ni_original": ...,
     "ni_optimized": ..., "ni_reduction": ..., "cached": ...,
     "mcpu": ..., "insns": ..., "compile_ms": ...}}
    {"id": 1, "ok": false,
     "error": {"code": "compile-error", "message": "..."}}

Error codes (``ERROR_CODES``) are part of the protocol contract and
covered by tests: ``bad-json`` (unparseable line; ``id`` is null),
``bad-request`` (missing/ill-typed fields), ``unknown-op``,
``oversized`` (source beyond :data:`MAX_SOURCE_BYTES`),
``compile-error`` (the toolchain rejected the program),
``shutting-down`` (daemon draining, request not admitted), and
``internal``.

Protocol v2 adds two optional request fields the admission queue
consumes: ``tenant`` (a client-chosen stream label; the admission queue serves
backlogged tenants round-robin, an equal share of the free workers)
and ``priority`` (0..9, default 0; higher classes drain first from a
backlog of misses).
Both are ignored by the cache key — identical programs share one
entry no matter who asks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Optional, Union

from ..core.pipeline import ALL_OPTIMIZERS, tier_spec
from ..isa import ProgramType
from ..verifier import KERNELS

#: longest accepted request line (framing limit; connection-fatal)
MAX_LINE_BYTES = 4 * 1024 * 1024
#: largest accepted ``source`` payload (per-request ``oversized`` error)
MAX_SOURCE_BYTES = 1024 * 1024
#: protocol revision, reported by ``ping`` and ``stats``
PROTOCOL_VERSION = 2
#: longest accepted ``tenant`` label
MAX_TENANT_CHARS = 128
#: highest accepted ``priority``
MAX_PRIORITY = 9

OPS = ("compile", "validate", "stats", "ping", "shutdown")

ERROR_CODES = ("bad-json", "bad-request", "unknown-op", "oversized",
               "compile-error", "shutting-down", "internal")

_PROG_TYPES = {t.value for t in ProgramType}


class ProtocolError(Exception):
    """A request the daemon rejects before compilation."""

    def __init__(self, code: str, message: str,
                 request_id: Any = None):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class Request:
    """A validated request (compile/validate carry a program)."""

    id: Any
    op: str
    name: str = "anon"
    source: str = ""
    entry: str = ""
    prog_type: ProgramType = ProgramType.XDP
    mcpu: str = "v2"
    ctx_size: int = 64
    kernel: str = "6.5"
    passes: Optional[frozenset] = None
    validate: Union[bool, str] = False
    asm: bool = False
    #: profile-guided layout spec (repro.core.bytecode_passes.layout
    #: .PgoSpec), or None; frozen, so the request stays hashable
    pgo: Optional[Any] = None
    #: superoptimizer spec (repro.core.superopt.SuperoptSpec), or None;
    #: frozen, so the request stays hashable
    superopt: Optional[Any] = None
    #: fairness stream label; "" groups with the default
    tenant: str = ""
    #: admission priority 0..9; a higher class drains first from the
    #: queue of misses waiting for a free worker
    priority: int = 0

    @property
    def config_key(self) -> tuple:
        """The pipeline configuration: requests with one key compile on
        one :class:`~repro.core.pipeline.MerlinPipeline`."""
        passes = tuple(sorted(self.passes)) if self.passes is not None \
            else None
        return (self.kernel, passes, self.validate)


def encode(obj: dict) -> bytes:
    """One protocol line: compact JSON plus the newline terminator."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode(line: Union[bytes, str]) -> dict:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"not utf-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"unparseable line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad-json",
                            f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, request_id: Any, key: str, kind, default):
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise ProtocolError(
            "bad-request", f"field {key!r} must be {kind.__name__}",
            request_id)
    return value


def parse_request(line: Union[bytes, str]) -> Request:
    """Validate one request line into a :class:`Request`.

    Raises :class:`ProtocolError` with the precise error code; the
    offending request's ``id`` is preserved whenever the line parsed
    far enough to have one.
    """
    obj = decode(line)
    request_id = obj.get("id")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "missing field 'op'", request_id)
    if op not in OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r} (choose from {', '.join(OPS)})",
            request_id)
    if op in ("stats", "ping", "shutdown"):
        return Request(id=request_id, op=op)

    source = obj.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("bad-request",
                            "compile requests need a non-empty 'source'",
                            request_id)
    if len(source.encode("utf-8", "surrogatepass")) > MAX_SOURCE_BYTES:
        raise ProtocolError(
            "oversized",
            f"source exceeds {MAX_SOURCE_BYTES} bytes", request_id)

    name = _field(obj, request_id, "name", str, "anon")
    entry = _field(obj, request_id, "entry", str, "")
    mcpu = _field(obj, request_id, "mcpu", str, "v2")
    if mcpu not in ("v2", "v3"):
        raise ProtocolError("bad-request", "mcpu must be 'v2' or 'v3'",
                            request_id)
    prog_type = _field(obj, request_id, "prog_type", str, "xdp")
    if prog_type not in _PROG_TYPES:
        raise ProtocolError(
            "bad-request",
            f"prog_type must be one of {sorted(_PROG_TYPES)}", request_id)
    ctx_size = _field(obj, request_id, "ctx_size", int, 64)
    if not 0 <= ctx_size <= 1 << 16:
        raise ProtocolError("bad-request", "ctx_size out of range",
                            request_id)
    kernel = _field(obj, request_id, "kernel", str, "6.5")
    if kernel not in KERNELS:
        raise ProtocolError(
            "bad-request", f"kernel must be one of {sorted(KERNELS)}",
            request_id)
    passes = obj.get("passes")
    if passes is not None:
        if (not isinstance(passes, list)
                or not all(isinstance(p, str) for p in passes)):
            raise ProtocolError("bad-request",
                                "passes must be a list of pass names",
                                request_id)
        unknown = set(passes) - ALL_OPTIMIZERS
        if unknown:
            raise ProtocolError(
                "bad-request", f"unknown passes: {sorted(unknown)}",
                request_id)
        passes = frozenset(passes)
    validate = obj.get("validate", op == "validate" and "report")
    if validate not in (False, True, "report"):
        raise ProtocolError("bad-request",
                            "validate must be true, false or 'report'",
                            request_id)
    if op == "validate" and validate is False:
        validate = "report"
    asm = obj.get("asm", False)
    if not isinstance(asm, bool):
        raise ProtocolError("bad-request", "asm must be a boolean",
                            request_id)
    pgo = _parse_tier(obj, "pgo", request_id)
    superopt = _parse_tier(obj, "superopt", request_id)
    tenant = _field(obj, request_id, "tenant", str, "")
    if len(tenant) > MAX_TENANT_CHARS:
        raise ProtocolError(
            "bad-request",
            f"tenant exceeds {MAX_TENANT_CHARS} characters", request_id)
    priority = _field(obj, request_id, "priority", int, 0)
    if not 0 <= priority <= MAX_PRIORITY:
        raise ProtocolError(
            "bad-request", f"priority must be 0..{MAX_PRIORITY}",
            request_id)
    return Request(id=request_id, op=op, name=name, source=source,
                   entry=entry, prog_type=ProgramType(prog_type),
                   mcpu=mcpu, ctx_size=ctx_size, kernel=kernel,
                   passes=passes, validate=validate, asm=asm, pgo=pgo,
                   superopt=superopt, tenant=tenant, priority=priority)


def _parse_tier(obj: dict, field: str, request_id: Any):
    """The tier spec of request *field* (``pgo`` for the layout tier,
    or ``superopt``): ``false``/absent -> off, ``true`` -> the default
    spec, or an object selecting some of the spec's integer fields."""
    value = obj.get(field, False)
    if value is False:
        return None
    tier = "layout" if field == "pgo" else field
    default = tier_spec(tier, True)
    if value is True:
        return default
    if not isinstance(value, dict):
        raise ProtocolError("bad-request",
                            f"{field} must be a boolean or an object",
                            request_id)
    unknown = set(value) - {f.name for f in fields(default)}
    if unknown:
        raise ProtocolError("bad-request",
                            f"unknown {field} fields: {sorted(unknown)}",
                            request_id)
    for key, val in value.items():
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise ProtocolError(
                "bad-request",
                f"{field} field {key!r} must be a non-negative integer",
                request_id)
    return tier_spec(tier, value)


def ok_response(request_id: Any, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def error_from(exc: ProtocolError) -> dict:
    return error_response(exc.request_id, exc.code, exc.message)
