"""Minimal asyncio HTTP/1.1 plumbing for the synthesis service.

Just enough protocol for a JSON API plus Server-Sent Events, on stdlib
``asyncio`` streams only — the repository's no-new-dependencies rule
is a feature here: the service deploys anywhere the library does.

Scope (deliberate):

* request line + headers + ``Content-Length`` bodies (no chunked
  request bodies, no multipart);
* keep-alive for JSON exchanges: responses carry ``Content-Length``
  and ``Connection: keep-alive``, so one client connection serves many
  requests (per-request TCP setup was measurable in the load
  generator); a client may still opt out with ``Connection: close``,
  and SSE streams always close (the body is connection-delimited);
* hard caps on header and body size, so a confused client cannot
  balloon the server.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.core.digest import canonical_json

__all__ = [
    "HttpError",
    "Request",
    "dumps_with_raw",
    "read_request",
    "sse_event",
    "write_json",
    "write_response",
]

#: Cap on the request head (request line + headers).
MAX_HEAD_BYTES = 32 * 1024

#: Cap on request bodies (inline assays are a few hundred KB at most).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Protocol-level failure with an HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def wants_close(self) -> bool:
        """True when the client asked for one-shot ``Connection: close``."""
        return self.headers.get("connection", "").lower() == "close"

    def json(self) -> Any:
        """The request body parsed as JSON (400 on garbage)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"request body is not JSON: {error}")


async def read_request(
    reader: asyncio.StreamReader,
) -> Request | None:
    """Parse one request from *reader*; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as eof:
        if not eof.partial.strip():
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query))
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, f"body too large ({length} bytes)")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    return Request(
        method=method, path=path, query=query, headers=headers, body=body
    )


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    head_only: bool = False,
    close: bool = True,
) -> None:
    """Write one complete response.

    *close* selects the connection disposition header: keep-alive
    responses always carry ``Content-Length``, so the client knows
    where the body ends and can reuse the connection.  *head_only*
    starts a stream (SSE): no ``Content-Length`` — the body is
    delimited by connection close (*close* is forced) — and the caller
    keeps writing frames to the open connection.
    """
    reason = _REASONS.get(status, "Unknown")
    if head_only:
        close = True
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close" if close else "Connection: keep-alive",
    ]
    if not head_only:
        head.insert(2, f"Content-Length: {len(body)}")
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    if body and not head_only:
        writer.write(body)
    await writer.drain()


def dumps_with_raw(payload: Any, raw: dict[str, str] | None = None) -> str:
    """Canonical JSON of *payload*, splicing pre-serialised fields in raw.

    *raw* maps top-level field names to already-canonical JSON text;
    each is spliced into the output verbatim, at its sorted key
    position, instead of being parsed and re-serialised (a *raw* name
    replaces a payload field of the same name).  This is the cache-hit
    fast path **and** the byte-identity guarantee: the stored result
    text reaches the wire untouched.  The non-raw fields between two
    splices are serialised together, so the output equals
    ``canonical_json`` of the merged document byte for byte.
    """
    if not raw:
        return canonical_json(payload)
    pieces = ["{"]
    run: dict[str, Any] = {}
    for name in sorted(payload.keys() | raw.keys()):
        text = raw.get(name)
        if text is None:
            run[name] = payload[name]
            continue
        if run:
            pieces += (canonical_json(run)[1:-1], ",")
            run = {}
        pieces += (encode_basestring_ascii(name), ":", text, ",")
    if run:
        pieces.append(canonical_json(run)[1:-1])
    else:
        pieces.pop()  # the comma after the last splice
    pieces.append("}")
    return "".join(pieces)


async def write_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    extra_headers: dict[str, str] | None = None,
    raw: dict[str, str] | None = None,
    close: bool = True,
) -> None:
    """Serialise *payload* canonically and write it as the response.

    Canonical serialisation (sorted keys, compact separators) keeps
    responses stable; *raw* fields (see :func:`dumps_with_raw`) are
    spliced in verbatim — cached results ship byte-identical without a
    parse/re-serialise round trip.
    """
    body = dumps_with_raw(payload, raw).encode("utf-8")
    await write_response(
        writer, status, body, extra_headers=extra_headers, close=close
    )


def sse_event(
    data: Any, event: str | None = None, event_id: int | None = None
) -> bytes:
    """One Server-Sent-Events frame carrying *data* as JSON.

    *event_id* emits an ``id:`` line — the stream position a client
    resumes from (``?start=``) after a dropped connection.
    """
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event:
        lines.append(f"event: {event}")
    lines.append(
        "data: " + json.dumps(data, sort_keys=True, separators=(",", ":"))
    )
    return ("\n".join(lines) + "\n\n").encode("utf-8")
