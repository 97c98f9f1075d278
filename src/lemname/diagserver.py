"""Stdio diagnostic server speaking a JSON-RPC 2.0 subset.

Messages are framed with `Content-Length` headers like the Language
Server Protocol. The server answers `initialize`, serves naming
diagnostics through the custom request `roosterize/suggestNaming`
(params: {"uri": <lemma-dataset file>}), and stops on `shutdown`/`exit`
or end of input. Diagnostics are produced by the same report builder as
the command line, so both surfaces always agree. Only framed protocol
messages touch the output stream; diagnostics of the transport itself
go to the logging system (stderr). A frame longer than `MAX_FRAME_BYTES`
is read past and answered with a parse error; a request whose id is not a
string, a finite number or null gets `INVALID_REQUEST` with id null, since
echoing it back could fail. `SERVER_ERROR` (-32000)
means bad input: a request whose input fails it with a `DomainError` or an
`OSError`. `INTERNAL_ERROR` (-32603) means a defect: any other exception,
which is logged with its traceback. Either way the session goes on.
"""

from __future__ import annotations

import json
import logging
import math
import os
from urllib.parse import unquote, urlparse

from . import DomainError, InvalidValue, __version__, canonical_json
from .cli import _load_model, build_suggestion_report

log = logging.getLogger(__name__)

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INTERNAL_ERROR = -32603
SERVER_ERROR = -32000

SUGGEST_METHOD = "roosterize/suggestNaming"
SEVERITY_INFORMATION = 3

MAX_FRAME_BYTES = 1 << 22  # requests carry a uri, not a document


class OversizedFrame(DomainError):
    pass


def uri_to_path(uri: str) -> str:
    """Accept both file:// URIs on this host (empty or `localhost`) and plain filesystem paths."""
    try:
        parsed = urlparse(uri)
    except ValueError as err:  # such as an unclosed '[' in the host
        raise InvalidValue(f"unreadable uri {uri!r}: {err}") from None
    if parsed.scheme and parsed.scheme != "file":
        raise InvalidValue(f"unsupported uri scheme: {parsed.scheme!r}")
    if parsed.scheme and parsed.netloc.lower() not in ("", "localhost"):
        raise InvalidValue(f"file uri names another host: {parsed.netloc!r}")
    path = unquote(parsed.path) if parsed.scheme else uri
    try:
        encoded = os.fsencode(path)
    except UnicodeEncodeError:  # a lone surrogate, which a JSON \u escape can carry
        raise InvalidValue(f"path is not encodable: {uri!r}") from None
    if b"\0" in encoded:
        raise InvalidValue(f"path holds a null byte: {uri!r}")
    return path


def read_message(stream) -> bytes | None:
    """Read one Content-Length framed body; None on end of input.

    A body over `MAX_FRAME_BYTES` is skipped in reads of at most that size.
    A header line over that size ends the session, like an unreadable
    `Content-Length`: the frame boundary is lost.
    """
    content_length = None
    while True:
        line = stream.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_FRAME_BYTES:
            log.warning("header line over %d bytes; treating as end of input", MAX_FRAME_BYTES)
            return None
        line = line.rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            value = value.strip()
            try:
                length = int(value) if value.isdigit() else -1  # int() also takes a sign and underscores
            except ValueError:  # more digits than int() converts
                length = -1
            if length < 0:  # read(-1) would wait for the client to close its end
                log.warning("ignoring unreadable Content-Length header: %r", value)
            else:
                content_length = length
    if content_length is None:
        log.warning("message frame without Content-Length; treating as end of input")
        return None
    if content_length > MAX_FRAME_BYTES:
        remaining = content_length
        while remaining:
            skipped = stream.read(min(remaining, MAX_FRAME_BYTES))
            if not skipped:
                return None
            remaining -= len(skipped)
        raise OversizedFrame(f"frame of {content_length} bytes is over the {MAX_FRAME_BYTES}-byte limit")
    body = stream.read(content_length)
    if body is None or len(body) != content_length:
        return None
    return body


def write_message(stream, payload: dict) -> None:
    body = canonical_json(payload).encode("utf-8")
    stream.write(f"Content-Length: {len(body)}\r\n\r\n".encode("ascii"))
    stream.write(body)
    stream.flush()


def _response(request_id, result) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def _error(request_id, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "error": {"code": code, "message": message}}


def _valid_id(request_id) -> bool:
    """JSON-RPC 2.0 ids are a string, a finite number or null; a bool is none of these."""
    if isinstance(request_id, bool):
        return False
    if isinstance(request_id, float):
        return math.isfinite(request_id)
    return request_id is None or isinstance(request_id, (str, int))


class DiagnosticServer:
    """Request dispatch around one loaded model; stateless between calls."""

    def __init__(self, model, k: int):
        self.model = model
        self.k = k
        self.exit_requested = False

    def initialize_result(self) -> dict:
        return {
            "capabilities": {"suggestNamingProvider": True},
            "serverInfo": {"name": "lemname", "version": __version__},
        }

    def diagnostics(self, uri: str) -> list:
        path = uri_to_path(uri)
        report = build_suggestion_report(self.model, path, self.k)
        result = []
        for row in report.nonconforming:
            names = ", ".join(s.name for s in row.suggestions)
            result.append(
                {
                    "file": row.file,
                    "line": row.line,
                    "range": [0, len(row.name)],
                    "severity": SEVERITY_INFORMATION,
                    "message": f"name does not conform; suggestions: {names}",
                    "data": [{"name": s.name, "score": s.score} for s in row.suggestions],
                }
            )
        return result

    def handle(self, message) -> dict | None:
        """Dispatch one decoded message; None means no response is due."""
        if not isinstance(message, dict):
            return _error(None, INVALID_REQUEST, "request must be an object")
        request_id = message.get("id")
        if not _valid_id(request_id):
            return _error(None, INVALID_REQUEST, "id must be a string, a number or null")
        has_id = "id" in message
        method = message.get("method")
        if message.get("jsonrpc") != "2.0" or not isinstance(method, str):
            return _error(request_id, INVALID_REQUEST, "not a JSON-RPC 2.0 request")
        if method == "exit":
            self.exit_requested = True
            return None
        if method == "initialize":
            return _response(request_id, self.initialize_result()) if has_id else None
        if method == "shutdown":
            return _response(request_id, None) if has_id else None
        if method == SUGGEST_METHOD:
            params = message.get("params")
            if not isinstance(params, dict) or not isinstance(params.get("uri"), str):
                if not has_id:
                    return None
                return _error(request_id, INVALID_REQUEST, "params must carry a uri string")
            try:
                reply = _response(request_id, self.diagnostics(params["uri"]))
            except (DomainError, OSError) as err:  # bad input, answered in-band
                log.warning("suggestNaming failed: %s", err)
                reply = _error(request_id, SERVER_ERROR, str(err))
            except Exception as err:  # a defect; the session goes on
                log.exception("suggestNaming failed")
                reply = _error(request_id, INTERNAL_ERROR, f"internal error: {type(err).__name__}: {err}")
            return reply if has_id else None
        if has_id:
            return _error(request_id, METHOD_NOT_FOUND, f"unknown method {method!r}")
        return None  # unknown notification: ignored per JSON-RPC


def serve(stdin, stdout, config) -> int:
    """Run the server loop over binary streams until exit or end of input."""
    server = DiagnosticServer(_load_model(config.model_path), config.k)
    log.info("serving naming diagnostics (k=%d)", config.k)
    while not server.exit_requested:
        try:
            body = read_message(stdin)
            if body is None:
                break
            message = json.loads(body.decode("utf-8"))
        except (OversizedFrame, ValueError, RecursionError) as err:
            # ValueError: not UTF-8, not JSON, or a number over int's digit limit;
            # RecursionError: JSON nested deeper than the parser's recursion limit
            write_message(stdout, _error(None, PARSE_ERROR, f"parse error: {err}"))
            continue
        response = server.handle(message)
        if response is not None:
            write_message(stdout, response)
    return 0
