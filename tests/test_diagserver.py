"""Tests for the JSON-RPC diagnostic server: framing, methods, CLI parity."""

import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lemname
from lemname import InvalidValue
from lemname.cli import MissingModel, ToolConfig, build_suggestion_report
from lemname.diagserver import (
    INTERNAL_ERROR,
    INVALID_REQUEST,
    MAX_FRAME_BYTES,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    SERVER_ERROR,
    SUGGEST_METHOD,
    DiagnosticServer,
    read_message,
    serve,
    uri_to_path,
    write_message,
)
from mutation import EDITS, mutated


def frame(payload) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body


def raw_frame(body: bytes) -> bytes:
    return f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body


def run_server(env, *messages, stream=io.BytesIO) -> list:
    """Feed framed messages to serve() and decode every framed response."""
    stdin = stream(b"".join(frame(m) if isinstance(m, dict) else m for m in messages))
    stdout = io.BytesIO()
    config = ToolConfig(model_path=str(env.checkpoint_path))
    assert serve(stdin, stdout, config) == 0
    stdout.seek(0)
    responses = []
    while True:
        body = read_message(stdout)
        if body is None:
            break
        responses.append(json.loads(body.decode("utf-8")))
    return responses


def request(method, request_id=None, params=None):
    message = {"jsonrpc": "2.0", "method": method}
    if request_id is not None:
        message["id"] = request_id
    if params is not None:
        message["params"] = params
    return message


# -------------------------------------------------------------------- framing


def test_frame_round_trip():
    stream = io.BytesIO()
    write_message(stream, {"jsonrpc": "2.0", "id": 1, "result": None})
    stream.seek(0)
    body = read_message(stream)
    assert json.loads(body) == {"jsonrpc": "2.0", "id": 1, "result": None}


def test_read_message_eof():
    assert read_message(io.BytesIO(b"")) is None


def test_read_message_ignores_extra_headers():
    body = b'{"x":1}'
    data = (
        b"Content-Type: application/vscode-jsonrpc; charset=utf-8\r\n"
        + f"Content-Length: {len(body)}\r\n".encode()
        + b"\r\n"
        + body
    )
    assert read_message(io.BytesIO(data)) == body


def test_read_message_without_length_is_end_of_input():
    assert read_message(io.BytesIO(b"Content-Type: text/plain\r\n\r\nxx")) is None


class PipeWithWriterOpen(io.BytesIO):
    """Stands in for a pipe whose client keeps its end open: read(-1) would block."""

    def read(self, size=-1):
        assert size is not None and size >= 0, "read to the end of input"
        return super().read(size)


def test_read_message_negative_length_is_never_read(caplog):
    stream = PipeWithWriterOpen(b"Content-Length: -1\r\n\r\n" + frame(request("exit")))
    with caplog.at_level(logging.WARNING, logger="lemname.diagserver"):
        assert read_message(stream) is None
    assert "Content-Length" in caplog.text


@pytest.mark.parametrize("length", [b"1_0", b"+10"])
def test_read_message_length_of_other_than_digits_is_end_of_input(length, caplog):
    body = b'{"a":1234}'
    assert len(body) == 10  # what int() reads both spellings as
    stream = PipeWithWriterOpen(b"Content-Length: " + length + b"\r\n\r\n" + body)
    with caplog.at_level(logging.WARNING, logger="lemname.diagserver"):
        assert read_message(stream) is None
    assert "unreadable Content-Length" in caplog.text


def test_read_message_length_past_int_digit_limit_is_end_of_input(caplog):
    stream = PipeWithWriterOpen(b"Content-Length: " + b"1" * 5000 + b"\r\n\r\n" + frame(request("exit")))
    with caplog.at_level(logging.WARNING, logger="lemname.diagserver"):
        assert read_message(stream) is None
    assert "unreadable Content-Length" in caplog.text


class PipeCappedAtOneFrame(PipeWithWriterOpen):
    """A pipe that also fails any read larger than the frame cap."""

    def read(self, size=-1):
        assert size <= MAX_FRAME_BYTES, f"read of {size} bytes"
        return super().read(size)


def test_read_message_oversized_truncated_frame_is_end_of_input():
    stream = PipeCappedAtOneFrame(b"Content-Length: 99999999999\r\n\r\n" + frame(request("exit")))
    assert read_message(stream) is None


class PipeWithUnboundedReadlineForbidden(PipeWithWriterOpen):
    """A pipe that fails any header-line read that is not capped at one frame."""

    def readline(self, size=-1):
        assert size is not None and 0 <= size <= MAX_FRAME_BYTES + 1, f"readline({size})"
        return super().readline(size)


def test_read_message_overlong_header_line_is_end_of_input(caplog):
    line = b"X-Padding: " + b"a" * (MAX_FRAME_BYTES + 10 - len(b"X-Padding: \r\n")) + b"\r\n"
    assert len(line) == MAX_FRAME_BYTES + 10
    stream = PipeWithUnboundedReadlineForbidden(line + b"\r\n" + frame(request("exit")))
    with caplog.at_level(logging.WARNING, logger="lemname.diagserver"):
        assert read_message(stream) is None
    assert "header line" in caplog.text


def test_oversized_frame_answers_parse_error_and_stays_alive(cli_env):
    responses = run_server(
        cli_env,
        raw_frame(b" " * (MAX_FRAME_BYTES + 1)),
        request("initialize", request_id=1),
        request("exit"),
        stream=PipeCappedAtOneFrame,
    )
    assert responses[0]["error"]["code"] == PARSE_ERROR
    assert responses[0]["id"] is None
    assert responses[1]["id"] == 1 and "capabilities" in responses[1]["result"]


def test_read_message_truncated_body():
    data = b"Content-Length: 50\r\n\r\n{\"short\": true}"
    assert read_message(io.BytesIO(data)) is None


def test_write_message_is_canonical():
    stream = io.BytesIO()
    write_message(stream, {"b": 1, "a": 2})
    assert stream.getvalue() == b'Content-Length: 13\r\n\r\n{"a":2,"b":1}'


# ------------------------------------------------------------------------ uris


def test_uri_to_path_file_scheme():
    assert uri_to_path("file:///tmp/doc.lemmas.sexp") == "/tmp/doc.lemmas.sexp"


def test_uri_to_path_unquotes():
    assert uri_to_path("file:///tmp/my%20docs/d.lemmas.sexp") == "/tmp/my docs/d.lemmas.sexp"


def test_uri_to_path_plain_path():
    assert uri_to_path("/tmp/doc.lemmas.sexp") == "/tmp/doc.lemmas.sexp"


def test_uri_to_path_rejects_other_schemes():
    with pytest.raises(ValueError):
        uri_to_path("http://example.com/doc")


def test_uri_to_path_takes_file_uris_of_this_host_only():
    assert uri_to_path("file://localhost/tmp/a.sexp") == "/tmp/a.sexp"
    assert uri_to_path("file://LocalHost/tmp/a.sexp") == "/tmp/a.sexp"
    assert uri_to_path("file:/tmp/a.sexp") == "/tmp/a.sexp"
    with pytest.raises(InvalidValue, match="another host: 'remote'"):
        uri_to_path("file://remote/tmp/a.sexp")


def test_file_uri_of_another_host_is_server_error(cli_env):
    uri = "file://remote" + str(cli_env.clean_file)  # the local file exists
    responses = run_server(cli_env, request(SUGGEST_METHOD, request_id=7, params={"uri": uri}))
    assert responses[0]["error"] == {"code": SERVER_ERROR, "message": "file uri names another host: 'remote'"}


# --------------------------------------------------------------------- methods


def test_initialize_reports_capabilities(cli_env):
    responses = run_server(cli_env, request("initialize", request_id=1), request("exit"))
    assert len(responses) == 1
    result = responses[0]["result"]
    assert responses[0]["id"] == 1
    assert result["capabilities"]["suggestNamingProvider"] is True
    assert result["serverInfo"]["name"] == "lemname"


def test_shutdown_returns_null(cli_env):
    responses = run_server(cli_env, request("shutdown", request_id=9), request("exit"))
    assert responses == [{"jsonrpc": "2.0", "id": 9, "result": None}]


def test_eof_terminates_cleanly(cli_env):
    assert run_server(cli_env, request("initialize", request_id=1)) != []


def test_unknown_method_with_id(cli_env):
    responses = run_server(cli_env, request("textDocument/didOpen", request_id=2), request("exit"))
    assert responses[0]["error"]["code"] == METHOD_NOT_FOUND


def test_unknown_notification_is_ignored(cli_env):
    responses = run_server(
        cli_env,
        request("workspace/didChangeConfiguration"),
        request("shutdown", request_id=3),
        request("exit"),
    )
    assert len(responses) == 1
    assert responses[0]["id"] == 3


def test_malformed_json_answers_parse_error_and_stays_alive(cli_env):
    responses = run_server(
        cli_env,
        raw_frame(b"{this is not json"),
        raw_frame(b"[" * 100_000 + b"]" * 100_000),  # nested past the parser's recursion limit
        request("shutdown", request_id=4),
        request("exit"),
    )
    for response in responses[:2]:
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None
    assert responses[2] == {"jsonrpc": "2.0", "id": 4, "result": None}


def test_id_nested_near_the_recursion_limit_leaves_the_session_alive(cli_env):
    # Each depth either parses, then fails as a non-scalar id, or is nested
    # past the parser's limit; somewhere in between, echoing the id back
    # would exceed the serializer's limit.
    frames = [
        raw_frame(b'{"jsonrpc":"2.0","method":"shutdown","id":' + b"[" * depth + b"]" * depth + b"}")
        for depth in range(900, 1001)
    ]
    responses = run_server(cli_env, *frames, request("shutdown", request_id=7), request("exit"))
    assert len(responses) == len(frames) + 1
    codes = [response["error"]["code"] for response in responses[:-1]]
    assert set(codes) <= {INVALID_REQUEST, PARSE_ERROR} and INVALID_REQUEST in codes
    assert all(response["id"] is None for response in responses[:-1])
    assert responses[-1] == {"jsonrpc": "2.0", "id": 7, "result": None}


@pytest.mark.parametrize("request_id", [b"[1]", b'{"a":1}', b"true", b"false", b"NaN", b"-Infinity"])
def test_non_scalar_id_is_invalid_request(request_id, cli_env):
    body = b'{"jsonrpc":"2.0","method":"initialize","id":' + request_id + b"}"
    responses = run_server(cli_env, raw_frame(body), request("shutdown", request_id="s"), request("exit"))
    assert responses[0] == {
        "jsonrpc": "2.0",
        "id": None,
        "error": {"code": INVALID_REQUEST, "message": "id must be a string, a number or null"},
    }
    assert responses[1] == {"jsonrpc": "2.0", "id": "s", "result": None}


@pytest.mark.parametrize("request_id", ["x", 0, -3, 2.5, None])
def test_scalar_ids_are_echoed(request_id, cli_env):
    (response,) = run_server(cli_env, {"jsonrpc": "2.0", "method": "shutdown", "id": request_id}, request("exit"))
    assert response == {"jsonrpc": "2.0", "id": request_id, "result": None}


def test_number_over_the_integer_digit_limit_answers_parse_error(cli_env):
    body = b'{"jsonrpc":"2.0","method":"shutdown","id":' + b"7" * 5000 + b"}"
    responses = run_server(cli_env, raw_frame(body), request("shutdown", request_id=8), request("exit"))
    assert responses[0]["error"]["code"] == PARSE_ERROR and responses[0]["id"] is None
    assert responses[1] == {"jsonrpc": "2.0", "id": 8, "result": None}


def test_invalid_request_missing_jsonrpc(cli_env):
    responses = run_server(cli_env, {"method": "initialize", "id": 5}, request("exit"))
    assert responses[0]["error"]["code"] == INVALID_REQUEST


def test_invalid_request_non_object(cli_env):
    responses = run_server(cli_env, raw_frame(b'["array", "not", "object"]'), request("exit"))
    assert responses[0]["error"]["code"] == INVALID_REQUEST


def test_suggest_naming_requires_uri(cli_env):
    responses = run_server(
        cli_env, request(SUGGEST_METHOD, request_id=6, params={}), request("exit")
    )
    assert responses[0]["error"]["code"] == INVALID_REQUEST


def test_suggest_naming_notification_without_uri_gets_no_reply(cli_env):
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, params={}),
        request(SUGGEST_METHOD),
        request("shutdown", request_id=3),
        request("exit"),
    )
    assert [response["id"] for response in responses] == [3]


def test_suggest_naming_missing_file_is_server_error(cli_env):
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=7, params={"uri": "/nowhere/ghost.lemmas.sexp"}),
        request("shutdown", request_id=8),
        request("exit"),
    )
    assert responses[0]["error"]["code"] == SERVER_ERROR
    assert responses[1]["result"] is None


def test_suggest_naming_on_a_fifo_is_server_error(cli_env, tmp_path):
    # Opening a FIFO that no process writes to blocks forever.
    fifo = tmp_path / "pipe.lemmas.sexp"
    os.mkfifo(fifo)
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=7, params={"uri": fifo.as_uri()}),
        request("shutdown", request_id=8),
        request("exit"),
    )
    assert responses[0]["error"] == {"code": SERVER_ERROR, "message": f"no such lemma-dataset file: {fifo}"}
    assert responses[1]["result"] is None


# Unless uri_to_path rejects them, urlparse or open() raises a bare ValueError on each.
BAD_URIS = ["file://[", "file:///tmp/a%00b", "/tmp/a\x00b", "/tmp/\ud800"]


@pytest.mark.parametrize("uri", BAD_URIS, ids=["ipv6", "escaped-nul", "nul", "surrogate"])
def test_unusable_uri_is_server_error(uri, cli_env):
    responses = run_server(
        cli_env, request(SUGGEST_METHOD, request_id=7, params={"uri": uri}), request("shutdown", request_id=8)
    )
    assert responses[0]["error"]["code"] == SERVER_ERROR
    assert responses[1]["result"] is None


def test_non_utf8_document_is_server_error(cli_env, tmp_path):
    path = tmp_path / "latin1.lemmas.sexp"
    path.write_bytes(cli_env.clean_file.read_bytes() + b"; caf\xe9\n")
    responses = run_server(cli_env, request(SUGGEST_METHOD, request_id=7, params={"uri": path.as_uri()}))
    assert responses[0]["error"]["code"] == SERVER_ERROR
    assert responses[0]["error"]["message"].startswith(f"unreadable document {path.name}: not UTF-8 text")


def test_defect_is_internal_error_and_the_session_goes_on(cli_env, monkeypatch, caplog):
    def defect(self, uri):
        raise KeyError("boom")

    monkeypatch.setattr(DiagnosticServer, "diagnostics", defect)
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=7, params={"uri": str(cli_env.clean_file)}),
        request("shutdown", request_id=8),
    )
    assert responses[0]["error"] == {"code": INTERNAL_ERROR, "message": "internal error: KeyError: 'boom'"}
    assert responses[1]["result"] is None
    assert "Traceback" in caplog.text


def is_exit(body: bytes) -> bool:
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return isinstance(message, dict) and message.get("method") == "exit"


# A frame: which seed request to send, and the edits to its JSON body.
FRAMES = st.tuples(st.integers(0, 2 + len(BAD_URIS)), st.lists(EDITS, max_size=3))


@settings(max_examples=200)
@given(frames=st.lists(FRAMES, min_size=1, max_size=3))
@example(frames=[(i, []) for i in range(3, 3 + len(BAD_URIS))]).via("the unusable uris")
def test_mutated_frames_are_answered_and_the_session_goes_on(frames, cli_env):
    seeds = [
        request("initialize", request_id=1),
        request(SUGGEST_METHOD, request_id=2, params={"uri": cli_env.clean_file.as_uri()}),
        request("shutdown", request_id=3),
        *(request(SUGGEST_METHOD, request_id=4 + i, params={"uri": uri}) for i, uri in enumerate(BAD_URIS)),
    ]
    bodies = [mutated(json.dumps(seeds[index]).encode("utf-8"), edits) for index, edits in frames]
    assume(not any(is_exit(body) for body in bodies))
    probe = request("shutdown", request_id="probe")
    responses = run_server(cli_env, *(raw_frame(body) for body in bodies), probe)
    assert responses[-1] == {"jsonrpc": "2.0", "id": "probe", "result": None}
    for response in responses:
        assert "result" in response or response["error"]["code"] != INTERNAL_ERROR, response


def test_serve_requires_model_path(cli_env):
    with pytest.raises(MissingModel):
        serve(io.BytesIO(b""), io.BytesIO(), ToolConfig())


# ----------------------------------------------------------------- diagnostics


def test_clean_file_yields_no_diagnostics(cli_env):
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=10, params={"uri": str(cli_env.clean_file)}),
        request("exit"),
    )
    assert responses[0]["result"] == []


def test_planted_file_yields_one_diagnostic(cli_env):
    uri = f"file://{cli_env.planted_file}"
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=11, params={"uri": uri}),
        request("exit"),
    )
    diagnostics = responses[0]["result"]
    assert len(diagnostics) == 1
    diagnostic = diagnostics[0]
    assert diagnostic["severity"] == 3
    assert diagnostic["range"] == [0, len(cli_env.planted_name)]
    assert diagnostic["message"].startswith("name does not conform; suggestions: ")
    assert len(diagnostic["data"]) == 5


def test_deep_kernel_tree_is_answered(cli_env, deep_lemma_file):
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=13, params={"uri": str(deep_lemma_file)}),
        request("exit"),
    )
    assert responses[0]["id"] == 13
    assert isinstance(responses[0]["result"], list)


def test_diagnostics_match_cli_report(cli_env):
    responses = run_server(
        cli_env,
        request(SUGGEST_METHOD, request_id=12, params={"uri": str(cli_env.planted_file)}),
        request("exit"),
    )
    diagnostics = responses[0]["result"]
    report = build_suggestion_report(cli_env.model, cli_env.planted_file, 5)
    bad_rows = report.nonconforming
    assert len(diagnostics) == len(bad_rows)
    for diagnostic, row in zip(diagnostics, bad_rows):
        assert diagnostic["file"] == row.file
        assert diagnostic["line"] == row.line
        assert [d["name"] for d in diagnostic["data"]] == [s.name for s in row.suggestions]
        assert [d["score"] for d in diagnostic["data"]] == [s.score for s in row.suggestions]
        names = ", ".join(s.name for s in row.suggestions)
        assert diagnostic["message"] == f"name does not conform; suggestions: {names}"


def test_full_transcript_shapes(cli_env):
    responses = run_server(
        cli_env,
        request("initialize", request_id=0),
        request(SUGGEST_METHOD, request_id=1, params={"uri": str(cli_env.planted_file)}),
        request("shutdown", request_id=2),
        request("exit"),
    )
    assert [r["id"] for r in responses] == [0, 1, 2]
    assert all(r["jsonrpc"] == "2.0" for r in responses)
    assert "result" in responses[0] and "result" in responses[1] and "result" in responses[2]


# ------------------------------------------------------------------ footprint

# A serve session in a fresh interpreter: load the checkpoint, answer one
# suggestNaming, save the checkpoint again, and list the heavy modules loaded.
SESSION = """
import json, sys
from lemname.diagserver import DiagnosticServer
from lemname.model import load_checkpoint, save_checkpoint
path, uri, resaved = sys.argv[1:]
checkpoint = load_checkpoint(path)
diagnostics = DiagnosticServer(checkpoint.to_model(), 5).diagnostics(uri)
save_checkpoint(resaved, checkpoint)
heavy = ("_hashlib", "importlib.resources", "numpy.random")
print(json.dumps({"diagnostics": len(diagnostics), "loaded": [name for name in heavy if name in sys.modules]}))
"""


def test_serve_session_loads_neither_openssl_nor_numpy_random(cli_env, tmp_path):
    # -S keeps site's .pth hooks out, so only what lemname imports is counted
    packages = {str(Path(module.__file__).resolve().parents[1]) for module in (lemname, numpy)}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sorted(packages))}
    resaved = tmp_path / "resaved.ckpt"
    argv = [sys.executable, "-S", "-c", SESSION, str(cli_env.checkpoint_path), str(cli_env.planted_file), str(resaved)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    session = json.loads(child.stdout)
    assert session["diagnostics"] == 1  # the planted lemma
    assert resaved.read_bytes() == cli_env.checkpoint_path.read_bytes()
    loaded = set(session["loaded"])
    assert not loaded & {"importlib.resources", "numpy.random"}
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256, so checkpoints are hashed through hashlib")
    assert "_hashlib" not in loaded
