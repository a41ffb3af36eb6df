import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from codeweft.corpus import (
    USER_AGENT,
    example_path,
    fetch_manifest,
    read_manifest,
    read_rfiles,
    recital,
)
from codeweft.errors import HttpError, IoError
from codeweft.parser import parse_expr
from codeweft.rast import Call, StringLit

BOM = b"\xef\xbb\xbf"

EXAMPLE_6_CODE = """
4 + 4
"wow!"
mean(1:10)
stop("Error!")
warning("Warning!")
message("Hello?")
cat("Welcome!")
"""


class _Handler(BaseHTTPRequestHandler):
    routes = {}
    agents = []
    hits = []
    fail_once = set()
    fail_always = set()

    def do_GET(self):
        _Handler.agents.append(self.headers.get("User-Agent"))
        _Handler.hits.append(self.path)
        if self.path in _Handler.fail_once or self.path in _Handler.fail_always:
            _Handler.fail_once.discard(self.path)
            self.send_response(500)
            self.end_headers()
            return
        if self.path in self.routes:
            body = self.routes[self.path]
            if isinstance(body, str):
                body = body.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    httpd.server_close()


def test_read_local_files(example_scripts):
    result = read_rfiles(example_scripts)
    assert not result.errors
    assert len(result.records) == 9
    assert [r.line for r in result.records] == [1, 2, 3, 4, 5, 6, 7, 1, 2]


def test_missing_file_is_isolated(example_scripts, tmp_path):
    # a directory and a missing file are one I/O error each; the next source keeps its records
    result = read_rfiles([str(tmp_path), "/no/such/file.R", example_scripts[0]])
    assert [type(err) for err in result.errors] == [IoError, IoError]
    assert [str(err) for err in result.errors] == [
        f"{tmp_path}: Is a directory", "/no/such/file.R: No such file or directory"
    ]
    assert len(result.records) == 7


def test_syntax_error_is_isolated(tmp_path):
    bad = tmp_path / "bad.R"
    bad.write_text("x <- ) oops\ny <- 1\n")
    result = read_rfiles([str(bad)])
    assert len(result.errors) == 1
    assert str(bad) in str(result.errors[0])
    assert result.errors[0].source == str(bad)
    assert len(result.records) == 1


def test_non_utf8_file(tmp_path):
    blob = tmp_path / "latin.R"
    blob.write_bytes(b"x <- '\xff\xfe'\n")
    result = read_rfiles([str(blob)])
    assert result.errors and isinstance(result.errors[0], IoError)


def test_recital_string():
    result = recital(EXAMPLE_6_CODE)
    assert not result.errors
    assert len(result.records) == 7
    assert isinstance(result.records[1].expr, StringLit)
    assert all(
        isinstance(r.expr, Call) for i, r in enumerate(result.records) if i != 1
    )
    assert all(r.file == "<string>" for r in result.records)


def test_fetch_url(server):
    _Handler.routes["/a.R"] = "x <- 1\n"
    result = read_rfiles([f"{server}/a.R"])
    assert not result.errors
    assert len(result.records) == 1
    assert result.records[0].file.endswith("/a.R")


def test_user_agent_is_sent(server):
    _Handler.routes["/ua.R"] = "x\n"
    _Handler.agents.clear()
    read_rfiles([f"{server}/ua.R"])
    assert _Handler.agents == [USER_AGENT]
    assert USER_AGENT.startswith("codeweft/")


def test_http_error_status(server):
    result = read_rfiles([f"{server}/missing.R"])
    assert len(result.errors) == 1
    err = result.errors[0]
    assert isinstance(err, HttpError)
    assert err.status == 404


def test_retry_after_transient_failure(server):
    _Handler.routes["/flaky.R"] = "y <- 2\n"
    _Handler.fail_once.add("/flaky.R")
    result = read_rfiles([f"{server}/flaky.R"], retries=2)
    assert not result.errors
    assert len(result.records) == 1


def test_refused_connection_has_no_status():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    result = read_rfiles([f"http://127.0.0.1:{port}/a.R"])
    assert len(result.errors) == 1
    err = result.errors[0]
    assert isinstance(err, HttpError)
    assert err.status is None
    assert str(err).startswith(f"http://127.0.0.1:{port}/a.R: ")


def test_persistent_failure_retries_then_raises(server, monkeypatch):
    delays = []
    monkeypatch.setattr("codeweft.corpus.time.sleep", delays.append)
    _Handler.fail_always.add("/down.R")
    _Handler.hits.clear()
    result = read_rfiles([f"{server}/down.R"], retries=2)
    assert [type(e) for e in result.errors] == [HttpError]
    assert result.errors[0].status == 500
    assert _Handler.hits == ["/down.R"] * 3
    assert delays == [0.5, 1.0]


def test_byte_order_mark_is_dropped_from_a_url(server):
    _Handler.routes["/bom.R"] = BOM + b"x <- 1\n"
    result = read_rfiles([f"{server}/bom.R"])
    assert not result.errors
    assert [r.expr for r in result.records] == [parse_expr("x <- 1")]
    assert result.records[0].expr.span.start_col == 1
    _Handler.routes["/bom-latin.R"] = BOM + b"x <- '\xff'\n"
    result = read_rfiles([f"{server}/bom-latin.R"])
    assert not result.errors
    assert result.records[0].expr.args[1].value == StringLit("\ufffd")


def test_non_utf8_body_is_replaced(server):
    _Handler.routes["/latin.R"] = b"x <- '\xff'\n"
    result = read_rfiles([f"{server}/latin.R"])
    assert not result.errors
    assert result.records[0].expr.args[1].value == StringLit("\ufffd")


def test_read_manifest(tmp_path):
    mf = tmp_path / "sources.txt"
    mf.write_text("# comment\na.R\n\nb.R  # trailing\n")
    assert read_manifest(str(mf)) == ["a.R", "b.R"]


def test_fetch_manifest_order(server, tmp_path, example_scripts):
    _Handler.routes["/one.R"] = "a1\na2\n"
    _Handler.routes["/two.R"] = "b1\n"
    mf = tmp_path / "m.txt"
    mf.write_text(
        f"{server}/two.R\n{example_scripts[1]}\n{server}/one.R\n"
    )
    result = fetch_manifest(str(mf), concurrency=3)
    files = [r.file for r in result.records]
    assert files == (
        [f"{server}/two.R"]
        + [example_scripts[1]] * 2
        + [f"{server}/one.R"] * 2
    )


def test_fetch_manifest_isolates_errors(server, tmp_path):
    _Handler.routes["/ok.R"] = "fine <- 1\n"
    mf = tmp_path / "m.txt"
    mf.write_text(f"{server}/gone.R\n{server}/ok.R\n")
    result = fetch_manifest(str(mf))
    assert len(result.errors) == 1
    assert len(result.records) == 1


def test_fetch_manifest_rejects_bad_concurrency(tmp_path):
    mf = tmp_path / "m.txt"
    mf.write_text("")
    with pytest.raises(ValueError):
        fetch_manifest(str(mf), concurrency=0)


def test_example_path_listing():
    names = example_path()
    assert "example_analysis.R" in names
    assert "example_plot.R" in names
    with pytest.raises(IoError):
        example_path("nope.R")
