"""Run each op in a child forked from a pristine server process.

``OpServer`` forks a server right after ``hilbtaut`` is imported, before
the benchmark runs any code of its own.  The server never runs an op; it
forks one child per request, so every child starts in the state of a
fresh ``hilbtaut`` process that has finished importing: cold
per-process caches and unspecialised bytecode.  Interpreter start-up is
not paid per op.  The benchmark process itself (argument parsing,
output checks, statistics) may warm any shared library code without
affecting the children, which it would if it forked them directly.

Only one child exists at a time.  The child times ``cli.main(argv)``,
captures stdout and stderr, and sends them, with its spans when traced,
straight to the benchmark process; the server then reaps it and sends
its exit status and peak RSS.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import struct
import sys
import time
import traceback
from dataclasses import dataclass

from tracing import Tracer, install

#: a child still running after this long is killed by SIGALRM
OP_TIMEOUT_S = 40

_HEADER = struct.Struct("<Q")


@dataclass
class OpResult:
    code: int | None
    wall_s: float
    stdout: str
    stderr: str
    spans: list | None
    max_rss_kb: int
    #: host speed around the op relative to a reference speed
    speed: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


def _send(fd: int, message: object) -> None:
    data = pickle.dumps(message)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int) -> object:
    """Next message on ``fd``; None at end of file."""
    chunks, want, size = [], _HEADER.size, None
    while want:
        chunk = os.read(fd, min(want, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        want -= len(chunk)
        if want == 0 and size is None:
            (size,) = _HEADER.unpack(b"".join(chunks))
            chunks, want = [], size
    # pickles here come only from this benchmark's own server and children
    return pickle.loads(b"".join(chunks))


def _child(cli, argv: list[str], tracer: Tracer | None, results: int) -> None:
    signal.alarm(OP_TIMEOUT_S)
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed op, never raised in the parent
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    spans = tracer.spans if tracer is not None else None
    _send(results, ("op", code, wall, out.getvalue(), err.getvalue(), spans))


def _serve(cli, requests: int, results: int) -> None:
    tracer: Tracer | None = None
    uninstall = None
    while (request := _recv(requests)) is not None:
        argv, traced = request
        if traced and tracer is None:
            tracer = Tracer()
            uninstall = install(tracer)
        elif not traced and tracer is not None:
            uninstall()
            tracer = None
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                _child(cli, argv, tracer, results)
            finally:
                os._exit(0)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
        _send(results, ("exit", status, usage.ru_maxrss, elapsed))


class OpServer:
    """Handle on the forking server; use as a context manager."""

    def __init__(self, cli):
        sys.stdout.flush()
        sys.stderr.flush()
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(request_w)
                os.close(result_r)
                _serve(cli, request_r, result_w)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(result_w)
        self.pid = pid
        self._requests = request_w
        self._results = result_r

    def run(self, argv: list[str], traced: bool = False) -> OpResult:
        """Run one op in a fresh child and wait for it to end."""
        _send(self._requests, (list(argv), traced))
        op = None
        while True:
            message = _recv(self._results)
            if message is None:
                raise RuntimeError("op server exited unexpectedly")
            if message[0] == "exit":
                break
            op = message
        _, status, max_rss_kb, elapsed = message
        if op is None:
            reason = f"child ended with wait status {status} and sent no result"
            return OpResult(None, elapsed, "", reason, None, max_rss_kb)
        _, code, wall, stdout, stderr, spans = op
        return OpResult(code, wall, stdout, stderr, spans, max_rss_kb)

    def close(self) -> None:
        """Stop the server and wait for it; a child still writing its
        result gets a broken pipe and exits too."""
        if self._requests >= 0:
            os.close(self._requests)
            os.close(self._results)
            self._requests = -1
            os.waitpid(self.pid, 0)

    def __enter__(self) -> "OpServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
