"""The service under test and the load that drives it.

:class:`Server` runs ``python -m repro serve`` as a subprocess on an
ephemeral port and reads its memory and CPU from ``/proc``.  The load
comes from this one process: at most two threads, each holding at most
one connection (the server closes every connection after one response).

:func:`closed_loop` sends each caller's next op when its last one is
answered.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from e2ebench.common import die_with_parent

_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve --workers 2`` subprocess."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Start the server and wait until ``/healthz`` answers."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, preexec_fn=die_with_parent,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")
            match = _LISTEN_RE.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        while True:
            try:
                status, doc = request(self.port, b"GET /healthz HTTP/1.1\r\n\r\n")
                if status == 200 and doc.get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None

    def get(self, path: str) -> dict:
        status, doc = request(self.port, f"GET {path} HTTP/1.1\r\n\r\n".encode())
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return doc

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MiB."""
        return _vm_hwm_kib(f"/proc/{self.proc.pid}/status") / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def self_peak_rss_mib() -> float:
    return _vm_hwm_kib("/proc/self/status") / 1024.0


def _vm_hwm_kib(path: str) -> int:
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in {path}")


# -- one request -----------------------------------------------------------
def post_bytes(body: bytes) -> bytes:
    return (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def request(port: int, raw: bytes, timeout: float = 120.0) -> tuple[int, dict]:
    """Send one raw request; return (status, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


@dataclass
class Op:
    """One request as the load generator saw it (times: perf_counter s)."""

    index: int
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: never answered
    doc: dict = field(default_factory=dict)
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def _send(port: int, raw: bytes, op: Op) -> None:
    op.sent = time.perf_counter()
    try:
        op.status, op.doc = request(port, raw)
    except (OSError, ValueError, IndexError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.done = time.perf_counter()


def _run_threads(target, callers: int) -> None:
    """Run the callers to the end with the collector paused, so a
    collection in this process never delays a send."""
    threads = [threading.Thread(target=target, daemon=True) for _ in range(callers)]
    gc.collect()
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
            if t.is_alive():
                raise RuntimeError("load generator thread did not finish")
    finally:
        gc.enable()


def closed_loop(port: int, bodies: list[bytes], seconds: float, *, callers: int = 2) -> list[Op]:
    """Work through ``bodies`` in order with ``callers`` callers until the
    time is up (ops in flight then finish; at least one op is sent);
    returns the ops started."""
    raws = [post_bytes(b) for b in bodies]
    ops: list[Op] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def caller() -> None:
        while True:
            with lock:
                i = len(ops)
                if i >= len(raws) or (ops and time.perf_counter() >= deadline):
                    return
                op = Op(index=i)
                ops.append(op)
            _send(port, raws[i], op)

    _run_threads(caller, callers)
    return ops

