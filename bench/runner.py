"""Run CLI calls in child processes, time them and check their output.

Each call is `sys.executable -m hanoilang` against the checkout's src/,
started by spawner.py so that its rusage is its own: the spawner reaps it
with os.wait4 (RUSAGE_CHILDREN would carry the highest peak of any earlier
child into every later reading).
"""

import hashlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Digest, Template

CALL_TIMEOUT_S = 45.0


@dataclass(frozen=True)
class Result:
    wall_s: float
    peak_rss_kb: int
    ok: bool
    reason: str  # why the call failed; empty when ok
    reported_s: float | None  # the CLI's own elapsed figure(s), summed


def child_env(root: Path) -> dict:
    """The caller's environment without PYTHON* settings, which would change
    what is measured (PYTHONUNBUFFERED makes every printed line a write;
    PYTHONDONTWRITEBYTECODE recompiles the package on every call)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Launcher:
    """Owns the spawner process; close() stops it and waits for it."""

    def __init__(self, root: Path):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(theirs.fileno())],
            cwd=root, env=child_env(root), pass_fds=(theirs.fileno(),))
        theirs.close()

    def close(self) -> None:
        self.sock.close()
        try:
            self.spawner.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def run(self, op) -> Result:
        keep = not isinstance(op.stdout, Digest)
        digest = hashlib.sha256()
        chunks, errors = [], []
        pipes = [os.pipe() for _ in range(3)]  # stdin, stdout, stderr
        ours = [pipes[0][1], pipes[1][0], pipes[2][0]]
        theirs = [pipes[0][0], pipes[1][1], pipes[2][1]]
        argv = [sys.executable, "-m", "hanoilang", *op.argv]
        started = time.perf_counter()
        try:
            socket.send_fds(self.sock, ["\0".join(argv).encode()], theirs)
        finally:
            for fd in theirs:
                os.close(fd)
        stdout, stderr = open(ours[1], "rb"), open(ours[2], "rb")
        with stdout, stderr:
            pid = int(self.sock.recv(64) or -1)
            if pid < 0:
                os.close(ours[0])
                raise RuntimeError("the spawner stopped")
            killer = threading.Timer(CALL_TIMEOUT_S, _kill, (pid,))
            helpers = [threading.Thread(target=lambda: errors.append(stderr.read())),
                       threading.Thread(target=_feed, args=(ours[0], op.stdin or b""))]
            killer.start()
            for helper in helpers:
                helper.start()
            while chunk := stdout.read(1 << 16):
                if keep:
                    chunks.append(chunk)
                else:
                    digest.update(chunk)
            for helper in helpers:
                helper.join()
            reply = self.sock.recv(64)
            wall = time.perf_counter() - started
            killer.cancel()
        if not reply:
            raise RuntimeError("the spawner stopped")
        exit_code, peak_rss_kb = map(int, reply.split())
        ok, reason, reported = check(op, exit_code, b"".join(chunks) if keep else digest.hexdigest(),
                                     b"".join(errors))
        return Result(wall, peak_rss_kb, ok, reason, reported)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _feed(fd: int, data: bytes) -> None:
    """Write the child's stdin and close it."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass  # the child stopped reading; its verdict shows what it saw
    finally:
        os.close(fd)


def check(op, exit_code: int, stdout, stderr: bytes) -> tuple[bool, str, float | None]:
    """Compare one call against the reference: (ok, reason, reported seconds)."""
    if b"Traceback" in stderr:
        return False, "traceback on stderr", None
    if exit_code != op.exit_code:
        return False, f"exit {exit_code}, expected {op.exit_code}", None
    reported = []
    for name, want, got in (("stdout", op.stdout, stdout), ("stderr", op.stderr, stderr)):
        if isinstance(want, Template):
            numbers = want.match(got)
            if numbers is None:
                return False, f"{name} differs from the reference", None
            reported += numbers
        elif isinstance(want, Digest):
            if got != want.hexdigest:
                return False, f"{name} digest differs from the reference", None
        elif got != want:
            return False, f"{name} differs from the reference", None
    return True, "", sum(reported) / 1000.0 if reported else None
