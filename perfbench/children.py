"""Child processes the benchmark starts: the reference server and the
setup probes.  Every child is killed when the benchmark finishes, fails,
times out or is interrupted, and the kernel kills it too if the
benchmark itself dies (``PR_SET_PDEATHSIG``)."""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

__all__ = ["ChildError", "RefServer", "read_line", "spawn", "stop", "proc_cpu_seconds"]

_PR_SET_PDEATHSIG = 1


class ChildError(RuntimeError):
    """A child failed to start or answer in time (attributed, never a hang)."""


def _die_with_parent() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):  # non-Linux: rely on stop()
        pass


def spawn(argv: List[str], root: str, stderr_path: str) -> subprocess.Popen:
    """Start ``argv`` from ``root`` with ``root/src`` importable."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(stderr_path, "ab") as err:
        return subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            preexec_fn=_die_with_parent,
        )


def read_line(proc: subprocess.Popen, deadline: float, what: str) -> str:
    """The child's next stdout line, or :class:`ChildError` at ``deadline``
    (``time.monotonic`` seconds) or when the child exits first."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError(f"{what}: no answer before the deadline")
        ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
        if not ready:
            if proc.poll() is not None:
                raise ChildError(f"{what}: exited with code {proc.returncode} before answering")
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            proc.wait(timeout=5)
            raise ChildError(f"{what}: exited with code {proc.returncode} before answering")
        buf += chunk
        if b"\n" in buf:
            return buf.split(b"\n", 1)[0].decode("utf-8", "replace")


def stop(proc: Optional[subprocess.Popen], grace_s: float = 2.0) -> None:
    """Terminate, then kill, and always reap ``proc``."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5); the split drops the first two.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class RefServer:
    """``python -m repro.live.refserver`` as a child process with a
    constant service time; ready once a ``ping`` is answered."""

    def __init__(self, root: str, service_us: float, seed: int, log_path: str):
        self.root = root
        self.service_us = service_us
        self.seed = seed
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.target = ""

    def spawn(self) -> None:
        service = json.dumps({"type": "constant", "value": self.service_us})
        self.proc = spawn(
            [sys.executable, "-m", "repro.live.refserver", "--port", "0",
             "--service", service, "--seed", str(self.seed)],
            self.root,
            self.log_path,
        )

    def wait_ready(self, ping, timeout_s: float) -> None:
        """Block until the server answers a ping; ``ping(target)`` is the
        library's ``repro.live.driver.ping``."""
        deadline = time.monotonic() + timeout_s
        line = read_line(self.proc, deadline, "refserver")
        prefix = "refserver listening on "
        if not line.startswith(prefix):
            raise ChildError(f"refserver: unexpected first line {line!r}")
        self.target = line[len(prefix):].strip()
        last_error = None
        while time.monotonic() < deadline:
            try:
                ping(self.target, timeout_s=max(0.1, deadline - time.monotonic()))
                return
            except (RuntimeError, OSError) as exc:  # LiveMeasurementError: retry
                last_error = exc
                time.sleep(0.05)
        raise ChildError(f"refserver at {self.target}: no ping answer ({last_error})")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def close(self) -> None:
        stop(self.proc)
        self.proc = None
