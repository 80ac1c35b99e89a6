"""Supervised child processes: the lifecycle both supervisors share.

:class:`~repro.exec.distributed.LocalClusterExecutor` (cluster
workers) and :class:`~repro.live.fleet.FleetRun` (live clients) start
children with :func:`spawn_child` and stop them with
:func:`stop_children`; the children connect back through
:func:`~repro.exec.protocol.connect_back`.  Respawn policies stay with
each supervisor.  Stdlib only: ``import repro`` loads this module.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Iterable, Optional, Sequence

__all__ = ["spawn_child", "stop_children", "fire_hook"]

#: The directory holding the running ``repro`` package.
_PACKAGE_PARENT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def spawn_child(module: str, args: Sequence[str]) -> subprocess.Popen:
    """Run ``python -m <module> <args>`` with stdout discarded.

    The child's ``PYTHONPATH`` lists this ``repro`` package's parent
    first, then every non-empty ``sys.path`` entry of this process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_PACKAGE_PARENT, *(p for p in sys.path if p)])
    return subprocess.Popen(
        [sys.executable, "-m", module, *args], env=env, stdout=subprocess.DEVNULL
    )


def stop_children(procs: Iterable[subprocess.Popen], grace_s: float) -> None:
    """Terminate every child, wait for all, kill any still running.

    The wait is one shared ``grace_s`` deadline; ``0`` kills at once.
    """
    procs = list(procs)
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    deadline = time.monotonic() + grace_s
    for proc in procs:
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def fire_hook(injector: Optional[object], site: str) -> Optional[object]:
    """Consult a fault injector at a hook point (no-op without one)."""
    fire = getattr(injector, "fire", None)
    return fire(site) if fire is not None else None
