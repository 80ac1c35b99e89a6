"""``repro-worker``: the pull-based remote worker process.

One worker = one TCP connection to a coordinator
(:class:`~repro.exec.distributed.Coordinator`).  The loop is the
simplest correct one — *pull, execute, push*::

    hello  ->  welcome | reject
    get    ->  task | wait | shutdown
    result ->  ack | reject

The worker never holds more than one task (the coordinator's lease is
the unit of fault tolerance: if this process dies mid-run, the lease
expires — or the connection drop is noticed sooner — and the task is
requeued elsewhere).  Task code is resolved by *reference*
(``module:qualname``, default ``repro.measure.api:measure_spec``)
rather than shipped as pickled code, so worker and coordinator must
run the same library version — which the handshake enforces (it is
:func:`~repro.exec.protocol.connect_back`, shared with fleet clients).

Defence in depth: before running a spec the worker recomputes its
content digest and refuses the task on mismatch (a corrupt frame or a
version skew would otherwise poison the digest-keyed result merge);
the coordinator independently re-verifies the digest on receipt.
Reported task errors carry the exception *type name* so the
coordinator can classify transient (``MemoryError``/``OSError``/
pickle transport) from deterministic failures and apply its retry
budget accordingly.

Fault injection (chaos testing only): ``--fault-plan`` accepts a
serialized ``repro.faults.FaultPlan``; the worker then consults the
deterministic injector at three hook points — ``worker.task`` (crash
/ hang / slowdown before executing), ``worker.result`` (corrupt the
echoed digest), ``worker.send`` (drop or truncate the result frame) —
all no-ops in production.

Start one by hand against a remote coordinator::

    repro-worker --connect 10.0.0.5:7781
    python -m repro.exec.worker --connect 10.0.0.5:7781 --max-tasks 100

or let :class:`~repro.exec.distributed.LocalClusterExecutor` spawn
local ones for you (:func:`~repro.exec.supervise.spawn_child`).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
import traceback
from typing import Callable, List, Optional

from .protocol import (
    ProtocolError,
    connect_back,
    recv_msg,
    resolve_task,
    send_msg,
    task_reference,  # noqa: F401 - historical import location
)
from .supervise import fire_hook

__all__ = ["serve", "main"]


def _verify_spec_digest(spec: object, expected: str) -> None:
    """Recompute the spec digest locally; raise on mismatch."""
    if not expected:
        return
    method = getattr(spec, "digest", None)
    if not callable(method):
        return
    actual = method()
    if actual != expected:
        raise ProtocolError(
            f"spec digest mismatch: coordinator sent {expected[:12]}, "
            f"local recompute is {actual[:12]} (version skew or corruption)"
        )


# ----------------------------------------------------------------------
# the serve loop
# ----------------------------------------------------------------------
def serve(
    host: str,
    port: int,
    name: Optional[str] = None,
    max_tasks: Optional[int] = None,
    connect_timeout: float = 10.0,
    injector: Optional[object] = None,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr, flush=True),
) -> int:
    """Connect to a coordinator and pull tasks until told to stop.

    Returns the number of tasks completed (useful for tests and for
    ``--max-tasks`` batch workers).  ``injector`` is the deterministic
    fault-injection hook (``repro.faults.FaultInjector``); None in
    production.  ``connect_timeout`` bounds the connect and the
    handshake: a coordinator that accepts TCP but never replies raises
    instead of hanging.
    """
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    sock = connect_back(host, port, worker_name, connect_timeout)
    sock.settimeout(None)
    completed = 0
    try:
        task_cache: dict = {}
        while max_tasks is None or completed < max_tasks:
            try:
                send_msg(sock, {"type": "get"})
                msg = recv_msg(sock)
            except (OSError, ProtocolError):
                # The coordinator went away between tasks.  For a pull
                # worker that *is* the shutdown signal — exit cleanly;
                # any lease we held is requeued by the lease machinery.
                break
            if msg is None or msg.get("type") == "shutdown":
                break
            if msg.get("type") == "wait":
                time.sleep(float(msg.get("poll_s", 0.05)))
                continue
            if msg.get("type") != "task":
                raise ProtocolError(f"unexpected message {msg.get('type')!r}")

            task_ref = str(msg["task_ref"])
            task = task_cache.get(task_ref)
            if task is None:
                task = task_cache[task_ref] = resolve_task(task_ref)
            spec = msg["spec"]
            digest = str(msg.get("digest", ""))

            # ---- hook: worker.task (crash / hang / slow) -------------
            action = fire_hook(injector, "worker.task")
            kind = getattr(action, "kind", None)
            if kind == "worker_crash":
                log(f"[repro-worker {worker_name}] injected worker_crash")
                os._exit(17)  # simulates kill -9 / OOM-kill: no cleanup
            elif kind in ("worker_hang", "slow_worker"):
                # A hang outlives the lease (the coordinator requeues
                # and this result lands late); a slowdown does not.
                time.sleep(float(getattr(action, "seconds", 0.0)))

            try:
                _verify_spec_digest(spec, digest)
                t0 = time.perf_counter()
                result = task(spec)
                wall_s = time.perf_counter() - t0
            except BaseException as err:
                # Report with the exception type so the coordinator can
                # classify transient (retry budget) vs deterministic
                # (fail fast) failures.
                try:
                    send_msg(
                        sock,
                        {
                            "type": "error",
                            "task_id": msg["task_id"],
                            "digest": digest,
                            "error": repr(err),
                            "error_type": type(err).__name__,
                            "traceback": traceback.format_exc(),
                        },
                    )
                    recv_msg(sock)  # ack
                except (OSError, ProtocolError):
                    break
                continue

            # ---- hook: worker.result (poison the digest echo) --------
            action = fire_hook(injector, "worker.result")
            if getattr(action, "kind", None) == "corrupt_result":
                digest = "0" * 64  # coordinator must reject + requeue

            # ---- hook: worker.send (drop / truncate the frame) -------
            send_fault = None
            action = fire_hook(injector, "worker.send")
            if getattr(action, "kind", None) in ("drop_frame", "truncate_frame"):
                send_fault = action.kind
            try:
                send_msg(
                    sock,
                    {
                        "type": "result",
                        "task_id": msg["task_id"],
                        "digest": digest,
                        "result": result,
                        "wall_s": wall_s,
                        "worker": worker_name,
                    },
                    fault=send_fault,
                )
                if send_fault is not None:
                    # The frame is gone or torn: abandon the connection
                    # (exactly what a dying link looks like) and exit;
                    # the lease machinery requeues, respawn replaces us.
                    log(
                        f"[repro-worker {worker_name}] injected {send_fault}; "
                        "abandoning connection"
                    )
                    break
                recv_msg(sock)  # ack | reject (coordinator requeues on reject)
            except (OSError, ProtocolError):
                break  # coordinator gone mid-result: lease machinery recovers
            completed += 1
    finally:
        sock.close()
    return completed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Pull-based worker for the repro cluster executor.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (printed by the cluster executor)",
    )
    parser.add_argument(
        "--name", default=None, help="worker name reported to the coordinator"
    )
    parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N tasks (default: run until shutdown)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON|PATH",
        help=(
            "chaos testing: serialized repro.faults.FaultPlan (JSON text "
            "or a file path); injects deterministic faults at the "
            "worker hook points"
        ),
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect must be HOST:PORT, got {args.connect!r}")
    try:
        injector = None
        if args.fault_plan:
            from ..faults.plan import FaultPlan  # chaos only: never at load time

            injector = FaultPlan.load(args.fault_plan).injector()
        serve(
            host,
            int(port_text),
            name=args.name,
            max_tasks=args.max_tasks,
            injector=injector,
        )
    except (ProtocolError, OSError) as err:
        print(f"[repro-worker] {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
