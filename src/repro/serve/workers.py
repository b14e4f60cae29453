"""Worker processes for the replica cluster: protocol, handle, main loop.

One replica = one OS process owning a full single-process
:class:`~repro.serve.deployment.Deployment` (its own plan cache, arena
and split pipeline).  The parent talks to it over a duplex
``multiprocessing`` pipe with a tiny framed protocol:

========  =======================================  =========================
request   payload                                  reply
========  =======================================  =========================
infer     ``(seq, wire-encoded image batch)``      ``("ok", seq, {task: ndarray})``
ping      ``(nonce,)``                             ``("pong", nonce)``
stats     ``()``                                   ``("stats", dict)``
stop      ``()``                                   ``("bye",)`` then exit 0
========  =======================================  =========================

Image batches cross the pipe framed by the existing ``repro.serve`` wire
codec (:func:`~repro.deployment.wire.encode_tensor`) — the same
self-describing tensor frames ``Z_b`` uses on the simulated channel.  At
the micro-batch sizes the batcher dispatches, a pipe write of one codec
frame measured as fast as a ``shared_memory`` segment handoff on this
host (the copy is dwarfed by edge compute), so the simpler transport
won; the codec keeps the frame format shared with the wire layer either
way.

Worker-side *model* faults (the PR 6 ``FaultPlan``) keep working
unchanged: each worker's deployment injects its own channel faults.
Worker *process* faults (SIGKILL) are injected by the router from a
:class:`~repro.serve.faults.WorkerFaultPlan` — a killed worker gets no
chance to say goodbye, which is exactly the failure mode the supervisor
(:mod:`repro.serve.supervise`) exists to detect.

A replica that dies mid-request surfaces as :class:`WorkerDiedError` on
the parent's pipe (EOF/broken pipe) — the router's failover signal.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..deployment.wire import WireFormat, decode_tensor, encode_tensor

__all__ = ["WorkerDiedError", "WorkerHandle", "spawn_worker"]

#: Wire format used to frame image batches across the worker pipe.  The
#: parent re-encodes to float32 regardless of the deployment's Z_b wire
#: setting: the pipe is a local transport, not the modelled channel.
_PIPE_WIRE = WireFormat("float32")


class WorkerDiedError(RuntimeError):
    """The replica process died (or its pipe broke) mid-conversation.

    The router treats this as the failover trigger: the request is
    idempotent, so it re-dispatches to a healthy replica while the
    supervisor restarts the dead one.
    """


def _start_context() -> multiprocessing.context.BaseContext:
    """The cluster's process-start context.

    ``fork`` when the platform offers it (workers inherit the imported
    module tree, so restarts are fast — milliseconds, not a fresh
    interpreter plus numpy import); ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(conn, spec_payload: Dict[str, Any]) -> None:
    """Entry point of one replica process.

    Builds a single-process deployment from the serialised spec (with
    ``replicas`` forced to 1 — a worker must never recurse into a
    cluster; the payload's count only sizes this worker's share of the
    host's cores) and serves the pipe protocol until told to stop or the
    parent disappears.
    """
    # Deliberately late imports: under the spawn start method this
    # function is the first thing the fresh interpreter runs.
    from .deployment import Deployment
    from .spec import DeploymentSpec

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent drives shutdown
    spec = DeploymentSpec.from_dict({**spec_payload, "replicas": 1})
    with Deployment(spec, host_replicas=spec_payload["replicas"]) as deployment:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died or hung up: exit quietly
            kind = message[0]
            if kind == "infer":
                seq, frame = message[1], message[2]
                try:
                    images = decode_tensor(frame)
                    logits = deployment.infer(images)
                    reply = ("ok", seq, {k: np.asarray(v) for k, v in logits.items()})
                except BaseException as error:  # report, keep serving
                    reply = ("err", seq, f"{type(error).__name__}: {error}")
                conn.send(reply)
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "stats":
                conn.send(("stats", _deployment_stats(deployment)))
            elif kind == "stop":
                conn.send(("bye",))
                break
            else:  # unknown message: loud, not silent
                conn.send(("err", None, f"unknown message kind {kind!r}"))
    conn.close()


def _deployment_stats(deployment) -> Dict[str, Any]:
    """Worker-side accounting snapshot shipped to the router on request."""
    traces = deployment.traces
    fault = deployment.fault_stats
    plan = deployment.pipeline._plan_accounting()
    spec_digest, plan_digest = deployment.provenance()
    return {
        "pid": os.getpid(),
        "spec_digest": spec_digest,
        "plan_digest": plan_digest,
        "batches": len(traces),
        "images": int(sum(t.batch_size for t in traces)),
        "edge_seconds": float(sum(t.edge_seconds for t in traces)),
        "transfer_seconds": float(sum(t.transfer_seconds for t in traces)),
        "server_seconds": float(sum(t.server_seconds for t in traces)),
        "plan": plan,
        "fault_stats": {
            "retries": fault.retries,
            "drops": fault.drops,
            "corruptions": fault.corruptions,
            "delays": fault.delays,
            "down_events": fault.down_events,
            "recoveries": fault.recoveries,
            "server_crashes": fault.server_crashes,
        },
        "fallback_batches": deployment.pipeline.fallback_batches,
        "fallback_seconds": deployment.pipeline.fallback_seconds,
        "degraded": deployment.degraded,
    }


class WorkerHandle:
    """Parent-side handle on one replica process.

    Owns the process object and the parent end of its pipe.  All pipe
    conversations go through :meth:`_roundtrip`, which converts a dead
    peer (EOF, broken pipe, closed connection) into
    :class:`WorkerDiedError` so callers see one failover signal instead
    of three flavours of OSError.  Handles are not thread-safe per call
    — the router leases a handle to exactly one dispatcher at a time.
    """

    def __init__(self, process, conn, slot: int, generation: int = 0):
        self.process = process
        self.conn = conn
        self.slot = slot                # replica position in the cluster
        self.generation = generation    # restarts of this slot before us
        self.dispatches = 0             # micro-batches served via this handle
        self.started_at = time.monotonic()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()

    # -- protocol ------------------------------------------------------
    def _roundtrip(self, message: Tuple, timeout: Optional[float] = None):
        try:
            self.conn.send(message)
            if timeout is not None and not self.conn.poll(timeout):
                raise WorkerDiedError(
                    f"replica {self.slot} (pid {self.pid}) did not answer "
                    f"{message[0]!r} within {timeout:g}s"
                )
            return self.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerDiedError(
                f"replica {self.slot} (pid {self.pid}) died mid-"
                f"{message[0]}: {type(error).__name__}"
            ) from None

    def begin_infer(self, images: np.ndarray) -> int:
        """Ship one micro-batch to the replica without waiting for the
        reply; returns the request sequence number.

        Split from :meth:`finish_infer` so the chaos injector can SIGKILL
        the replica *between* dispatch and completion — a true in-flight
        crash, the hardest failover case.
        """
        frame = encode_tensor(np.asarray(images, dtype=np.float32), _PIPE_WIRE)
        self.dispatches += 1
        seq = self.dispatches
        try:
            self.conn.send(("infer", seq, frame))
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerDiedError(
                f"replica {self.slot} (pid {self.pid}) died before dispatch: "
                f"{type(error).__name__}"
            ) from None
        return seq

    def finish_infer(
        self, seq: int, timeout: Optional[float] = None
    ) -> Dict[str, np.ndarray]:
        """Collect the reply for :meth:`begin_infer`'s request ``seq``."""
        try:
            if timeout is not None and not self.conn.poll(timeout):
                raise WorkerDiedError(
                    f"replica {self.slot} (pid {self.pid}) did not answer "
                    f"infer #{seq} within {timeout:g}s"
                )
            reply = self.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerDiedError(
                f"replica {self.slot} (pid {self.pid}) died mid-infer: "
                f"{type(error).__name__}"
            ) from None
        kind = reply[0]
        if kind == "ok":
            if reply[1] != seq:
                raise WorkerDiedError(
                    f"replica {self.slot} answered out of sequence "
                    f"({reply[1]} != {seq}); treating as dead"
                )
            return reply[2]
        raise RuntimeError(f"replica {self.slot} infer failed: {reply[2]}")

    def infer(self, images: np.ndarray, timeout: Optional[float] = None
              ) -> Dict[str, np.ndarray]:
        """Run one micro-batch on this replica; raises
        :class:`WorkerDiedError` if it dies mid-request."""
        seq = self.begin_infer(images)
        return self.finish_infer(seq, timeout=timeout)

    def ping(self, timeout: float = 1.0) -> bool:
        """One heartbeat round-trip; False (never an exception) on a
        dead or unresponsive replica."""
        nonce = self.dispatches + int(time.monotonic() * 1e3) % 1_000_000
        try:
            reply = self._roundtrip(("ping", nonce), timeout=timeout)
        except WorkerDiedError:
            return False
        return reply == ("pong", nonce)

    def stats(self, timeout: float = 5.0) -> Dict[str, Any]:
        reply = self._roundtrip(("stats",), timeout=timeout)
        if reply[0] != "stats":
            raise RuntimeError(f"replica {self.slot} bad stats reply: {reply!r}")
        return reply[1]

    # -- lifecycle -----------------------------------------------------
    def stop(self, timeout: float = 10.0) -> bool:
        """Graceful stop: ask, wait, then escalate.  True when the
        worker exited on its own; False when it had to be killed."""
        graceful = True
        try:
            self._roundtrip(("stop",), timeout=timeout)
        except (WorkerDiedError, RuntimeError):
            graceful = False
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # escalate: never leak a process
            graceful = False
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:
            pass
        # Release the Process object's OS-level bookkeeping (semaphores,
        # sentinel fd) now rather than at GC time; also drops the child
        # from multiprocessing.active_children() — the orphan check.
        self.process.close()
        return graceful

    def kill(self) -> None:
        """SIGKILL the replica — the chaos path (no goodbye, no flush).

        Used by the router's :class:`~repro.serve.faults.WorkerFaultPlan`
        injection and by tests; detection and recovery are the
        supervisor's job.
        """
        if self.process.pid is not None and self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)

    def reap(self) -> None:
        """Join and release a replica already known to be dead."""
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.process.close()
        except ValueError:  # still somehow running: leave for stop()
            pass

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else "dead"
        return (
            f"WorkerHandle(slot={self.slot}, pid={self.pid}, "
            f"gen={self.generation}, {state})"
        )


def spawn_worker(
    spec_payload: Dict[str, Any], slot: int, generation: int = 0
) -> WorkerHandle:
    """Fork/spawn one replica process serving ``spec_payload``.

    Returns once the process is started (not once its deployment is
    built — the first ``infer``/``ping`` round-trip synchronises with
    readiness, so startup cost overlaps across replicas).
    """
    ctx = _start_context()
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn, spec_payload),
        name=f"repro-serve-replica-{slot}",
        daemon=True,
    )
    process.start()
    child_conn.close()  # parent keeps only its end
    return WorkerHandle(process, parent_conn, slot=slot, generation=generation)
