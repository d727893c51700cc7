"""The asyncio front end: sessions, admission, reaping, telemetry.

One connection is one session.  The handler is a plain request/reply
loop over :mod:`repro.serve.protocol` frames; concurrency comes from
asyncio scheduling many handlers, not from threads, so pipeline state
needs no locks (each pipeline is touched only by its own handler).

Flow control is deliberate: the server processes one frame per session
at a time and the client must await each batch acknowledgement before
sending the next batch.  With ``max_batch_refs`` capping the batch and
``max_sessions`` capping the sessions, the server's transient memory is
bounded by ``max_sessions × max_batch_refs`` addresses no matter how
aggressive the clients are — backpressure by protocol shape rather than
by buffer-watermark tuning.

Telemetry *is* the consistency story: every admitted session emits
``session_open`` and is retired by exactly one ``session_close`` whose
totals count the ``batch``/``answer`` events between them, so
``python -m repro.obs.validate --reconcile`` proves a service run
complete — and rejects the stream of a service that was killed
mid-session (the ``serve_accept``/``serve_batch`` fault sites exist to
exercise exactly that).

The event log append inside the handler is a synchronous write by
design: lines are tiny, the file is ``O_APPEND``, and funnelling them
through an executor would reorder a session's events against its
replies — the one thing the reconciler must be able to trust.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Set

from repro import faults
from repro.faults.plan import InjectedCrash
from repro.obs import events
from repro.serve.config import ServeConfig, max_blocks_for_budget
from repro.serve.pipeline import TenantPipeline
from repro.serve.protocol import FrameError, read_frame, write_frame

#: ``query`` operations the service answers.
QUERY_KINDS = ("conflict_share", "mrc", "verdict")
#: Batch addresses must lie in ``[0, ADDRESS_LIMIT)``: 64-bit byte addresses.
ADDRESS_LIMIT = 1 << 64


class _Session:
    """Registry entry for one live session."""

    __slots__ = (
        "sid",
        "tenant",
        "pipeline",
        "writer",
        "last_active",
        "batches",
        "answers",
        "reap_reason",
    )

    def __init__(
        self,
        sid: int,
        tenant: str,
        pipeline: TenantPipeline,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.sid = sid
        self.tenant = tenant
        self.pipeline = pipeline
        self.writer = writer
        self.last_active = time.monotonic()
        self.batches = 0
        self.answers = 0
        #: Set by the reaper / shutdown before closing the transport, so
        #: the handler records why the session died.
        self.reap_reason: Optional[str] = None


class ConflictServer:
    """The streaming multi-tenant conflict-classification service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[int, _Session] = {}
        self._next_sid = 1
        self._reaper: Optional["asyncio.Task[None]"] = None
        self._stopping = asyncio.Event()
        self._handlers: Set["asyncio.Task[None]"] = set()
        #: Service-level counters (exposed by loadgen/bench reports).
        self.accepted = 0
        self.refused = 0
        self.sessions_closed = 0
        self.refs_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        # Admission-capped servers still need the *kernel* queue to
        # absorb a thundering herd of simultaneous connects (the bench
        # opens every session at once); the default backlog of 100
        # resets the overflow before the accept loop ever sees it.
        backlog = min(self.config.max_sessions + 64, 4096)
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection,
                path=self.config.socket_path,
                backlog=backlog,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.config.host,
                port=self.config.port,
                backlog=backlog,
            )
        if self.config.idle_timeout_s > 0:
            self._reaper = asyncio.ensure_future(self._reap_idle())

    @property
    def port(self) -> int:
        """Bound TCP port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        sockets = self._server.sockets or []
        if self.config.socket_path is not None or not sockets:
            return 0
        return int(sockets[0].getsockname()[1])

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` frame arrives or :meth:`stop` is called."""
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and retire every live session cleanly."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        for sess in list(self._sessions.values()):
            if sess.reap_reason is None:
                sess.reap_reason = "shutdown"
            sess.writer.close()
        # Handlers observe their closed transports and emit their own
        # session_close events; wait for them so the stream is complete
        # when stop() returns.
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    # ------------------------------------------------------------------
    # Telemetry (method is named ``emit`` so the RPR030/031 static
    # schema join sees these literal call sites)
    # ------------------------------------------------------------------
    def emit(self, etype: str, **fields: object) -> None:
        log = events.active_log()
        if log is not None:
            log.emit(etype, **fields)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            faults.fire("serve_accept")
        except (InjectedCrash, OSError):
            # Injected accept-path crash: the connection dies before the
            # handshake, so no session events exist to reconcile.
            writer.close()
            return
        sess: Optional[_Session] = None
        reason = "eof"
        try:
            first = await read_frame(reader)
            if first is None:
                return
            op = first.get("op")
            if op == "shutdown":
                await write_frame(writer, {"ok": True, "stopping": True})
                self._stopping.set()
                return
            if op != "open":
                await write_frame(
                    writer, {"ok": False, "error": f"first frame must be open, got {op!r}"}
                )
                return
            if len(self._sessions) >= self.config.max_sessions:
                self.refused += 1
                await write_frame(
                    writer,
                    {
                        "ok": False,
                        "error": f"server full ({self.config.max_sessions} sessions)",
                    },
                )
                return
            sess = self._open_session(first, writer)
            self.accepted += 1
            await write_frame(
                writer,
                {
                    "ok": True,
                    "session": sess.sid,
                    "max_blocks": sess.pipeline.max_blocks,
                },
            )
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    reason = "eof"
                    break
                sess.last_active = time.monotonic()
                op = frame.get("op")
                if op == "batch":
                    await self._serve_batch(sess, frame, writer)
                elif op == "query":
                    await self._serve_query(sess, frame, writer)
                elif op == "close":
                    reason = "client"
                    await write_frame(
                        writer,
                        {
                            "ok": True,
                            "closed": sess.sid,
                            **sess.pipeline.snapshot().as_dict(),
                        },
                    )
                    break
                else:
                    await write_frame(
                        writer, {"ok": False, "error": f"unknown op {op!r}"}
                    )
        except (ValueError, FrameError) as exc:
            reason = "error"
            await self._try_error_reply(writer, str(exc))
        except (InjectedCrash, OSError, ConnectionError):
            # Injected batch-path crash or a transport failure: the
            # session still closes *in the event stream* (reason
            # "error"), which is what keeps the run reconcilable.
            reason = "error"
        finally:
            if sess is not None:
                self._close_session(sess, sess.reap_reason or reason)
            writer.close()

    def _open_session(
        self, frame: Dict[str, object], writer: asyncio.StreamWriter
    ) -> _Session:
        tenant = str(frame.get("tenant", "anonymous"))
        cache_kb = _as_int(frame.get("cache_kb", 64), "cache_kb")
        line_size = _as_int(frame.get("line_size", 64), "line_size")
        budget = _as_int(
            frame.get("budget_bytes", self.config.default_budget_bytes),
            "budget_bytes",
        )
        seed = _as_int(frame.get("seed", 0), "seed")
        tag_bits_raw = frame.get("tag_bits")
        tag_bits = None if tag_bits_raw is None else _as_int(tag_bits_raw, "tag_bits")
        pipeline = TenantPipeline(
            cache_kb=cache_kb,
            line_size=line_size,
            max_blocks=max_blocks_for_budget(budget),
            seed=seed,
            tag_bits=tag_bits,
        )
        sid = self._next_sid
        self._next_sid += 1
        sess = _Session(sid, tenant, pipeline, writer)
        self._sessions[sid] = sess
        self.emit(
            "session_open",
            session=sid,
            tenant=tenant,
            cache_kb=cache_kb,
            line_size=line_size,
            max_blocks=pipeline.max_blocks,
            budget_bytes=budget,
        )
        return sess

    def _close_session(self, sess: _Session, reason: str) -> None:
        if self._sessions.pop(sess.sid, None) is None:
            return
        self.sessions_closed += 1
        self.emit(
            "session_close",
            session=sess.sid,
            refs=sess.pipeline.refs,
            batches=sess.batches,
            answers=sess.answers,
            reason=reason,
        )

    async def _serve_batch(
        self,
        sess: _Session,
        frame: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        addrs = frame.get("addrs")
        if not isinstance(addrs, list):
            raise FrameError("batch frame needs addrs (a list of ints)")
        if len(addrs) > self.config.max_batch_refs:
            raise FrameError(
                f"batch of {len(addrs)} refs exceeds max_batch_refs "
                f"{self.config.max_batch_refs}"
            )
        for i, addr in enumerate(addrs):
            # Exact ints only: bools, floats and strings are not
            # addresses, and numpy would coerce or overflow on them.
            if type(addr) is not int or not 0 <= addr < ADDRESS_LIMIT:
                raise FrameError(
                    f"addrs[{i}] must be an integer in [0, 2**64), got {addr!r}"
                )
        # The injected-crash hook sits *before* processing: a fault here
        # means the batch event is never emitted, so the stream stays
        # consistent whether the kind is an exception (session closes
        # with reason "error") or a kill (validator rejects the
        # open-without-close it leaves behind).
        faults.fire("serve_batch")
        fed = sess.pipeline.feed(addrs)
        sess.batches += 1
        self.refs_total += fed
        self.emit("batch", session=sess.sid, refs=fed)
        await write_frame(
            writer, {"ok": True, "refs": fed, "total_refs": sess.pipeline.refs}
        )

    async def _serve_query(
        self,
        sess: _Session,
        frame: Dict[str, object],
        writer: asyncio.StreamWriter,
    ) -> None:
        what = frame.get("what")
        reply: Dict[str, object] = {"ok": True, "what": what}
        if what == "conflict_share":
            reply.update(sess.pipeline.snapshot().as_dict())
        elif what == "mrc":
            result = sess.pipeline.mrc()
            reply.update(
                curve=[
                    [size_bytes, misses, ratio]
                    for size_bytes, misses, ratio in result.curve.as_rows()
                ],
                sampled_refs=result.sampled_refs,
                sampled_blocks=result.sampled_blocks,
                final_rate=result.final_rate,
            )
        elif what == "verdict":
            reply.update(sess.pipeline.verdict())
        else:
            await write_frame(
                writer,
                {
                    "ok": False,
                    "error": f"unknown query {what!r} "
                    f"(one of {', '.join(QUERY_KINDS)})",
                },
            )
            return
        sess.answers += 1
        self.emit("answer", session=sess.sid, what=str(what))
        await write_frame(writer, reply)

    async def _try_error_reply(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        try:
            await write_frame(writer, {"ok": False, "error": message})
        except (OSError, ConnectionError):
            pass

    # ------------------------------------------------------------------
    # Idle reaping
    # ------------------------------------------------------------------
    async def _reap_idle(self) -> None:
        period = max(self.config.idle_timeout_s / 4.0, 0.05)
        while True:
            await asyncio.sleep(period)
            cutoff = time.monotonic() - self.config.idle_timeout_s
            for sess in list(self._sessions.values()):
                if sess.last_active < cutoff and sess.reap_reason is None:
                    sess.reap_reason = "idle"
                    # Closing the transport wakes the handler's blocked
                    # read; it emits the session_close itself.
                    sess.writer.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_sessions(self) -> int:
        return len(self._sessions)

    def state_entries(self) -> int:
        """Aggregate structural footprint across live pipelines."""
        return sum(s.pipeline.state_entries() for s in self._sessions.values())

    def session_tenants(self) -> List[str]:
        return sorted(s.tenant for s in self._sessions.values())


def _as_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FrameError(f"{field} must be an integer, got {value!r}")
    return value
