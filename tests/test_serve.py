"""Tests for ``repro.serve`` — protocol, pipeline, server, faults.

Server tests run a real :class:`ConflictServer` on a unix socket inside
``tmp_path`` and speak the wire protocol through asyncio streams; the
crash-consistency tests run ``python -m repro.serve`` as a subprocess
with an armed fault plan and assert the obs validator's verdict on the
stream each fault leaves behind — accepted when the service died
cleanly, rejected when it died mid-session, never a crash or a silent
pass.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.mct import MissClassificationTable
from repro.obs import events
from repro.obs.config import ObsConfig
from repro.obs.validate import reconcile_events, split_torn_tail, validate_lines
from repro.serve import (
    ConflictServer,
    FrameError,
    MAX_FRAME_BYTES,
    ServeConfig,
    TenantPipeline,
    decode_frame,
    encode_frame,
    max_blocks_for_budget,
)
from repro.serve.config import BYTES_PER_SAMPLED_BLOCK, MIN_MAX_BLOCKS
from repro.serve.loadgen import build_parser as loadgen_parser
from repro.serve.loadgen import percentile, run_load
from repro.serve.protocol import read_frame, write_frame
from repro.workloads.spec_analogs import build


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        frame = {"op": "batch", "addrs": [0, 64, 1 << 40]}
        encoded = encode_frame(frame)
        assert int.from_bytes(encoded[:4], "big") == len(encoded) - 4
        assert decode_frame(encoded[4:]) == frame

    def test_decode_rejects_garbage_and_non_objects(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xfe not json")
        with pytest.raises(FrameError):
            decode_frame(b"[1, 2, 3]")

    def test_encode_rejects_oversized_frames(self):
        too_many = list(range(MAX_FRAME_BYTES // 4))
        with pytest.raises(FrameError):
            encode_frame({"addrs": too_many})

    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_frame_eof_at_boundary_is_none(self):
        async def check():
            return await read_frame(self._reader_with(b""))

        assert run(check()) is None

    def test_read_frame_torn_header_and_payload_raise(self):
        async def torn(data):
            with pytest.raises(FrameError):
                await read_frame(self._reader_with(data))

        run(torn(b"\x00\x00"))  # mid-length
        run(torn(b"\x00\x00\x00\x10{"))  # mid-payload

    def test_read_frame_rejects_zero_and_oversized_lengths(self):
        async def check(length):
            with pytest.raises(FrameError):
                await read_frame(
                    self._reader_with(length.to_bytes(4, "big") + b"x" * 8)
                )

        run(check(0))
        run(check(MAX_FRAME_BYTES + 1))


# ----------------------------------------------------------------------
# Budget mapping
# ----------------------------------------------------------------------
class TestBudget:
    def test_budget_scales_linearly_between_clamps(self):
        assert max_blocks_for_budget(256 * BYTES_PER_SAMPLED_BLOCK) == 256

    def test_budget_clamps(self):
        assert max_blocks_for_budget(1) == MIN_MAX_BLOCKS
        assert max_blocks_for_budget(1 << 40) == 65536
        with pytest.raises(ValueError):
            max_blocks_for_budget(0)

    def test_config_validates(self):
        with pytest.raises(ValueError):
            ServeConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServeConfig(idle_timeout_s=-1)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
#: Block numbers for a 1 KB (16-set) pipeline: mostly 16 tags over 4
#: sets, so streams collide, revisit and alias under partial tags; the
#: rest reach the top of the 64-bit address space.
PIPELINE_BLOCKS = st.one_of(
    st.builds(
        lambda tag, set_index: tag * 16 + set_index,
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3),
    ),
    st.integers(min_value=0, max_value=(1 << 58) - 1),
)


class TestPipeline:
    def _reference_counts(self, addrs, cache_kb=16, line_size=64, tag_bits=None):
        """Straight-line reimplementation: DM cache + MCT, no batching."""
        geo = CacheGeometry(size=cache_kb * 1024, assoc=1, line_size=line_size)
        mct = MissClassificationTable(geo, tag_bits)
        resident = [-1] * geo.num_sets
        misses = conflicts = 0
        for addr in addrs:
            s, t = geo.set_index(addr), geo.tag(addr)
            if resident[s] == t:
                continue
            misses += 1
            if mct.classify(addr).is_conflict:
                conflicts += 1
            if resident[s] >= 0:
                mct.record_eviction(s, resident[s])
            resident[s] = t
        return misses, conflicts

    def test_matches_reference_mct_simulation(self):
        addrs = [int(a) for a in build("gcc", 8000, seed=3).addresses]
        pipeline = TenantPipeline(cache_kb=16, max_blocks=128)
        pipeline.feed(addrs)
        misses, conflicts = self._reference_counts(addrs)
        assert pipeline.refs == len(addrs)
        assert pipeline.misses == misses
        assert pipeline.conflict_misses == conflicts
        assert pipeline.capacity_misses == misses - conflicts

    def test_chunked_feed_equals_one_shot(self):
        addrs = [int(a) for a in build("tomcatv", 6000, seed=1).addresses]
        one = TenantPipeline(cache_kb=16, max_blocks=128, seed=5)
        one.feed(addrs)
        chunked = TenantPipeline(cache_kb=16, max_blocks=128, seed=5)
        for start in range(0, len(addrs), 613):
            chunked.feed(addrs[start : start + 613])
        assert chunked.snapshot() == one.snapshot()
        assert chunked.mrc() == one.mrc()

    @settings(max_examples=80, deadline=None)
    @given(
        blocks=st.one_of(
            st.lists(PIPELINE_BLOCKS, max_size=8),
            st.lists(PIPELINE_BLOCKS, min_size=40, max_size=300),
        ),
        sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=20),
        tag_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    )
    def test_random_chunking_equals_single_batch_and_reference(
        self, blocks, sizes, tag_bits
    ):
        # The carried per-set state (resident block, last victim) must
        # make any chunking — empty and one-ref batches included — count
        # exactly what one batch and the straight-line loop count.
        addrs = [block * 64 + block % 64 for block in blocks]
        one = TenantPipeline(cache_kb=1, max_blocks=64, tag_bits=tag_bits)
        one.feed(addrs)
        chunked = TenantPipeline(cache_kb=1, max_blocks=64, tag_bits=tag_bits)
        start = 0
        for size in sizes:
            chunked.feed(addrs[start : start + size])
            start += size
        chunked.feed(addrs[start:])
        assert chunked.snapshot() == one.snapshot()
        misses, conflicts = self._reference_counts(
            addrs, cache_kb=1, tag_bits=tag_bits
        )
        assert (one.refs, one.misses, one.conflict_misses) == (
            len(addrs),
            misses,
            conflicts,
        )

    def test_bad_geometry_and_tag_bits_raise(self):
        # The MCT's own check (tag_bits >= 1) and the int64 block range
        # (line_size >= 2) are enforced when the session is built.
        with pytest.raises(ValueError, match="tag_bits"):
            TenantPipeline(tag_bits=0)
        with pytest.raises(ValueError, match="line_size"):
            TenantPipeline(line_size=1)

    def test_conflict_stream_gets_victim_cache_verdict(self):
        # Two tags ping-ponging in one set: every miss after the first
        # two is a conflict miss, and an FA cache of equal size holds
        # both lines easily.
        geo = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
        a = geo.compose(tag=1, index=7)
        b = geo.compose(tag=2, index=7)
        pipeline = TenantPipeline(cache_kb=16, max_blocks=128)
        pipeline.feed([a, b] * 600)
        verdict = pipeline.verdict()
        assert verdict["verdict"] == "victim_cache"
        assert verdict["hw_conflict_share"] > 0.9
        assert verdict["model_conflict_share"] > 0.9

    def test_streaming_scan_gets_bypass_verdict(self):
        # A pure streaming scan far beyond capacity misses everywhere,
        # in the FA model too — capacity-bound, so bypass.
        pipeline = TenantPipeline(cache_kb=16, max_blocks=256)
        pipeline.feed([i * 64 for i in range(40_000)])
        verdict = pipeline.verdict()
        assert verdict["verdict"] == "bypass"

    def test_tiny_stream_withholds_verdict(self):
        pipeline = TenantPipeline(cache_kb=16, max_blocks=128)
        pipeline.feed([0, 64, 128])
        verdict = pipeline.verdict()
        assert verdict["verdict"] == "none"
        assert "miss(es) observed" in verdict["reason"]

    def test_state_entries_constant_over_long_stream(self):
        # The acceptance property the per-tenant budget rides on: state
        # does not grow with stream length or footprint.
        pipeline = TenantPipeline(cache_kb=16, max_blocks=128)
        peak = 0
        for chunk in range(40):
            base = chunk * 500_000 * 64
            pipeline.feed([base + i * 64 for i in range(4000)])
            peak = max(peak, pipeline.state_entries())
        fixed = 2 * pipeline.geometry.num_sets
        assert pipeline.refs == 160_000
        assert peak - fixed <= 3 * 128

    def test_empty_batch_is_a_no_op(self):
        pipeline = TenantPipeline(cache_kb=16, max_blocks=128)
        assert pipeline.feed([]) == 0
        assert pipeline.snapshot().refs == 0


# ----------------------------------------------------------------------
# Server (in-process, unix socket)
# ----------------------------------------------------------------------
async def _client(sock_path):
    return await asyncio.open_unix_connection(sock_path)


async def _rpc(reader, writer, frame):
    await write_frame(writer, frame)
    return await read_frame(reader)


class TestServer:
    def _config(self, tmp_path, **kw):
        kw.setdefault("socket_path", str(tmp_path / "serve.sock"))
        return ServeConfig(**kw)

    def test_open_batch_query_close(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path))
            await server.start()
            reader, writer = await _client(server.config.socket_path)
            opened = await _rpc(
                reader, writer, {"op": "open", "tenant": "t0", "cache_kb": 16}
            )
            assert opened["ok"] and opened["session"] == 1
            geo = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
            a, b = geo.compose(tag=1, index=3), geo.compose(tag=2, index=3)
            ack = await _rpc(reader, writer, {"op": "batch", "addrs": [a, b] * 200})
            assert ack["ok"] and ack["refs"] == 400
            share = await _rpc(
                reader, writer, {"op": "query", "what": "conflict_share"}
            )
            assert share["ok"]
            assert share["misses"] == 400
            assert share["conflict_share"] > 0.99
            mrc = await _rpc(reader, writer, {"op": "query", "what": "mrc"})
            assert mrc["ok"] and len(mrc["curve"]) > 0
            verdict = await _rpc(reader, writer, {"op": "query", "what": "verdict"})
            assert verdict["ok"] and verdict["verdict"] == "victim_cache"
            closed = await _rpc(reader, writer, {"op": "close"})
            assert closed["ok"] and closed["refs"] == 400
            writer.close()
            await server.stop()
            assert server.sessions_closed == 1

        run(scenario())

    def test_admission_cap_refuses_with_error_frame(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path, max_sessions=1))
            await server.start()
            r1, w1 = await _client(server.config.socket_path)
            assert (await _rpc(r1, w1, {"op": "open", "tenant": "a"}))["ok"]
            r2, w2 = await _client(server.config.socket_path)
            refused = await _rpc(r2, w2, {"op": "open", "tenant": "b"})
            assert not refused["ok"] and "server full" in refused["error"]
            w2.close()
            # The refused connection must not have consumed the slot.
            assert server.live_sessions() == 1
            assert server.refused == 1
            w1.close()
            await server.stop()

        run(scenario())

    def test_budget_maps_to_sample_bound(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path))
            await server.start()
            reader, writer = await _client(server.config.socket_path)
            budget = 512 * BYTES_PER_SAMPLED_BLOCK
            opened = await _rpc(
                reader,
                writer,
                {"op": "open", "tenant": "t", "budget_bytes": budget},
            )
            assert opened["max_blocks"] == 512
            writer.close()
            await server.stop()

        run(scenario())

    def test_protocol_errors_answered_not_fatal(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path))
            await server.start()
            # First frame not open.
            r, w = await _client(server.config.socket_path)
            bad = await _rpc(r, w, {"op": "batch", "addrs": [1]})
            assert not bad["ok"] and "first frame must be open" in bad["error"]
            w.close()
            # Unknown query answered with the menu.
            r, w = await _client(server.config.socket_path)
            await _rpc(r, w, {"op": "open", "tenant": "t"})
            unknown = await _rpc(r, w, {"op": "query", "what": "nope"})
            assert not unknown["ok"] and "conflict_share" in unknown["error"]
            # Bad geometry refused via an error frame, session not opened.
            r2, w2 = await _client(server.config.socket_path)
            bad_geo = await _rpc(r2, w2, {"op": "open", "cache_kb": 3})
            assert not bad_geo["ok"]
            w2.close()
            w.close()
            await server.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "bad",
        [-1, 1 << 64, None, 1.5, True, "7"],
        ids=["negative", "2**64", "null", "float", "bool", "string"],
    )
    def test_bad_address_gets_error_frame_and_reconciles(self, tmp_path, bad):
        path = tmp_path / "ev.jsonl"

        async def scenario():
            events.activate(ObsConfig(events_path=str(path)))
            try:
                server = ConflictServer(self._config(tmp_path))
                await server.start()
                r, w = await _client(server.config.socket_path)
                assert (await _rpc(r, w, {"op": "open", "tenant": "t"}))["ok"]
                reply = await _rpc(r, w, {"op": "batch", "addrs": [64, bad]})
                assert not reply["ok"] and "addrs[1]" in reply["error"]
                w.close()
                await server.stop()
            finally:
                events.deactivate()

        run(scenario())
        lines, _ = split_torn_tail(path.read_text())
        parsed, problems = validate_lines(lines)
        assert not problems
        assert reconcile_events(parsed) == (1, [])
        (close,) = [e for e in parsed if e["type"] == "session_close"]
        assert close["reason"] == "error" and close["refs"] == 0

    def test_zero_tag_bits_open_refused(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path))
            await server.start()
            r, w = await _client(server.config.socket_path)
            opened = await _rpc(r, w, {"op": "open", "tenant": "t", "tag_bits": 0})
            assert not opened["ok"] and "tag_bits" in opened["error"]
            w.close()
            assert server.live_sessions() == 0
            await server.stop()

        run(scenario())

    def test_oversized_batch_rejected(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path, max_batch_refs=8))
            await server.start()
            r, w = await _client(server.config.socket_path)
            await _rpc(r, w, {"op": "open", "tenant": "t"})
            reply = await _rpc(r, w, {"op": "batch", "addrs": list(range(9))})
            assert not reply["ok"] and "max_batch_refs" in reply["error"]
            w.close()
            await server.stop()

        run(scenario())

    def test_idle_sessions_reaped(self, tmp_path):
        async def scenario():
            events.activate(ObsConfig(events_path=str(tmp_path / "ev.jsonl")))
            try:
                server = ConflictServer(
                    self._config(tmp_path, idle_timeout_s=0.2)
                )
                await server.start()
                reader, writer = await _client(server.config.socket_path)
                assert (await _rpc(reader, writer, {"op": "open", "tenant": "t"}))[
                    "ok"
                ]
                deadline = time.monotonic() + 5.0
                while server.live_sessions() and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                assert server.live_sessions() == 0
                writer.close()
                await server.stop()
            finally:
                events.deactivate()
            lines, _ = split_torn_tail((tmp_path / "ev.jsonl").read_text())
            parsed, problems = validate_lines(lines)
            assert not problems
            closes = [e for e in parsed if e["type"] == "session_close"]
            assert [c["reason"] for c in closes] == ["idle"]

        run(scenario())

    def test_shutdown_frame_stops_server(self, tmp_path):
        async def scenario():
            server = ConflictServer(self._config(tmp_path))
            await server.start()
            waiter = asyncio.ensure_future(server.serve_until_stopped())
            reader, writer = await _client(server.config.socket_path)
            reply = await _rpc(reader, writer, {"op": "shutdown"})
            assert reply["ok"] and reply["stopping"]
            writer.close()
            await asyncio.wait_for(waiter, timeout=5.0)

        run(scenario())

    def test_event_stream_reconciles_after_mixed_run(self, tmp_path):
        async def scenario():
            events.activate(ObsConfig(events_path=str(tmp_path / "ev.jsonl")))
            try:
                server = ConflictServer(self._config(tmp_path))
                await server.start()
                args = loadgen_parser().parse_args(
                    [
                        "--socket",
                        server.config.socket_path,
                        "--sessions",
                        "12",
                        "--concurrency",
                        "6",
                        "--refs-per-session",
                        "1500",
                        "--batch-size",
                        "500",
                    ]
                )
                report = await run_load(args)
                await server.stop()
            finally:
                events.deactivate()
            assert report["errors"] == 0
            assert report["refs_done"] == 12 * 1500
            assert report["answers"] == 36
            lines, _ = split_torn_tail((tmp_path / "ev.jsonl").read_text())
            parsed, problems = validate_lines(lines)
            assert not problems
            checked, reconcile_problems = reconcile_events(parsed)
            assert not reconcile_problems
            assert checked == 12

        run(scenario())


# ----------------------------------------------------------------------
# Loadgen helpers
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.99) == 100.0
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0


# ----------------------------------------------------------------------
# Crash consistency (subprocess + fault plans)
# ----------------------------------------------------------------------
def _wait_for_socket(path, proc, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                pass
            else:
                probe.close()
                return True
            finally:
                probe.close()
        time.sleep(0.05)
    return False


class TestCrashConsistency:
    def _run_injected(self, tmp_path, plan):
        sock = str(tmp_path / "serve.sock")
        events_path = str(tmp_path / "events.jsonl")
        env = {**os.environ, "PYTHONPATH": "src"}
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--socket",
                sock,
                "--metrics",
                events_path,
                "--inject",
                plan,
                "--max-runtime",
                "60",
                "--idle-timeout",
                "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert _wait_for_socket(sock, server), "server never came up"
            loadgen = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.serve.loadgen",
                    "--socket",
                    sock,
                    "--sessions",
                    "6",
                    "--concurrency",
                    "3",
                    "--refs-per-session",
                    "1200",
                    "--batch-size",
                    "400",
                    "--tolerate-errors",
                    "--shutdown",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert loadgen.returncode == 0, loadgen.stderr
            server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        validate = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", events_path, "--reconcile"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return validate

    @pytest.mark.parametrize("kind", ["exception", "enospc", "partial", "delay"])
    def test_survivable_batch_faults_leave_reconcilable_stream(
        self, tmp_path, kind
    ):
        validate = self._run_injected(tmp_path, f"serve_batch:{kind}:1")
        assert validate.returncode == 0, validate.stderr

    def test_batch_kill_stream_rejected_cleanly(self, tmp_path):
        validate = self._run_injected(tmp_path, "serve_batch:kill:1")
        assert validate.returncode == 1
        assert "session_open without session_close" in validate.stderr

    def test_accept_fault_leaves_no_session_residue(self, tmp_path):
        # The accept-path fault fires before the handshake, so the
        # failed connection contributes no events at all; everything
        # that did open must still reconcile.
        validate = self._run_injected(tmp_path, "serve_accept:exception:1")
        assert validate.returncode == 0, validate.stderr

    def test_sigterm_between_sessions_reconciles(self, tmp_path):
        # A server stopped when no session is live leaves a complete
        # stream; this is the clean-deploy case (drain, then stop).
        sock = str(tmp_path / "serve.sock")
        events_path = str(tmp_path / "events.jsonl")
        env = {**os.environ, "PYTHONPATH": "src"}
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--socket",
                sock,
                "--metrics",
                events_path,
                "--max-runtime",
                "60",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert _wait_for_socket(sock, server), "server never came up"
            loadgen = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.serve.loadgen",
                    "--socket",
                    sock,
                    "--sessions",
                    "3",
                    "--refs-per-session",
                    "600",
                    "--batch-size",
                    "300",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert loadgen.returncode == 0, loadgen.stderr
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        validate = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", events_path, "--reconcile"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert validate.returncode == 0, validate.stderr
