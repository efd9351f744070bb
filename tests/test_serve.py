"""The mapping service: protocol, sharded parity, evaluator, metrics."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.hashtable import ArrayShareTable, hash_64
from repro.errors import ConfigurationError, ProtocolError
from repro.serve import (
    EvalCadence,
    EventBatch,
    MappingEvaluator,
    MetricsRegistry,
    MsgType,
    SessionConfig,
    ShardedShareTable,
    TenantSession,
    offline_reference,
    synthetic_fault_stream,
)
from repro.serve import protocol
from repro.serve.session import MAX_NOW_NS
from repro.units import MSEC, PAGE_SIZE
from tests.test_hashtable import DictShareTable, replay_in_fault_order

WINDOW = 250 * MSEC

#: HELLO ``config`` overrides that must be refused at admission: each once
#: reached the session (or its first evaluation) unchecked and cost the
#: client its ERROR reply, or was silently misread
BAD_HELLO_CONFIGS = {
    "threshold-str": ({"filter_threshold": "abc"}, ConfigurationError),
    "hysteresis-below-1": ({"filter_hysteresis": -3}, ConfigurationError),
    "table-size-float": ({"table_size": 1000.0}, ConfigurationError),
    "n-threads-override": ({"n_threads": 64}, ProtocolError),
    "min-improvement-str": ({"min_improvement": "x"}, ConfigurationError),
    "min-events-str": ({"filter_min_events": "1"}, ConfigurationError),
    "filter-enabled-str": ({"filter_enabled": "no"}, ConfigurationError),
    # the greedy mapper mode is gone; a client still sending it is told so
    "greedy-removed": ({"use_greedy_matching": False}, ProtocolError),
}

#: ``ServeConfig`` values that would start a daemon refusing every tenant
#: (or unable to bind); each constructed without error before the
#: dataclass checked its own fields
BAD_SERVE_CONFIGS = {
    "port": {"port": 70000},
    "metrics-port": {"metrics_port": -1},
    "max-sessions": {"max_sessions": 0},
    "max-table-mb": {"max_table_mb": -1.0},
    "max-table-mb-nan": {"max_table_mb": float("nan")},
    "shards": {"shards": 0},
    "eval-every": {"eval_every_events": 0},
    "credit-window": {"credit_window": 0},
    "drain-grace": {"drain_grace_s": -5.0},
    "drain-grace-nan": {"drain_grace_s": float("nan")},
}

#: HELLO ``n_threads`` values that are not a 64-bit integer: each once
#: escaped admission as an exception (Infinity), was admitted as a string
#: ("16") or truncated (8.9), or was read as the integer 1 (true)
BAD_N_THREADS = {
    "infinity": float("inf"),
    "string": "16",
    "fraction": 8.9,
    "bool": True,
}


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def _roundtrip(self, data: bytes) -> protocol.Frame:
        header = data[: protocol._HEADER.size]
        length, type_byte = protocol._HEADER.unpack(header)
        body = data[protocol._HEADER.size :]
        assert len(body) == length
        return protocol.parse_body(type_byte, body)

    def test_json_frame_roundtrip(self):
        frame = self._roundtrip(
            protocol.encode(MsgType.HELLO, {"tenant": "a", "n_threads": 4})
        )
        assert frame.type is MsgType.HELLO
        assert frame.payload == {"tenant": "a", "n_threads": 4}

    def test_events_frame_roundtrip(self):
        vaddrs = np.array([0, PAGE_SIZE, 7 * PAGE_SIZE + 123], dtype=np.int64)
        frame = self._roundtrip(protocol.encode_events(3, 42 * MSEC, vaddrs))
        assert frame.type is MsgType.EVENTS
        batch = frame.payload
        assert isinstance(batch, EventBatch)
        assert batch.tid == 3 and batch.now_ns == 42 * MSEC
        assert np.array_equal(batch.vaddrs, vaddrs)
        assert batch.n_events == 3

    def test_events_json_normalises_to_events(self):
        data = protocol.encode(
            MsgType.EVENTS_JSON, {"tid": 1, "now_ns": 5, "vaddrs": [4096, 8192]}
        )
        frame = self._roundtrip(data)
        assert frame.type is MsgType.EVENTS
        assert np.array_equal(frame.payload.vaddrs, [4096, 8192])

    def test_truncated_events_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_events(b"\x00\x01")

    def test_event_count_mismatch_rejected(self):
        body = protocol._EVENTS_HEADER.pack(0, 0, 5) + b"\x00" * 8  # claims 5, has 1
        with pytest.raises(ProtocolError):
            protocol.decode_events(body)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_body(200, b"{}")

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_body(int(MsgType.HELLO), b"[1,2]")

    def _events_json(self, body: bytes):
        return protocol.parse_body(int(MsgType.EVENTS_JSON), body)

    def test_events_json_infinite_tid_rejected(self):
        with pytest.raises(ProtocolError):
            self._events_json(b'{"tid": 1e400, "now_ns": 0, "vaddrs": [4096]}')

    def test_events_json_vaddr_beyond_int64_rejected(self):
        with pytest.raises(ProtocolError):
            self._events_json(b'{"tid": 1, "now_ns": 0, "vaddrs": [9223372036854775808]}')

    def test_events_json_scalar_vaddrs_rejected(self):
        with pytest.raises(ProtocolError):
            self._events_json(b'{"tid": 1, "now_ns": 0, "vaddrs": 7}')

    def test_events_json_nested_vaddrs_rejected(self):
        with pytest.raises(ProtocolError):
            self._events_json(
                b'{"tid": 1, "now_ns": 0, "vaddrs": [[4096, 8192], [4096, 8192]]}'
            )

    def test_deeply_nested_hello_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_body(int(MsgType.HELLO), b"[" * 200_000)

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_events(
                0, 0, np.zeros(protocol.MAX_FRAME_BYTES // 8 + 16, dtype=np.int64)
            )

    def test_sync_socket_roundtrip(self):
        import socket

        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, protocol.encode(MsgType.CREDIT, {"events": 9}))
            frame = protocol.recv_frame(b)
            assert frame is not None
            assert frame.type is MsgType.CREDIT and frame.payload["events"] == 9
            a.close()
            assert protocol.recv_frame(b) is None  # clean EOF
        finally:
            b.close()


# ---------------------------------------------------------------------------
# EVENTS decode (bit parity with the encoded vector)
# ---------------------------------------------------------------------------
class TestDecodeParity:
    @pytest.mark.parametrize("n", [0, 1, 7, 1024])
    def test_decoders_bit_identical(self, n, rng):
        vaddrs = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
        body = protocol.events_body(5, 123456789, vaddrs)
        batch = protocol.decode_events(body)
        assert batch.tid == 5
        assert batch.now_ns == 123456789
        assert batch.vaddrs.dtype == np.int64
        assert np.array_equal(batch.vaddrs, vaddrs)

    def test_decoders_accept_memoryview(self):
        vaddrs = np.array([4096, 8192], dtype=np.int64)
        body = protocol.events_body(1, 2, vaddrs)
        batch = protocol.decode_events(memoryview(body))
        assert (batch.tid, batch.now_ns) == (1, 2)
        assert np.array_equal(batch.vaddrs, vaddrs)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_render(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "requests", tenant="a").inc(3)
        reg.gauge("depth", "queue depth").set(2.5)
        text = reg.render()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{tenant="a"} 3' in text
        assert "depth 2.5" in text

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_histogram_buckets_and_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5):
            h.observe(v)
        assert h.count == 4
        assert h.quantile(0.5) == 0.1
        assert h.quantile(1.0) == 1.0
        text = reg.render()
        assert 'lat_bucket{le="0.01"} 1' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text

    def test_render_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b", tenant="2").inc()
            reg.counter("b", tenant="1").inc()
            reg.gauge("a").set(1)
            return reg.render()

        assert build() == build()

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(2)
        snap = reg.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["values"][0]["value"] == 2.0


# ---------------------------------------------------------------------------
# session config + sharded table
# ---------------------------------------------------------------------------
class TestSessionConfig:
    def test_effective_table_size_rounds_up(self):
        cfg = SessionConfig(n_threads=4, table_size=10, shards=4)
        assert cfg.effective_table_size == 12

    def test_effective_table_size_exact_multiple(self):
        cfg = SessionConfig(n_threads=4, table_size=16, shards=4)
        assert cfg.effective_table_size == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=1)
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=4, shards=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(n_threads=4, matrix_decay=0.0)

    def test_from_overrides_rejects_unknown_keys(self):
        defaults = SessionConfig(n_threads=4)
        with pytest.raises(ProtocolError):
            SessionConfig.from_overrides(defaults, {"not_a_knob": 1})

    @pytest.mark.parametrize(
        "overrides, error", BAD_HELLO_CONFIGS.values(), ids=BAD_HELLO_CONFIGS.keys()
    )
    def test_from_overrides_refuses_bad_values(self, overrides, error):
        with pytest.raises(error):
            SessionConfig.from_overrides(SessionConfig(n_threads=4), overrides)

    def test_from_overrides_applies(self):
        defaults = SessionConfig(n_threads=4)
        cfg = SessionConfig.from_overrides(defaults, {"table_size": 100})
        assert cfg.table_size == 100 and cfg.n_threads == 4

    def test_memory_bytes_scales_with_table(self):
        small = SessionConfig(n_threads=4, table_size=1000)
        large = SessionConfig(n_threads=4, table_size=100000)
        assert large.memory_bytes() > small.memory_bytes()

    def test_memory_bytes_covers_a_full_table(self, machine):
        """Admission charges what a session holds once every slot of its
        table is occupied (256 slots: the row store grows to one row per
        slot): the table and one matrix."""
        cfg = SessionConfig(n_threads=4, table_size=256)
        session = TenantSession("t", cfg, machine)
        table = session.table.table
        size = cfg.effective_table_size
        region_of_slot = {}
        region = 0
        while len(region_of_slot) < size:
            region_of_slot.setdefault(hash_64(region) % size, region)
            region += 1
        vaddrs = np.array(sorted(region_of_slot.values()), dtype=np.int64) * cfg.granularity
        for tid in range(cfg.n_threads):
            session.ingest(EventBatch(tid=tid, now_ns=tid, vaddrs=vaddrs))
        assert len(table) == size and table.inserts == size
        held = table._region.nbytes + table._row.nbytes + table._last.nbytes
        held += session.matrix.matrix.nbytes
        n = cfg.n_threads
        assert held == cfg.memory_bytes() == size * 8 * (2 + n) + n * n * 8


class TestServeConfig:
    @pytest.mark.parametrize(
        "fields", BAD_SERVE_CONFIGS.values(), ids=BAD_SERVE_CONFIGS.keys()
    )
    def test_rejects_out_of_range_fields(self, fields):
        from repro.serve import ServeConfig

        (name,) = fields
        with pytest.raises(ConfigurationError, match=name):
            ServeConfig(**fields)

    def test_cli_exits_2_on_a_rejected_value(self, monkeypatch, capsys):
        """``--credits 0`` once started a daemon whose every EVENTS frame
        overran the window."""
        from repro.serve import __main__ as cli

        def serve(coro):
            coro.close()
            raise AssertionError("the daemon started")

        monkeypatch.setattr(cli.asyncio, "run", serve)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--credits", "0"])
        assert exc.value.code == 2
        assert "credit_window must be >= 1" in capsys.readouterr().err


class TestAdmission:
    @pytest.mark.parametrize("n_threads", BAD_N_THREADS.values(), ids=BAD_N_THREADS)
    def test_hello_n_threads_must_be_an_int64(self, machine, n_threads):
        from repro.errors import AdmissionError
        from repro.serve import MappingServer

        server = MappingServer(machine=machine)
        with pytest.raises(AdmissionError, match="integer n_threads") as exc:
            server._admit({"tenant": "t", "n_threads": n_threads})
        assert exc.value.code == "bad-hello"


class TestShardedShareTable:
    def test_size_must_divide(self):
        with pytest.raises(ConfigurationError):
            ShardedShareTable(10, 4, n_shards=4)

    def test_partner_events_match_unsharded(self):
        """``touch_batch`` returns the plain table's partners, in the same
        order, and its windowed count; both equal the oracle's events.

        Serve-shaped batches (256 events on 64 pages per thread pair) repeat
        almost every slot within a batch.  A 300 ms round against the 250 ms
        window puts the previous round's sharers out of the window.
        """
        size, n_threads, n_shards = 160, 6, 4  # 192 pages on 160 slots
        sharded = ShardedShareTable(size, n_threads, n_shards=n_shards)
        plain = ArrayShareTable(size, n_threads)
        oracle = DictShareTable(size)
        stream = synthetic_fault_stream(n_threads, 2048, seed=2, step_ns=300 * MSEC)
        n_events = n_windowed_out = 0
        for tid, now, vaddrs in stream:
            regions = vaddrs // PAGE_SIZE
            partners, windowed_out = sharded.touch_batch(regions, tid, now, WINDOW)
            want, want_windowed_out = plain.touch_batch(regions, tid, now, WINDOW)
            assert partners.tolist() == want.tolist()
            assert windowed_out == want_windowed_out
            events, oracle_windowed_out = replay_in_fault_order(
                oracle, regions, tid, now, WINDOW
            )
            assert sorted(partners.tolist()) == sorted(p for _, p in events)
            assert windowed_out == oracle_windowed_out
            n_events += len(events)
            n_windowed_out += windowed_out
        table = sharded.table
        assert (table.collisions, table.inserts) == (oracle.collisions, oracle.inserts)
        assert table.shared_region_count() == oracle.shared_region_count()
        assert n_events > 0 and n_windowed_out > 0
        assert oracle.collisions > 0 and table.shared_region_count() > 0


# ---------------------------------------------------------------------------
# evaluator + cadence
# ---------------------------------------------------------------------------
class TestEvalCadence:
    def test_ticks_once_per_interval(self):
        cadence = EvalCadence(100)
        assert cadence.due(99) == 0
        assert cadence.due(100) == 1
        assert cadence.due(150) == 0
        assert cadence.due(450) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            EvalCadence(0)


class TestMappingEvaluator:
    def test_rejects_more_threads_than_pus(self, small_machine):
        with pytest.raises(ConfigurationError):
            MappingEvaluator(small_machine, SessionConfig(n_threads=64))

    def test_insufficient_evidence_before_quota(self, machine):
        from repro.core.commmatrix import CommunicationMatrix

        ev = MappingEvaluator(machine, SessionConfig(n_threads=4))
        verdict, update = ev.decide(
            CommunicationMatrix(4), comm_events=0, events_seen=0, now_ns=0
        )
        assert verdict == "insufficient-evidence" and update is None

    def test_force_bypasses_quota_and_cooldown(self, machine):
        from repro.core.commmatrix import CommunicationMatrix

        cfg = SessionConfig(n_threads=8)
        ev = MappingEvaluator(machine, cfg)
        matrix = CommunicationMatrix(8)
        for t in range(8):
            matrix.add(t, (t + 4) % 8, 1000.0)
        verdict, update = ev.decide(
            matrix, comm_events=8000, events_seen=8000, now_ns=0, force=True
        )
        assert verdict == "migrated"
        assert update is not None and update.mapping != list(range(8))

    def test_far_pair_pattern_migrates(self, machine):
        """The far-pair synthetic stream produces an accepted remap."""
        cfg = SessionConfig(n_threads=8, table_size=10_000, eval_every_events=4096)
        stream = list(synthetic_fault_stream(8, 10_000, seed=2))
        result = offline_reference(stream, cfg, machine)
        assert result.remaps >= 1
        migrated = [e for e in result.evaluations if e.verdict == "migrated"]
        assert migrated and migrated[0].mapping != list(range(8))


# ---------------------------------------------------------------------------
# sharded session vs offline reference: the bit-parity pin
# ---------------------------------------------------------------------------
class TestShardedParity:
    def _drive(self, cfg, stream, machine):
        session = TenantSession("t", cfg, machine)
        updates = []
        for tid, now_ns, vaddrs in stream:
            updates.extend(
                session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
            )
        final = session.evaluate(force=True)
        if final is not None:
            updates.append(final)
        return session, updates

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_digest_and_mapping_parity(self, machine, shards):
        cfg = SessionConfig(
            n_threads=8, table_size=10_000, shards=shards, eval_every_events=4096
        )
        stream = list(synthetic_fault_stream(8, 10_000, seed=3))
        session, updates = self._drive(cfg, stream, machine)
        reference = offline_reference(
            stream, cfg, machine, flush_after=[len(stream) - 1]
        )
        assert session.final_digest() == reference.final_digest
        assert [int(p) for p in session.evaluator.current] == reference.final_mapping
        assert session.evaluator.remaps == reference.remaps
        assert session.comm_events == reference.comm_events
        assert updates and updates[-1].mapping == reference.final_mapping

    def test_shard_count_does_not_change_results(self, machine):
        stream = list(synthetic_fault_stream(8, 8_000, seed=6))
        digests = set()
        mappings = []
        for shards in (1, 3, 4):
            cfg = SessionConfig(
                n_threads=8, table_size=9_999, shards=shards, eval_every_events=4096
            )
            # effective_table_size differs per shard count, so pin it equal
            cfg = SessionConfig(
                n_threads=8,
                table_size=10_008,  # divisible by 1, 3 and 4
                shards=shards,
                eval_every_events=4096,
            )
            session, _ = self._drive(cfg, stream, machine)
            digests.add(session.final_digest())
            mappings.append([int(p) for p in session.evaluator.current])
        assert len(digests) == 1
        assert all(m == mappings[0] for m in mappings)

    def test_evaluation_trace_matches_replay(self, machine, tmp_path):
        from repro.obs.recorder import JsonlRecorder

        cfg = SessionConfig(n_threads=8, table_size=10_000, eval_every_events=4096)
        stream = list(synthetic_fault_stream(8, 8_000, seed=4))
        path = tmp_path / "serve.jsonl"
        recorder = JsonlRecorder(path)
        session = TenantSession("t", cfg, machine, recorder=recorder)
        for tid, now_ns, vaddrs in stream:
            session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
        recorder.close()
        reference = offline_reference(stream, cfg, machine)
        import json

        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(events) == len(reference.evaluations)
        for ev, ref in zip(events, reference.evaluations):
            assert ev["type"] == "serve_evaluation"
            assert ev["verdict"] == ref.verdict
            assert ev["matrix_digest"] == ref.matrix_digest

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("decay", [0.92, 0.5])
    def test_every_evaluation_matches_replay_under_decay(
        self, machine, tmp_path, decay, shards
    ):
        """The session decays its one matrix exactly as the replay decays
        the detector's, so every evaluation's digest and mapping match at
        ``matrix_decay < 1`` too (decay 0.92 on four shard matrices once
        ended on a different final digest)."""
        import json

        from repro.obs.recorder import JsonlRecorder

        cfg = SessionConfig(
            n_threads=8,
            table_size=840,
            shards=shards,
            eval_every_events=2048,
            matrix_decay=decay,
        )
        stream = list(synthetic_fault_stream(8, 10_240, seed=3))
        path = tmp_path / "serve.jsonl"
        recorder = JsonlRecorder(path)
        session = TenantSession("t", cfg, machine, recorder=recorder)
        for tid, now_ns, vaddrs in stream:
            session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs))
        session.evaluate(force=True)
        recorder.close()
        reference = offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])
        events = [json.loads(line) for line in path.read_text().splitlines()]
        got = [(ev["matrix_digest"], ev["mapping"]) for ev in events]
        want = [(ref.matrix_digest, ref.mapping) for ref in reference.evaluations]
        assert got == want
        assert any(mapping is not None for _, mapping in want)
        assert session.final_digest() == reference.final_digest
        assert session.comm_events == reference.comm_events

    def test_ingest_rejects_out_of_range_tid(self, machine):
        cfg = SessionConfig(n_threads=4)
        session = TenantSession("t", cfg, machine)
        with pytest.raises(ProtocolError):
            session.ingest(
                EventBatch(tid=4, now_ns=0, vaddrs=np.zeros(1, dtype=np.int64))
            )

    def test_ingest_rejects_negative_addresses(self, machine):
        """A vaddr in [-granularity, -1] is region -1, the table's empty-slot
        sentinel: two threads sharing it once counted 20 communication
        events while the table reported no insert and no shared region."""
        session = TenantSession("t", SessionConfig(n_threads=4, table_size=64), machine)
        session.ingest(EventBatch(tid=0, now_ns=0, vaddrs=np.full(20, PAGE_SIZE)))
        for tid in (0, 1):
            with pytest.raises(ProtocolError, match="negative address"):
                session.ingest(
                    EventBatch(tid=tid, now_ns=0, vaddrs=np.array([PAGE_SIZE] * 19 + [-1]))
                )
        assert (session.events_seen, session.batches_seen, session.comm_events) == (20, 1, 0)
        assert (session.table.table.inserts, session.table.table.collisions) == (1, 0)

    @pytest.mark.parametrize("now_ns", [-1, MAX_NOW_NS + 1], ids=["below", "above"])
    def test_ingest_rejects_now_ns_outside_the_stamp_range(self, machine, now_ns):
        """The table stores ``now_ns + 1``, 0 meaning "never touched": two
        threads sharing two pages at -1 once counted no event, and at
        ``2**63 - 1`` the stamp overflowed out of the table."""
        pages = np.array([PAGE_SIZE, 2 * PAGE_SIZE], dtype=np.int64)
        session = TenantSession("t", SessionConfig(n_threads=4, table_size=64), machine)
        for tid in (0, 1):
            with pytest.raises(ProtocolError, match="now_ns"):
                session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=pages))
        assert (session.events_seen, session.batches_seen, session.comm_events) == (0, 0, 0)
        assert (len(session.table.table), session.table.table.inserts) == (0, 0)
        assert not session.matrix.matrix.any()

    @pytest.mark.parametrize("now_ns", [0, MAX_NOW_NS], ids=["lowest", "highest"])
    def test_ingest_counts_now_ns_at_the_bounds(self, machine, now_ns):
        pages = np.array([PAGE_SIZE, 2 * PAGE_SIZE], dtype=np.int64)
        session = TenantSession("t", SessionConfig(n_threads=4, table_size=64), machine)
        for tid in (0, 1):
            session.ingest(EventBatch(tid=tid, now_ns=now_ns, vaddrs=pages))
        assert (session.events_seen, session.comm_events) == (4, 2)
        assert session.last_now_ns == now_ns


class TestSyntheticStream:
    def test_deterministic_for_seed(self):
        a = [(t, n, v.tolist()) for t, n, v in synthetic_fault_stream(4, 1000, seed=5)]
        b = [(t, n, v.tolist()) for t, n, v in synthetic_fault_stream(4, 1000, seed=5)]
        assert a == b

    def test_exact_event_counts(self):
        totals = {}
        for tid, _, vaddrs in synthetic_fault_stream(6, 1000, batch_events=300):
            totals[tid] = totals.get(tid, 0) + len(vaddrs)
        assert totals == {t: 1000 for t in range(6)}

    def test_odd_thread_count_rejected(self):
        with pytest.raises(Exception):
            list(synthetic_fault_stream(3, 10))


# ---------------------------------------------------------------------------
# server end-to-end (asyncio.run inside sync tests)
# ---------------------------------------------------------------------------
class TestServerE2E:
    @staticmethod
    def _config(**overrides):
        from repro.serve import ServeConfig

        defaults = dict(
            host="127.0.0.1",
            port=0,
            metrics_port=None,
            max_sessions=4,
            max_table_mb=64.0,
            shards=4,
            eval_every_events=4096,
            credit_window=65536,
            drain_grace_s=5.0,
        )
        defaults.update(overrides)
        return ServeConfig(**defaults)

    def test_admission_refusals(self, machine):
        from repro.errors import AdmissionError
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(max_sessions=1, max_table_mb=0.01), machine=machine
            ) as server:
                port = server.port
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="t", n_threads=4
                    )
                assert exc.value.code == "too-large"
                small = {"table_size": 64}
                first = await AsyncServeClient.connect(
                    "127.0.0.1", port, tenant="a", n_threads=4, config=small
                )
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="b", n_threads=4, config=small
                    )
                assert exc.value.code == "at-capacity"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="", n_threads=4, config=small
                    )
                # capacity is checked before hello validation; free the
                # slot to observe the bad-hello refusals
                await first.close()
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="", n_threads=4, config=small
                    )
                assert exc.value.code == "bad-hello"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1", port, tenant="c", n_threads=1, config=small
                    )
                assert exc.value.code == "bad-hello"
                with pytest.raises(AdmissionError) as exc:
                    await AsyncServeClient.connect(
                        "127.0.0.1",
                        port,
                        tenant="d",
                        n_threads=4,
                        config={"bogus_knob": 1},
                    )
                assert exc.value.code == "bad-hello"
                assert server.sessions_refused == 6

        asyncio.run(scenario())

    def test_bad_hello_config_is_refused_with_an_error(self, machine):
        """Ill-typed or out-of-range overrides draw ERROR ``bad-hello``."""
        from repro.errors import AdmissionError
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                for overrides, _ in BAD_HELLO_CONFIGS.values():
                    with pytest.raises(AdmissionError) as exc:
                        await AsyncServeClient.connect(
                            "127.0.0.1",
                            server.port,
                            tenant="t",
                            n_threads=4,
                            config={"table_size": 64, **overrides},
                        )
                    assert exc.value.code == "bad-hello"
                assert server.sessions_refused == len(BAD_HELLO_CONFIGS)
                assert server.sessions_served == 0

        asyncio.run(scenario())

    def test_bad_hello_n_threads_is_refused_with_an_error(self, machine):
        """A HELLO whose ``n_threads`` is not an int64 draws ERROR ``bad-hello``."""
        from repro.serve import MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                for n_threads in BAD_N_THREADS.values():
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    hello = {"tenant": "t", "n_threads": n_threads}
                    await protocol.write_frame(
                        writer, protocol.encode(MsgType.HELLO, hello)
                    )
                    frame = await asyncio.wait_for(protocol.read_frame(reader), 5.0)
                    writer.close()
                    assert frame is not None and frame.type is MsgType.ERROR, n_threads
                    assert frame.payload["code"] == "bad-hello"
                assert server.sessions_refused == len(BAD_N_THREADS)
                assert server.sessions_served == 0

        asyncio.run(scenario())

    def test_multi_tenant_digest_parity(self, machine):
        """Concurrent tenants each end bit-identical to their offline replay."""
        from repro.serve import AsyncServeClient, MappingServer, SessionConfig

        n_threads, per_thread = 8, 6_000
        overrides = {"table_size": 10_000, "eval_every_events": 4096}

        async def tenant(port, name, seed):
            client = await AsyncServeClient.connect(
                "127.0.0.1", port, tenant=name, n_threads=n_threads, config=overrides
            )
            stream = list(
                synthetic_fault_stream(n_threads, per_thread, seed=seed)
            )
            for tid, now_ns, vaddrs in stream:
                await client.send_events(tid, now_ns, vaddrs)
            summary = await client.close()
            return stream, summary, client.mappings

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                results = await asyncio.gather(
                    *(tenant(server.port, f"t{i}", seed=i) for i in range(3))
                )
                assert server.sessions_served == 3
            return results

        for stream, summary, mappings in asyncio.run(scenario()):
            cfg = SessionConfig.from_overrides(
                SessionConfig(n_threads=n_threads, shards=4, eval_every_events=4096),
                overrides,
            )
            ref = offline_reference(
                stream, cfg, machine, flush_after=[len(stream) - 1]
            )
            assert summary["events"] == n_threads * per_thread
            assert summary["matrix_digest"] == ref.final_digest
            assert summary["mapping"] == ref.final_mapping
            assert len(mappings) >= 1
            assert mappings[-1]["mapping"] == ref.final_mapping

    def test_small_credit_window_loses_nothing(self, machine):
        """Backpressure throttles the client; every event still lands."""
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(credit_window=512), machine=machine
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="slow",
                    n_threads=4,
                    config={"table_size": 4096},
                )
                assert client.welcome["credits"] == 512
                sent = 0
                for tid, now_ns, vaddrs in synthetic_fault_stream(
                    4, 2_000, batch_events=256, seed=7
                ):
                    await client.send_events(tid, now_ns, vaddrs)
                    sent += len(vaddrs)
                summary = await client.close()
                assert summary["events"] == sent == 8_000
                assert server.events_total == 8_000

        asyncio.run(scenario())

    def test_flush_forces_evaluation(self, machine):
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="f",
                    n_threads=8,
                    config={"table_size": 10_000, "eval_every_events": 1 << 30},
                )
                for tid, now_ns, vaddrs in synthetic_fault_stream(8, 4_000, seed=8):
                    await client.send_events(tid, now_ns, vaddrs)
                # cadence never fires (huge eval_every); flush must
                pushed = await client.flush()
                assert pushed is not None
                assert pushed["mapping"] != list(range(8))
                summary = await client.close()
                assert summary["evaluations"] >= 1
                assert summary["remaps"] >= 1

        asyncio.run(scenario())

    def test_metrics_frame_and_http(self, machine):
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            async with MappingServer(
                self._config(metrics_port=0), machine=machine
            ) as server:
                client = await AsyncServeClient.connect(
                    "127.0.0.1",
                    server.port,
                    tenant="m",
                    n_threads=4,
                    config={"table_size": 4096},
                )
                for tid, now_ns, vaddrs in synthetic_fault_stream(4, 1_000, seed=9):
                    await client.send_events(tid, now_ns, vaddrs)
                await client.flush()
                text = await client.metrics()
                assert "serve_events_total 4000" in text
                assert 'serve_sessions 1' in text
                # the plaintext HTTP endpoint serves the same exposition
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert raw.startswith(b"HTTP/1.0 200 ")
                assert b"serve_events_total 4000" in raw
                await client.close()

        asyncio.run(scenario())

    def test_drain_with_open_session_flushes_trace(self, machine, tmp_path):
        import json

        from repro.obs.recorder import JsonlRecorder
        from repro.serve import AsyncServeClient, MappingServer

        path = tmp_path / "serve.jsonl"

        async def scenario():
            recorder = JsonlRecorder(path)
            server = MappingServer(
                self._config(drain_grace_s=0.5), machine=machine, recorder=recorder
            )
            await server.start()
            client = await AsyncServeClient.connect(
                "127.0.0.1",
                server.port,
                tenant="open",
                n_threads=8,
                config={"table_size": 10_000},
            )
            for tid, now_ns, vaddrs in synthetic_fault_stream(8, 3_000, seed=10):
                await client.send_events(tid, now_ns, vaddrs)
            # session left open: drain must end it with reason="drain"
            await server.drain("test-drain")
            await client.close()

        asyncio.run(scenario())
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["type"] for e in events]
        assert kinds[0] == "serve_start"
        assert kinds[-1] == "serve_end"
        ends = [e for e in events if e["type"] == "serve_session_end"]
        assert len(ends) == 1 and ends[0]["reason"] == "drain"
        assert ends[0]["events"] == 24_000
        assert ends[0]["matrix_digest"]
        final = [e for e in events if e["type"] == "serve_end"][0]
        assert final["reason"] == "test-drain"
        assert final["events_total"] == 24_000

    def test_draining_server_refuses_new_sessions(self, machine):
        from repro.errors import AdmissionError
        from repro.serve import AsyncServeClient, MappingServer

        async def scenario():
            server = MappingServer(self._config(), machine=machine)
            await server.start()
            port = server.port
            drainer = asyncio.ensure_future(server.drain())
            await drainer
            with pytest.raises((AdmissionError, ConnectionError, OSError)):
                await AsyncServeClient.connect(
                    "127.0.0.1", port, tenant="late", n_threads=4
                )

        asyncio.run(scenario())

    def test_protocol_error_ends_session(self, machine):
        from repro.serve import MappingServer, ServeClient

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                port = server.port

                def bad_client():
                    client = ServeClient(
                        "127.0.0.1",
                        port,
                        tenant="bad",
                        n_threads=4,
                        config={"table_size": 4096},
                    )
                    try:
                        # tid out of range for the session
                        client.send_events(99, 0, np.zeros(4, dtype=np.int64))
                        with pytest.raises(Exception):
                            client.flush()
                    finally:
                        client._sock.close()

                await asyncio.get_running_loop().run_in_executor(None, bad_client)
                # give the server a beat to finish the teardown
                for _ in range(50):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.02)
                assert not server._connections

        asyncio.run(scenario())

    def _events_draw_error_then_eof(self, machine, now_ns, vaddrs, message):
        """Send one EVENTS batch on a fresh session; expect ERROR
        ``protocol`` naming *message*, then EOF, the session released and
        no event counted."""
        from repro.serve import MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                hello = {"tenant": "bad", "n_threads": 4, "config": {"table_size": 4096}}
                await protocol.write_frame(writer, protocol.encode(MsgType.HELLO, hello))
                welcome = await protocol.read_frame(reader)
                assert welcome.type is MsgType.WELCOME
                await protocol.write_frame(writer, protocol.encode_events(1, now_ns, vaddrs))
                error = await asyncio.wait_for(protocol.read_frame(reader), 5.0)
                assert error.type is MsgType.ERROR
                assert error.payload["code"] == "protocol"
                assert message in error.payload["message"]
                assert await asyncio.wait_for(protocol.read_frame(reader), 5.0) is None
                writer.close()
                for _ in range(50):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.02)
                assert not server._connections
                assert server.events_total == 0

        asyncio.run(scenario())

    def test_negative_address_draws_error_then_eof(self, machine):
        """An EVENTS batch with a negative address is answered with ERROR
        ``protocol``, the connection is closed and the session released."""
        vaddrs = np.array([PAGE_SIZE, -1], dtype=np.int64)
        self._events_draw_error_then_eof(machine, 0, vaddrs, "negative address")

    @pytest.mark.parametrize("now_ns", [-1, MAX_NOW_NS + 1], ids=["below", "above"])
    def test_now_ns_out_of_range_draws_error_then_eof(self, machine, now_ns):
        """An EVENTS batch whose ``now_ns`` the table cannot stamp is
        answered with ERROR ``protocol``; ``2**63 - 1`` once raised an
        untyped OverflowError that closed the connection without one."""
        vaddrs = np.array([PAGE_SIZE, 2 * PAGE_SIZE], dtype=np.int64)
        self._events_draw_error_then_eof(machine, now_ns, vaddrs, "now_ns")

    def test_malformed_events_json_draws_error_then_eof(self, machine):
        """An unparseable EVENTS_JSON frame is answered with ERROR, the
        connection is closed, and the session is released."""
        from repro.serve import MappingServer

        async def scenario():
            async with MappingServer(self._config(), machine=machine) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                hello = {"tenant": "bad", "n_threads": 4, "config": {"table_size": 4096}}
                await protocol.write_frame(writer, protocol.encode(MsgType.HELLO, hello))
                welcome = await protocol.read_frame(reader)
                assert welcome.type is MsgType.WELCOME
                body = b'{"tid": 1e400, "now_ns": 0, "vaddrs": [4096]}'
                await protocol.write_frame(
                    writer, protocol._HEADER.pack(len(body), MsgType.EVENTS_JSON) + body
                )
                error = await asyncio.wait_for(protocol.read_frame(reader), 5.0)
                assert error.type is MsgType.ERROR
                assert error.payload["code"] == "protocol"
                assert await asyncio.wait_for(protocol.read_frame(reader), 5.0) is None
                writer.close()
                for _ in range(50):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.02)
                assert not server._connections

        asyncio.run(scenario())
