"""Tests for the NPB and producer/consumer workload generators."""

import numpy as np
import pytest

from repro import CommunicationMatrix, EngineConfig, Simulator
from repro.errors import WorkloadError
from repro.graphs.workloads import make_pagerank, make_spmv
from repro.mem.addresspace import AddressSpace
from repro.units import MSEC, PAGE_SIZE
from repro.workloads.npb import NPB_SPECS, make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload, phase_intervals


def prepared(workload, capacity=1 << 17):
    space = AddressSpace(capacity)
    workload.setup(space)
    return space


class TestNpbCatalogue:
    def test_all_ten_benchmarks_present(self):
        assert sorted(NPB_SPECS) == [
            "BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA",
        ]

    def test_classification_matches_paper(self):
        hetero = {"BT", "CG", "DC", "LU", "MG", "SP", "UA"}
        for name, spec in NPB_SPECS.items():
            expected = "heterogeneous" if name in hetero else "homogeneous"
            assert spec.classification == expected, name

    def test_make_npb_case_insensitive(self):
        assert make_npb("sp").name == "SP"

    def test_make_npb_unknown(self):
        with pytest.raises(WorkloadError):
            make_npb("ZZ")

    def test_sp_communicates_most(self):
        fractions = {n: s.shared_fraction for n, s in NPB_SPECS.items()}
        assert max(fractions, key=fractions.get) == "SP"
        assert min(fractions, key=fractions.get) == "EP"


class TestNpbGeneration:
    def test_generate_requires_setup(self, rng):
        wl = make_npb("BT")
        with pytest.raises(WorkloadError):
            wl.generate(0, 10, 0, rng)

    def test_batch_shape_and_range(self, rng):
        wl = make_npb("BT")
        space = prepared(wl)
        batch = wl.generate(3, 500, 0, rng)
        assert len(batch) == 500
        assert batch.tid == 3
        limit = space.span_pages * PAGE_SIZE
        assert (batch.vaddrs >= 0).all() and (batch.vaddrs < limit).all()

    def test_addresses_line_aligned(self, rng):
        wl = make_npb("LU")
        prepared(wl)
        batch = wl.generate(0, 200, 0, rng)
        assert (batch.vaddrs % 64 == 0).all()

    def test_addresses_land_in_own_regions(self, rng):
        wl = make_npb("SP")
        space = prepared(wl)
        batch = wl.generate(5, 2000, 0, rng)
        allowed_prefixes = ("SP.hot5", "SP.priv5", "SP.stream5", "SP.pair")
        for addr in batch.vaddrs[:: max(1, len(batch) // 100)]:
            region = space.region_of(int(addr))
            assert region is not None
            assert region.name.startswith(allowed_prefixes)
            if region.name.startswith("SP.pair"):
                i, j = region.name[len("SP.pair"):].split("_")
                assert 5 in (int(i), int(j))

    def test_chain_partners_share_pair_regions(self, rng):
        wl = make_npb("SP")
        space = prepared(wl)
        pages_5 = {
            int(a) // PAGE_SIZE
            for a in wl.generate(5, 4000, 0, rng).vaddrs
        }
        pages_6 = {
            int(a) // PAGE_SIZE
            for a in wl.generate(6, 4000, 0, rng).vaddrs
        }
        shared = pages_5 & pages_6
        assert shared  # the (5,6) pair region is touched by both
        for page in shared:
            name = space.region_of(page * PAGE_SIZE).name
            assert name.startswith("SP.pair")

    def test_ep_threads_barely_share(self, rng):
        wl = make_npb("EP")
        prepared(wl)
        a = {int(x) // PAGE_SIZE for x in wl.generate(0, 3000, 0, rng).vaddrs}
        b = {int(x) // PAGE_SIZE for x in wl.generate(1, 3000, 0, rng).vaddrs}
        assert len(a & b) <= 32  # at most the tiny global region

    def test_uniform_benchmark_shares_global(self, rng):
        wl = make_npb("FT")
        space = prepared(wl)
        batch = wl.generate(0, 4000, 0, rng)
        regions = {space.region_of(int(a)).name for a in batch.vaddrs}
        assert "FT.global" in regions

    def test_streaming_is_sequential(self, rng):
        wl = make_npb("DC")
        space = prepared(wl)
        stream = space.region("DC.stream0")
        batch = wl.generate(0, 6000, 0, rng)
        in_stream = batch.vaddrs[
            (batch.vaddrs >= stream.base) & (batch.vaddrs < stream.end)
        ]
        assert len(in_stream) > 100
        # consecutive stream addresses advance by one line (modulo wrap)
        deltas = np.diff(in_stream)
        wrapped = deltas != 64
        assert wrapped.mean() < 0.05

    def test_ground_truth_matches_spec_pattern(self):
        for name in ("BT", "FT", "EP"):
            wl = make_npb(name)
            gt = wl.ground_truth()
            assert gt.n == 32
            if name == "EP":
                assert gt.total() == 0
            if name == "FT":
                assert gt.heterogeneity() == 0  # uniform

    def test_write_fraction_respected(self, rng):
        wl = make_npb("BT")
        prepared(wl)
        batch = wl.generate(0, 5000, 0, rng)
        assert abs(batch.is_write.mean() - wl.write_fraction) < 0.05


class TestProducerConsumer:
    def test_rejects_odd_threads(self):
        with pytest.raises(WorkloadError):
            ProducerConsumerWorkload(n_threads=5)

    def test_phase_pairings(self):
        wl = ProducerConsumerWorkload(n_threads=8)
        assert wl.partner_of(0, 0) == 1 and wl.partner_of(1, 0) == 0
        assert wl.partner_of(0, 1) == 4 and wl.partner_of(4, 1) == 0

    def test_phase_at_alternates(self):
        wl = ProducerConsumerWorkload(phase_period_ns=100)
        assert wl.phase_at(0) == 0
        assert wl.phase_at(100) == 1
        assert wl.phase_at(250) == 0

    def test_start_phase_offset(self):
        wl = ProducerConsumerWorkload(phase_period_ns=100, start_phase=1)
        assert wl.phase_at(0) == 1

    def test_producer_is_lower_id(self):
        wl = ProducerConsumerWorkload(n_threads=8)
        assert wl.is_producer(0, 0) and not wl.is_producer(1, 0)

    def test_accesses_follow_phase(self, rng):
        wl = ProducerConsumerWorkload(n_threads=8, phase_period_ns=100 * MSEC)
        space = prepared(wl)
        vec_phase0 = space.region("pc.vec0_1")
        vec_phase1 = space.region("pc.vec0_4")
        batch0 = wl.generate(0, 4000, 0, rng)
        batch1 = wl.generate(0, 4000, 100 * MSEC, rng)
        in0 = ((batch0.vaddrs >= vec_phase0.base) & (batch0.vaddrs < vec_phase0.end)).mean()
        in1 = ((batch1.vaddrs >= vec_phase1.base) & (batch1.vaddrs < vec_phase1.end)).mean()
        assert in0 > 0.02 and in1 > 0.02
        assert ((batch0.vaddrs >= vec_phase1.base) & (batch0.vaddrs < vec_phase1.end)).sum() == 0

    def test_producers_write_consumers_read(self, rng):
        wl = ProducerConsumerWorkload(n_threads=8)
        space = prepared(wl)
        vec = space.region("pc.vec0_1")
        prod = wl.generate(0, 6000, 0, rng)
        cons = wl.generate(1, 6000, 0, rng)
        pmask = (prod.vaddrs >= vec.base) & (prod.vaddrs < vec.end)
        cmask = (cons.vaddrs >= vec.base) & (cons.vaddrs < vec.end)
        assert prod.is_write[pmask].mean() > 0.6
        assert cons.is_write[cmask].mean() < 0.3

    def test_ground_truth_per_phase(self):
        wl = ProducerConsumerWorkload(n_threads=8, phase_period_ns=100)
        gt0 = wl.ground_truth(0)
        gt1 = wl.ground_truth(150)
        assert gt0.matrix[0, 1] > 0 and gt0.matrix[0, 4] == 0
        assert gt1.matrix[0, 4] > 0 and gt1.matrix[0, 1] == 0

    def test_overall_ground_truth_blends(self):
        wl = ProducerConsumerWorkload(n_threads=8)
        gt = wl.ground_truth()
        assert gt.matrix[0, 1] > 0 and gt.matrix[0, 4] > 0

    def test_thin_transition_interval_is_widened(self):
        """Fig. 6c once went missing: the one pair of snapshots around the
        phase change held too few events and was skipped."""
        wl = ProducerConsumerWorkload(n_threads=4, phase_period_ns=100)
        running = CommunicationMatrix(4)
        snapshots = [(10, running.copy())]
        for now in range(30, 200, 20):
            # 30 events per interval inside a phase, 5 across the change
            pair = (0, 1) if wl.phase_at(now) == 0 else (0, 2)
            running.add(*pair, 5.0 if now == 110 else 30.0)
            snapshots.append((now, running.copy()))
        intervals = phase_intervals(wl, snapshots)
        assert intervals["phase1"].matrix[0, 1] == 30.0  # 30 -> 50 ms
        assert intervals["phase2"].matrix[0, 2] == 30.0  # 110 -> 130 ms
        # 90 -> 110 holds 5 events; widened once, 70 -> 130 holds 65
        transition = intervals["transition"]
        assert transition.total() == 65.0
        assert transition.matrix[0, 1] == 30.0 and transition.matrix[0, 2] == 35.0
        # with no snapshot to widen to, there is no transition view
        assert phase_intervals(wl, snapshots[4:6])["transition"] is None


REUSED = {
    "SP": lambda: make_npb("SP"),
    "spmv": make_spmv,
    "producer_consumer": ProducerConsumerWorkload,
}


class TestOneSetupPerInstance:
    """Setup maps a workload's regions into one address space and builds its
    tables over them.  A second setup used to append the SP and SpMV pair
    regions again (61 -> 122 and 204 -> 408 channels) and left
    producer/consumer on the first space's vectors, so a reused instance
    silently gave different results."""

    @pytest.mark.parametrize("name", sorted(REUSED))
    def test_second_setup_raises_before_mapping(self, name):
        wl = REUSED[name]()
        prepared(wl)
        space = AddressSpace(1 << 17)
        with pytest.raises(WorkloadError, match=wl.name):
            wl.setup(space)
        assert space.regions() == []

    @pytest.mark.parametrize("name", sorted(REUSED))
    def test_second_simulator_on_one_instance_raises(self, name):
        wl = REUSED[name]()
        config = EngineConfig(steps=1, batch_size=64)
        Simulator(wl, "os", seed=1, config=config)
        with pytest.raises(WorkloadError, match=wl.name):
            Simulator(wl, "os", seed=1, config=config)


STEPPED = {
    "SP": lambda: make_npb("SP"),
    "EP": lambda: make_npb("EP"),
    "producer_consumer": ProducerConsumerWorkload,
    "spmv": make_spmv,
    "pagerank": make_pagerank,
}


class TestGenerateStep:
    """``generate_step`` makes every thread's batch of a step in one call;
    ``generate`` is its one-thread call."""

    @pytest.mark.parametrize("name", sorted(STEPPED))
    def test_rows_equal_per_thread_calls_in_any_order(self, name):
        """Each row is the thread's own stream, whichever threads the call
        holds and in whatever order (PageRank's and producer/consumer's
        second phase included)."""
        tids = [7, 30, 2, 19]
        for now in (0, 160 * MSEC):
            stepped, single = STEPPED[name](), STEPPED[name]()
            prepared(stepped)
            prepared(single)
            rngs = [np.random.default_rng(100 + t) for t in tids]
            vaddrs, writes = stepped.generate_step(tids, 300, now, rngs)
            for row, tid in enumerate(tids):
                batch = single.generate(tid, 300, now, np.random.default_rng(100 + tid))
                assert np.array_equal(vaddrs[row], batch.vaddrs)
                assert np.array_equal(writes[row], batch.is_write)

    @pytest.mark.parametrize("name", sorted(STEPPED))
    def test_empty_step_and_empty_batches(self, name):
        wl = STEPPED[name]()
        prepared(wl)
        vaddrs, writes = wl.generate_step([], 16, 0, [])
        assert vaddrs.shape == writes.shape == (0, 16)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        batch = wl.generate(3, 0, 0, rng)
        assert len(batch) == 0 and batch.tid == 3
        assert rng.bit_generator.state == state


class TestGenerationArguments:
    """Bad generation arguments raise ``WorkloadError`` in every workload.
    ``generate(-1, ...)`` used to return thread 31's stream, thread 32 an
    ``IndexError``, and ``n=-3`` and ``n=2.5`` numpy's ``ValueError`` and
    ``TypeError``."""

    @pytest.fixture(params=sorted(STEPPED))
    def workload(self, request):
        wl = STEPPED[request.param]()
        prepared(wl)
        return wl

    @pytest.mark.parametrize("tid", [-1, 32, 1000])
    def test_thread_id_out_of_range(self, workload, tid, rng):
        with pytest.raises(WorkloadError, match="thread ids"):
            workload.generate(tid, 10, 0, rng)
        with pytest.raises(WorkloadError, match="thread ids"):
            workload.generate_step([0, tid], 10, 0, [rng, np.random.default_rng(2)])

    @pytest.mark.parametrize("tid", [1.0, "1", True])
    def test_thread_id_not_an_integer(self, workload, tid, rng):
        with pytest.raises(WorkloadError, match="thread ids"):
            workload.generate(tid, 10, 0, rng)

    def test_thread_id_repeated(self, workload):
        rngs = [np.random.default_rng(t) for t in range(3)]
        with pytest.raises(WorkloadError, match="repeated"):
            workload.generate_step([4, 5, 4], 10, 0, rngs)

    @pytest.mark.parametrize("n_rngs", [0, 2, 4])
    def test_generator_count_differs(self, workload, n_rngs):
        rngs = [np.random.default_rng(t) for t in range(n_rngs)]
        with pytest.raises(WorkloadError, match="generators"):
            workload.generate_step([0, 1, 2], 10, 0, rngs)

    def test_generator_shared_by_two_threads(self, workload, rng):
        with pytest.raises(WorkloadError, match="shared"):
            workload.generate_step([0, 1], 10, 0, [rng, rng])

    @pytest.mark.parametrize("n", [-3, 2.5, "8", True, None])
    def test_batch_size_not_a_non_negative_integer(self, workload, n, rng):
        with pytest.raises(WorkloadError, match="batch size"):
            workload.generate(0, n, 0, rng)
        with pytest.raises(WorkloadError, match="batch size"):
            workload.generate_step([0], n, 0, [rng])

    def test_numpy_integers_are_accepted(self, workload, rng):
        batch = workload.generate(np.int64(3), np.int32(8), 0, rng)
        assert len(batch) == 8
        vaddrs, _ = workload.generate_step(np.array([1, 0]), np.int64(5), 0,
                                           [rng, np.random.default_rng(9)])
        assert vaddrs.shape == (2, 5)
