"""Page-table replica coherence under interleaved mutator streams (mem/).

Drives the real ``mem/`` stack with a :class:`ReplicatedPageTable`
through every interleaving of the three mutator streams of a placement
run — faults, data-mapper page migrations, SPCD present-bit injection —
and asserts replica coherence plus TLB coherence after every op (see
``repro/check/replica.py``).  The fast tests fully enumerate the 2-node
× 2-page model; the ``slow``-marked test covers the issue's full 2-node
× 4-page model.  A hypothesis stateful machine samples deeper random
schedules of the 4-page model under the shared dev/ci/exhaustive
profiles.

Two negative controls prove the checker has teeth:

* ``broadcast_present=False`` (the replica bug: present bits never
  broadcast) must yield a divergence counterexample;
* ``migrate_noshoot`` (the data-mapper bug: migration without a TLB
  shootdown — ``SpcdDataMapper.apply_moves`` run through a pipeline with
  no TLBs) must yield a stale/wrong-translation counterexample.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.check import ReplicaModel, check_replica_interleavings, replica_alphabet

N_NODES, N_PAGES = 2, 4


def test_alphabet_covers_every_stream():
    ops = replica_alphabet(N_NODES, N_PAGES, with_noshoot=True)
    kinds = {op[0] for op in ops}
    assert kinds == {"fault", "migrate", "migrate_noshoot", "clear"}
    # one fault op per (node, page), one migrate op per (page, node)
    assert sum(op[0] == "fault" for op in ops) == N_NODES * N_PAGES
    assert sum(op[0] == "migrate" for op in ops) == N_PAGES * N_NODES


def test_replicas_stay_coherent_under_full_enumeration():
    """The real broadcast discipline survives every 2-page schedule."""
    found = check_replica_interleavings(
        n_nodes=2, n_pages=2, max_len=4, tlb_capacity=2
    )
    assert found == []


def test_negative_control_dropped_present_broadcast_is_caught():
    """Dropping the present-bit half of the broadcast must be detected."""
    found = check_replica_interleavings(
        n_nodes=2, n_pages=2, max_len=3, tlb_capacity=2, broadcast_present=False
    )
    assert found, "the checker failed to detect the seeded present-bit bug"
    cx = found[0]
    # minimisation must reduce it to the 1-op essence: the very first
    # fault maps a page on the primary, the replicas never hear present=1
    assert len(cx.ops) == 1
    assert cx.ops[0][0] == "fault"
    assert "diverged" in cx.reason and "present" in cx.reason


def test_negative_control_migration_without_shootdown_is_caught():
    """A migration that skips the TLB shootdown must leave a bad entry."""
    found = check_replica_interleavings(
        n_nodes=2, n_pages=2, max_len=3, tlb_capacity=2, with_noshoot=True
    )
    assert found, "the checker failed to detect the seeded shootdown bug"
    cx = found[0]
    # the 2-op essence: fault caches a translation, the no-shootdown
    # migration remaps the page underneath it
    assert len(cx.ops) == 2
    assert cx.ops[0][0] == "fault"
    assert cx.ops[1][0] == "migrate_noshoot"
    assert "translation" in cx.reason


@pytest.mark.slow
def test_full_two_node_four_page_model():
    """The issue's 2-node × 4-page model, full enumeration."""
    found = check_replica_interleavings(
        n_nodes=2, n_pages=4, max_len=4, tlb_capacity=2
    )
    assert found == []
    found = check_replica_interleavings(
        n_nodes=2, n_pages=4, max_len=2, tlb_capacity=2, broadcast_present=False
    )
    assert found and "diverged" in found[0].reason


class ReplicaCoherence(RuleBasedStateMachine):
    """Random deep schedules of the 4-page model (profile-scaled)."""

    def __init__(self):
        super().__init__()
        self.model = ReplicaModel(N_NODES, N_PAGES, tlb_capacity=2)

    @rule(node=st.integers(0, N_NODES - 1), page=st.integers(0, N_PAGES - 1))
    def fault(self, node, page):
        self.model.apply(("fault", node, page))

    @rule(page=st.integers(0, N_PAGES - 1), node=st.integers(0, N_NODES - 1))
    def migrate(self, page, node):
        self.model.apply(("migrate", page, node))

    @rule(page=st.integers(0, N_PAGES - 1))
    def clear(self, page):
        self.model.apply(("clear", page))

    @invariant()
    def coherent(self):
        reason = self.model.violation()
        assert reason is None, reason
        # the structural page-table invariants must hold too
        assert self.model.space.page_table.consistency_ok()


TestReplicaCoherence = ReplicaCoherence.TestCase
