"""The thread-mapping algorithm (paper Sec. IV-B).

Threads are paired by maximum-weight perfect matching on the communication
matrix; on architectures where more than two PUs share a cache the pairing is
repeated over *groups* (Eq. 1) until groups fill a socket.  The resulting
pairing tree is then laid onto the machine: socket-sized groups onto sockets,
their level-1 pairs onto cores, and pair members onto SMT siblings — so
heavily communicating threads land as close as the hierarchy allows.

Thread counts that do not fill the machine are padded with zero-communication
virtual threads; topologies whose per-level capacities are not powers of two
fall back to a greedy affinity packing for that level.  Because of the
padding, every matching solved here is as large as the machine, so
:func:`select_mapper_algorithm` keys the switch to the scalable
hierarchical mapper on the machine's PU count.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.grouping import Group, build_hierarchy, group_matrix
from repro.errors import MappingError
from repro.machine.topology import CommDistance, Machine

__all__ = [
    "AUTO_HIERARCHICAL_PUS",
    "HierarchicalMapper",
    "MAPPER_ALGORITHMS",
    "lay_out_socket_groups",
    "make_mapper",
    "mapping_comm_cost",
    "select_mapper_algorithm",
]

_log = logging.getLogger(__name__)

#: Relative communication cost per distance class, used only for *evaluating*
#: mapping quality (tests/oracle comparisons), not by the algorithm itself.
DISTANCE_COST = {
    CommDistance.SAME_PU: 0.0,
    CommDistance.SAME_CORE: 1.0,
    CommDistance.SAME_SOCKET: 2.5,
    CommDistance.CROSS_SOCKET: 10.0,
}


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _linear_sum_assignment(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of the rows of *cost* (a list of equal-length
    rows of finite floats) to its columns.

    Crouse's shortest augmenting path (2016), ported step for step from the
    reference C++ solver that ``tests/test_numpy_runtime.py`` holds it to:
    the same scan order and tie rules, so the same ``(row_ind, col_ind)``,
    ties included.  The slot assignment, and so every recorded placement,
    depends on which optimum wins a tie.
    """
    rows = cost
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    # a tall matrix is solved transposed and its pairs sorted by row
    transpose = nc < nr
    if transpose:
        rows = [list(col) for col in zip(*rows)]
        nr, nc = nc, nr
    inf = float("inf")
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row *cur* to an unassigned column
        spc = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        sr: list[int] = []
        sc: list[int] = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            sr.append(i)
            row, ui = rows[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                s = spc[j]
                r = min_val + row[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                # among equal lowest costs, an unassigned column (a new sink)
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path back to row *cur*
        u[cur] += min_val
        for i in sr[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in sc:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[i] for i in order], order
    return list(range(nr)), col4row


def _pack_greedy(
    comm: np.ndarray, groups: list[Group], n_bins: int, per_bin: int
) -> list[list[Group]]:
    """Greedy affinity packing of *groups* into *n_bins* bins.

    Fallback for levels whose capacity is not a power-of-two multiple of the
    group size.  Seeds each bin with the heaviest unassigned group, then
    repeatedly adds the group with the highest communication toward the
    fullest-affinity bin.
    """
    h = group_matrix(comm, groups)
    unassigned = set(range(len(groups)))
    bins: list[list[int]] = []
    for _ in range(n_bins):
        if not unassigned:
            bins.append([])
            continue
        seed = max(unassigned, key=lambda g: h[g].sum())
        unassigned.discard(seed)
        members = [seed]
        while len(members) < per_bin and unassigned:
            best = max(unassigned, key=lambda g: h[members, g].sum())
            unassigned.discard(best)
            members.append(best)
        bins.append(members)
    if unassigned:
        raise MappingError("greedy packing left groups unassigned")
    return [[groups[g] for g in members] for members in bins]


def _check_current(current: np.ndarray | None, n_threads: int) -> np.ndarray | None:
    """*current* as an array of one PU per thread (``None`` passes through);
    both mappers' ``map`` check it here before reading it, and so does
    :func:`lay_out_socket_groups`."""
    if current is None:
        return None
    current = np.asarray(current)
    if current.shape != (n_threads,):
        raise MappingError(
            f"current placement has shape {current.shape}; expected ({n_threads},)"
        )
    return current


def _keep_most(overlap: list[list[float]]) -> list[int]:
    """Column for each row of *overlap* (how many threads of a group sit on
    each socket, core or PU now) that keeps the most threads in place: the
    solver's assignment of the negated counts.  With nothing to keep, that
    is row *i* to column *i* (the solver's answer for a zero matrix), so
    the solver is skipped."""
    if not any(map(any, overlap)):
        return list(range(len(overlap)))
    return _linear_sum_assignment([[-x for x in row] for row in overlap])[1]


def lay_out_socket_groups(
    machine: Machine,
    socket_groups: list[list[Group]],
    current: np.ndarray | None,
    n_threads: int,
) -> np.ndarray:
    """Assign socket groups to sockets, core groups to cores, threads to
    PUs — breaking equivalence ties toward the *current* placement.

    Shared by the Edmonds-backed :class:`HierarchicalMapper` and the
    scalable bisection mapper in :mod:`repro.graphs.hiermap`: both reduce
    their pairing/partition tree to this ``socket -> core -> SMT`` slot
    assignment, so stickiness-vs-current behaviour is identical across
    mapping algorithms.
    """
    current = _check_current(current, n_threads)
    # each slot's current PU: none for virtual threads, or without *current*
    pu_now: list[int | None] = [None] * machine.n_pus
    if current is not None:
        pu_now[:n_threads] = [int(pu) for pu in current]
    pu_of_slot = np.full(machine.n_pus, -1, dtype=np.int64)

    # Socket level: maximise threads already on their assigned socket.
    overlap = [[0.0] * machine.n_sockets for _ in socket_groups]
    for g, cores in enumerate(socket_groups):
        for group in cores:
            for tid in group:
                if pu_now[tid] is not None:
                    overlap[g][machine.socket_of(pu_now[tid])] += 1.0
    socket_of_group = _keep_most(overlap)

    for cores, socket_id in zip(socket_groups, socket_of_group):
        core_ids = machine.cores_of_socket(socket_id)
        if len(cores) > len(core_ids):
            raise MappingError("more core groups than cores in socket")
        # Core level: maximise threads already on their assigned core.
        slot_of_core = {core: k for k, core in enumerate(core_ids)}
        overlap = [[0.0] * len(core_ids) for _ in cores]
        for ci, group in enumerate(cores):
            for tid in group:
                if pu_now[tid] is not None:
                    k = slot_of_core.get(machine.core_of(pu_now[tid]))
                    if k is not None:
                        overlap[ci][k] += 1.0
        for group, k in zip(cores, _keep_most(overlap)):
            pus = machine.pus_of_core(core_ids[k])
            if len(group) > len(pus):
                raise MappingError("core group larger than SMT width")
            # SMT level: keep a member on its current PU where possible.
            overlap = [[float(pu_now[tid] == pu) for pu in pus] for tid in group]
            for tid, pi in zip(group, _keep_most(overlap)):
                pu_of_slot[tid] = pus[pi]
    return pu_of_slot


class HierarchicalMapper:
    """Computes a thread -> PU mapping from a communication matrix."""

    def __init__(self, machine: Machine, *, stickiness: float = 0.2) -> None:
        self.machine = machine
        #: bonus (as a fraction of the mean positive communication) granted
        #: to pairs already sharing a core / socket when a current placement
        #: is supplied — ties and near-ties resolve toward the existing
        #: placement so sampling noise does not flip the pairing structure
        #: and migrate every thread
        self.stickiness = stickiness
        #: total mapper invocations (Table II reports migrations; the
        #: manager reports calls for the overhead figure)
        self.calls = 0

    def map(
        self,
        matrix: CommunicationMatrix | np.ndarray,
        current: np.ndarray | None = None,
    ) -> np.ndarray:
        """Thread -> PU assignment maximising nearby communication.

        Args:
            matrix: the communication matrix (``n_threads <= machine.n_pus``).
            current: the threads' current PU placement.  The grouping the
                matcher produces is invariant under permuting equivalent
                sockets/cores/SMT slots; when *current* is given, those ties
                are broken to minimise the number of threads that actually
                move (matching the paper's goal of migrating only when the
                pattern really changed).  One PU per thread, or
                :class:`MappingError`.

        Returns:
            int array ``pu_of_tid`` of length ``n_threads``.
        """
        self.calls += 1
        comm = matrix.matrix if isinstance(matrix, CommunicationMatrix) else np.asarray(matrix)
        n_threads = comm.shape[0]
        machine = self.machine
        n_pus = machine.n_pus
        if n_threads > n_pus:
            raise MappingError(
                f"{n_threads} threads exceed the machine's {n_pus} PUs"
            )
        current = _check_current(current, n_threads)
        # Pad with zero-communication virtual threads to fill the machine.
        padded = np.zeros((n_pus, n_pus))
        padded[:n_threads, :n_threads] = comm
        if current is not None and self.stickiness > 0:
            padded = padded + self._stickiness_bonus(comm, current, n_pus)

        smt = machine.smt_per_core
        per_socket = machine.cores_per_socket * smt

        groups: list[Group] = [(t,) for t in range(n_pus)]
        # Level 1: fill cores (SMT siblings share L1/L2).
        if smt > 1:
            if _is_pow2(smt):
                groups = build_hierarchy(padded, smt, start=groups)
            else:
                packed = _pack_greedy(padded, groups, machine.n_cores, smt)
                groups = [tuple(t for g in bin_ for t in g) for bin_ in packed]
        core_groups = list(groups)

        # Level 2: fill sockets (cores share the L3).
        if machine.n_sockets > 1:
            if _is_pow2(machine.cores_per_socket):
                groups = build_hierarchy(padded, per_socket, start=core_groups)
                socket_groups = [list(self._split(g, smt)) for g in groups]
            else:
                socket_groups = [
                    [tuple(cg) for cg in bin_]
                    for bin_ in _pack_greedy(
                        padded, core_groups, machine.n_sockets, machine.cores_per_socket
                    )
                ]
        else:
            socket_groups = [core_groups]

        pu_of_slot = lay_out_socket_groups(machine, socket_groups, current, n_threads)
        if np.any(pu_of_slot[:n_threads] < 0):
            raise MappingError("mapping left threads unassigned")
        return pu_of_slot[:n_threads]

    def _stickiness_bonus(
        self, comm: np.ndarray, current: np.ndarray, n_pus: int
    ) -> np.ndarray:
        """Small extra weight for pairs already placed close together."""
        n_threads = comm.shape[0]
        positive = comm[comm > 0]
        if positive.size == 0:
            return np.zeros((n_pus, n_pus))
        unit = self.stickiness * float(positive.mean())
        bonus = np.zeros((n_pus, n_pus))
        machine = self.machine
        cores = [machine.core_of(int(current[t])) for t in range(n_threads)]
        sockets = [machine.socket_of(int(current[t])) for t in range(n_threads)]
        # Every currently co-located pair gets the bonus — including pairs
        # with no observed communication.  In homogeneous patterns all
        # pairings are equivalent, and without this the matcher would pick
        # an arbitrary new structure each call and migrate every thread.
        for i in range(n_threads):
            for j in range(i + 1, n_threads):
                if cores[i] == cores[j]:
                    bonus[i, j] = bonus[j, i] = unit
                elif sockets[i] == sockets[j]:
                    bonus[i, j] = bonus[j, i] = 0.5 * unit
        return bonus

    @staticmethod
    def _split(group: Group, size: int) -> list[Group]:
        """Split a merged group back into its *size*-thread constituents.

        Valid because :func:`repro.core.grouping.pair_groups` concatenates
        constituent groups in order, so the pairing tree is recoverable by
        slicing.
        """
        return [tuple(group[i : i + size]) for i in range(0, len(group), size)]


def mapping_comm_cost(
    comm: np.ndarray, pu_of_tid: np.ndarray, machine: Machine
) -> float:
    """Total communication cost of a placement (lower is better).

    Weighs each pair's communication by the distance class of their PUs;
    used to compare mappings (e.g. SPCD vs. oracle) in tests and analysis.

    Cost: O(nnz) in the upper triangle, not O(n^2) scalar distance lookups —
    at 1024 threads on a power-law matrix that is the difference between
    milliseconds and seconds per evaluation.  The accumulation walks the
    nonzero pairs in the same row-major i<j order and adds them one by one,
    so the float result is bit-identical to the historical nested loop.
    """
    comm = np.asarray(comm, dtype=float)
    pu_of_tid = np.asarray(pu_of_tid, dtype=np.int64)
    cost_of_distance = {int(d): c for d, c in DISTANCE_COST.items()}
    dist = machine.distance_matrix()[np.ix_(pu_of_tid, pu_of_tid)]
    rows, cols = np.nonzero(np.triu(comm, 1))
    cost = 0.0
    for w, d in zip(comm[rows, cols].tolist(), dist[rows, cols].tolist()):
        cost += w * cost_of_distance[d]
    return cost


#: Registered thread-mapping algorithms (the ``make_mapper`` registry).
#: ``"edmonds"`` is the paper's blossom-backed pairing hierarchy;
#: ``"hierarchical"`` is the Schulz/Woydt-style recursive-bisection mapper
#: from :mod:`repro.graphs.hiermap`, which trades exact matchings for
#: near-linear decision latency on machines of 128+ PUs.
MAPPER_ALGORITHMS = ("edmonds", "hierarchical")

#: PU count from which :func:`select_mapper_algorithm` picks the
#: hierarchical mapper when nothing names an engine.  The Edmonds mapper
#: pads every matrix to the machine's PU count and its matching is O(n^3)
#: per grouping level, so the machine, not the thread count, sets the
#: size it solves; the paper's 32-PU machine (and every digest) sits
#: below this
AUTO_HIERARCHICAL_PUS = 128


def select_mapper_algorithm(machine: Machine, policy: object = None) -> str:
    """The registered mapping engine for decisions on *machine*.

    The *policy*'s ``mapper_algorithm`` attribute (the ``spcd-hier``
    placement policy) names the engine; otherwise the PU-count auto-switch
    at :data:`AUTO_HIERARCHICAL_PUS` picks it — Edmonds below it, so every
    paper-scale digest is untouched.  The simulator, serve and the oracle
    all select their mapper here.
    """
    named = getattr(policy, "mapper_algorithm", None)
    if named:
        return str(named)
    if machine.n_pus >= AUTO_HIERARCHICAL_PUS:
        _log.info(
            "mapping: auto-selected the hierarchical mapper "
            "(n_pus=%d >= %d); Edmonds matching would be O(n^3) here",
            machine.n_pus,
            AUTO_HIERARCHICAL_PUS,
        )
        return "hierarchical"
    return "edmonds"


def make_mapper(algorithm: str, machine: Machine, *, stickiness: float = 0.2):
    """Construct a registered mapping engine by name.

    Both engines expose the same surface — ``map(matrix, current=None)``
    and a ``calls`` counter — so the SPCD manager and the placement
    policies treat them interchangeably.
    """
    if algorithm == "edmonds":
        return HierarchicalMapper(machine, stickiness=stickiness)
    if algorithm == "hierarchical":
        from repro.graphs.hiermap import ScalableHierarchicalMapper

        return ScalableHierarchicalMapper(machine, stickiness=stickiness)
    raise MappingError(
        f"unknown mapping algorithm {algorithm!r}; registered: {MAPPER_ALGORITHMS}"
    )
