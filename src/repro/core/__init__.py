"""SPCD — Shared Pages Communication Detection and thread mapping.

The paper's contribution: detect communication by watching page faults on
shared pages (:mod:`repro.core.spcd`), keep the detection alive by injecting
extra faults (:mod:`repro.core.injector`), decide *when* to remap with the
communication filter (:mod:`repro.core.filter`) and *where* with hierarchical
maximum-weight matching (:mod:`repro.core.matching`,
:mod:`repro.core.grouping`, :mod:`repro.core.mapping`), all orchestrated by
:class:`repro.core.manager.SpcdManager`.
"""

from repro.core.commmatrix import CommunicationMatrix
from repro.core.filter import CommunicationFilter
from repro.core.grouping import group_matrix, pair_groups
from repro.core.hashtable import ArrayShareTable, hash_64, hash_64_batch
from repro.core.injector import FaultInjector, InjectorMode
from repro.core.manager import SpcdManager, SpcdConfig
from repro.core.mapping import (
    MAPPER_ALGORITHMS,
    HierarchicalMapper,
    lay_out_socket_groups,
    make_mapper,
    mapping_comm_cost,
)
from repro.core.matching import (
    greedy_matching,
    matching_weight,
    max_weight_perfect_matching,
)
from repro.core.spcd import SpcdDetector

__all__ = [
    "MAPPER_ALGORITHMS",
    "CommunicationFilter",
    "CommunicationMatrix",
    "FaultInjector",
    "HierarchicalMapper",
    "InjectorMode",
    "ArrayShareTable",
    "SpcdConfig",
    "SpcdDetector",
    "SpcdManager",
    "greedy_matching",
    "group_matrix",
    "hash_64",
    "hash_64_batch",
    "lay_out_socket_groups",
    "make_mapper",
    "mapping_comm_cost",
    "matching_weight",
    "max_weight_perfect_matching",
    "pair_groups",
]
