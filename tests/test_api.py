"""Public API surface tests: exports resolve, docstrings exist, the curated
surface stays stable, and the canonical import paths never warn."""

import importlib
import inspect
import warnings

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.machine",
    "repro.mem",
    "repro.cachesim",
    "repro.kernelsim",
    "repro.core",
    "repro.workloads",
    "repro.engine",
    "repro.oracle",
    "repro.analysis",
    "repro.obs",
    "repro.placement",
    "repro.serve",
    "repro.graphs",
]


@pytest.mark.parametrize("name", PACKAGES)
class TestPackages:
    def test_importable(self, name):
        importlib.import_module(name)

    def test_has_docstring(self, name):
        assert importlib.import_module(name).__doc__

    def test_all_exports_resolve(self, name):
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"


#: the curated top-level surface — additions are deliberate, removals break
#: users; update this snapshot consciously in the same PR as the API change
TOP_LEVEL_API = {
    "CellFailure",
    "CommunicationFilter",
    "CommunicationMatrix",
    "CsrGraph",
    "EngineConfig",
    "GridResult",
    "HierarchicalMapper",
    "JsonlRecorder",
    "Machine",
    "PartitionPageRankWorkload",
    "PlacementPolicy",
    "ProducerConsumerWorkload",
    "ResultCache",
    "RunSettings",
    "ScalableHierarchicalMapper",
    "SimulationResult",
    "Simulator",
    "SpcdConfig",
    "SpcdDetector",
    "SpcdManager",
    "SpmvHaloWorkload",
    "SyntheticNpbWorkload",
    "TraceRecorder",
    "build_machine",
    "canonical_policies",
    "dual_xeon_e5_2650",
    "make_mapper",
    "make_npb",
    "make_pagerank",
    "make_spmv",
    "max_weight_perfect_matching",
    "resolve_policy",
    "run_grid",
    "__version__",
}

ENGINE_API = {
    "CellFailure",
    "EnergyModel",
    "EnergyParams",
    "EngineConfig",
    "GridResult",
    "MetricStats",
    "ResultCache",
    "RunSettings",
    "SimulationResult",
    "Simulator",
    "TimeModel",
    "TimeParams",
    "code_version",
    "run_grid",
    "summarize",
}

#: a placement policy is one frozen record; there is no decision type
PLACEMENT_API = {"PlacementPolicy", "canonical_policies", "resolve_policy"}

#: SPCD itself: detection, injection, filter, matching and mapping
CORE_API = {
    "ArrayShareTable",
    "CommunicationFilter",
    "CommunicationMatrix",
    "FaultInjector",
    "HierarchicalMapper",
    "InjectorMode",
    "MAPPER_ALGORITHMS",
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
}

#: the small-model checkers' models and enumerators
CHECK_API = {
    "Counterexample",
    "ServeModel",
    "check_tlb_fault_interleavings",
    "interleavings",
    "op_sequences",
    "session_shard_trace",
}


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "14.0.0"

    def test_api_surface_snapshot(self):
        assert set(repro.__all__) == TOP_LEVEL_API
        assert set(importlib.import_module("repro.engine").__all__) == ENGINE_API
        assert set(importlib.import_module("repro.placement").__all__) == PLACEMENT_API
        assert set(importlib.import_module("repro.core").__all__) == CORE_API
        assert set(importlib.import_module("repro.check").__all__) == CHECK_API

    def test_quickstart_symbols_present(self):
        for symbol in ("Simulator", "make_npb", "EngineConfig", "SpcdConfig",
                       "dual_xeon_e5_2650", "CommunicationMatrix"):
            assert symbol in repro.__all__

    def test_public_classes_documented(self):
        undocumented = []
        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(symbol)
        assert not undocumented

    def test_public_methods_documented(self):
        """Every public method of the headline classes has a docstring."""
        from repro import CommunicationMatrix, HierarchicalMapper, Simulator
        from repro.core.spcd import SpcdDetector

        undocumented = []
        for cls in (Simulator, CommunicationMatrix, HierarchicalMapper, SpcdDetector):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented


class TestDeprecationShims:
    """Canonical import paths resolve without warnings; unknown names raise."""

    def test_gridrunner_unknown_attribute_still_raises(self):
        from repro.engine import gridrunner

        with pytest.raises(AttributeError):
            gridrunner.no_such_symbol

    def test_canonical_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.engine.cache import ResultCache, code_version  # noqa: F401
            from repro.engine.gridrunner import run_grid  # noqa: F401


class TestMesiState:
    def test_states(self):
        from repro.cachesim import MesiState

        assert {s.value for s in MesiState} == {"M", "E", "S", "I"}

    def test_line_helpers(self):
        from repro.cachesim.line import line_of, lines_of

        import numpy as np

        assert line_of(128) == 2
        assert lines_of(np.array([0, 64, 65])).tolist() == [0, 1, 1]
