"""Public API integrity: exports resolve, version present, docs exist."""

import dataclasses
import importlib
import inspect
import re

import pytest

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.hardware",
    "repro.sim",
    "repro.datasets",
    "repro.gnn",
    "repro.dlr",
    "repro.baselines",
    "repro.framework",
    "repro.bench",
    "repro.obs",
    "repro.faults",
    "repro.serve",
    "repro.utils",
]


class TestExports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert exported, f"{name} must declare __all__"
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_top_level_covers_primary_workflow(self):
        import repro

        for symbol in (
            "UGacheEmbeddingLayer",
            "EmbeddingLayerConfig",
            "solve_policy",
            "server_a",
            "server_b",
            "server_c",
            "Mechanism",
            "simulate_batch",
        ):
            assert symbol in repro.__all__

    def test_no_duplicate_exports(self):
        for name in SUBPACKAGES:
            module = importlib.import_module(name)
            exported = getattr(module, "__all__", [])
            assert len(exported) == len(set(exported)), f"duplicates in {name}.__all__"


class TestDocstrings:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_module_docstrings(self, name):
        module = importlib.import_module(name)
        assert (module.__doc__ or "").strip(), f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert (obj.__doc__ or "").strip(), f"{name}.{symbol} lacks a docstring"

    def test_public_methods_documented_on_core_classes(self):
        from repro.core import MultiGpuEmbeddingCache, UGacheEmbeddingLayer
        from repro.core.solver import SolvedPolicy

        for cls in (MultiGpuEmbeddingCache, UGacheEmbeddingLayer, SolvedPolicy):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.isfunction(member):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name} undocumented"

    def test_config_docstrings_list_exactly_their_fields(self):
        """An ``Attributes:`` block names every field and nothing else."""
        from tests.test_reachability import CONFIGS  # module, class, pinned defaults

        for module, name, _defaults in CONFIGS:
            cls = getattr(importlib.import_module(module), name)
            doc = cls.__doc__ or ""
            if name == "SoakConfig":  # documents its 26 fields inline (``#:``)
                assert "Attributes:" not in doc
                continue
            listed = re.findall(r"^ {8}(\w+):", doc.split("Attributes:")[1], re.M)
            assert listed == [f.name for f in dataclasses.fields(cls)], name
