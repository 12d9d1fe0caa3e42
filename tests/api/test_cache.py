"""Deterministic result caching: hits, isolation, invalidation by key."""

import pytest

import repro
from repro.api import (
    cache_key,
    circuit_hash,
    clear_compilation_cache,
    compilation_cache_info,
    options_fingerprint,
    target_fingerprint,
)
from repro.core import standard_rules
from repro.hardware import spin_qubit_target


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compilation_cache()
    yield
    clear_compilation_cache()


def swap_circuit(name="cache_probe"):
    circuit = repro.QuantumCircuit(2, name=name)
    circuit.cx(0, 1)
    circuit.swap(0, 1)
    return circuit


class TestCacheHits:
    def test_second_compile_is_a_cache_hit_with_identical_result(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        first = repro.compile(circuit, target, "sat_p")
        second = repro.compile(circuit, target, "sat_p")
        assert first.report.cache_hit is False
        assert second.report.cache_hit is True
        assert second.cost == first.cost
        assert second.objective_value == first.objective_value
        assert [s.identifier for s in second.chosen_substitutions] == [
            s.identifier for s in first.chosen_substitutions
        ]
        info = compilation_cache_info()
        assert info.hits == 1 and info.size == 1

    def test_cached_result_is_detached_from_the_store(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "direct")
        hit = repro.compile(circuit, target, "direct")
        hit.adapted_circuit.h(0)  # caller-side mutation
        clean = repro.compile(circuit, target, "direct")
        assert len(clean.adapted_circuit) == len(hit.adapted_circuit) - 1

    def test_renamed_circuit_shares_the_cache_entry(self):
        target = spin_qubit_target(2)
        repro.compile(swap_circuit("alpha"), target, "direct")
        hit = repro.compile(swap_circuit("beta"), target, "direct")
        assert hit.report.cache_hit is True


class TestCacheKeying:
    def test_different_technique_misses(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "sat_f")
        other = repro.compile(circuit, target, "sat_r")
        assert other.report.cache_hit is False

    def test_different_target_calibration_misses(self):
        circuit = swap_circuit()
        repro.compile(circuit, spin_qubit_target(2, "D0"), "direct")
        other = repro.compile(circuit, spin_qubit_target(2, "D1"), "direct")
        assert other.report.cache_hit is False

    def test_different_options_miss(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "direct")
        merged = repro.compile(circuit, target, "direct",
                               merge_single_qubit_gates=True)
        assert merged.report.cache_hit is False

    def test_gate_content_changes_the_hash(self):
        first = swap_circuit()
        second = swap_circuit()
        second.rz(0.5, 0)
        assert circuit_hash(first) != circuit_hash(second)
        assert circuit_hash(first) == circuit_hash(swap_circuit())

    def test_target_fingerprint_is_calibration_sensitive(self):
        assert target_fingerprint(spin_qubit_target(2, "D0")) != target_fingerprint(
            spin_qubit_target(2, "D1")
        )
        assert target_fingerprint(spin_qubit_target(2)) == target_fingerprint(
            spin_qubit_target(2)
        )

    def test_non_primitive_options_bypass_the_cache(self):
        assert options_fingerprint({"rules": standard_rules()}) is None
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        assert cache_key(circuit, target, "sat_p", {"rules": standard_rules()}) is None
        first = repro.compile(circuit, target, "sat_p", rules=standard_rules())
        second = repro.compile(circuit, target, "sat_p", rules=standard_rules())
        assert first.report.cache_hit is False
        assert second.report.cache_hit is False
        assert second.cost == first.cost

    def test_selection_revision_keys_only_the_smt_techniques(self):
        """Entries persisted by an older selection path are not served."""
        from repro.api import resolve_technique
        from repro.api.compile import SELECTION_REVISION, _effective_options

        circuit = swap_circuit()
        target = spin_qubit_target(2)
        result = repro.compile(circuit, target, "sat_p")
        assert result.report.options["selection_revision"] == SELECTION_REVISION
        stale = {name: value for name, value in result.report.options.items()
                 if name != "selection_revision"}
        assert (cache_key(circuit, target, "sat_p", stale)
                != cache_key(circuit, target, "sat_p", result.report.options))
        assert "selection_revision" not in _effective_options(
            resolve_technique("direct"), {})
        with pytest.raises(TypeError, match="selection_revision"):
            repro.compile(circuit, target, "sat_p", selection_revision=0)

    def test_use_cache_false_bypasses(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "direct")
        fresh = repro.compile(circuit, target, "direct", use_cache=False)
        assert fresh.report.cache_hit is False

    def test_alias_and_canonical_key_share_entries(self):
        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "kak")
        hit = repro.compile(circuit, target, "kak_cz")
        assert hit.report.cache_hit is True

    def test_lru_eviction_prefers_recently_used_entries(self):
        """A hit refreshes recency: filling the cache evicts the least
        recently *used* entry, not the oldest-inserted one."""
        from dataclasses import dataclass

        from repro.api import CompilationCache

        @dataclass
        class Stub:
            value: int
            report: object = None

        cache = CompilationCache(max_entries=2)
        key_a = ("a", "t", "x", "o")
        key_b = ("b", "t", "x", "o")
        key_c = ("c", "t", "x", "o")
        cache.put(key_a, Stub(1))
        cache.put(key_b, Stub(2))
        # Touch A: B becomes the least recently used entry.
        assert cache.get(key_a).value == 1
        assert cache.keys() == [key_b, key_a]  # LRU -> MRU order.
        cache.put(key_c, Stub(3))
        assert cache.keys() == [key_a, key_c]
        assert cache.get(key_b) is None  # Evicted.
        assert cache.get(key_a).value == 1  # Survived thanks to the hit.
        assert cache.get(key_c).value == 3
        assert cache.info().size == 2

    def test_lru_eviction_order_without_hits_is_insertion_order(self):
        from dataclasses import dataclass

        from repro.api import CompilationCache

        @dataclass
        class Stub:
            value: int
            report: object = None

        cache = CompilationCache(max_entries=2)
        keys = [(name, "t", "x", "o") for name in "abc"]
        for index, key in enumerate(keys):
            cache.put(key, Stub(index))
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]).value == 1
        assert cache.get(keys[2]).value == 2

    def test_put_refreshes_recency_of_overwritten_entries(self):
        from dataclasses import dataclass

        from repro.api import CompilationCache

        @dataclass
        class Stub:
            value: int
            report: object = None

        cache = CompilationCache(max_entries=2)
        key_a = ("a", "t", "x", "o")
        key_b = ("b", "t", "x", "o")
        cache.put(key_a, Stub(1))
        cache.put(key_b, Stub(2))
        cache.put(key_a, Stub(10))  # Overwrite refreshes A's recency.
        cache.put(("c", "t", "x", "o"), Stub(3))
        assert cache.get(key_b) is None  # B was the LRU entry.
        assert cache.get(key_a).value == 10

    def test_reregistration_invalidates_cached_results(self):
        from repro.api import register_technique, resolve_technique
        from repro.api import registry as registry_module

        circuit = swap_circuit()
        target = spin_qubit_target(2)
        repro.compile(circuit, target, "direct")
        spec = resolve_technique("direct")
        try:
            register_technique("direct", spec.pipeline_factory,
                               description=spec.description, overwrite=True)
            fresh = repro.compile(circuit, target, "direct")
            assert fresh.report.cache_hit is False
        finally:
            # Restore the exact import-time spec object: builtin identity
            # gates the process-pool fan-out tested elsewhere.
            registry_module._REGISTRY["direct"] = spec
