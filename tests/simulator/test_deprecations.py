"""The probability helpers are warning-free single-mode functions.

``circuit_probabilities`` takes a circuit and ``statevector_probabilities``
a statevector; neither emits a deprecation warning.
"""

from repro.simulator import circuit_probabilities, simulate_statevector
from repro.simulator.statevector import statevector_probabilities
from repro.workloads import ghz_circuit


class TestMeasurementProbabilitiesShim:
    def test_replacements_do_not_warn(self):
        import warnings

        circuit = ghz_circuit(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            circuit_probabilities(circuit)
            statevector_probabilities(simulate_statevector(circuit), 2)
