"""The loop reference covers the fault/expansion/traffic axes.

Under ``use_context(backend="loop")`` every newer workload path — sub-embedding
dispatch, fault repair and degraded dilation, weighted fault-aware
simulation, the survey records for all of it — completes on the pure-Python
reference, silently, and agrees with the array backend.
"""

import warnings

import pytest

from repro.analysis.fault_tolerance import fault_dilation_summary, repair_embedding
from repro.core.dispatch import embed
from repro.graphs.base import Mesh, Torus
from repro.graphs.faults import FaultSpec
from repro.netsim.network import HostNetwork
from repro.netsim.simulator import simulate_phase
from repro.netsim.traffic import neighbor_exchange_traffic, traffic_pattern
from repro.netsim.weights import LinkWeightSpec
from repro.runtime import use_context
from repro.survey.runner import SurveyOptions, evaluate_scenario
from repro.survey.scenarios import Scenario

pytestmark = pytest.mark.smoke


def _new_axes(guest, host):
    """Expansion embed, fault repair, degraded dilation, weighted simulation."""
    embedding = embed(guest, host)
    faults = FaultSpec(1, 1, 5).apply(host)
    repaired = repair_embedding(embedding, faults)
    network = HostNetwork(host, link_weights=LinkWeightSpec("dimension", 0.5))
    result = simulate_phase(
        network, repaired, neighbor_exchange_traffic(guest), faults=faults
    )
    return embedding, repaired, fault_dilation_summary(repaired, faults), result


class TestLoopReferenceWorkloads:
    def test_new_axes_run_on_the_loop_reference(self):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_context(backend="loop"):
                embedding, repaired, summary, result = _new_axes(guest, host)
                # Expansion: the sub-embedding builds dict-backed, no arrays.
                assert embedding.strategy.startswith("subshape:")
                assert embedding._host_indices is None
                assert embedding.dilation() >= 1
                dilation, average = summary
                assert dilation >= 1 and average > 0
                assert result.makespan > 0
                # Adversarial traffic builders are pure Python already.
                assert len(traffic_pattern("hotspot", guest).messages) == guest.size - 1
        with use_context(backend="array"):
            want = _new_axes(guest, host)
        assert embedding.mapping == want[0].mapping
        assert repaired.mapping == want[1].mapping
        assert summary == want[2]
        assert result.as_row() == want[3].as_row()

    def test_survey_records_for_new_suites_on_the_loop_backend(self):
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        options = SurveyOptions(workers=1)
        expansion = Scenario("torus", (2, 3), "mesh", (3, 4))
        fault = Scenario("torus", (2, 3), "mesh", (3, 4), faults="n1l1s5")
        with use_context(backend="loop"):
            loop_expansion = evaluate_scenario(expansion, options)
            loop_fault = evaluate_scenario(fault, options)
        assert loop_expansion.status == "ok"
        assert loop_expansion.guest_size == 6 and loop_expansion.nodes == 12
        assert loop_fault.status == "ok"
        assert loop_fault.faults == "n1l1s5"
        assert loop_fault.dilation >= 1
        with use_context(backend="array"):
            assert strip(evaluate_scenario(expansion, options)) == strip(loop_expansion)
            assert strip(evaluate_scenario(fault, options)) == strip(loop_fault)

    def test_loop_backend_request_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_context(backend="loop"):
                embedding = embed(Mesh((8,)), Mesh((3, 4)))
                assert embedding.strategy.startswith("subshape:")
