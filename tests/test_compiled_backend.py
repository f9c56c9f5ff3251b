"""The compiled kernel tier, pinned bit-for-bit against the array backend.

Four layers of coverage, mirroring the differential discipline of the
array/loop split:

* **Kernel differentials** (hypothesis): each of the three shared kernel
  sources — drain, expand_fill, accumulate — is run against its array-path
  reference on randomized small inputs.  The *interpreted* sources run in
  every environment (no toolchain needed); the C tier is exercised
  additionally wherever it loads.
* **End-to-end equality**: optimizer searches, phase simulations and survey
  records under ``backend="compiled"`` equal the array backend's exactly.
* **Golden reproduction**: the SIM-MAP and TAB-SEARCH fixtures are re-derived
  under ``backend="compiled"`` and must match byte for byte.
* **Degradation**: with the toolchain flag monkeypatched off,
  ``backend="compiled"`` falls back to the array backend with exactly one
  RuntimeWarning per process and byte-identical results; backend validation
  raises ``ValueError`` naming the allowed set.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import dispatch, toolchain
from repro.compiled.dispatch import interpreted_kernels, load_kernels
from repro.graphs.base import Mesh, Torus
from repro.netsim.kernels import LinkIndexSpace, accumulate_link_loads, expand_routes
from repro.netsim.network import HostNetwork
from repro.netsim.simulator import simulate_phase, simulate_phases
from repro.netsim.traffic import neighbor_exchange_traffic, transpose_traffic
from repro.numbering.arrays import indices_to_digits, signed_offset_digits
from repro.optimize.search import OptimizeOptions, optimize_embedding
from repro.runtime import ConstructionCache, ExecutionContext, use_context
from repro.runtime import context as context_module

HAVE_TOOLCHAIN = toolchain.compiled_tier_available()

needs_toolchain = pytest.mark.skipif(
    not HAVE_TOOLCHAIN, reason="no kernel toolchain (cffi + C compiler)"
)


def kernel_sets():
    """The kernel sets to differential-test in this environment."""
    sets = [interpreted_kernels()]
    loaded = load_kernels()
    if loaded is not None:
        sets.append(loaded)
    return sets


def graph_for(torus, shape):
    return Torus(shape) if torus else Mesh(shape)


SHAPES = [(4,), (2, 2), (4, 5), (3, 4), (2, 3, 3), (2, 2, 2, 2)]


# --------------------------------------------------------------------------- #
# Kernel differentials (hypothesis)
# --------------------------------------------------------------------------- #
class TestKernelDifferentials:
    @settings(max_examples=20, deadline=None)
    @given(
        shape_index=st.integers(0, len(SHAPES) - 1),
        torus=st.booleans(),
        messages=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_expand_and_accumulate_match_array_kernels(
        self, shape_index, torus, messages, seed
    ):
        topology = graph_for(torus, SHAPES[shape_index])
        space = LinkIndexSpace(topology)
        rng = np.random.default_rng(seed)
        src = indices_to_digits(rng.integers(0, topology.size, messages), space.shape)
        dst = indices_to_digits(rng.integers(0, topology.size, messages), space.shape)
        routes = expand_routes(space, src, dst)
        offsets = signed_offset_digits(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            space.shape,
            torus=space.is_torus,
        )
        sizes = rng.uniform(1.0, 64.0, messages)
        occupancy = rng.uniform(0.25, 4.0, messages)
        hop_occupancy = rng.uniform(0.25, 4.0, routes.total_hops)
        want_hom = accumulate_link_loads(space, routes, sizes, occupancy)
        want_het = accumulate_link_loads(
            space, routes, sizes, occupancy, hop_occupancy=hop_occupancy
        )
        for kernels in kernel_sets():
            link_ids = kernels.expand_link_ids(
                src, offsets, routes.starts, space.shape, space.num_nodes, space.is_torus
            )
            assert np.array_equal(link_ids, routes.link_ids), kernels.tier
            for want, hops in ((want_hom, None), (want_het, hop_occupancy)):
                got = kernels.link_loads(
                    space.num_slots,
                    routes.starts,
                    routes.link_ids,
                    sizes,
                    occupancy,
                    hop_occupancy=hops,
                )
                assert np.array_equal(got[0], want[0]), kernels.tier
                assert np.array_equal(got[1], want[1]), kernels.tier
                assert np.array_equal(got[2], want[2]), kernels.tier

    @settings(max_examples=15, deadline=None)
    @given(
        shape_index=st.integers(0, len(SHAPES) - 1),
        torus=st.booleans(),
        messages=st.integers(1, 30),
        heterogeneous=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_drain_matches_rounds_loop(
        self, shape_index, torus, messages, heterogeneous, seed
    ):
        from repro.netsim.simulator import simulate_phases_rounds

        topology = graph_for(torus, SHAPES[shape_index])
        space = LinkIndexSpace(topology)
        rng = np.random.default_rng(seed)
        src = indices_to_digits(rng.integers(0, topology.size, messages), space.shape)
        dst = indices_to_digits(rng.integers(0, topology.size, messages), space.shape)
        routes = expand_routes(space, src, dst)
        occupancy = rng.uniform(0.5, 2.0, messages)
        if heterogeneous:
            phase = (space, routes, occupancy, rng.uniform(0.5, 2.0, routes.total_hops))
        else:
            phase = (space, routes, occupancy)
        with use_context(backend="array"):
            want = simulate_phases_rounds([phase, phase])
        for kernels in kernel_sets():
            got = _drive_rounds_through(kernels, [phase, phase])
            assert got == want, kernels.tier


def _drive_rounds_through(kernels, phases):
    """Run ``simulate_phases_rounds`` with ``kernels`` forced as the tier."""
    import repro.netsim.simulator as simulator_module
    from repro.netsim.simulator import simulate_phases_rounds

    original = simulator_module.active_kernels
    simulator_module.active_kernels = lambda: kernels
    try:
        return simulate_phases_rounds(phases)
    finally:
        simulator_module.active_kernels = original


# --------------------------------------------------------------------------- #
# End-to-end equality under backend="compiled"
# --------------------------------------------------------------------------- #
@needs_toolchain
class TestCompiledBackendEndToEnd:
    def test_optimizer_search_is_identical(self):
        guest, host = Mesh((4, 4)), Torus((4, 4))
        options = OptimizeOptions(budget=300, population=6, seed=5)
        with use_context(backend="array"):
            want = optimize_embedding(guest, host, options)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_context(backend="compiled"):
                got = optimize_embedding(guest, host, options)
        assert got.objective == want.objective
        assert got.evaluations == want.evaluations
        assert tuple(got.state.host_indices) == tuple(want.state.host_indices)
        assert (got.dilation, got.dilation_total, got.congestion) == (
            want.dilation,
            want.dilation_total,
            want.congestion,
        )

    def test_simulated_phases_are_identical(self):
        from repro.api import embed

        guest, host = Mesh((4, 4)), Torus((4, 4))
        network = HostNetwork(host)
        inputs = [
            (network, embed(guest, host), neighbor_exchange_traffic(guest)),
            (network, embed(guest, host), transpose_traffic(guest)),
        ]
        with use_context(backend="array"):
            want = [result.as_row() for result in simulate_phases(inputs)]
        with use_context(backend="compiled"):
            got = [result.as_row() for result in simulate_phases(inputs)]
        assert got == want

    def test_survey_records_are_identical(self):
        from repro.survey import SurveyOptions, run_survey, scenarios_for_suite

        scenarios = scenarios_for_suite("smoke")
        options = SurveyOptions(workers=1, with_congestion=True, resume=False)

        def rows(backend):
            with use_context(backend=backend):
                report = run_survey(scenarios, options)
            stripped = []
            for record in report.records:
                row = record.as_dict()
                row.pop("elapsed_seconds")
                stripped.append(row)
            return json.dumps(stripped, sort_keys=True)

        assert rows("compiled") == rows("array")


# --------------------------------------------------------------------------- #
# Golden reproduction under backend="compiled"
# --------------------------------------------------------------------------- #
@needs_toolchain
class TestGoldenTablesUnderCompiled:
    def _assert_matches(self, name, generate):
        from tests.test_golden_tables import load_fixture

        fixture = load_fixture(name)
        with use_context(backend="compiled"):
            recomputed = json.loads(json.dumps(generate()))
        assert len(recomputed) == fixture["count"]
        for index, (got, want) in enumerate(zip(recomputed, fixture["rows"])):
            assert got == want, f"{name} row {index} drifted under compiled: {got!r}"

    def test_sim_map_rows_reproduce_golden(self):
        from tests.test_golden_tables import _sim_map_rows

        self._assert_matches("tab_sim_map", _sim_map_rows)

    def test_search_rows_reproduce_golden(self):
        from repro.experiments.optima_tables import search_rows

        self._assert_matches("tab_optima", search_rows)


# --------------------------------------------------------------------------- #
# Warm-cache interop: array <-> compiled share one cache
# --------------------------------------------------------------------------- #
@needs_toolchain
class TestWarmCacheInterop:
    GUEST, HOST = Mesh((3, 3)), Torus((3, 3))
    OPTIONS = OptimizeOptions(budget=200, population=5, seed=3)

    def _optimize(self, backend, cache):
        with use_context(backend=backend):
            return optimize_embedding(self.GUEST, self.HOST, self.OPTIONS, cache=cache)

    def test_cache_written_under_array_warm_starts_compiled(self, tmp_path):
        cache = ConstructionCache()
        cold = self._optimize("array", cache)
        path = cache.save(tmp_path / "cache.json")
        warmed = ConstructionCache.load(path)
        warm = self._optimize("compiled", warmed)
        # The stored optimum joins the seed population, so the warm search
        # can only match or improve — and the state matches the array run's.
        assert warm.objective <= cold.objective
        state = warmed.fetch_optimum(self.OPTIONS.objective, self.GUEST, self.HOST)
        assert state is not None
        assert tuple(state.host_indices) == tuple(warm.state.host_indices)

    def test_cache_written_under_compiled_warm_starts_array(self, tmp_path):
        cache = ConstructionCache()
        cold = self._optimize("compiled", cache)
        path = cache.save(tmp_path / "cache.json")
        warmed = ConstructionCache.load(path)
        warm = self._optimize("array", warmed)
        assert warm.objective <= cold.objective
        state = warmed.fetch_optimum(self.OPTIONS.objective, self.GUEST, self.HOST)
        assert state is not None
        assert tuple(state.host_indices) == tuple(warm.state.host_indices)

    def test_cache_payloads_are_backend_agnostic(self):
        cache_array = ConstructionCache()
        cache_compiled = ConstructionCache()
        array_result = self._optimize("array", cache_array)
        compiled_result = self._optimize("compiled", cache_compiled)
        assert array_result.objective == compiled_result.objective
        state_a = cache_array.fetch_optimum(
            self.OPTIONS.objective, self.GUEST, self.HOST
        )
        state_c = cache_compiled.fetch_optimum(
            self.OPTIONS.objective, self.GUEST, self.HOST
        )
        assert state_a is not None and state_c is not None
        assert tuple(state_a.host_indices) == tuple(state_c.host_indices)
        assert state_a.objective == state_c.objective


# --------------------------------------------------------------------------- #
# Degradation and validation
# --------------------------------------------------------------------------- #
class TestDegradationWithoutToolchain:
    pytestmark = pytest.mark.smoke

    def _strip_toolchain(self, monkeypatch):
        monkeypatch.setattr(toolchain, "_HAVE_CFFI", False)
        monkeypatch.setattr(context_module, "_warned_compiled_fallback", False)

    def test_compiled_request_degrades_with_exactly_one_warning(self, monkeypatch):
        guest, host = Mesh((3, 4)), Torus((3, 4))
        network = HostNetwork(host)
        traffic = neighbor_exchange_traffic(guest)
        from repro.api import embed

        embedding = embed(guest, host)
        with use_context(backend="array"):
            want_sim = simulate_phase(network, embedding, traffic).as_row()
            want_opt = optimize_embedding(
                guest, host, OptimizeOptions(budget=150, population=4, seed=2)
            )
        self._strip_toolchain(monkeypatch)
        with pytest.warns(RuntimeWarning, match="no kernel toolchain") as caught:
            with use_context(backend="compiled"):
                assert context_module.current().resolved_backend() == "array"
                got_sim = simulate_phase(network, embedding, traffic).as_row()
                got_opt = optimize_embedding(
                    guest, host, OptimizeOptions(budget=150, population=4, seed=2)
                )
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1  # once per process, however many calls
        assert got_sim == want_sim
        assert got_opt.objective == want_opt.objective
        assert tuple(got_opt.state.host_indices) == tuple(want_opt.state.host_indices)

    def test_no_second_warning_after_first_fallback(self, monkeypatch):
        self._strip_toolchain(monkeypatch)
        with pytest.warns(RuntimeWarning, match="no kernel toolchain"):
            with use_context(backend="compiled"):
                context_module.current().resolved_backend()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_context(backend="compiled"):
                assert context_module.current().resolved_backend() == "array"

    def test_interpreted_tier_drives_hooks_without_toolchain(self, monkeypatch):
        # Even with no toolchain, the full compiled code path (context
        # resolution -> hook sites -> KernelSet) can be driven by forcing the
        # interpreted sources in as the loaded tier.
        guest, host = Mesh((3, 3)), Torus((3, 3))
        network = HostNetwork(host)
        traffic = neighbor_exchange_traffic(guest)
        from repro.api import embed

        embedding = embed(guest, host)
        with use_context(backend="array"):
            want = simulate_phase(network, embedding, traffic).as_row()
        monkeypatch.setattr(toolchain, "_HAVE_CFFI", True)
        monkeypatch.setattr(dispatch, "load_kernels", interpreted_kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_context(backend="compiled"):
                assert context_module.current().resolved_backend() == "compiled"
                got = simulate_phase(network, embedding, traffic).as_row()
        assert got == want


class TestBackendValidation:
    pytestmark = pytest.mark.smoke

    def test_execution_context_rejects_unknown_backend(self):
        with pytest.raises(ValueError) as excinfo:
            ExecutionContext(backend="vectorized")
        message = str(excinfo.value)
        for allowed in ("auto", "array", "loop", "compiled"):
            assert allowed in message

    def test_use_context_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="compiled"):
            with use_context(backend="jit"):
                pass  # pragma: no cover - never reached

    def test_removed_numba_backend_is_rejected(self):
        # The numba tier is gone; its name is not a backend.
        with pytest.raises(ValueError, match="'auto', 'array', 'loop', 'compiled'"):
            ExecutionContext(backend="numba")

    @needs_toolchain
    def test_compiled_backend_runs_the_cffi_tier(self):
        assert load_kernels().tier == "cffi"
        with use_context(backend="compiled"):
            assert dispatch.active_kernels().tier == "cffi"
        with use_context(backend="array"):
            assert dispatch.active_kernels() is None

    def test_cli_method_accepts_compiled_and_rejects_unknown(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "embed",
                    "--guest",
                    "mesh:2,2",
                    "--host",
                    "torus:2,2",
                    "--method",
                    "compiled",
                ]
            )
            == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "embed",
                    "--guest",
                    "mesh:2,2",
                    "--host",
                    "torus:2,2",
                    "--method",
                    "jit",
                ]
            )
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        for allowed in ("auto", "array", "loop", "compiled"):
            assert allowed in stderr
