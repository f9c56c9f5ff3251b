"""Tests for the execution context: resolution order and scoping."""

import pickle
import warnings

import pytest

from repro.core.dispatch import embed
from repro.core.embedding import use_array_path
from repro.graphs.base import Mesh, Torus
from repro.runtime import ExecutionContext, current, use_context
from repro.runtime.context import resolve_backend, set_default_context

pytestmark = pytest.mark.smoke


class TestExecutionContext:
    def test_defaults(self):
        context = ExecutionContext()
        assert context.backend == "auto"
        assert context.cache is None
        assert context.batch is True
        assert context.chaos is None

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ExecutionContext(backend="vectorized")

    def test_resolved_backend_with_numpy(self):
        assert ExecutionContext(backend="auto").resolved_backend() == "array"
        assert ExecutionContext(backend="array").resolved_backend() == "array"
        assert ExecutionContext(backend="loop").resolved_backend() == "loop"

    def test_context_is_picklable(self):
        context = ExecutionContext(backend="loop", batch=False)
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context


class TestBackendValidation:
    def test_execution_context_rejects_unknown_backend(self):
        with pytest.raises(ValueError) as excinfo:
            ExecutionContext(backend="vectorized")
        message = str(excinfo.value)
        for allowed in ("auto", "array", "loop"):
            assert allowed in message

    def test_use_context_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="'auto', 'array', 'loop'"):
            with use_context(backend="jit"):
                pass  # pragma: no cover - never reached

    def test_removed_numba_backend_is_rejected(self):
        # The numba tier is gone; its name is not a backend.
        with pytest.raises(ValueError, match=r"\('auto', 'array', 'loop'\)"):
            ExecutionContext(backend="numba")

    def test_removed_compiled_backend_names_its_removal(self):
        removed = "'compiled'.*removed in repro 3.0"
        with pytest.raises(ValueError, match=removed):
            ExecutionContext(backend="compiled")
        with pytest.raises(ValueError, match=removed):
            with use_context(backend="compiled"):
                pass  # pragma: no cover - never reached


class TestScoping:
    def test_current_defaults_to_auto(self):
        assert current().backend == "auto"

    def test_use_context_overrides_and_restores(self):
        assert current().backend == "auto"
        with use_context(backend="loop") as scoped:
            assert scoped.backend == "loop"
            assert current() is scoped
            assert not use_array_path()
        assert current().backend == "auto"
        assert use_array_path()

    def test_nesting_is_innermost_wins(self):
        with use_context(backend="loop"):
            with use_context(backend="array"):
                assert current().backend == "array"
            assert current().backend == "loop"

    def test_overrides_derive_from_the_active_context(self):
        with use_context(backend="loop"):
            with use_context(batch=False):  # backend inherited
                assert current().backend == "loop"
                assert current().batch is False
            assert current().batch is True

    def test_restored_even_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with use_context(backend="loop"):
                raise RuntimeError("boom")
        assert current().backend == "auto"

    def test_full_context_argument(self):
        context = ExecutionContext(backend="loop", batch=False)
        with use_context(context) as scoped:
            assert scoped is context
        with use_context(context, batch=True) as scoped:
            assert scoped.backend == "loop" and scoped.batch is True

    def test_set_default_context_survives_outside_scopes(self):
        previous = set_default_context(ExecutionContext(backend="loop"))
        try:
            assert current().backend == "loop"
            with use_context(backend="array"):
                assert current().backend == "array"
            assert current().backend == "loop"
        finally:
            set_default_context(previous)
        assert current().backend == "auto"

    def test_resolve_backend_module_helper(self):
        with use_context(backend="loop"):
            assert resolve_backend() == "loop"


class TestBackendResolution:
    def test_array_request_resolves_without_warning(self):
        # NumPy is a hard requirement: "array" and "auto" never degrade.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExecutionContext(backend="array").resolved_backend() == "array"
            assert ExecutionContext(backend="auto").resolved_backend() == "array"
            with use_context(backend="array"):
                assert use_array_path()

    def test_loop_request_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExecutionContext(backend="loop").resolved_backend() == "loop"

    def test_loop_constructions_are_dict_backed(self):
        with use_context(backend="loop"):
            loop = embed(Torus((3, 4)), Mesh((3, 4)))
        array = embed(Torus((3, 4)), Mesh((3, 4)))
        # the loop reference builds a dict-backed embedding, no arrays
        assert loop._host_indices is None
        assert array._host_indices is not None
        assert loop.dilation() == array.dilation() == 2
        assert loop.mapping == array.mapping


class TestMethodKwargRemoved:
    def test_embedding_cost_methods_reject_method(self):
        embedding = embed(Torus((4, 6)), Mesh((2, 2, 2, 3)))
        measures = (
            embedding.dilation,
            embedding.average_dilation,
            embedding.edge_congestion,
            embedding.edge_dilations,
        )
        for measure in measures:
            with pytest.raises(TypeError):
                measure(method="loop")
        with use_context(backend="loop"):
            loop = [measure() for measure in measures]
        assert loop == [measure() for measure in measures]

    def test_backend_resolvers_take_no_override(self):
        # The ambient context is the only backend selector.
        with use_context(backend="loop"):
            resolvers = (
                current().resolved_backend,
                current().use_array,
                resolve_backend,
                use_array_path,
            )
            for resolver in resolvers:
                with pytest.raises(TypeError):
                    resolver("array")
            assert resolve_backend() == "loop"
            assert not use_array_path()
