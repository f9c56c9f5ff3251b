"""``strategy_for`` and ``embed`` read one decision: :func:`repro.core.dispatch.plan`.

``strategy_for`` reports the plan's family and ``embed`` builds the plan's
construction, so ``embed`` must succeed exactly when ``strategy_for`` is not
``"unsupported"`` and raise :class:`UnsupportedEmbeddingError` otherwise, on
fixed pairs for every family and on random same-size pairs.
"""

import pytest
from hypothesis import given, settings

from repro.core.dispatch import embed, plan, strategy_for
from repro.exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from repro.graphs.base import Line, Mesh, Ring, Torus, make_graph

from .strategies import graph_kinds, same_size_shape_pairs


def assert_embed_follows_the_plan(guest, host):
    chosen = plan(guest, host)
    assert strategy_for(guest, host) == chosen.family
    if chosen.family == "unsupported":
        with pytest.raises(UnsupportedEmbeddingError) as raised:
            embed(guest, host)
        with pytest.raises(UnsupportedEmbeddingError) as planned:
            chosen.construct()
        assert str(raised.value) == str(planned.value)
        return
    embedding = embed(guest, host)
    construction = chosen.construct()
    assert embedding.strategy == construction.strategy
    assert embedding.predicted_dilation == construction.predicted_dilation


class TestAgreementOnFixedPairs:
    PAIRS = [
        (Mesh((3, 4)), Mesh((3, 4))),
        (Torus((4, 6)), Mesh((4, 6))),
        (Mesh((2, 3, 4)), Mesh((4, 3, 2))),
        (Torus((3, 4)), Mesh((4, 3))),
        (Line(24), Torus((4, 2, 3))),
        (Ring(24), Mesh((4, 2, 3))),
        (Torus((4, 6)), Torus((2, 2, 2, 3))),
        (Torus((3, 9)), Mesh((3, 3, 3))),
        (Mesh((4, 2, 3, 3)), Mesh((8, 9))),
        (Torus((2, 3, 5)), Ring(30)),
        (Mesh((3, 3, 4)), Mesh((6, 6))),
        (Mesh((4,) * 5), Mesh((32, 32))),
        (Mesh((8, 8)), Mesh((4, 4, 4))),
        (Mesh((2, 2)), Mesh((2, 3))),
        (Mesh((4, 9)), Mesh((6, 3, 2))),
        (Mesh((4, 9, 5)), Mesh((6, 30))),
        (Mesh((2, 6)), Mesh((4, 4))),
        (Mesh((24,)), Mesh((5, 5))),
    ]

    @pytest.mark.parametrize(
        "guest,host", PAIRS, ids=[f"{g!r}->{h!r}" for g, h in PAIRS]
    )
    def test_embed_builds_exactly_what_the_plan_chose(self, guest, host):
        assert_embed_follows_the_plan(guest, host)

    def test_size_mismatch_raises_in_both(self):
        with pytest.raises(ShapeMismatchError):
            strategy_for(Mesh((2, 3)), Mesh((2, 2)))
        with pytest.raises(ShapeMismatchError):
            embed(Mesh((2, 3)), Mesh((2, 2)))


@settings(max_examples=120, deadline=None)
@given(pair=same_size_shape_pairs(), guest_kind=graph_kinds, host_kind=graph_kinds)
def test_strategy_for_agrees_with_embed_on_random_pairs(pair, guest_kind, host_kind):
    """Supported pairs embed with the plan's construction; unsupported pairs
    raise the plan's exact message."""
    guest_shape, host_shape = pair
    assert_embed_follows_the_plan(
        make_graph(guest_kind, guest_shape), make_graph(host_kind, host_shape)
    )
