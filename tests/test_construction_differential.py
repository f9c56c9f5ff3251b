"""The differential construction harness: array builders vs loop reference.

Every strategy the dispatcher can select — and the strategy-specific builders
it composes — must produce *node-for-node identical* embeddings whether built
under ``use_context(backend="array")`` (batch kernels, no per-node Python) or
``use_context(backend="loop")`` (the retained per-node reference).  This is
the guard that lets the array backend be the default everywhere else.

Fixed pairs cover every strategy family exhaustively; hypothesis pairs sweep
random same-size shapes through the dispatcher, also asserting that whatever
``embed`` returns is a valid injection.
"""


import pytest
from hypothesis import assume, given, settings

from repro.core.dispatch import embed, strategy_for
from repro.core.expansion import ExpansionFactor
from repro.core.increasing import embed_increasing
from repro.core.lowering import embed_lowering_general, embed_lowering_simple
from repro.core.reduction import SimpleReductionFactor, find_general_reduction
from repro.core.square import embed_square, embed_square_increasing
from repro.exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from repro.graphs.base import Line, Mesh, Ring, Torus, make_graph
from repro.runtime import use_context

from .strategies import graph_kinds, same_size_shape_pairs


def both_backends(build):
    """Run a zero-argument builder under each backend scope."""
    with use_context(backend="array"):
        array_embedding = build()
    with use_context(backend="loop"):
        loop_embedding = build()
    return array_embedding, loop_embedding


def assert_constructions_agree(array_embedding, loop_embedding):
    """Node-for-node (and metadata) equality of the two construction paths."""
    assert array_embedding.strategy == loop_embedding.strategy
    assert array_embedding.predicted_dilation == loop_embedding.predicted_dilation
    assert array_embedding.notes == loop_embedding.notes
    assert (
        array_embedding.host_index_array() == loop_embedding.host_index_array()
    ).all()
    assert array_embedding.mapping == loop_embedding.mapping
    array_embedding.validate()
    loop_embedding.validate()


#: One (guest, host) pair per concrete strategy the dispatcher can return.
DISPATCH_PAIRS = [
    (Mesh((3, 4)), Mesh((3, 4))),                 # identity
    (Torus((3, 4)), Torus((3, 4))),               # identity (torus pair)
    (Torus((4, 6)), Mesh((4, 6))),                # same-shape:T_L
    (Mesh((2, 3, 4)), Mesh((4, 3, 2))),           # permute-dimensions
    (Torus((3, 4)), Mesh((4, 3))),                # permute-dimensions∘T_L
    (Line(24), Mesh((4, 2, 3))),                  # line:f_L (mesh host)
    (Line(24), Torus((4, 2, 3))),                 # line:f_L (torus host)
    (Ring(24), Torus((4, 2, 3))),                 # ring:h_L
    (Ring(24), Mesh((4, 2, 3))),                  # ring:π∘h_L* (even-first reorder)
    (Ring(24), Mesh((3, 4, 2))),                  # ring:π∘h_L* (odd length first)
    (Ring(27), Mesh((3, 3, 3))),                  # ring:g_L (odd mesh)
    (Ring(8), Line(8)),                           # ring:g_L (line host)
    (Mesh((4, 6)), Mesh((2, 2, 2, 3))),           # increasing:F_V
    (Torus((4, 6)), Torus((2, 2, 2, 3))),         # increasing:H_V
    (Torus((6, 12)), Mesh((6, 3, 2, 2))),         # increasing:H_V(even-first)
    (Torus((3, 9)), Mesh((3, 3, 3))),             # increasing:G_V
    (Mesh((4, 2, 3, 3)), Mesh((8, 9))),           # lowering:U_V∘τ
    (Torus((4, 2, 3, 3)), Mesh((8, 9))),          # lowering:U_V∘T∘τ
    (Mesh((3, 3, 4)), Mesh((6, 6))),              # lowering:β∘F'_S∘α (no simple factor)
    (Torus((3, 3, 4)), Torus((6, 6))),            # lowering:β∘G'_S∘α
    (Torus((3, 3, 4)), Mesh((6, 6))),             # lowering:β∘G''_S∘α
    (Mesh((4, 4)), Line(16)),                     # 1-D host collapse
    (Torus((2, 3, 5)), Ring(30)),                 # 1-D torus host collapse
    (Mesh((4,) * 5), Mesh((32, 32))),             # square-lowering: Thm 51 chain
    (Torus((4,) * 5), Mesh((32, 32))),            # square-lowering chain, torus->mesh
    (Mesh((8, 8)), Mesh((4, 4, 4))),              # square-increasing: Thm 53 chain
    (Torus((8, 8)), Torus((4, 4, 4))),            # square-increasing chain, toruses
    (Torus((8, 8)), Mesh((4, 4, 4))),             # square-increasing chain, torus->mesh
]


@pytest.mark.parametrize(
    "guest,host",
    DISPATCH_PAIRS,
    ids=[f"{g!r}->{h!r}" for g, h in DISPATCH_PAIRS],
)
def test_dispatcher_array_and_loop_builders_agree(guest, host):
    assert_constructions_agree(*both_backends(lambda: embed(guest, host)))


def test_dispatch_pairs_cover_every_selectable_family():
    families = {strategy_for(guest, host) for guest, host in DISPATCH_PAIRS}
    assert families == {
        "same-shape",
        "permute-dimensions",
        "basic",
        "increasing",
        "lowering-simple",
        "lowering-general",
        "square-increasing",
        "square-lowering",
    }


def test_lowering_general_builders_agree_directly():
    # The dispatcher prefers simple reductions, so exercise Theorem 43's
    # three functions (F'_S, G'_S, G''_S) through the direct builder.
    for guest_kind, host_kind in (("mesh", "mesh"), ("torus", "torus"), ("torus", "mesh")):
        guest = make_graph(guest_kind, (3, 3, 4))
        host = make_graph(host_kind, (6, 6))
        factor = find_general_reduction(guest.shape, host.shape)
        assert factor is not None
        assert_constructions_agree(
            *both_backends(lambda: embed_lowering_general(guest, host, factor))
        )


def test_lowering_simple_adversarial_ordering_agrees():
    factor = SimpleReductionFactor(((2, 4), (3, 3))).sorted_non_decreasing()
    guest, host = Torus((4, 2, 3, 3)), Mesh((8, 9))
    assert_constructions_agree(
        *both_backends(lambda: embed_lowering_simple(guest, host, factor))
    )


def test_increasing_forced_factor_agrees():
    guest, host = Torus((6, 12)), Mesh((6, 3, 2, 2))
    factor = ExpansionFactor(((6,), (3, 2, 2)))
    assert_constructions_agree(
        *both_backends(
            lambda: embed_increasing(guest, host, factor, prefer_unit_dilation=False)
        )
    )


def test_square_increasing_divisible_case_agrees():
    # Theorem 52 (c divisible by d) is reached through embed_square directly;
    # the dispatcher routes these pairs through the expansion condition.
    for guest_kind, host_kind in (("mesh", "mesh"), ("torus", "mesh"), ("torus", "torus")):
        guest = make_graph(guest_kind, (9, 9))
        host = make_graph(host_kind, (3, 3, 3, 3))
        assert_constructions_agree(
            *both_backends(lambda: embed_square_increasing(guest, host))
        )


def test_square_lowering_divisible_case_agrees():
    # Theorem 48 via embed_square (simple reduction with relabelled strategy).
    assert_constructions_agree(
        *both_backends(lambda: embed_square(Torus((3, 3, 3, 3)), Mesh((9, 9))))
    )


@settings(max_examples=60, deadline=None)
@given(pair=same_size_shape_pairs(), guest_kind=graph_kinds, host_kind=graph_kinds)
def test_random_pairs_build_identically_and_injectively(pair, guest_kind, host_kind):
    guest_shape, host_shape = pair
    guest = make_graph(guest_kind, guest_shape)
    host = make_graph(host_kind, host_shape)
    try:
        with use_context(backend="array"):
            array_embedding = embed(guest, host)
    except UnsupportedEmbeddingError:
        with use_context(backend="loop"), pytest.raises(UnsupportedEmbeddingError):
            embed(guest, host)
        assume(False)  # discard unsupported pairs, they carry no mapping
        return
    with use_context(backend="loop"):
        loop_embedding = embed(guest, host)
    assert_constructions_agree(array_embedding, loop_embedding)
    # embed output is always injective: same-size pairs make it bijective.
    assert array_embedding.is_bijective()


def test_backend_validation_still_applies():
    with pytest.raises(ValueError), use_context(backend="vectorized"):
        embed(Mesh((2, 2)), Mesh((2, 2)))
    with use_context(backend="array"), pytest.raises(ShapeMismatchError):
        embed(Mesh((2, 3)), Mesh((2, 2)))


def test_method_kwarg_is_gone():
    # Removed in 2.0: the ambient context is the only backend selector.
    with pytest.raises(TypeError):
        embed(Torus((4, 6)), Mesh((2, 2, 2, 3)), method="loop")
