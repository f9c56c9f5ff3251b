"""Every leaf construction's ``ranks()`` against its own per-node ``image``.

Each leaf construction builds its host ranks as one outer sum of
per-dimension terms (:func:`repro.numbering.batch.separable_ranks`); its
``image`` is the per-node reference.  These properties draw shapes of up to
512 nodes per family — extent-2 torus dimensions, hypercubes, odd extents,
1-dimensional guests and hosts — and hand each builder its factor directly,
so orderings the dispatcher never picks are covered too.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import line_construction, ring_construction
from repro.core.embedding import permutation_construction
from repro.core.expansion import ExpansionFactor
from repro.core.increasing import increasing_construction
from repro.core.lowering import (
    general_lowering_construction,
    simple_lowering_construction,
)
from repro.core.reduction import GeneralReductionFactor, SimpleReductionFactor
from repro.core.same_shape import t_construction
from repro.graphs.base import make_graph
from repro.utils.listops import apply_permutation

MAX_NODES = 512

kinds = st.sampled_from(["torus", "mesh"])


def extents(draw, count, largest):
    """``count`` extents in ``2..largest`` with at most MAX_NODES nodes."""
    drawn = []
    budget = MAX_NODES
    for left in range(count - 1, -1, -1):
        # Leave room for an extent of 2 in each later position.
        extent = draw(st.integers(2, max(2, min(largest, budget // 2**left))))
        drawn.append(extent)
        budget //= extent
    return tuple(drawn)


@st.composite
def shapes(draw, min_dim=1, max_dim=4):
    """Shapes of at most MAX_NODES nodes; one in four is a hypercube."""
    dimension = draw(st.integers(min_dim, max_dim))
    if draw(st.integers(0, 3)) == 0:
        return (2,) * dimension
    return extents(draw, dimension, 9)


@st.composite
def expansions(draw):
    """An expansion factor ``(V_1, ..., V_d)`` with some ``V_k`` of 2+ parts."""
    sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))]
    sizes[0] = max(sizes[0], 2)
    parts = extents(draw, sum(sizes), 4)
    lists, start = [], 0
    for size in sizes:
        lists.append(parts[start : start + size])
        start += size
    return ExpansionFactor(shuffled(draw, lists))


def shuffled(draw, values):
    return tuple(draw(st.permutations(values)))


def assert_ranks_match_image(construction, guest, host):
    expected = [host.node_index(construction.image(node)) for node in guest.nodes()]
    assert construction.ranks().tolist() == expected


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), guest_kind=kinds, host_kind=kinds, data=st.data())
def test_permutation_ranks_match_image(shape, guest_kind, host_kind, data):
    perm = shuffled(data.draw, range(len(shape)))
    guest = make_graph(guest_kind, shape)
    host = make_graph(host_kind, apply_permutation(perm, shape))
    assert_ranks_match_image(permutation_construction(guest, host, perm), guest, host)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), permute=st.booleans(), data=st.data())
def test_t_ranks_match_image(shape, permute, data):
    perm = shuffled(data.draw, range(len(shape))) if permute else None
    guest = make_graph("torus", shape)
    host = make_graph("mesh", apply_permutation(perm, shape) if permute else shape)
    assert_ranks_match_image(t_construction(guest, host, perm), guest, host)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), host_kind=kinds)
def test_line_and_ring_ranks_match_image(shape, host_kind):
    host = make_graph(host_kind, shape)
    for guest_kind, construction in (
        ("mesh", line_construction(host)),
        ("torus", ring_construction(host)),
    ):
        guest = make_graph(guest_kind, (host.size,))
        assert_ranks_match_image(construction, guest, host)


@settings(max_examples=40, deadline=None)
@given(
    factor=expansions(),
    search=st.booleans(),
    guest_kind=kinds,
    host_kind=kinds,
    data=st.data(),
)
def test_increasing_ranks_match_image(factor, search, guest_kind, host_kind, data):
    guest = make_graph(guest_kind, tuple(math.prod(v) for v in factor.lists))
    host = make_graph(host_kind, shuffled(data.draw, factor.flattened))
    # The builder's own search may pick another factor (a unit-dilation one).
    construction = increasing_construction(guest, host, None if search else factor)
    assert_ranks_match_image(construction, guest, host)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(min_dim=2), guest_kind=kinds, host_kind=kinds, data=st.data())
def test_simple_lowering_ranks_match_image(shape, guest_kind, host_kind, data):
    order = shuffled(data.draw, shape)
    # At most d - 2 cuts: the host has fewer dimensions than the guest.
    positions = st.integers(1, len(shape) - 1)
    cuts = sorted(data.draw(st.sets(positions, max_size=len(shape) - 2)))
    bounds = [0, *cuts, len(shape)]
    # The groups keep the drawn component order: sorted or not, it must agree.
    factor = SimpleReductionFactor(
        tuple(order[start:stop] for start, stop in zip(bounds, bounds[1:]))
    )
    guest = make_graph(guest_kind, shape)
    host = make_graph(host_kind, factor.host_shape)
    construction = simple_lowering_construction(guest, host, factor)
    assert_ranks_match_image(construction, guest, host)


@st.composite
def general_reductions(draw):
    """A Definition 41 decomposition, with c < d < 2c and d - c < b <= c."""
    c = draw(st.integers(2, 3))
    groups = draw(st.integers(1, c - 1))  # d - c
    b = draw(st.integers(groups + 1, c))
    sizes = [1] * groups
    for _ in range(b - groups):
        sizes[draw(st.integers(0, groups - 1))] += 1
    drawn = extents(draw, b + c, 4)
    s_groups, start = [], 0
    for size in sizes:
        s_groups.append(drawn[start : start + size])
        start += size
    return GeneralReductionFactor(
        drawn[b:], tuple(math.prod(group) for group in s_groups), tuple(s_groups)
    )


@settings(max_examples=40, deadline=None)
@given(factor=general_reductions(), guest_kind=kinds, host_kind=kinds, data=st.data())
def test_general_lowering_ranks_match_image(factor, guest_kind, host_kind, data):
    guest = make_graph(guest_kind, shuffled(data.draw, factor.rearranged_source))
    host = make_graph(host_kind, shuffled(data.draw, factor.host_arrangement))
    construction = general_lowering_construction(guest, host, factor)
    assert_ranks_match_image(construction, guest, host)
