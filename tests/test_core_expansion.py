"""Unit tests for the expansion condition and factor search (Definition 30)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import expansion
from repro.core.expansion import (
    ExpansionFactor,
    find_expansion_factor,
    find_unit_dilation_torus_factor,
    is_expansion,
    iter_expansion_factors,
    require_expansion_factor,
)
from repro.exceptions import NoExpansionError

from .conftest import small_shapes


class TestExpansionFactorObject:
    def test_paper_example(self):
        # Definition 30's example: M = (2,4,3,8,5,4) is an expansion of L = (6,8,80).
        factor = ExpansionFactor(((2, 3), (8,), (4, 5, 4)))
        assert factor.source_shape == (6, 8, 80)
        assert factor.expands((6, 8, 80), (2, 4, 3, 8, 5, 4))

    def test_flattened(self):
        factor = ExpansionFactor(((2, 3), (8,)))
        assert factor.flattened == (2, 3, 8)

    def test_even_first_normalization(self):
        factor = ExpansionFactor(((3, 2), (5, 4, 3)))
        normalized = factor.with_even_first()
        assert normalized.lists == ((2, 3), (4, 5, 3))
        assert normalized.source_shape == factor.source_shape

    def test_predicates(self):
        factor = ExpansionFactor(((2, 3), (4, 5)))
        assert factor.all_lists_have_length_at_least(2)
        assert factor.all_lists_contain_even()
        assert not ExpansionFactor(((3,), (5, 7))).all_lists_contain_even()


class TestSearch:
    def test_paper_example_found(self):
        factor = find_expansion_factor((6, 8, 80), (2, 4, 3, 8, 5, 4))
        assert factor is not None
        assert factor.expands((6, 8, 80), (2, 4, 3, 8, 5, 4))

    def test_is_expansion(self):
        assert is_expansion((6, 12), (6, 3, 2, 2))
        assert is_expansion((4, 6), (2, 2, 2, 3))
        assert not is_expansion((4, 6), (2, 2, 3, 3))
        assert not is_expansion((4, 6), (4, 6))  # not strictly higher dimension

    def test_no_expansion_when_products_mismatch(self):
        assert find_expansion_factor((4, 6), (2, 2, 2, 2)) is None

    def test_iter_yields_multiple_factors(self):
        # The (6, 12) -> (6, 3, 2, 2) example has both ((6),(3,2,2)) and ((2,3),(6,2)).
        factors = list(iter_expansion_factors((6, 12), (6, 3, 2, 2), limit=16))
        flattened = {tuple(sorted(map(len, f.lists))) for f in factors}
        assert {1, 3} in [set(x) for x in flattened] or (1, 3) in flattened
        assert any(f.all_lists_have_length_at_least(2) for f in factors)

    def test_min_parts_per_list(self):
        factors = list(iter_expansion_factors((6, 12), (6, 3, 2, 2), min_parts_per_list=2))
        assert factors
        for factor in factors:
            assert factor.all_lists_have_length_at_least(2)

    def test_require_raises(self):
        with pytest.raises(NoExpansionError):
            require_expansion_factor((4, 6), (5, 5))

    def test_hypercube_target_always_expansion_of_power_of_two_shape(self):
        # Theorem 33.
        for shape in [(4, 8), (2, 16), (8, 2, 2), (4, 4, 4)]:
            bits = int(math.log2(math.prod(shape)))
            assert is_expansion(shape, (2,) * bits)

    @given(small_shapes(max_dim=3, max_len=6))
    def test_hypercube_expansion_property(self, shape):
        # Theorem 33 restricted to power-of-two sizes.
        size = math.prod(shape)
        if size & (size - 1) != 0:
            return
        bits = size.bit_length() - 1
        if bits <= len(shape):
            return
        factor = find_expansion_factor(shape, (2,) * bits)
        assert factor is not None
        assert factor.expands(shape, (2,) * bits)


class TestUnitDilationTorusFactor:
    def test_found_for_even_shapes(self):
        # The paper's (6,12) -> (6,3,2,2) example: factor ((2,3),(6,2)) allows dilation 1.
        factor = find_unit_dilation_torus_factor((6, 12), (6, 3, 2, 2))
        assert factor is not None
        for group in factor.lists:
            assert len(group) >= 2
            assert group[0] % 2 == 0

    def test_none_for_odd_lengths(self):
        assert find_unit_dilation_torus_factor((3, 9), (3, 3, 3)) is None

    def test_none_when_no_two_part_factorization(self):
        # (4, 6) -> (4, 6, ...) with a singleton group cannot satisfy length >= 2.
        assert find_unit_dilation_torus_factor((2, 6), (2, 2, 3)) is None


@st.composite
def factor_questions(draw):
    """``(source, target)``: a split and shuffle of ``source``, or a near miss."""
    source = draw(small_shapes(max_dim=3, max_len=12))
    target = []
    for length in source:
        # Split each length into two parts where it has a divisor.
        divisors = [d for d in range(2, length) if length % d == 0]
        if divisors and draw(st.booleans()):
            part = draw(st.sampled_from(divisors))
            target += [part, length // part]
        else:
            target.append(length)
    if draw(st.booleans()):
        target[0] += 1  # a product mismatch: no factor exists
    return source, draw(st.permutations(target))


def first_factor_unmemoized(source, target, **kwargs):
    return next(iter_expansion_factors(source, target, limit=1, **kwargs), None)


def first_unit_dilation_factor_unmemoized(source, target):
    if any(length % 2 for length in source):
        return None
    for factor in iter_expansion_factors(
        source, target, min_parts_per_list=2, limit=64
    ):
        if factor.all_lists_contain_even():
            return factor.with_even_first()
    return None


class TestFactorSearchMemo:
    """The memo keys on ``sorted(target)``: exact, since order never matters."""

    @given(factor_questions())
    @settings(max_examples=60, deadline=None)
    def test_every_order_of_the_target_gives_the_unmemoized_first_factor(
        self, question
    ):
        source, target = question
        expected = first_factor_unmemoized(source, target)
        expected_two_part = first_factor_unmemoized(
            source, target, min_parts_per_list=2
        )
        expected_unit = first_unit_dilation_factor_unmemoized(source, target)
        for order in set(itertools.permutations(target)):
            assert first_factor_unmemoized(source, order) == expected
            assert find_expansion_factor(source, order) == expected
            assert (
                find_expansion_factor(source, list(order), min_parts_per_list=2)
                == expected_two_part
            )
            assert first_unit_dilation_factor_unmemoized(source, order) == expected_unit
            assert find_unit_dilation_torus_factor(source, order) == expected_unit

    def test_repeated_questions_share_one_search(self):
        factor = find_expansion_factor((6, 12), (6, 3, 2, 2))
        assert find_expansion_factor([6, 12], (2, 3, 6, 2)) is factor
        unit = find_unit_dilation_torus_factor((6, 12), (6, 3, 2, 2))
        assert find_unit_dilation_torus_factor((6, 12), [2, 2, 3, 6]) is unit

    @pytest.mark.parametrize(
        "memo",
        [expansion._first_expansion_factor, expansion._first_unit_dilation_factor],
        ids=["expansion", "unit_dilation"],
    )
    def test_memos_are_bounded(self, memo):
        maxsize = memo.cache_info().maxsize
        # Bounded, yet far above the 422 questions of a sampled 64-node sweep.
        assert maxsize is not None and maxsize >= 1024
