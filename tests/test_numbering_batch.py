"""Differential tests for the batch construction kernels.

Every kernel in :mod:`repro.numbering.batch` is checked element-for-element
against its scalar reference in :mod:`repro.core.basic` — exhaustively on
fixed shapes and on random shapes via hypothesis — and the separable rank
sum against an explicit digit-by-digit evaluation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import f_value, g_value, h_value, r_value, t_value
from repro.numbering.arrays import (
    _SHAPE_MEMO_SIZE,
    digit_weights,
    digits_to_indices,
    indices_to_digits,
)
from repro.numbering.batch import (
    coordinate_ranks,
    f_digits,
    g_digits,
    h_digits,
    placed_weights,
    r_digits,
    separable_ranks,
    sequence_table,
    t_indices,
)
from repro.utils.listops import apply_permutation

from .strategies import small_shapes

SHAPES = [
    (2,),
    (5,),
    (2, 2),
    (4, 2),
    (3, 5),
    (4, 2, 3),
    (2, 3, 2, 5),
    (3, 3, 3),
    (2, 2, 2, 2, 2),
    (6, 2),
    (7, 2, 2),
]


@pytest.mark.parametrize("n", range(1, 12))
def test_t_indices_matches_t_value(n):
    assert t_indices(n, np.arange(n)).tolist() == [t_value(n, x) for x in range(n)]


@pytest.mark.parametrize("shape", SHAPES)
def test_f_digits_matches_f_value(shape):
    n = math.prod(shape)
    got = f_digits(shape, np.arange(n))
    assert got.tolist() == [list(f_value(shape, x)) for x in range(n)]


@pytest.mark.parametrize("shape", SHAPES)
def test_g_digits_matches_g_value(shape):
    n = math.prod(shape)
    assert g_digits(shape, np.arange(n)).tolist() == [
        list(g_value(shape, x)) for x in range(n)
    ]


@pytest.mark.parametrize("shape", [s for s in SHAPES if len(s) == 2])
def test_r_digits_matches_r_value(shape):
    n = math.prod(shape)
    assert r_digits(shape, np.arange(n)).tolist() == [
        list(r_value(shape, x)) for x in range(n)
    ]


@pytest.mark.parametrize("shape", SHAPES)
def test_h_digits_matches_h_value(shape):
    n = math.prod(shape)
    got = h_digits(shape, np.arange(n))
    assert got.tolist() == [list(h_value(shape, x)) for x in range(n)]
    assert got.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(shape=small_shapes())
def test_batch_sequences_match_scalar_on_random_shapes(shape):
    n = math.prod(shape)
    x = np.arange(n)
    assert f_digits(shape, x).tolist() == [list(f_value(shape, i)) for i in range(n)]
    assert g_digits(shape, x).tolist() == [list(g_value(shape, i)) for i in range(n)]
    assert h_digits(shape, x).tolist() == [list(h_value(shape, i)) for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(shape=small_shapes())
def test_batch_sequences_are_permutations(shape):
    """Every kernel output is a bijection of [n] — the injectivity invariant."""
    n = math.prod(shape)
    x = np.arange(n)
    for kernel in (f_digits, g_digits, h_digits):
        flat = digits_to_indices(kernel(shape, x), shape)
        assert sorted(flat.tolist()) == list(range(n))


def test_kernel_shape_validation():
    with pytest.raises(ValueError):
        r_digits((2, 2, 2), np.arange(8))
    with pytest.raises(ValueError):
        t_indices(0, np.arange(1))


@pytest.mark.parametrize("shape", SHAPES)
def test_sequence_tables_match_their_scalar_sequences(shape):
    n = math.prod(shape)
    natural = indices_to_digits(np.arange(n), shape)
    assert sequence_table("natural", shape).tolist() == natural.tolist()
    for name, value in (("f", f_value), ("g", g_value), ("h", h_value)):
        assert sequence_table(name, shape).tolist() == [
            list(value(shape, x)) for x in range(n)
        ]
    for length in shape:
        assert sequence_table("t", (length,)).tolist() == [
            [t_value(length, x)] for x in range(length)
        ]


def test_sequence_tables_are_shared_read_only_and_bounded():
    table = sequence_table("h", (4, 3))
    assert sequence_table("h", (4, 3)) is table
    assert table.shape == (12, 2) and table.dtype == np.int64
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert sequence_table.cache_info().maxsize == _SHAPE_MEMO_SIZE


def test_placed_weights_follow_the_permutation():
    weights = digit_weights((4, 2, 3))
    # Position m after the permutation is position perm[m] before it.
    perm = (2, 0, 1)
    placed = placed_weights(weights, perm)
    assert apply_permutation(perm, placed.tolist()) == tuple(weights.tolist())
    assert placed_weights(weights) is weights


def test_coordinate_ranks_weigh_each_relabelled_coordinate():
    shape, weights, perm = (3, 4), np.array([1, 3], dtype=np.int64), (1, 0)
    # Coordinate perm[m] weighs weights[m]: t(x_1) by 1 and t(x_0) by 3.
    expected = [
        t_value(4, x1) + 3 * t_value(3, x0) for x0 in range(3) for x1 in range(4)
    ]
    assert coordinate_ranks("t", shape, weights, perm).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separable_ranks_sum_one_term_per_guest_digit(data):
    """The outer sum is C-ordered: guest rank i's digits pick its terms."""
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        component = data.draw(small_shapes(max_dim=2, max_len=4))
        name = data.draw(st.sampled_from(["natural", "f", "g", "h"]))
        size = len(component)
        weights = data.draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
        terms.append((name, component, np.asarray(weights, dtype=np.int64)))
    guest_shape = tuple(math.prod(component) for _, component, _ in terms)
    guest_digits = indices_to_digits(np.arange(math.prod(guest_shape)), guest_shape)
    expected = [
        sum(
            int(sequence_table(name, component)[digit] @ weights)
            for digit, (name, component, weights) in zip(digits, terms)
        )
        for digits in guest_digits
    ]
    assert separable_ranks(terms).tolist() == expected
