"""Expansion of shapes (Definition 30) and the search for expansion factors.

Let ``L = (l_1, ..., l_d)`` and ``M = (m_1, ..., m_c)`` with ``d < c``.  ``M``
is an *expansion* of ``L`` when there exist lists ``V_1, ..., V_d`` such that

* ``Π V_i = l_i`` for every ``i``; and
* ``M`` is a permutation of the concatenation ``V = V_1 ∘ V_2 ∘ ... ∘ V_d``.

``(V_1, ..., V_d)`` is an *expansion factor* of ``L`` into ``M``.  Expansion
factors are generally not unique; Theorem 32(iii) shows the choice matters
(an even-size torus can be embedded in a mesh with dilation 1 only when a
factor exists in which every ``V_i`` has at least two components and can be
reordered to start with an even number).

The search is a backtracking assignment of the multiset ``M`` to the ``d``
groups, pruning on divisibility.  Shapes in practice have few dimensions and
small factor counts, so each search is cheap, but a survey asks the same
questions over and over: on a sampled exhaustive sweep, factor search took
about a quarter of construction time, and 2,228 searches covered only 422
distinct questions.  :func:`find_expansion_factor` and
:func:`find_unit_dilation_torus_factor` are therefore memoized on
``(source, sorted(target))``.  That key is exact: the search reads
``target`` only through the multiset of its parts, whose elements it sorts,
so every order of ``target`` yields the same factors in the same order.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..exceptions import NoExpansionError
from ..utils.listops import concat, is_permutation_of, product

__all__ = [
    "ExpansionFactor",
    "is_expansion",
    "find_expansion_factor",
    "iter_expansion_factors",
    "find_unit_dilation_torus_factor",
]


@dataclass(frozen=True)
class ExpansionFactor:
    """An expansion factor ``V = (V_1, ..., V_d)`` of ``L`` into ``M``."""

    lists: Tuple[Tuple[int, ...], ...]

    @property
    def flattened(self) -> Tuple[int, ...]:
        """The concatenation ``V_1 ∘ V_2 ∘ ... ∘ V_d``."""
        return concat(*self.lists)

    @property
    def source_shape(self) -> Tuple[int, ...]:
        """The shape ``L`` recovered as the per-list products."""
        return tuple(product(v) for v in self.lists)

    def expands(self, source: Sequence[int], target: Sequence[int]) -> bool:
        """True when this factor witnesses ``target`` being an expansion of ``source``."""
        return (
            self.source_shape == tuple(source)
            and is_permutation_of(self.flattened, tuple(target))
        )

    def all_lists_have_length_at_least(self, k: int) -> bool:
        return all(len(v) >= k for v in self.lists)

    def all_lists_contain_even(self) -> bool:
        return all(any(part % 2 == 0 for part in v) for v in self.lists)

    def with_even_first(self) -> "ExpansionFactor":
        """Reorder each list so an even component (if any) comes first.

        Reordering within a list keeps the factor valid (the concatenation is
        still a permutation of ``M``); it is the normalization required by
        Theorem 32(iii) so that every ``h_{V_i}`` has unit cyclic δm-spread.
        """
        reordered: List[Tuple[int, ...]] = []
        for v in self.lists:
            evens = [i for i, part in enumerate(v) if part % 2 == 0]
            if not evens:
                reordered.append(v)
                continue
            first = evens[0]
            reordered.append((v[first],) + v[:first] + v[first + 1 :])
        return ExpansionFactor(tuple(reordered))

    def __iter__(self):
        return iter(self.lists)

    def __len__(self) -> int:
        return len(self.lists)


def _group_assignments(
    remaining: Counter, target_product: int, *, min_parts: int
) -> Iterator[Tuple[Tuple[int, ...], Counter]]:
    """Yield sub-multisets of ``remaining`` whose product is ``target_product``.

    Each yielded pair is ``(chosen_parts_sorted_descending, leftover_counter)``.
    Only one representative per multiset is produced (parts are chosen in
    non-increasing order), which keeps the search free of duplicate work.
    """
    values = sorted(remaining.elements(), reverse=True)

    def recurse(start: int, target: int, chosen: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if target == 1:
            if len(chosen) >= min_parts:
                yield chosen
            # Longer selections would need extra parts equal to 1, which are
            # not allowed (every dimension length exceeds 1).
            return
        previous = None
        for index in range(start, len(values)):
            part = values[index]
            if part == previous:
                continue  # skip duplicate branches
            if target % part == 0:
                yield from recurse(index + 1, target // part, chosen + (part,))
            previous = part

    seen: set[Tuple[int, ...]] = set()
    for chosen in recurse(0, target_product, ()):
        if chosen in seen:
            continue
        seen.add(chosen)
        leftover = remaining.copy()
        for part in chosen:
            leftover[part] -= 1
            if leftover[part] == 0:
                del leftover[part]
        yield chosen, leftover


def iter_expansion_factors(
    source: Sequence[int],
    target: Sequence[int],
    *,
    min_parts_per_list: int = 1,
    limit: Optional[int] = None,
) -> Iterator[ExpansionFactor]:
    """Enumerate expansion factors of ``source`` into ``target``.

    Parameters
    ----------
    min_parts_per_list:
        Require every ``V_i`` to have at least this many components (used
        with 2 when hunting for the unit-dilation torus->mesh factor of
        Theorem 32(iii)).
    limit:
        Stop after yielding this many factors.
    """
    source = tuple(source)
    target = tuple(target)
    if product(source) != product(target):
        return
    if len(source) > len(target):
        return

    count = 0

    def recurse(index: int, remaining: Counter, acc: Tuple[Tuple[int, ...], ...]):
        nonlocal count
        if limit is not None and count >= limit:
            return
        if index == len(source):
            if not remaining:
                count += 1
                yield ExpansionFactor(acc)
            return
        for chosen, leftover in _group_assignments(
            remaining, source[index], min_parts=min_parts_per_list
        ):
            yield from recurse(index + 1, leftover, acc + (chosen,))
            if limit is not None and count >= limit:
                return

    yield from recurse(0, Counter(target), ())


#: Bound of the factor-search memos (distinct ``(source, sorted(target))``
#: questions).  The exhaustive pairs up to 64 nodes ask 422 of them; the
#: bound caps memory on larger sweeps.
_FACTOR_MEMO_SIZE = 4096


def find_expansion_factor(
    source: Sequence[int],
    target: Sequence[int],
    *,
    min_parts_per_list: int = 1,
) -> Optional[ExpansionFactor]:
    """The first expansion factor found, or ``None`` when none exists.

    Memoized (see the module docstring); the factor is immutable, so callers
    share it.
    """
    return _first_expansion_factor(
        tuple(source), tuple(sorted(target)), min_parts_per_list
    )


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _first_expansion_factor(
    source: Tuple[int, ...], target: Tuple[int, ...], min_parts_per_list: int
) -> Optional[ExpansionFactor]:
    for factor in iter_expansion_factors(
        source, target, min_parts_per_list=min_parts_per_list, limit=1
    ):
        return factor
    return None


def is_expansion(source: Sequence[int], target: Sequence[int]) -> bool:
    """True when ``target`` is an expansion of ``source`` (Definition 30)."""
    if len(tuple(source)) >= len(tuple(target)):
        return False
    return find_expansion_factor(source, target) is not None


def find_unit_dilation_torus_factor(
    source: Sequence[int], target: Sequence[int]
) -> Optional[ExpansionFactor]:
    """A factor enabling the unit-dilation even-torus -> mesh embedding.

    Theorem 32(iii): if the torus ``G`` has even size and a factor exists in
    which every ``V_i`` has at least two components and starts (after
    reordering) with an even number, then ``H_V`` embeds ``G`` in the mesh
    ``H`` with dilation 1.  Such a factor requires every ``l_i`` to be even.
    Returns the normalized (even-first) factor, or ``None``.  Memoized like
    :func:`find_expansion_factor`.
    """
    return _first_unit_dilation_factor(tuple(source), tuple(sorted(target)))


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _first_unit_dilation_factor(
    source: Tuple[int, ...], target: Tuple[int, ...]
) -> Optional[ExpansionFactor]:
    if any(length % 2 != 0 for length in source):
        return None
    for factor in iter_expansion_factors(
        source, target, min_parts_per_list=2, limit=64
    ):
        if factor.all_lists_contain_even():
            return factor.with_even_first()
    return None


def require_expansion_factor(
    source: Sequence[int], target: Sequence[int]
) -> ExpansionFactor:
    """Like :func:`find_expansion_factor` but raising when no factor exists."""
    factor = find_expansion_factor(source, target)
    if factor is None:
        raise NoExpansionError(
            f"shape {tuple(target)} is not an expansion of shape {tuple(source)}"
        )
    return factor
