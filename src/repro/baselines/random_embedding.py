"""The random-bijection baseline embedding.

A uniformly random matching of guest nodes to host nodes.  Its expected
dilation is close to the host diameter for all but tiny graphs, which makes
it the sanity-check lower bar: every structured strategy (the paper's and
the other baselines) should beat it comfortably.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from ..core.embedding import Embedding
from ..exceptions import ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..runtime.context import use_array_path

__all__ = ["random_embedding"]


def random_embedding(
    guest: CartesianGraph, host: CartesianGraph, *, seed: Optional[int] = 0
) -> Embedding:
    """A seeded uniformly random bijection of guest nodes onto host nodes.

    Both backends draw the identical permutation: ``random.Random.shuffle``
    only ever swaps positions, so shuffling the rank range produces the same
    bijection as shuffling the host node tuples — the array path just skips
    materializing the tuples and the mapping dict.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )
    rng = random.Random(seed)
    if use_array_path():
        permutation = list(range(host.size))
        rng.shuffle(permutation)
        return Embedding.from_index_array(
            guest,
            host,
            np.asarray(permutation[: guest.size], dtype=np.int64),
            strategy="baseline:random",
            predicted_dilation=None,
            notes={"seed": seed},
        )
    host_nodes = list(host.nodes())
    rng.shuffle(host_nodes)
    mapping = {
        guest_node: host_nodes[index]
        for index, guest_node in enumerate(guest.nodes())
    }
    return Embedding(
        guest=guest,
        host=host,
        mapping=mapping,
        strategy="baseline:random",
        predicted_dilation=None,
        notes={"seed": seed},
    )
