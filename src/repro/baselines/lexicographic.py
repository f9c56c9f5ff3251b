"""The lexicographic (row-major) baseline embedding.

Guest node with natural-order rank ``x`` maps to the host node with the same
rank.  For a line guest this is exactly the paper's natural sequence ``P``
(Section 3.1), whose ``δm``-spread the paper shows to be larger than 1 for
every host of dimension above 1 — the motivating "bad" embedding that the
reflected sequence ``P'``/``f_L`` improves on.
"""

from __future__ import annotations

import numpy as np

from ..core.embedding import Embedding
from ..exceptions import ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..runtime.context import use_array_path

__all__ = ["lexicographic_embedding"]


def lexicographic_embedding(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Match natural-order ranks of guest and host nodes.

    Under the array backend the host-index array is literally ``arange``;
    the per-node callable stays as the loop reference (the two are pinned
    node-for-node by the baseline differential tests).  A guest smaller
    than the host maps injectively onto the first ``|V_G|`` host ranks.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )
    if use_array_path():
        return Embedding.from_index_array(
            guest,
            host,
            np.arange(guest.size, dtype=np.int64),
            strategy="baseline:lexicographic",
            predicted_dilation=None,
        )
    return Embedding.from_callable(
        guest,
        host,
        lambda node: host.index_node(guest.node_index(node)),
        strategy="baseline:lexicographic",
        predicted_dilation=None,
    )
