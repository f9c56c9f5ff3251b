"""Mixed-radix numbering systems (Definition 7 of the paper).

The paper's central analytical device is to identify the nodes of an
``(l_1, ..., l_d)``-torus or mesh with the numbers of the mixed-radix
numbering system whose radices are the dimension lengths.  The submodules
here provide:

``radix``
    The :class:`~repro.numbering.radix.RadixBase` class — radix-L
    representations, weights, and the bijections ``u_L`` / ``u_L^{-1}``.
``distance``
    The two distance measures on radix-L numbers: the mesh distance ``δm``
    (Lemma 6) and the torus distance ``δt`` (Lemma 5).
``sequences``
    Acyclic and cyclic sequences of radix-L numbers, their ``δm``- and
    ``δt``-spreads (Definition 8), and Gray-code predicates.
``graycode``
    The natural sequence ``P``, the reflected sequence ``P'`` (which is the
    paper's ``f_L``), and the classic binary reflected Gray code.
``arrays``
    Vectorized (NumPy ``int64``) versions of the ``u_L`` / ``u_L^{-1}``
    bijections over flat index batches — the backbone of the array-backed
    embedding hot path.
``batch``
    Batch construction kernels: the embedding sequences ``t``/``f``/``g``/
    ``r``/``h`` evaluated over whole node sets at once, their memoized
    per-component digit tables, and the outer sum of per-dimension terms
    that every leaf construction in :mod:`repro.core` builds its host ranks
    with.
"""

from .radix import RadixBase
from .arrays import digit_weights, digits_to_indices, indices_to_digits
from .batch import (
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
from .distance import (
    mesh_distance,
    torus_distance,
)
from .sequences import (
    cyclic_pairs,
    cyclic_spread,
    is_cyclic_gray_sequence,
    is_gray_sequence,
    sequence_pairs,
    sequence_spread,
)
from .graycode import (
    binary_reflected_gray_code,
    natural_sequence,
    reflected_mixed_radix_sequence,
)

__all__ = [
    "RadixBase",
    "digit_weights",
    "digits_to_indices",
    "indices_to_digits",
    "t_indices",
    "f_digits",
    "g_digits",
    "r_digits",
    "h_digits",
    "sequence_table",
    "placed_weights",
    "coordinate_ranks",
    "separable_ranks",
    "mesh_distance",
    "torus_distance",
    "sequence_pairs",
    "cyclic_pairs",
    "sequence_spread",
    "cyclic_spread",
    "is_gray_sequence",
    "is_cyclic_gray_sequence",
    "binary_reflected_gray_code",
    "natural_sequence",
    "reflected_mixed_radix_sequence",
]
