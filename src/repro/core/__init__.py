"""The paper's primary contribution: embeddings among toruses and meshes.

Submodules map one-to-one onto the paper's sections:

* :mod:`~repro.core.embedding` — the :class:`Embedding` type (Definition 1)
  and :class:`Construction`, the form each construction is written in once
  for both backends;
* :mod:`~repro.core.basic` — Section 3 basic embeddings (``f``, ``g``, ``r``,
  ``h`` and the helper ``t``);
* :mod:`~repro.core.same_shape` — Lemma 36 (identity and ``T_L``);
* :mod:`~repro.core.expansion` / :mod:`~repro.core.reduction` — the shape
  conditions of Definitions 30, 37 and 41 and the factor searches;
* :mod:`~repro.core.increasing` — Section 4.1 (Theorem 32);
* :mod:`~repro.core.lowering` — Section 4.2 (Theorems 39 and 43);
* :mod:`~repro.core.square` — Section 5 (Theorems 48, 51, 52, 53);
* :mod:`~repro.core.bounds` — Theorem 47 lower bound, the known optima used
  for comparison, and the Appendix ``ε`` sequence;
* :mod:`~repro.core.dispatch` — automatic strategy selection: :func:`plan`
  decides once, :func:`embed` builds, :func:`strategy_for` names the family;
* :mod:`~repro.core.functional` — the pointwise form of a plan's
  construction, for graphs too large to materialize.
"""

from .embedding import Construction, Embedding, use_array_path
from .basic import (
    f_sequence,
    f_value,
    g_sequence,
    g_value,
    h_sequence,
    h_value,
    line_in_graph_embedding,
    r_sequence,
    r_value,
    ring_in_graph_embedding,
    t_sequence,
    t_value,
)
from .same_shape import same_shape_embedding, t_vector_value, torus_in_mesh_same_shape
from .expansion import (
    ExpansionFactor,
    find_expansion_factor,
    find_unit_dilation_torus_factor,
    is_expansion,
    iter_expansion_factors,
)
from .reduction import (
    GeneralReductionFactor,
    SimpleReductionFactor,
    find_general_reduction,
    find_simple_reduction,
    is_general_reduction,
    is_simple_reduction,
)
from .increasing import F_value, G_value, H_value, embed_increasing
from .lowering import (
    U_value,
    embed_lowering,
    embed_lowering_general,
    embed_lowering_simple,
)
from .square import (
    embed_square,
    embed_square_increasing,
    embed_square_lowering,
    predicted_square_dilation,
    square_lowering_intermediate_shapes,
)
from .bounds import (
    epsilon_sequence,
    epsilon_value,
    fitzgerald_cube_mesh_in_line,
    fitzgerald_square_mesh_in_line,
    harper_hypercube_in_line,
    lowering_dilation_lower_bound,
    mn86_square_torus_in_ring,
)
from .dispatch import Plan, embed, plan, strategy_for
from .functional import FunctionalEmbedding, functional_embed
from .subshape import embed_subshape, find_subshape

__all__ = [
    "Construction",
    "Embedding",
    "use_array_path",
    "FunctionalEmbedding",
    "functional_embed",
    "t_value",
    "t_sequence",
    "f_value",
    "f_sequence",
    "g_value",
    "g_sequence",
    "r_value",
    "r_sequence",
    "h_value",
    "h_sequence",
    "line_in_graph_embedding",
    "ring_in_graph_embedding",
    "same_shape_embedding",
    "torus_in_mesh_same_shape",
    "t_vector_value",
    "ExpansionFactor",
    "is_expansion",
    "find_expansion_factor",
    "iter_expansion_factors",
    "find_unit_dilation_torus_factor",
    "SimpleReductionFactor",
    "GeneralReductionFactor",
    "is_simple_reduction",
    "find_simple_reduction",
    "is_general_reduction",
    "find_general_reduction",
    "F_value",
    "G_value",
    "H_value",
    "embed_increasing",
    "U_value",
    "embed_lowering",
    "embed_lowering_simple",
    "embed_lowering_general",
    "embed_square",
    "embed_square_lowering",
    "embed_square_increasing",
    "predicted_square_dilation",
    "square_lowering_intermediate_shapes",
    "lowering_dilation_lower_bound",
    "fitzgerald_square_mesh_in_line",
    "fitzgerald_cube_mesh_in_line",
    "mn86_square_torus_in_ring",
    "harper_hypercube_in_line",
    "epsilon_value",
    "epsilon_sequence",
    "Plan",
    "plan",
    "embed",
    "strategy_for",
    "embed_subshape",
    "find_subshape",
]
