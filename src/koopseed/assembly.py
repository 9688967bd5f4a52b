"""Global Koopman matrix assembled from per-subsystem models.

Each local matrix is embedded at its subsystem's global dictionary indices;
every entry involving an interaction monomial (one mixing variables of two
or more subsystems) stays zero. The data-driven refinement is what later
fills those in.
"""

import numpy as np

from .dictionary import Dictionary, VariableLayout, embed_indices
from .model import KoopmanModel


def assemble_global(
    local_models: list,
    layout: VariableLayout,
    global_dict: Dictionary,
) -> KoopmanModel:
    """Embed local Koopman matrices into the global dictionary.

    The (constant, constant) entry is claimed by every subsystem, so each
    local matrix must carry exactly 1 there.
    All remaining entries come straight from the local matrices, so extracting
    a subsystem's index block recovers its local matrix bit-for-bit.
    """
    if len(local_models) != layout.subsystem_count:
        raise ValueError(
            f"{len(local_models)} local models for {layout.subsystem_count} subsystems"
        )
    n = len(global_dict)
    matrix = np.zeros((n, n))
    for i, model in enumerate(local_models):
        if model.dictionary.var_count != layout.subsystem_dims[i]:
            raise ValueError(
                f"subsystem {i}: local dictionary covers {model.dictionary.var_count} "
                f"variables, layout says {layout.subsystem_dims[i]}"
            )
        if model.dictionary.max_degree != global_dict.max_degree:
            raise ValueError(
                f"subsystem {i}: local max_degree {model.dictionary.max_degree} "
                f"!= global {global_dict.max_degree}"
            )
        if model.matrix[0, 0] != 1.0:
            raise ValueError(
                f"subsystem {i}: constant-to-constant entry is {model.matrix[0, 0]}, expected 1"
            )
        mapping = embed_indices(model.dictionary, layout, i, global_dict)
        matrix[np.ix_(mapping, mapping)] = model.matrix
    return KoopmanModel(global_dict, matrix)
