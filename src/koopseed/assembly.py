"""Global Koopman matrix assembled from per-subsystem models.

The subsystems take the global variables in the order of the local models,
each as many as its dictionary has. Each local matrix is embedded at its
subsystem's global dictionary indices; every entry involving an interaction
monomial (one mixing variables of two or more subsystems) stays zero. The
data-driven refinement is what later fills those in.
"""

import numpy as np

from .dictionary import Dictionary
from .model import KoopmanModel


def assemble_global(local_models: list, global_dict: Dictionary) -> KoopmanModel:
    """Embed local Koopman matrices into the global dictionary.

    Subsystem i takes the next ``local_models[i].dictionary.var_count``
    global variables; each local multi-index is zero-padded into those
    slots and located in ``global_dict``. The (constant, constant) entry is
    claimed by every subsystem, so each local matrix must carry exactly 1
    there. All remaining entries come straight from the local matrices, so
    extracting a subsystem's index block recovers its local matrix
    bit-for-bit.
    """
    total = sum(model.dictionary.var_count for model in local_models)
    if total != global_dict.var_count:
        raise ValueError(
            f"local models cover {total} variables, global dictionary has {global_dict.var_count}"
        )
    n = len(global_dict)
    matrix = np.zeros((n, n))
    offset = 0
    for i, model in enumerate(local_models):
        local = model.dictionary
        if local.max_degree != global_dict.max_degree:
            raise ValueError(
                f"subsystem {i}: local max_degree {local.max_degree} "
                f"!= global {global_dict.max_degree}"
            )
        if model.matrix[0, 0] != 1.0:
            raise ValueError(
                f"subsystem {i}: constant-to-constant entry is {model.matrix[0, 0]}, expected 1"
            )
        before = (0,) * offset
        after = (0,) * (total - offset - local.var_count)
        mapping = [global_dict.index_of(before + m + after) for m in local.entries]
        matrix[np.ix_(mapping, mapping)] = model.matrix
        offset += local.var_count
    return KoopmanModel(global_dict, matrix)
