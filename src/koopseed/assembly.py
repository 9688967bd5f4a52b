"""The ODE-derived global Koopman matrix, the seed the refinement starts from.

The seed is the Koopman matrix of the subsystem equations on the global
dictionary, with every entry involving an interaction monomial (one mixing
variables of two or more subsystems) at zero; the data-driven refinement is
what later fills those in. It is derived in one step: the uncoupled field
(each subsystem's equations on its own block of the global variables) goes
through ``local_koopman`` on the global dictionary, and the interaction
rows are zeroed. Their columns come out zero without being set: the
uncoupled equations never turn a monomial of one subsystem into an
interaction monomial, so the generator and its exponential hold exact
zeros there, and zeroing the rows clears the rest.

``derive_seed_model`` is a single call to ``assemble_global``. The function
keeps its own name and module because the benchmark's tracer hooks
``koopseed.assembly.assemble_global`` as its ``assembly.assemble`` layer;
folding it into ``derive_seed_model`` waits for a change to the benchmark.
"""

import numpy as np

from .dictionary import Dictionary
from .dynamics import CoupledSystem
from .generator import local_koopman
from .model import KoopmanModel


def assemble_global(subsystems: list, dictionary: Dictionary, dt: float) -> KoopmanModel:
    """Seed Koopman matrix of ``subsystems`` on ``dictionary`` over ``dt``.

    Subsystem i takes the global variables in subsystem order, as in
    ``CoupledSystem``. Each subsystem's index block is its own
    ``local_koopman`` matrix to roundoff (bit for bit on the presets at
    degree 1, and on duffing at degree 2); every interaction row and column
    is exactly zero.
    """
    system = CoupledSystem(subsystems, [])
    model = local_koopman(system.field, dictionary, dt)
    offsets = system.offsets
    touched = [np.any(dictionary.exponents[:, a:b], axis=1) for a, b in zip(offsets, offsets[1:])]
    model.matrix[np.sum(touched, axis=0) >= 2] = 0.0
    return model
