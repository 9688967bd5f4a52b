"""Koopman operators for coupled systems: ODE-derived seeds, online refinement.

Pipeline: derive the seed Koopman matrix from the subsystems' governing
polynomial ODEs, as the uncoupled field's generator (generator module)
advanced on the full-system dictionary with the interaction rows zeroed
(assembly), refine the seed from trajectory data with online EDMD (edmd),
and predict from the state rows of K or its eigen-decomposition
(spectral). The dynamics module simulates the coupled benchmark systems,
and the CLI runs the bundled experiments end to end.
"""

from .assembly import assemble_global
from .dictionary import Dictionary, build_dictionary
from .dynamics import (
    BlowUpError,
    CoupledSystem,
    Coupling,
    perturb_initial,
    rk4_step,
    sample_initial,
    simulate,
    simulate_batch,
)
from .edmd import (
    OnlineState,
    SnapshotPair,
    batch_edmd_from_psi,
    online_init,
    online_update,
    online_update_many,
)
from .experiments import (
    ExperimentConfig,
    derive_seed,
    derive_seed_model,
    load_config,
    run_experiments,
)
from .generator import PolynomialVectorField, build_generator, local_koopman
from .model import KoopmanModel, load_matrix_csv, save_matrix_csv
from .spectral import (
    DefectiveDecompositionError,
    SpectralDecomposition,
    decompose,
    forecast_matrices,
    relative_l2,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CoupledSystem",
    "Coupling",
    "DefectiveDecompositionError",
    "Dictionary",
    "ExperimentConfig",
    "KoopmanModel",
    "OnlineState",
    "PolynomialVectorField",
    "SnapshotPair",
    "SpectralDecomposition",
    "assemble_global",
    "batch_edmd_from_psi",
    "build_dictionary",
    "build_generator",
    "decompose",
    "derive_seed",
    "derive_seed_model",
    "forecast_matrices",
    "load_config",
    "load_matrix_csv",
    "local_koopman",
    "online_init",
    "online_update",
    "online_update_many",
    "perturb_initial",
    "relative_l2",
    "rk4_step",
    "run_experiments",
    "sample_initial",
    "save_matrix_csv",
    "simulate",
    "simulate_batch",
]
