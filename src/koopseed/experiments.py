"""Experiment orchestration: seeded-online vs batch-EDMD comparisons.

The pipeline derives a global Koopman matrix from the subsystem ODEs,
refines it online from a training trajectory, trains batch EDMD on the same
pairs, and scores both on held-out perturbed trajectories with the relative
l2 metric. Everything is driven by an ExperimentConfig. Summaries, spectra
and matrices are written as CSV, and each stage's per-point errors as one
``.npy`` array per seed.
"""

import dataclasses
import fnmatch
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .assembly import assemble_global
from .dictionary import Dictionary, as_float, as_int, as_list, build_dictionary
from .dynamics import (
    CoupledSystem,
    Coupling,
    perturb_initial,
    sample_initial,
    simulate,
    simulate_batch,
)
from .edmd import batch_edmd_from_psi, online_init, online_update_many
from .generator import PolynomialVectorField
from .model import KoopmanModel, save_matrix_csv, write_csv
from .spectral import eigen_order, forecast_matrices, relative_l2

METHOD_PROPOSED = "proposed"
METHOD_EDMD = "edmd"
METHODS = (METHOD_PROPOSED, METHOD_EDMD)

# The spectrum stage counts eigenvalues with |mu| above this magnitude.
SPECTRUM_THRESHOLD = 0.99

# States per block of one-step scoring (a block holds whole trajectories, at
# least one). Like dictionary._CHUNK_ROWS, it bounds memory independently of
# the test set: one block's Psi is alive at a time, 20 000 states or about
# 13 MB at 84 monomials, against 134 MB for the whole vdp test set. Each
# block costs one onestep_errors call per forecast, so much smaller blocks
# only add calls.
_SCORE_BLOCK_STATES = 20_000

# Stable codes for per-purpose RNG streams; never renumber.
_STREAMS = {"train-init": 1, "test-perturb": 2}


def derived_seed(root_seed: int, purpose: str, *key) -> int:
    """Portable per-purpose integer seed derived from the experiment root seed."""
    entropy = (int(root_seed), _STREAMS[purpose]) + tuple(int(k) for k in key)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Full description of one benchmark run (system, sizes, seeds), and the
    config schema: a field with a default may be left out of a JSON config.
    Construction converts every field by its declared type, then checks the
    invariants between fields."""

    name: str
    system: CoupledSystem
    degree: int
    dt: float
    train_steps: int
    test_count: int
    test_steps: int
    perturb_radius: float
    checkpoint_stride: int
    nstep_horizon: int
    nstep_train_pairs: int
    spectrum_train_pairs: int
    init_ranges: tuple
    root_seed: int
    train_burn_in: int = 0
    test_burn_in: int = 0
    sigma: float = 1.0
    seeds: int = 1
    max_pairs: int | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, what = getattr(self, f.name), f"config: {f.name}"
            if f.type is str and not isinstance(value, str):
                raise ValueError(f"{what} {value!r} is not a string")
            elif f.type is float:
                value = as_float(value, what)
            elif f.type in (int, int | None) and value is not None:
                value = as_int(value, what)
            setattr(self, f.name, value)
        ranges = as_list(self.init_ranges, "config: init_ranges")
        self.init_ranges = tuple(_init_range(i, entry) for i, entry in enumerate(ranges))
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive")
        if self.train_steps < 1 or self.test_steps < 1:
            raise ValueError("trajectory lengths must be positive")
        if not 0 <= self.train_burn_in < self.train_steps:
            raise ValueError("train burn-in must be shorter than the trajectory")
        if not 0 <= self.test_burn_in < self.test_steps:
            raise ValueError("test burn-in must be shorter than the trajectory")
        if self.test_count < 1:
            raise ValueError("test_count must be >= 1")
        if self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not (np.isfinite(self.perturb_radius) and self.perturb_radius > 0):
            raise ValueError("perturb_radius must be positive and finite")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.root_seed < 0:
            raise ValueError("root_seed must be >= 0")
        if len(self.init_ranges) != self.system.dim:
            raise ValueError("one init range per state variable is required")
        for i, (lo, hi) in enumerate(self.init_ranges):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"init range {i} ({lo}, {hi}) must be finite with lo <= hi")
        pairs = self.train_pairs
        if self.max_pairs is not None and not 1 <= self.max_pairs <= pairs:
            raise ValueError(f"max_pairs must lie in [1, {pairs}]")
        if not 1 <= self.nstep_train_pairs <= pairs:
            raise ValueError(f"nstep_train_pairs must lie in [1, {pairs}]")
        if not 1 <= self.spectrum_train_pairs <= pairs:
            raise ValueError(f"spectrum_train_pairs must lie in [1, {pairs}]")
        if not 1 <= self.nstep_horizon <= self.test_length - 1:
            raise ValueError("nstep_horizon must fit inside the test trajectories")

    @property
    def train_pairs(self) -> int:
        return self.train_steps - self.train_burn_in

    @property
    def test_length(self) -> int:
        return self.test_steps - self.test_burn_in + 1

    def checkpoints(self) -> list:
        limit = self.max_pairs if self.max_pairs is not None else self.train_pairs
        cps = list(range(self.checkpoint_stride, limit + 1, self.checkpoint_stride))
        if not cps:
            cps = [limit]
        return cps

    def dictionary(self) -> Dictionary:
        return build_dictionary(self.system.dim, self.degree)


def _init_range(i: int, entry) -> tuple:
    # one init_ranges entry as a (lo, hi) pair of floats
    try:
        lo, hi = entry
    except (TypeError, ValueError):
        raise ValueError(f"init range {i} {entry!r} is not a (lo, hi) pair") from None
    return as_float(lo, f"init range {i}: lo"), as_float(hi, f"init range {i}: hi")


def _check_keys(entry: dict, required, optional, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: {entry!r} is not a record")
    unknown = sorted(set(entry) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    missing = sorted(set(required) - set(entry))
    if missing:
        raise ValueError(f"{where}: missing key {', '.join(map(repr, missing))}")


def _field_from_json(spec: dict, where: str) -> PolynomialVectorField:
    _check_keys(spec, ("dim", "coordinates"), (), where)
    components = []
    for c, coord in enumerate(as_list(spec["coordinates"], f"{where}: coordinates")):
        for t, term in enumerate(as_list(coord, f"{where}: coordinate {c}")):
            _check_keys(term, ("exponents", "coeff"), (), f"{where} coordinate {c} term {t}")
        components.append([(term["exponents"], term["coeff"]) for term in coord])
    try:
        return PolynomialVectorField(as_int(spec["dim"], "dim"), components)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _coupling_from_json(spec: dict) -> Coupling:
    record = spec if isinstance(spec, dict) else {}
    where = f"coupling {record.get('target', '?')}<-{record.get('source', '?')}"
    _check_keys(spec, ("target", "source"), ("strength", "type", "drive_coord", "observed_coord"), where)
    if spec.get("type") != "diffusive":
        raise ValueError(f"{where}: type {spec.get('type')!r} is not 'diffusive'")
    return Coupling(**{k: v for k, v in spec.items() if k != "type"})


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed JSON. Unknown keys and missing keys without
    a schema default are errors; the constructors convert and check the values."""
    fields = [f for f in dataclasses.fields(ExperimentConfig) if f.name != "system"]
    required = [f.name for f in fields if f.default is dataclasses.MISSING] + ["subsystems"]
    optional = [f.name for f in fields if f.default is not dataclasses.MISSING] + ["couplings"]
    _check_keys(raw, required, optional, "config")
    rest = {k: v for k, v in raw.items() if k not in ("subsystems", "couplings")}
    subsystems = [
        _field_from_json(s, f"subsystem {i}")
        for i, s in enumerate(as_list(raw["subsystems"], "config: subsystems"))
    ]
    couplings = [_coupling_from_json(c) for c in as_list(raw.get("couplings", []), "config: couplings")]
    return ExperimentConfig(system=CoupledSystem(subsystems, couplings), **rest)


def bundled_preset_names() -> list:
    files = resources.files("koopseed").joinpath("presets")
    return sorted(p.name[: -len(".preset")] for p in files.iterdir() if p.name.endswith(".preset"))


def load_config(name_or_path: str) -> ExperimentConfig:
    """Load a config from a JSON file path or a bundled preset name."""
    if os.path.isfile(name_or_path):
        with open(name_or_path) as fh:
            return config_from_dict(json.load(fh))
    candidate = resources.files("koopseed").joinpath("presets", name_or_path + ".preset")
    if candidate.is_file():
        return config_from_dict(json.loads(candidate.read_text()))
    raise FileNotFoundError(
        f"no config file {name_or_path!r} and no bundled preset of that name "
        f"(bundled: {', '.join(bundled_preset_names())})"
    )


def override_config(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Return a copy with the given fields replaced, checked like a new config."""
    return dataclasses.replace(config, **changes)


# ---------------------------------------------------------------------------
# Seed derivation and data generation
# ---------------------------------------------------------------------------


def derive_seed_model(config: ExperimentConfig) -> KoopmanModel:
    """ODE-derived global Koopman matrix: the subsystem equations advanced
    over one sampling interval on the global dictionary, interaction
    entries zeroed (``assemble_global``)."""
    return assemble_global(config.system.subsystems, config.dictionary(), config.dt)


def derive_seed(config: ExperimentConfig, out_path) -> KoopmanModel:
    """Derive the seed matrix and write it as a portable matrix CSV."""
    seed = derive_seed_model(config)
    save_matrix_csv(
        out_path,
        seed,
        extra_meta={"name": config.name, "dt": config.dt, "kind": "ode-derived-seed"},
    )
    return seed


@dataclass
class ExperimentData:
    """One seed repetition's datasets, burn-in already discarded.

    The test states are a C-contiguous array of their own, so the test
    set's burn-in states are freed once ``generate_data`` returns.
    """

    train_states: np.ndarray  # (train_pairs + 1, D)
    test_states: np.ndarray  # (test_count, test_length, D)


def simulate_training(config: ExperimentConfig, seed_index: int) -> tuple:
    """The sampled training initial state and the training states after
    burn-in, as (x0, states)."""
    x0 = sample_initial(
        config.init_ranges, derived_seed(config.root_seed, "train-init", seed_index)
    )
    train = simulate(config.system, x0, config.train_steps, config.dt)
    return x0, train[config.train_burn_in :]


def generate_data(config: ExperimentConfig, seed_index: int) -> ExperimentData:
    """Simulate the training trajectory and the perturbed test set.

    Test initial states perturb the sampled (pre-relaxation) training
    initial state; each test trajectory then runs the full test length and
    discards its own burn-in, mirroring the training protocol.
    """
    x0, train_states = simulate_training(config, seed_index)

    x0s = np.stack(
        [
            perturb_initial(
                x0,
                config.perturb_radius,
                derived_seed(config.root_seed, "test-perturb", seed_index, t),
            )
            for t in range(config.test_count)
        ]
    )
    test = simulate_batch(config.system, x0s, config.test_steps, config.dt)
    return ExperimentData(
        train_states=train_states,
        test_states=np.ascontiguousarray(test[:, config.test_burn_in :]),
    )


def train_checkpoint_models(config: ExperimentConfig, data: ExperimentData, checkpoints) -> dict:
    """Train both methods at every checkpoint pair count.

    The proposed method streams pairs through the online recursion starting
    from the ODE-derived seed; the baseline refits batch EDMD on the first m
    pairs. Returns {method: {pair_count: KoopmanModel}}.
    """
    dictionary = config.dictionary()
    psi = dictionary.evaluate(data.train_states)
    psi_x, psi_y = psi[:-1], psi[1:]

    checkpoints = sorted(checkpoints)
    if checkpoints[-1] > psi_x.shape[0]:
        raise ValueError("checkpoint exceeds available training pairs")

    models = {METHOD_PROPOSED: {}, METHOD_EDMD: {}}
    state = online_init(derive_seed_model(config), config.sigma)
    done = 0
    for m in checkpoints:
        state = online_update_many(state, psi_x[done:m], psi_y[done:m])
        done = m
        models[METHOD_PROPOSED][m] = KoopmanModel(
            dictionary, state.matrix.copy(), diagnostics={"pairs": m, "sigma": config.sigma}
        )
        models[METHOD_EDMD][m] = batch_edmd_from_psi(dictionary, psi_x[:m], psi_y[:m])
    return models


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def onestep_errors(forecast: np.ndarray, psi_test: np.ndarray, test_states: np.ndarray) -> np.ndarray:
    """Per-point one-step relative errors, shape (test_count, length-1)."""
    count, length, n_dic = psi_test.shape
    # Multiply all states and drop the last of each trajectory from the small
    # product: slicing psi_test first would copy the whole tensor every call.
    # forecast @ psi.T leaves one contiguous plane per state coordinate.
    pred = (forecast @ psi_test.reshape(-1, n_dic).T).reshape(-1, count, length)[:, :, :-1]
    return relative_l2(test_states[:, 1:, :], np.moveaxis(pred, 0, -1))


def nstep_errors(forecasts: dict, psi0: np.ndarray, test_states: np.ndarray, horizon: int) -> np.ndarray:
    """Per-trajectory errors of forecasts from each test initial state,
    shape (horizon, test_count); row n-1 holds the n-step errors."""
    out = np.empty((horizon, psi0.shape[0]))
    for n in range(1, horizon + 1):
        pred = psi0 @ forecasts[n].T
        out[n - 1] = relative_l2(test_states[:, n, :], pred)
    return out


def spectrum_of(model: KoopmanModel) -> np.ndarray:
    """Eigenvalues ordered by descending |mu|, then real, then imaginary part."""
    mu = np.linalg.eigvals(model.matrix)
    return mu[eigen_order(mu)]


# ---------------------------------------------------------------------------
# Summaries and CSV emission
# ---------------------------------------------------------------------------


@dataclass
class ErrorSummary:
    """Per-checkpoint (or per-horizon) error statistics of each method: row i
    of the (len(keys), len(METHODS)) arrays belongs to ``keys[i]``, column j
    to ``METHODS[j]``."""

    keys: list  # checkpoint pair counts, or forecast horizons n
    mean: np.ndarray
    std: np.ndarray
    count: np.ndarray

    def write_csv(self, path) -> None:
        rows = (
            (key, method, self.mean[i, j], self.std[i, j], self.count[i, j])
            for i, key in enumerate(self.keys)
            for j, method in enumerate(METHODS)
        )
        write_csv(path, "checkpoint_or_n,method,mean,std,count", rows)


def _by_cell(reduce, values: np.ndarray) -> np.ndarray:
    """``reduce(values[i, j])`` for every (key, method) cell. A whole-array
    reduction would hold temporaries as large as ``values``, and over an axis
    it adds in another order than over each cell's own contiguous array."""
    out = np.empty(values.shape[:2])
    for cell in np.ndindex(out.shape):
        out[cell] = reduce(values[cell])
    return out


def _summary_from_errors(keys: list, errors: np.ndarray) -> ErrorSummary:
    count = np.full(errors.shape[:2], errors[0, 0].size)
    return ErrorSummary(keys, _by_cell(np.mean, errors), _by_cell(np.std, errors), count)


def _aggregate_summaries(per_seed: list) -> ErrorSummary:
    """Seed-averaged summary: mean of per-seed means and of per-seed stds,
    and the pooled counts. Each cell averages its seeds as one contiguous
    vector, in the order ``np.mean`` of a list of the seeds' values adds."""
    means = np.stack([s.mean for s in per_seed], axis=-1)
    stds = np.stack([s.std for s in per_seed], axis=-1)
    count = sum(s.count for s in per_seed)
    return ErrorSummary(per_seed[0].keys, _by_cell(np.mean, means), _by_cell(np.mean, stds), count)


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

STAGES = ("onestep", "nstep", "spectrum")


def save_spectrum_csv(path, eigenvalues: np.ndarray) -> None:
    """Eigenvalues as CSV with columns re, im, abs."""
    write_csv(path, "re,im,abs", ((mu.real, mu.imag, abs(mu)) for mu in eigenvalues))


def _onestep_scores(config, dictionary, s, data, models, notes) -> tuple:
    """One seed's one-step errors of both methods at every checkpoint, as
    (keys, errors): keys are the checkpoints, and errors[i, j] holds the
    (test_count, length-1) errors of METHODS[j] at keys[i].

    The forecasts, the state rows of each K, are formed first. They are
    exact, so ``notes`` gets no forecast path. The test set is then scored
    in blocks of whole trajectories of at most ``_SCORE_BLOCK_STATES``
    states (one trajectory when a trajectory is longer than that): each
    block's Psi is evaluated once, passed to ``onestep_errors`` with every
    forecast and released before the next block's, so one block's Psi is
    alive at a time. Every error is computed elementwise or by a product whose
    per-element order does not depend on the block, so the errors equal
    those of one pass over the whole Psi tensor, which is never held.
    """
    test_states = data.test_states
    count, length = test_states.shape[:2]
    keys = config.checkpoints()
    errors = np.empty((len(keys), len(METHODS), count, length - 1))
    forecasts = {}
    for i, cp in enumerate(keys):
        for j, method in enumerate(METHODS):
            forecasts[i, j] = forecast_matrices(models[method][cp], [1])[0][1]
    step = max(1, _SCORE_BLOCK_STATES // length)
    for lo in range(0, count, step):
        states = test_states[lo : lo + step]
        psi = dictionary.evaluate(states)
        for cell, forecast in forecasts.items():
            errors[cell][lo : lo + step] = onestep_errors(forecast, psi, states)
        # Rebinding psi would free this block's Psi only after the next one
        # is built, so two blocks would be alive at the peak.
        del psi
    return keys, errors


def _nstep_scores(config, dictionary, s, data, models, notes) -> tuple:
    """One seed's n-step errors of both methods trained on
    ``nstep_train_pairs`` pairs, as (keys, errors): keys are n = 1..horizon,
    and errors[n-1, j] holds the (test_count,) errors of METHODS[j]."""
    pairs = config.nstep_train_pairs
    keys = list(range(1, config.nstep_horizon + 1))
    psi0 = dictionary.evaluate(data.test_states[:, 0, :])
    errors = np.empty((len(keys), len(METHODS), psi0.shape[0]))
    for j, method in enumerate(METHODS):
        mats, path = forecast_matrices(models[method][pairs], keys)
        if path != "spectral" and config.nstep_horizon > 1:  # horizon 1 is a row read
            notes.append(f"seed={s} pairs={pairs} method={method} forecast-path={path}")
        errors[:, j] = nstep_errors(mats, psi0, data.test_states, len(keys))
    return keys, errors


# Scored stage -> one seed's scorer.
_SCORED = {"onestep": _onestep_scores, "nstep": _nstep_scores}


def run_experiments(
    config: ExperimentConfig,
    stages=STAGES,
    out_dir=None,
    write_raw: bool = True,
) -> dict:
    """Run the requested stages in one pass per RNG seed.

    Each seed's data is simulated once and both methods are trained once, at
    the union of the pair counts the stages need, and every stage scores
    those models. Returns {stage: result}: the seed-averaged ErrorSummary for
    "onestep" and "nstep", and for "spectrum" {"pairs", "threshold",
    "counts": {method: [per seed]}, "mean_counts": {method: float}}, where a
    count is the number of eigenvalues with |mu| > SPECTRUM_THRESHOLD at
    ``spectrum_train_pairs`` pairs. With ``out_dir``, writes per-seed and
    averaged summaries, spectra and counts as CSV, and (``write_raw``) each
    scored stage's per-point errors of seed s as ``<stage>_raw_seed<s>.npy``:
    the scorer's ``errors`` array, where ``errors[i, j]`` holds the errors of
    ``keys[i]`` and ``METHODS[j]`` (summary row ``2 * i + j``) and
    ``np.mean(errors[i, j])`` is that row's per-seed mean. A reused
    ``out_dir`` first loses the per-seed, raw and notes files of the stages
    run, so none of an earlier run's is left beside the new summaries.
    """
    unknown = [stage for stage in stages if stage not in STAGES]
    if unknown:
        raise ValueError(f"unknown stage {unknown[0]!r}; the stages are {', '.join(STAGES)}")
    if not stages:
        raise ValueError(f"no stage given; the stages are {', '.join(STAGES)}")
    dictionary = config.dictionary()
    spectrum_pairs = config.spectrum_train_pairs
    needed = {
        "onestep": config.checkpoints(),
        "nstep": [config.nstep_train_pairs],
        "spectrum": [spectrum_pairs],
    }
    pairs = sorted(set().union(*(needed[stage] for stage in stages)))
    scored = [stage for stage in _SCORED if stage in stages]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stale = ["spectrum_seed*_*.csv"] if "spectrum" in stages else []
        for stage in scored:
            stale += [f"{stage}_summary_seed*.csv", f"{stage}_raw_seed*.npy", f"{stage}_notes.txt"]
        for name in os.listdir(out_dir):
            if any(fnmatch.fnmatch(name, pattern) for pattern in stale):
                os.remove(os.path.join(out_dir, name))
    per_seed = {stage: [] for stage in scored}
    notes = {stage: [] for stage in scored}
    counts = {m: [] for m in METHODS}

    for s in range(config.seeds):
        data = generate_data(config, s)
        models = train_checkpoint_models(config, data, pairs)
        with np.errstate(over="ignore", invalid="ignore"):  # forecast blow-ups are data
            for stage in scored:
                keys, errors = _SCORED[stage](config, dictionary, s, data, models, notes[stage])
                summary = _summary_from_errors(keys, errors)
                per_seed[stage].append(summary)
                if out_dir is None:
                    continue
                summary.write_csv(os.path.join(out_dir, f"{stage}_summary_seed{s}.csv"))
                if write_raw:
                    np.save(os.path.join(out_dir, f"{stage}_raw_seed{s}.npy"), errors)
        if "spectrum" in stages:
            for method in METHODS:
                mu = spectrum_of(models[method][spectrum_pairs])
                counts[method].append(int((np.abs(mu) > SPECTRUM_THRESHOLD).sum()))
                if out_dir is not None:
                    save_spectrum_csv(os.path.join(out_dir, f"spectrum_seed{s}_{method}.csv"), mu)

    results = {stage: _aggregate_summaries(per_seed[stage]) for stage in scored}
    if out_dir is not None:
        for stage, summary in results.items():
            summary.write_csv(os.path.join(out_dir, f"{stage}_summary.csv"))
            if notes[stage]:
                with open(os.path.join(out_dir, f"{stage}_notes.txt"), "w", newline="\n") as fh:
                    fh.writelines(line + "\n" for line in notes[stage])
    if "spectrum" in stages:
        results["spectrum"] = {
            "pairs": spectrum_pairs,
            "threshold": SPECTRUM_THRESHOLD,
            "counts": counts,
            "mean_counts": {m: float(np.mean(counts[m])) for m in METHODS},
        }
        if out_dir is not None:
            rows = (
                (method, s, c, SPECTRUM_THRESHOLD, spectrum_pairs)
                for method in METHODS
                for s, c in enumerate(counts[method])
            )
            header = "method,seed,count_above_threshold,threshold,pairs"
            write_csv(os.path.join(out_dir, "spectrum_counts.csv"), header, rows)
    return results
