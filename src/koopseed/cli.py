"""Command-line interface for deriving, training, and benchmarking."""

import argparse
import contextlib
import ctypes
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import DT_TOLERANCE, load_trajectory_csv, save_trajectory_csv
from .edmd import batch_edmd_from_psi, online_init, online_update_many
from .experiments import (
    METHODS,
    ExperimentConfig,
    bundled_preset_names,
    derive_seed,
    derive_seed_model,
    generate_data,
    load_config,
    override_config,
    run_experiments,
    simulate_training,
)
from .model import KoopmanModel, save_matrix_csv


def _add_common(parser, degree=True, sigma=True):
    parser.add_argument("--out", required=True, help="output directory")
    if degree:
        parser.add_argument("--degree", type=int, default=None, help="override dictionary degree")
    if sigma:
        parser.add_argument("--sigma", type=float, default=None, help="override online regularization sigma")


def _add_experiment_flags(parser):
    parser.add_argument("--seeds", type=int, default=None, help="number of RNG repetitions")
    parser.add_argument("--no-raw", action="store_true", help="skip the raw per-point error arrays (.npy)")


def _add_checkpoint_flags(parser):
    parser.add_argument("--checkpoint-stride", type=int, default=None)
    parser.add_argument("--max-pairs", type=int, default=None)


def _load(args):
    """args.config with every given value named after a config field applied."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    # argparse leaves an option that was not given at None
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return override_config(load_config(args.config), **overrides)


def _cmd_derive(args):
    config = _load(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "seed_matrix.csv")
    seed = derive_seed(config, path)
    print(f"wrote {path} ({seed.matrix.shape[0]}x{seed.matrix.shape[1]})")


def _cmd_simulate(args):
    for flag, value in (("--seed-index", args.seed_index), ("--tests", args.tests)):
        if value < 0:
            raise SystemExit(f"{flag} must be non-negative, got {value}")
    config = _load(args)
    os.makedirs(args.out, exist_ok=True)
    s = args.seed_index
    if args.tests:
        # only the tests written, but at least two: a one-row batch goes
        # through gemv and rounds unlike the same row in a larger batch
        config = override_config(config, test_count=min(config.test_count, max(args.tests, 2)))
        data = generate_data(config, s)  # integrates the training trajectory too
        states = data.train_states
    else:
        states = simulate_training(config, s)[1]
    path = os.path.join(args.out, f"train_seed{s}.csv")
    save_trajectory_csv(path, states, config.dt, config.system)
    print(f"wrote {path} ({states.shape[0]} states)")
    if args.tests:
        for t in range(min(args.tests, config.test_count)):
            tp = os.path.join(args.out, f"test_seed{s}_{t:03d}.csv")
            save_trajectory_csv(tp, data.test_states[t], config.dt, config.system)
        print(f"wrote {min(args.tests, config.test_count)} test trajectories")


def _train_pairs_from_csv(config, path, pairs):
    states, dt = load_trajectory_csv(path)
    if abs(dt - config.dt) > DT_TOLERANCE * (1.0 + abs(config.dt)):
        raise SystemExit(f"{path} is sampled at dt {dt:g}, the config at dt {config.dt:g}")
    if states.shape[1] != config.system.dim:
        raise SystemExit(
            f"{path} has {states.shape[1]} state columns, the config's system has dimension "
            f"{config.system.dim}"
        )
    available = states.shape[0] - 1
    m = available if pairs is None else pairs
    if not 1 <= m <= available:
        raise SystemExit(f"--pairs must lie in [1, {available}]")
    dictionary = config.dictionary()
    psi = dictionary.evaluate(states[: m + 1])
    return dictionary, psi[:m], psi[1:], m


def _cmd_train_online(args):
    config = _load(args)
    dictionary, psi_x, psi_y, m = _train_pairs_from_csv(config, args.traj, args.pairs)
    os.makedirs(args.out, exist_ok=True)
    state = online_init(derive_seed_model(config), config.sigma)
    state = online_update_many(state, psi_x, psi_y)
    path = os.path.join(args.out, f"koopman_online_m{m}.csv")
    save_matrix_csv(
        path,
        KoopmanModel(dictionary, state.matrix),
        extra_meta={"name": config.name, "method": "proposed", "pairs": m, "sigma": config.sigma},
    )
    print(f"wrote {path}")


def _cmd_train_batch(args):
    config = _load(args)
    dictionary, psi_x, psi_y, m = _train_pairs_from_csv(config, args.traj, args.pairs)
    os.makedirs(args.out, exist_ok=True)
    model = batch_edmd_from_psi(dictionary, psi_x, psi_y)
    path = os.path.join(args.out, f"koopman_edmd_m{m}.csv")
    save_matrix_csv(
        path, model, extra_meta={"name": config.name, "method": "edmd", "pairs": m}
    )
    print(f"wrote {path}")


def _print_summary(summary, label):
    print(f"{label}: checkpoint_or_n  " + "  ".join(f"{m}(mean/std)" for m in METHODS))
    for key, means, stds in zip(summary.keys, summary.mean, summary.std):
        cells = "  ".join(f"{m:.6g}/{s:.6g}" for m, s in zip(means, stds))
        print(f"{label}: {key:>6}  {cells}")


def _cmd_eval_onestep(args):
    summary = run_experiments(_load(args), ("onestep",), args.out, not args.no_raw)["onestep"]
    _print_summary(summary, "onestep")


def _cmd_eval_nstep(args):
    summary = run_experiments(_load(args), ("nstep",), args.out, not args.no_raw)["nstep"]
    _print_summary(summary, "nstep")


def _print_spectrum(result):
    for method in METHODS:
        print(
            f"spectrum: {method} mean count(|mu|>{result['threshold']}) = "
            f"{result['mean_counts'][method]:.6g} at {result['pairs']} pairs"
        )


def _cmd_spectrum(args):
    _print_spectrum(run_experiments(_load(args), ("spectrum",), args.out)["spectrum"])


def _cmd_reproduce(args):
    config = _load(args)
    os.makedirs(args.out, exist_ok=True)
    derive_seed(config, os.path.join(args.out, "seed_matrix.csv"))
    print(f"reproduce {config.name}: seed matrix written")
    results = run_experiments(config, out_dir=args.out, write_raw=not args.no_raw)
    _print_summary(results["onestep"], "onestep")
    _print_summary(results["nstep"], "nstep")
    _print_spectrum(results["spectrum"])
    print(f"reproduce {config.name}: outputs in {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopseed",
        description="Koopman matrices for coupled systems: ODE-derived seeds refined online, benchmarked against batch EDMD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="config file path or bundled preset name")

    p = sub.add_parser("derive", parents=[config], help="write the ODE-derived global seed matrix")
    _add_common(p, sigma=False)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("simulate", parents=[config], help="write training (and optionally test) trajectory CSVs")
    _add_common(p, degree=False, sigma=False)
    p.add_argument("--seed-index", type=int, default=0)
    p.add_argument("--tests", type=int, default=0, help="also write this many test trajectories")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train-online", parents=[config], help="online-refine the seed on a trajectory CSV")
    _add_common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=_cmd_train_online)

    p = sub.add_parser("train-batch", parents=[config], help="batch EDMD on a trajectory CSV")
    _add_common(p, sigma=False)
    p.add_argument("--traj", required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=_cmd_train_batch)

    p = sub.add_parser("eval-onestep", parents=[config], help="one-step error vs training size, both methods")
    _add_common(p)
    _add_experiment_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(func=_cmd_eval_onestep)

    p = sub.add_parser("eval-nstep", parents=[config], help="n-step forecast error, both methods")
    _add_common(p)
    _add_experiment_flags(p)
    p.add_argument("--pairs", dest="nstep_train_pairs", type=int, default=None, help="training pairs for both methods")
    p.add_argument("--horizon", dest="nstep_horizon", type=int, default=None)
    p.set_defaults(func=_cmd_eval_nstep)

    p = sub.add_parser("spectrum", parents=[config], help="export eigenvalue spectra of both methods")
    _add_common(p)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--pairs", dest="spectrum_train_pairs", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("reproduce", help="full benchmark for a bundled preset")
    p.add_argument("config", metavar="preset", choices=bundled_preset_names())
    _add_common(p)
    _add_experiment_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None where numpy's BLAS does not export them."""
    numpy_dir = Path(np.__file__).parent
    libs = [*(numpy_dir.parent / "numpy.libs").glob("*openblas*"), *(numpy_dir / ".dylibs").glob("*openblas*")]
    for lib in libs:
        try:
            # the library numpy already loaded; dlopen hands back that handle
            blas = ctypes.CDLL(str(lib))
            get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    # batch EDMD's bits depend on the BLAS thread count, so a command's
    # outputs would too; the caller's count is restored afterwards, and a
    # caller already on one thread sees no call into the BLAS
    threads = _openblas_threads()
    if threads is None or threads[0]() == 1:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    """Run one command with the BLAS on one thread, so that its outputs do
    not depend on the thread count."""
    args = build_parser().parse_args(argv)
    with _one_blas_thread():
        args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
