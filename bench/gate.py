"""Correctness checks applied to every benchmark run.

Each check returns a list of failure messages; an empty list means it
passed. The reproduce checks read the CSVs the pipeline wrote; at the
preset's own root seed they also compare against the reference values in
``reference/<preset>/``, which were produced by
``koopseed reproduce <preset> --seeds 1 --no-raw`` with one BLAS thread.
"""

import csv
import math
import os

import numpy as np

# The proposed method's columns must agree closely. Batch EDMD is badly
# conditioned: last-bit changes of the arithmetic move its columns (two
# BLAS threads instead of one move the duffing one-step EDMD column by up to
# 1.8% and its spectrum count from 72 to 70), so it gets a looser tolerance.
PROPOSED_RTOL = 1e-6
EDMD_RTOL = 5e-2
EDMD_COUNT_RTOL = 0.05
# Online recursion against its closed form; same bound as acceptance
# criterion 3.
ORACLE_RTOL = 1e-8
# The spectral path is taken only when decompose() bounds the eigenbasis
# error by 1e-6, so forecasts may differ from matrix powers by that much.
FORECAST_RTOL = 1e-6
# Spot checks of the dictionary and the error scores against a direct
# evaluation of their definitions; they differ only by rounding. A score's
# rounding is relative to the forecast, not to the error, which can be as
# small as 4e-7, hence the absolute term.
MONOMIAL_RTOL = 1e-12
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12

REFERENCE_FILES = ("onestep_summary.csv", "nstep_summary.csv", "spectrum_counts.csv")
METHOD_RTOL = {"proposed": PROPOSED_RTOL, "edmd": EDMD_RTOL}


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


def check_summary(rows, expected_keys, expected_count, reference=None) -> list:
    """Shape, counts and finiteness of one summary CSV; values against a
    reference summary when one is given."""
    failures = []
    keys = [(int(r["checkpoint_or_n"]), r["method"]) for r in rows]
    want = [(k, m) for k in expected_keys for m in ("proposed", "edmd")]
    if keys != want:
        return [f"rows {len(keys)} do not match the expected {len(want)} (key, method) rows"]
    for r in rows:
        where = f"{r['checkpoint_or_n']}/{r['method']}"
        if int(r["count"]) != expected_count:
            failures.append(f"{where}: count {r['count']} != {expected_count}")
        if not (math.isfinite(float(r["mean"])) and math.isfinite(float(r["std"]))):
            failures.append(f"{where}: non-finite mean or std")
    if reference is not None and not failures:
        for r, ref in zip(rows, reference):
            rtol = METHOD_RTOL[r["method"]]
            for column in ("mean", "std"):
                if not _close(float(r[column]), float(ref[column]), rtol):
                    failures.append(
                        f"{r['checkpoint_or_n']}/{r['method']} {column} {r[column]} "
                        f"differs from reference {ref[column]} beyond rtol {rtol:g}"
                    )
    return failures


def check_spectrum_counts(rows, seeds, pairs, reference=None) -> list:
    want = [(m, s) for m in ("proposed", "edmd") for s in range(seeds)]
    got = [(r["method"], int(r["seed"])) for r in rows]
    if got != want:
        return [f"spectrum_counts rows {got} != {want}"]
    failures = [
        f"spectrum_counts {r['method']}: pairs {r['pairs']} != {pairs}"
        for r in rows
        if int(r["pairs"]) != pairs
    ]
    if reference is not None and not failures:
        for r, ref in zip(rows, reference):
            got_n, ref_n = int(r["count_above_threshold"]), int(ref["count_above_threshold"])
            slack = 0 if r["method"] == "proposed" else int(EDMD_COUNT_RTOL * ref_n)
            if abs(got_n - ref_n) > slack:
                failures.append(
                    f"spectrum_counts {r['method']}: {got_n} eigenvalues above threshold, "
                    f"reference {ref_n} (allowed +-{slack})"
                )
    return failures


def check_reproduce(out_dir, config, reference_dir=None) -> list:
    """All checks on one ``reproduce`` output directory."""
    def ref(name):
        return None if reference_dir is None else read_rows(os.path.join(reference_dir, name))

    failures = []
    onestep = read_rows(os.path.join(out_dir, "onestep_summary.csv"))
    failures += check_summary(
        onestep,
        config.checkpoints(),
        config.test_count * (config.test_length - 1) * config.seeds,
        ref("onestep_summary.csv"),
    )
    nstep = read_rows(os.path.join(out_dir, "nstep_summary.csv"))
    failures += check_summary(
        nstep,
        range(1, config.nstep_horizon + 1),
        config.test_count * config.seeds,
        ref("nstep_summary.csv"),
    )
    counts = read_rows(os.path.join(out_dir, "spectrum_counts.csv"))
    failures += check_spectrum_counts(
        counts, config.seeds, config.spectrum_train_pairs, ref("spectrum_counts.csv")
    )
    return failures


def bytes_identical(out_dir, reference_dir) -> bool:
    """Whether the reference CSVs match the run's byte for byte."""
    for name in REFERENCE_FILES:
        with open(os.path.join(out_dir, name), "rb") as a, open(
            os.path.join(reference_dir, name), "rb"
        ) as b:
            if a.read() != b.read():
                return False
    return True


class RidgeOracle:
    """Closed form of the seeded online recursion,
    K = (K0 / sigma + Q)(P + I / sigma)^-1 with Q = sum psi_y psi_x^T and
    P = sum psi_x psi_x^T over the pairs absorbed so far."""

    def __init__(self, seed_matrix, sigma):
        self.rhs = np.array(seed_matrix, dtype=float) / sigma
        self.gram = np.eye(self.rhs.shape[0]) / sigma

    def absorb(self, psi_x, psi_y) -> None:
        self.rhs += psi_y.T @ psi_x
        self.gram += psi_x.T @ psi_x

    def matrix(self) -> np.ndarray:
        # K gram = rhs, and gram is symmetric: solve gram K^T = rhs^T
        return np.linalg.solve(self.gram, self.rhs.T).T


def check_oracle(matrix, oracle) -> list:
    rel = float(np.linalg.norm(matrix - oracle) / np.linalg.norm(oracle))
    if not rel <= ORACLE_RTOL:
        return [f"online matrix differs from the ridge oracle by {rel:.3e} (rtol {ORACLE_RTOL:g})"]
    return []


def check_forecast(matrix, projector, psi, forecasts, horizons) -> list:
    """Spectral forecasts ``forecasts[i] = M_n psi`` (n = horizons[i], sorted)
    against explicit matrix powers B K^n psi."""
    v = np.asarray(psi, dtype=float)
    step = 0
    worst = 0.0
    for i, n in enumerate(horizons):
        while step < n:
            v = matrix @ v
            step += 1
        exact = projector @ v
        scale = max(1.0, float(np.abs(exact).max()))
        worst = max(worst, float(np.abs(forecasts[i] - exact).max()) / scale)
    if not worst <= FORECAST_RTOL:
        return [f"spectral forecast differs from matrix powers by {worst:.3e} (rtol {FORECAST_RTOL:g})"]
    return []


def check_monomials(entries, x, psi) -> list:
    """Dictionary rows ``psi[i]`` against prod_d x[i, d] ** e[d] for each
    exponent tuple e in ``entries``, evaluated one by one in Python floats."""
    failures = []
    for xi, row in zip(np.asarray(x, dtype=float).tolist(), psi):
        exact = np.array([math.prod(v ** e for v, e in zip(xi, entry)) for entry in entries])
        scale = np.maximum(1.0, np.abs(exact))
        worst = float(np.max(np.abs(row - exact) / scale))
        if not worst <= MONOMIAL_RTOL:
            failures.append(
                f"dictionary row at {xi} differs from its monomials by {worst:.3e} "
                f"(rtol {MONOMIAL_RTOL:g})"
            )
    return failures


def check_scores(samples) -> list:
    """Sampled errors: each ``(matrix, psi, true, error)`` must satisfy
    error = |matrix psi - true| / |true|."""
    failures = []
    for matrix, psi, true, error in samples:
        exact = float(np.linalg.norm(matrix @ psi - true) / np.linalg.norm(true))
        if not abs(float(error) - exact) <= SCORE_RTOL * exact + SCORE_ATOL:
            failures.append(
                f"scored error {error!r} != recomputed {exact!r} "
                f"(rtol {SCORE_RTOL:g}, atol {SCORE_ATOL:g})"
            )
    return failures
