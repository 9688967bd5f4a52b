"""Eigen-decomposition of Koopman matrices and state forecasting.

Forecasts use eigenvalue/eigenfunction/mode triples: the eigenfunction is
a left-eigenvector contraction with the dictionary, the mode projects the
right eigenvector onto the state coordinates, and an n-step forecast raises
the eigenvalues to the n-th power instead of iterating the matrix; a query
costs one eig, one inverse and one complex product for all horizons. When the
eigenbasis is unsound, forecast_matrices falls back to matrix powers.
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .model import KoopmanModel


# Largest accepted eigenbasis inversion error and relative imaginary residue
# of a spectral forecast.
SPECTRAL_TOL = 1e-6


class DefectiveDecompositionError(RuntimeError):
    """Raised when prediction is attempted through a flagged decomposition."""


def state_projector(dictionary: Dictionary) -> np.ndarray:
    """D x N matrix selecting the degree-1 monomials: B @ Psi(x) = x."""
    B = np.zeros((dictionary.var_count, len(dictionary)))
    for i, k in enumerate(dictionary.state_indices()):
        B[i, k] = 1.0
    return B


@dataclass
class SpectralDecomposition:
    """Eigen-triples of a Koopman matrix, biorthonormally paired.

    ``left_vectors`` columns w_l satisfy w_l^T u_k = delta_lk against the
    ``right_vectors`` columns u_k (plain transpose, no conjugation), so
    eigenfunction values are left_vectors.T @ Psi(x) and modes are the state
    rows of right_vectors. When the eigenbasis is too ill-conditioned to
    invert accurately the decomposition is flagged ``defective``, and
    forecast_matrices falls back to matrix powers.
    """

    dictionary: Dictionary
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    modes: np.ndarray
    defective: bool
    residual: float


def eigen_order(mu: np.ndarray) -> np.ndarray:
    """Permutation ordering eigenvalues by descending |mu|, then descending
    real part, then descending imaginary part, so output files are
    reproducible."""
    return np.lexsort((-mu.imag, -mu.real, -np.abs(mu)))


def decompose(model: KoopmanModel) -> SpectralDecomposition:
    """Eigen-decompose K into triples, ordered by eigen_order.

    Right vectors are unit-norm; left vectors are the rows of the
    right-eigenbasis inverse, which enforces biorthonormality directly.
    Flagged defective when the inversion residual or eps * cond2(U) exceeds
    SPECTRAL_TOL. As cond2(U) <= sqrt(n) |U^-1|_F <= n cond2(U) for unit
    columns, that Frobenius bound decides unless eps times it lands in
    (tol/2, n tol], the only band where the SVD behind np.linalg.cond runs.
    """
    K = np.asarray(model.matrix)
    if not np.isfinite(K).all():
        raise ValueError("Koopman matrix has non-finite entries")
    mu, U = np.linalg.eig(K)
    order = eigen_order(mu)
    mu = mu[order]
    U = U[:, order]
    U = U / np.linalg.norm(U, axis=0)

    defective = False
    residual = np.inf
    W = np.zeros_like(U)
    try:
        Uinv = np.linalg.inv(U)
        residual = float(np.abs(Uinv @ U - np.eye(len(mu))).max())
        W = Uinv.T
        # left vectors are only accurate to eps * cond(U); an ill-conditioned
        # eigenbasis can still produce a deceptively small residual
        basis_error = np.sqrt(len(mu)) * np.linalg.norm(Uinv) * np.finfo(float).eps
        if SPECTRAL_TOL / 2 < basis_error <= len(mu) * SPECTRAL_TOL:
            basis_error = np.linalg.cond(U) * np.finfo(float).eps
        if not np.isfinite(residual) or residual > SPECTRAL_TOL or basis_error > SPECTRAL_TOL:
            defective = True
    except np.linalg.LinAlgError:
        defective = True

    return SpectralDecomposition(
        dictionary=model.dictionary,
        eigenvalues=mu,
        right_vectors=U,
        left_vectors=W,
        modes=state_projector(model.dictionary) @ U,
        defective=defective,
        residual=residual,
    )


def _spectral_forecasts(dec: SpectralDecomposition, horizons) -> np.ndarray:
    """Real (H, D, N) stack of M_n = sum_l v_l mu_l^n w_l^T, one per horizon.

    M_n @ Psi(x) is the n-step state forecast sum_l v_l mu_l^n phi_l(x),
    folded into one matrix so bulk evaluation is a single real matmul; all
    horizons come from one (H*D, N) @ (N, N) complex product. The imaginary
    residue is checked against SPECTRAL_TOL (times max(1, |M_n|)) per horizon
    and discarded; real dynamics leave it at roundoff level. Raises
    DefectiveDecompositionError for flagged decompositions and for a residue
    above the tolerance at any horizon.
    """
    if dec.defective:
        raise DefectiveDecompositionError("decomposition flagged defective")
    h = np.asarray(horizons)
    D, N = dec.modes.shape
    weighted = dec.modes * dec.eigenvalues ** h[:, None, None]
    M = (weighted.reshape(-1, N) @ dec.left_vectors.T).reshape(len(h), D, N)
    scale = np.maximum(1.0, np.abs(M.real).max(axis=(1, 2), initial=0.0))
    worst = np.abs(M.imag).max(axis=(1, 2), initial=0.0)
    bad = worst > SPECTRAL_TOL * scale
    if bad.any():
        raise DefectiveDecompositionError(
            f"imaginary residue {worst[bad][0]:.3e} at horizon {h[bad][0]} exceeds tolerance"
        )
    return M.real


def prediction_matrix(dec: SpectralDecomposition, n: int) -> np.ndarray:
    """Real D x N n-step forecast matrix; see _spectral_forecasts."""
    return _spectral_forecasts(dec, [n])[0]


def forecast_matrices(model: KoopmanModel, horizons) -> tuple:
    """D x N forecast matrices per horizon, via the spectral path when the
    eigenbasis is sound, otherwise via explicit matrix powers.

    Horizons must be non-negative integers (0 gives the state projector);
    anything else raises ValueError before either path runs.
    Returns (matrices dict, path) with path in {"spectral", "matrix-power"}.
    """
    horizons = list(horizons)
    invalid = [n for n in horizons if not isinstance(n, (int, np.integer)) or n < 0]
    if invalid:
        raise ValueError(f"forecast horizon {invalid[0]!r} is not a non-negative integer")
    horizons = sorted(set(int(n) for n in horizons))
    try:
        dec = decompose(model)
        return dict(zip(horizons, _spectral_forecasts(dec, horizons))), "spectral"
    except (DefectiveDecompositionError, ValueError):
        B = state_projector(model.dictionary)
        out = {}
        Kn = np.eye(len(model.dictionary))
        step = 0
        for n in horizons:
            while step < n:
                Kn = model.matrix @ Kn
                step += 1
            out[n] = B @ Kn
        return out, "matrix-power"


def relative_l2(y_true, y_pred) -> np.ndarray:
    """Relative l2 errors ||y_pred - y_true|| / ||y_true|| over the last axis.

    Squares are summed one coordinate at a time, in order, so coordinate
    planes are read whole. That is numpy's order below 8 coordinates; from 8
    on numpy sums pairwise.
    """
    y_true, y_pred = np.broadcast_arrays(np.asarray(y_true, float), np.asarray(y_pred, float))
    coords = range(y_true.shape[-1])
    denom = np.sqrt(sum(np.square(y_true[..., d]) for d in coords))
    if (denom == 0.0).any():
        raise ValueError("relative l2 error undefined for zero-norm truth")
    return np.sqrt(sum(np.square(y_pred[..., d] - y_true[..., d]) for d in coords)) / denom
