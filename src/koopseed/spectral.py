"""Eigen-decomposition of Koopman matrices and state forecasting.

A forecast matrix is B K^n, B the state rows of the identity; horizons up to
1 are read off K. Longer ones use eigenvalue/eigenfunction/mode triples
(eigenfunctions contract left eigenvectors with the dictionary, modes are
right eigenvectors on the state coordinates) and raise eigenvalues to the
n-th power. A real K's complex terms come in conjugate pairs, kept in a real
eigenbasis: a query costs one eig, one real inverse and one real product for
all horizons. An unsound eigenbasis falls back to the state-row recursion.
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .model import KoopmanModel


# Largest accepted eigenbasis inversion error and conditioning certificate.
SPECTRAL_TOL = 1e-6


class DefectiveDecompositionError(RuntimeError):
    """Raised when prediction is attempted through a flagged decomposition."""


def state_projector(dictionary: Dictionary) -> np.ndarray:
    """D x N matrix selecting the degree-1 monomials: B @ Psi(x) = x."""
    return np.eye(len(dictionary))[dictionary.state_indices()]


@dataclass
class SpectralDecomposition:
    """Eigen-triples of a real Koopman matrix and the inverse of its real
    eigenbasis.

    ``right_vectors`` columns u_l are unit-norm eigenvectors; a complex pair
    j, k has mu_k = conj(mu_j), u_k = conj(u_j) and imag > 0 at j. The real
    basis V has V_l = Re u_l at a real term, V_j = Re u_j and V_k = Im u_j at
    a pair, and ``basis_inverse`` is V^-1. So V^-1 @ Psi(x) holds the
    eigenfunction values: phi_l at a real term, 2 Re phi_j at the pair's
    upper term j and -2 Im phi_j at its lower term k. ``modes`` are the
    state rows of right_vectors. When the eigenbasis is too ill-conditioned
    to invert accurately the decomposition is flagged ``defective``, and
    forecast_matrices falls back to the state-row recursion.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    basis_inverse: np.ndarray
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

    Right vectors are unit-norm. eig lists each complex pair of a real K side
    by side, imag > 0 first; defective when a term there is not the bitwise
    conjugate of its neighbour, or when |V^-1 V - I| or eps * cond2(U)
    exceeds SPECTRAL_TOL. U^-1's rows are V^-1_l at a real term and
    (V^-1_j -+ i V^-1_k) / 2 at a pair, so |U^-1|_F = |S V^-1|_F with S = 1
    on real rows and 1/sqrt(2) on pair rows. As cond2(U) <= sqrt(n) |U^-1|_F
    <= n cond2(U), that bound decides unless eps times it is in
    (tol/2, n tol], where np.linalg.cond runs.
    """
    K = np.asarray(model.matrix)
    if not np.isfinite(K).all():
        raise ValueError("Koopman matrix has non-finite entries")
    mu, U = np.linalg.eig(K)
    n = len(mu)
    partner = np.minimum(np.arange(n) + np.sign(mu.imag).astype(int), n - 1)
    defective = not ((mu[partner] == mu.conj()).all() and (U[:, partner] == U.conj()).all())
    order = eigen_order(mu)
    mu, U = mu[order], U[:, order]
    U = U / np.linalg.norm(U, axis=0)

    residual, Vinv = np.inf, np.zeros((n, n))
    try:
        V = np.where(mu.imag < 0, -U.imag, U.real)
        # F-ordered: a C-ordered V^-1 rounds the forecast product differently
        Vinv = np.asfortranarray(np.linalg.inv(V))
        residual = float(np.abs(Vinv @ V - np.eye(n)).max())
        # V^-1 is only accurate to eps * cond(U); an ill-conditioned
        # eigenbasis can still produce a deceptively small residual
        scale = np.where(mu.imag == 0, 1.0, np.sqrt(0.5))[:, None]
        basis_error = np.sqrt(n) * np.linalg.norm(scale * Vinv) * np.finfo(float).eps
        if SPECTRAL_TOL / 2 < basis_error <= n * SPECTRAL_TOL:
            basis_error = np.linalg.cond(U) * np.finfo(float).eps
        if not np.isfinite(residual) or residual > SPECTRAL_TOL or basis_error > SPECTRAL_TOL:
            defective = True
    except np.linalg.LinAlgError:
        defective = True

    return SpectralDecomposition(
        eigenvalues=mu,
        right_vectors=U,
        basis_inverse=Vinv,
        modes=U[model.dictionary.state_indices()],
        defective=defective,
        residual=residual,
    )


def _spectral_forecasts(dec: SpectralDecomposition, horizons) -> np.ndarray:
    """Real (H, D, N) stack of M_n = (B V) L^n V^-1, one per horizon.

    M_n @ Psi(x) is the n-step forecast sum_l v_l mu_l^n phi_l(x). B V is
    read from the modes, and L^n is real block-diagonal: mu_l^n at a real
    term and a block [[a, b], [-b, a]] per pair (a + ib = mu_j^n). One
    batched matmul keeps horizons independent. Raises
    DefectiveDecompositionError for a flagged decomposition.
    """
    if dec.defective:
        raise DefectiveDecompositionError("decomposition flagged defective")
    h, mu, modes = np.asarray(horizons), dec.eigenvalues, dec.modes
    down = mu.imag < 0
    lead = np.where(down, mu.conj(), mu).astype(complex) ** h[:, None]  # mu_j^n at j and k
    # powers below 1e-250 move no entry by 1e-240 but make slow subnormal products
    lead = np.where(np.abs(lead) >= 1e-250, lead, 0.0)
    BV, BVo = np.where(down, -modes.imag, modes.real), np.where(down, modes.real, modes.imag)
    BVL = BV[:, None] * lead.real  # (D, H, N): numpy loops over whole (H, N) planes
    BVL -= BVo[:, None] * (np.sign(mu.imag) * lead.imag)
    return BVL.swapaxes(0, 1) @ dec.basis_inverse


def prediction_matrix(dec: SpectralDecomposition, n: int) -> np.ndarray:
    """Real D x N n-step forecast matrix; see _spectral_forecasts."""
    return _spectral_forecasts(dec, [n])[0]


def forecast_matrices(model: KoopmanModel, horizons) -> tuple:
    """D x N forecast matrices B K^n per horizon. Horizons <= 1 are exact
    reads, B and the state rows of K; a longer query is spectral when the
    eigenbasis is sound, else the state-row recursion M_n = M_{n-1} @ K.

    Horizons must be non-negative integers; anything else, a bool included,
    raises ValueError before either path runs. Returns (matrices dict, path)
    with path in {"spectral", "matrix-power"}.
    """
    horizons = list(horizons)
    invalid = [n for n in horizons if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0]
    if invalid:
        raise ValueError(f"forecast horizon {invalid[0]!r} is not a non-negative integer")
    horizons = sorted(set(int(n) for n in horizons))
    if horizons and horizons[-1] > 1:
        try:
            return dict(zip(horizons, _spectral_forecasts(decompose(model), horizons))), "spectral"
        except (DefectiveDecompositionError, ValueError):
            pass
    K, rows = model.matrix, model.dictionary.state_indices()
    M = [state_projector(model.dictionary) if 0 in horizons else None, K[rows]]
    while len(M) <= max(horizons, default=0):
        M.append(M[-1] @ K)
    return {n: M[n] for n in horizons}, "matrix-power"


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
