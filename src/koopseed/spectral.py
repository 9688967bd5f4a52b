"""Eigen-decomposition of Koopman matrices and state forecasting.

Forecasts use eigenvalue/eigenfunction/mode triples (eigenfunctions contract
left eigenvectors with the dictionary, modes are right eigenvectors on the
state coordinates) and raise eigenvalues to the n-th power instead of
iterating the matrix. With conjugate eigenvalues paired, a query costs one
eig, one real inverse and one real product for all horizons; an unsound
eigenbasis falls back to matrix powers.
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
    return np.eye(len(dictionary))[dictionary.state_indices()]


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


def _conjugate_partners(mu: np.ndarray, *columns) -> np.ndarray:
    """Each term's partner k (or -1): mu_k and column k of every ``columns``
    array are bitwise conjugates of its own; a real term may partner itself.
    The side-by-side guess of eigen_order is checked before a full search."""
    terms = np.vstack((mu, *columns))  # one column per term
    partner = np.minimum(np.arange(len(mu)) + np.sign(mu.imag).astype(int), len(mu) - 1)
    if not (terms[:, partner] == terms.conj()).all():
        j, k = np.nonzero((mu[:, None] == mu.conj()) & (mu.imag >= 0)[:, None])
        keep = (terms[:, k] == terms[:, j].conj()).all(axis=0)
        partner = np.full(len(mu), -1)
        partner[k[keep]], partner[j[keep]] = j[keep], k[keep]
        partner = np.where((partner >= 0) & (partner[partner] == np.arange(len(mu))), partner, -1)
    return partner


def decompose(model: KoopmanModel) -> SpectralDecomposition:
    """Eigen-decompose K into triples, ordered by eigen_order.

    Right vectors u are unit-norm. K is real, so eig's complex terms come in
    exact conjugate pairs j, k (imag > 0 at j), and U is inverted through the
    real basis V (Re u per real term; Re u_j, Im u_j per pair): the left
    vectors are w_j = (V^-1_j - i V^-1_k) / 2 and w_k = conj(w_j). Defective
    when a term has no partner, or when |V^-1 V - I| or eps * cond2(U) exceeds
    SPECTRAL_TOL; as cond2(U) <= sqrt(n) |U^-1|_F <= n cond2(U), that bound
    decides unless eps times it is in (tol/2, n tol], where np.linalg.cond runs.
    """
    K = np.asarray(model.matrix)
    if not np.isfinite(K).all():
        raise ValueError("Koopman matrix has non-finite entries")
    mu, U = np.linalg.eig(K)
    order = eigen_order(mu)
    mu, U = mu[order], U[:, order]
    U = U / np.linalg.norm(U, axis=0)

    n, down, partner = len(mu), mu.imag < 0, _conjugate_partners(mu, U)
    defective = bool((partner < 0).any())
    residual, W = np.inf, np.zeros((n, n), complex)
    try:
        V = np.where(down, -U.imag, U.real)
        Vinv = np.linalg.inv(V)
        residual = float(np.abs(Vinv @ V - np.eye(n)).max())
        rows = Vinv * np.where(mu.imag == 0, 1.0, 0.5)[:, None]
        upper, lower = np.where(down, partner, np.arange(n)), np.where(down, np.arange(n), partner)
        W.real, W.imag = rows[upper].T, (-np.sign(mu.imag)[:, None] * rows[lower]).T
        # left vectors are only accurate to eps * cond(U); an ill-conditioned
        # eigenbasis can still produce a deceptively small residual
        basis_error = np.sqrt(n) * np.linalg.norm(W) * np.finfo(float).eps
        if SPECTRAL_TOL / 2 < basis_error <= n * SPECTRAL_TOL:
            basis_error = np.linalg.cond(U) * np.finfo(float).eps
        if not np.isfinite(residual) or residual > SPECTRAL_TOL or basis_error > SPECTRAL_TOL:
            defective = True
    except np.linalg.LinAlgError:
        defective = True

    return SpectralDecomposition(
        eigenvalues=mu,
        right_vectors=U,
        left_vectors=W,
        modes=U[model.dictionary.state_indices()],
        defective=defective,
        residual=residual,
    )


def _spectral_forecasts(dec: SpectralDecomposition, horizons) -> np.ndarray:
    """Real (H, D, N) stack of M_n = sum_l v_l mu_l^n w_l^T, one per horizon.

    M_n @ Psi(x) is the n-step forecast sum_l v_l mu_l^n phi_l(x). Paired
    terms (all of a decompose result) give the real (B V) L^n V^-1, read back
    from modes and left vectors, with a block [[a, b], [-b, a]] per pair in
    L^n (a + ib = mu_j^n): no imaginary residue, and one batched matmul keeps
    horizons independent. Unpaired terms (hand-built only) use the complex
    formula; DefectiveDecompositionError is raised for a flagged decomposition
    or their imaginary residue above SPECTRAL_TOL * max(1, |M_n|) at a horizon.
    """
    if dec.defective:
        raise DefectiveDecompositionError("decomposition flagged defective")
    h, mu, modes, left = np.asarray(horizons), dec.eigenvalues, dec.modes, dec.left_vectors
    paired, down = _conjugate_partners(mu, modes, left) >= 0, mu.imag < 0
    lead = np.where(down, mu.conj(), mu).astype(complex) ** h[:, None]  # mu_j^n at j and k
    # powers below 1e-250 move no entry by 1e-240 but make slow subnormal products
    lead = np.where(paired & (np.abs(lead) >= 1e-250), lead, 0.0)
    BV, BVo = np.where(down, -modes.imag, modes.real), np.where(down, modes.real, modes.imag)
    Vinv = (np.where(down, left.imag, left.real) * np.where(mu.imag == 0, 1.0, 2.0)).T
    BVL = BV[:, None] * lead.real  # (D, H, N): numpy loops over whole (H, N) planes
    BVL -= BVo[:, None] * (np.sign(mu.imag) * lead.imag)
    M = BVL.swapaxes(0, 1) @ Vinv
    if not paired.all():
        rest = (modes[:, ~paired] * mu[~paired] ** h[:, None, None]) @ left[:, ~paired].T
        M += rest.real
        worst = np.abs(rest.imag).max(axis=(1, 2), initial=0.0)
        bad = worst > SPECTRAL_TOL * np.maximum(1.0, np.abs(M).max(axis=(1, 2), initial=0.0))
        if bad.any():
            raise DefectiveDecompositionError(
                f"imaginary residue {worst[bad][0]:.3e} at horizon {h[bad][0]} exceeds tolerance"
            )
    return M


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
