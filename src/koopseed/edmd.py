"""Koopman matrix estimation from snapshot pairs: batch and online.

Batch EDMD solves the least-squares problem through the pseudoinverse of the
dictionary Gram matrix. The online path keeps the current estimate and the
inverse-Gram surrogate and absorbs pairs through one recursion, in blocks
through the Woodbury identity; a one-row block is the rank-one update.
``online_update_many`` feeds it arrays of evaluated pairs and
``online_update`` one SnapshotPair. Seeding with an ODE-derived matrix biases
the regression toward the seed.
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .model import KoopmanModel

# Pairs absorbed per block of the online recursion. It divides every
# checkpoint the presets and tests split training at, so a split run gives
# the same bits as one call, and no split there leaves a one-row block.
_BLOCK_PAIRS = 10


@dataclass
class SnapshotPair:
    """A state and its one-step successor."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("snapshot pair states must be 1-D and the same length")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("snapshot pair contains non-finite values")


def batch_edmd_from_psi(
    dictionary: Dictionary, psi_x: np.ndarray, psi_y: np.ndarray
) -> KoopmanModel:
    """Batch solve K = Q P^+ from precomputed dictionary evaluations.

    Q and P are sums of outer products over the pairs; P^+ is the SVD
    pseudoinverse with singular values below eps * max_dim * sigma_max
    zeroed. Rank deficiency is tolerated and reported in the diagnostics.
    """
    if psi_x.shape[0] < 1:
        raise ValueError("at least one snapshot pair is required")
    Q = psi_y.T @ psi_x
    P = psi_x.T @ psi_x
    u, s, vt = np.linalg.svd(P)
    cutoff = np.finfo(float).eps * max(P.shape) * s[0]
    keep = s > cutoff
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    P_pinv = (vt.T * inv_s) @ u.T
    rank = int(keep.sum())
    return KoopmanModel(
        dictionary,
        Q @ P_pinv,
        diagnostics={
            "pairs": int(psi_x.shape[0]),
            "gram_rank": rank,
            "rank_deficient": rank < len(dictionary),
        },
    )


@dataclass
class OnlineState:
    """Running state of the online recursion.

    ``pinv`` is the inverse-Gram surrogate (the positive-definite matrix
    appearing inside the gain), re-symmetrized once per block of the
    recursion; ``count`` is the number of pairs absorbed so far.
    """

    matrix: np.ndarray
    pinv: np.ndarray
    count: int = 0


def online_init(seed, sigma: float, dictionary: Dictionary | None = None) -> OnlineState:
    """Start the online recursion from a seed matrix and pinv = sigma * I.

    ``seed`` is a KoopmanModel, a square array, or None for the zero matrix
    (in which case ``dictionary`` fixes the size). sigma must be positive;
    large sigma approaches unregularized least squares, while a finite sigma
    with a nonzero seed biases the estimate toward the seed.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be a positive finite number")
    if isinstance(seed, KoopmanModel):
        K = seed.matrix.copy()
    elif seed is None:
        if dictionary is None:
            raise ValueError("a dictionary is required when seeding from zero")
        K = np.zeros((len(dictionary), len(dictionary)))
    else:
        K = np.array(seed, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("seed matrix must be square")
    return OnlineState(matrix=K, pinv=sigma * np.eye(K.shape[0]), count=0)


def _absorb(state: OnlineState, psi_x: np.ndarray, psi_y: np.ndarray) -> OnlineState:
    """The one online recursion: absorb the rows of psi_x, psi_y in order.

    Rows are taken in consecutive blocks of ``_BLOCK_PAIRS``, counted from
    the start of the call (the last block may be shorter). For a block X, Y
    of b rows, with PX = pinv X^T and S = I_b + X PX symmetric positive
    definite, the Woodbury identity gives G = S^-1 PX^T and

        K    <- K + (Y^T - K X^T) G
        pinv <- pinv - PX G

    with pinv re-symmetrized once per block. At b = 1 the solve is a scalar
    gain gamma = 1 / (1 + x^T pinv x), in (0, 1] while pinv is positive
    definite, and the update is rank one.
    """
    K = state.matrix.copy()
    P = state.pinv.copy()
    m = psi_x.shape[0]
    for start in range(0, m, _BLOCK_PAIRS):
        if m - start == 1:
            # a one-row block; its solve would cost a third more than this step
            x = psi_x[start]
            Px = P @ x
            gamma = 1.0 / (1.0 + x @ Px)
            K += gamma * np.outer(psi_y[start] - K @ x, Px)
            P -= gamma * np.outer(Px, Px)
        else:
            X = psi_x[start : start + _BLOCK_PAIRS]
            Y = psi_y[start : start + _BLOCK_PAIRS]
            PX = P @ X.T
            G = np.linalg.solve(np.eye(X.shape[0]) + X @ PX, PX.T)
            K += (Y.T - K @ X.T) @ G
            P -= PX @ G
        np.copyto(P, 0.5 * (P + P.T))
    return OnlineState(matrix=K, pinv=P, count=state.count + m)


def online_update(state: OnlineState, pair: SnapshotPair, dictionary: Dictionary) -> OnlineState:
    """Absorb one snapshot pair and return the updated state.

    The pair is evaluated on the dictionary and absorbed as a one-row block,
    bit for bit what ``online_update_many`` gives for the same row.
    """
    psi_x = dictionary.evaluate(pair.x)[None, :]
    psi_y = dictionary.evaluate(pair.y)[None, :]
    return _absorb(state, psi_x, psi_y)


def online_update_many(
    state: OnlineState, psi_x: np.ndarray, psi_y: np.ndarray
) -> OnlineState:
    """Absorb the rows of precomputed evaluations (m, n) as pairs, in order.

    The rows go through the block recursion of ``_absorb``. Splitting them
    across calls at multiples of ``_BLOCK_PAIRS`` gives the same bits as one
    call; other splits agree up to rounding.
    """
    n = state.matrix.shape[0]
    psi_x = np.asarray(psi_x, dtype=float)
    psi_y = np.asarray(psi_y, dtype=float)
    if psi_x.ndim != 2 or psi_x.shape[1] != n or psi_y.shape != psi_x.shape:
        raise ValueError(
            f"psi_x and psi_y must both have shape (m, {n}); "
            f"got {psi_x.shape} and {psi_y.shape}"
        )
    if not (np.isfinite(psi_x).all() and np.isfinite(psi_y).all()):
        raise ValueError("snapshot pair evaluations contain non-finite values")
    return _absorb(state, psi_x, psi_y)
