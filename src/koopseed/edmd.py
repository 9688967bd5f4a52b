"""Koopman matrix estimation from snapshot pairs: batch and online.

Batch EDMD solves the least-squares problem through the pseudoinverse of the
dictionary Gram matrix. The online path keeps the current estimate and the
inverse-Gram surrogate and absorbs pairs through one recursion, in blocks
through the Woodbury identity; a one-row block is the rank-one update.
``online_update_many`` feeds it arrays of evaluated pairs and
``online_update`` one SnapshotPair, evaluated in one call. Seeding with an
ODE-derived matrix biases the regression toward the seed.
"""

import math
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

    ``pinv``, the positive-definite inverse-Gram surrogate in the gain, is
    re-symmetrized after each block of two or more rows and kept exactly
    symmetric by the one-row step, which subtracts q q^T with q =
    sqrt(gamma) pinv x; ``count`` is the pairs absorbed so far.
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
        K = np.array(seed, dtype=float, order="C")
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

    with pinv re-symmetrized after each block of two or more rows. At b = 1
    the gain gamma = 1 / (1 + x^T pinv x) is a scalar in (0, 1] while pinv
    is positive definite, and with Px = pinv x and q = sqrt(gamma) Px the
    rank-one step is

        K    <- K + (gamma (y - K x)) Px^T
        pinv <- pinv - q q^T

    Since q_i q_j == q_j q_i, it keeps the exactly symmetric pinv that
    ``online_init`` and every block hand it exactly symmetric. The input
    state is not written.
    """
    K, P = state.matrix, state.pinv
    m = psi_x.shape[0]
    if m != 1:
        # the Woodbury blocks update in place; a one-row call builds new arrays
        K, P = K.copy(), P.copy()
    for start in range(0, m, _BLOCK_PAIRS):
        if m - start == 1:
            # a one-row block; its solve would cost a third more than this
            # step. Each matrix takes two element passes, the outer product
            # (an einsum of plain products, no BLAS call) and the sum.
            x = psi_x[start]
            Px = P @ x
            gamma = 1.0 / (1.0 + x @ Px)
            dK = np.einsum("i,j->ij", gamma * (psi_y[start] - K @ x), Px)
            dK += K
            q = math.sqrt(gamma) * Px
            dP = np.einsum("i,j->ij", q, q)
            np.subtract(P, dP, out=dP)
            K, P = dK, dP
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

    Both states are evaluated in one dictionary call and absorbed as a
    one-row block, bit for bit what ``online_update_many`` gives for the row.
    """
    psi = dictionary.evaluate(np.array((pair.x, pair.y)))
    return _absorb(state, psi[:1], psi[1:])


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
