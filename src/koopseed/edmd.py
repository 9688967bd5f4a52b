"""Koopman matrix estimation from snapshot pairs: batch and online.

Batch EDMD solves the least-squares problem through the pseudoinverse of the
dictionary Gram matrix. The online path keeps the current estimate and the
inverse-Gram surrogate, absorbing one pair per rank-one update; seeding it
with an ODE-derived matrix biases the regression toward the seed.
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .model import KoopmanModel


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
    appearing inside the gain), re-symmetrized after every update; ``count``
    is the number of pairs absorbed so far.
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


def _online_step(K: np.ndarray, P: np.ndarray, psi_x: np.ndarray, psi_y: np.ndarray) -> float:
    # In-place rank-one recursion; returns the gain. P symmetric positive
    # definite keeps the gain in (0, 1].
    Pp = P @ psi_x
    gamma = 1.0 / (1.0 + psi_x @ Pp)
    K += gamma * np.outer(psi_y - K @ psi_x, Pp)
    P -= gamma * np.outer(Pp, Pp)
    np.copyto(P, 0.5 * (P + P.T))
    return gamma


def online_update(state: OnlineState, pair: SnapshotPair, dictionary: Dictionary) -> OnlineState:
    """Absorb one snapshot pair and return the updated state.

    With psi_x = Psi(x), psi_y = Psi(y) and gain
    gamma = 1 / (1 + psi_x^T pinv psi_x):

        K    <- K + gamma * (psi_y - K psi_x) (psi_x^T pinv)
        pinv <- pinv - gamma * (pinv psi_x)(pinv psi_x)^T

    The pinv quadratic form never increases, and gamma is always computable.
    """
    K = state.matrix.copy()
    P = state.pinv.copy()
    _online_step(K, P, dictionary.evaluate(pair.x), dictionary.evaluate(pair.y))
    return OnlineState(matrix=K, pinv=P, count=state.count + 1)


def online_update_many(
    state: OnlineState, psi_x: np.ndarray, psi_y: np.ndarray
) -> OnlineState:
    """Absorb a block of pairs (rows of precomputed evaluations), in order.

    Equivalent to repeated online_update; used where pairs arrive as arrays.
    """
    K = state.matrix.copy()
    P = state.pinv.copy()
    for k in range(psi_x.shape[0]):
        _online_step(K, P, psi_x[k], psi_y[k])
    return OnlineState(matrix=K, pinv=P, count=state.count + psi_x.shape[0])
