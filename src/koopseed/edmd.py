"""Koopman matrix estimation from snapshot pairs: batch and online.

Batch EDMD solves the least-squares problem through the pseudoinverse of the
dictionary Gram matrix. The online path keeps the current estimate and the
inverse-Gram surrogate and absorbs pairs through one recursion, in blocks
through the Woodbury identity; a one-row block is the rank-one update, kept
as a pending term. The step that would leave ``_BLOCK_PAIRS`` terms pending
folds them into both matrices, and a read folds them for itself; a state
with one pending term reads with the bits of the update written out.
``online_update_many`` feeds the recursion arrays of evaluated pairs and
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
# It is also the count of pending one-row terms at which they are folded.
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


class OnlineState:
    """Running state of the online recursion.

    A state is its folded matrices K0 and P0 plus the pending terms of at
    most ``_BLOCK_PAIRS - 1`` one-row steps (see ``_step``), rows u_i of U
    and w_i of W and the gains gamma_i:

        matrix = K0 + U^T W
        pinv   = P0 - Q^T Q,    Q = sqrt(gamma) W (row by row)

    ``matrix`` and ``pinv`` fold the pending terms on first read, one
    product each, and cache the result; the state's next steps still start
    from K0, P0 and the terms, so a read changes no later bits. numpy forms
    Q^T Q symmetrically (syrk), so ``pinv`` is exactly symmetric at every
    read. With one pending term each product entry is a single rounded
    product, so the read has the bits of the update written out: u Px^T
    added to K0, and q q^T, q = sqrt(gamma) Px, taken from P0.
    ``OnlineState(matrix, pinv, count)`` builds a state with nothing
    pending; ``count`` is the pairs absorbed so far. The states of a chain
    share their arrays, so none of them may be written.
    """

    def __init__(self, matrix: np.ndarray, pinv: np.ndarray, count: int = 0):
        self._base = self._read = (matrix, pinv)
        self._terms = None  # rows (-u, gamma w, w, sqrt(gamma)) of the pending steps
        self.count = count

    @property
    def matrix(self) -> np.ndarray:
        return self._folded()[0]

    @property
    def pinv(self) -> np.ndarray:
        return self._folded()[1]

    def _folded(self):
        if self._read is None:
            self._read = _fold(self._base, self._terms)
        return self._read


def _fold(base, terms):
    """K0 + U^T W and P0 - Q^T Q from the pending rows ``terms``."""
    K0, P0 = base
    n = K0.shape[0]
    W = terms[:, 2 * n : 3 * n]
    K = terms[:, :n].T @ W
    np.subtract(K0, K, out=K)
    Q = W * terms[:, 3 * n :]
    P = Q.T @ Q
    np.subtract(P0, P, out=P)
    return K, P


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
    the start of the call (the last block may be shorter). A one-row block
    is the rank-one step of ``_step``, kept pending. Blocks X, Y of b >= 2
    rows start from the state's folded matrices; with PX = pinv X^T and
    S = I_b + X PX symmetric positive definite, the Woodbury identity gives
    G = S^-1 PX^T and

        K    <- K + (Y^T - K X^T) G
        pinv <- pinv - PX G

    with pinv re-symmetrized after the block. A call of two or more rows
    thus leaves at most one pending term. The input state is not written.
    """
    m = psi_x.shape[0]
    if m == 1:
        return _step(state, psi_x[0], psi_y[0])
    K, P = state.matrix.copy(), state.pinv.copy()
    blocks = m - 1 if m % _BLOCK_PAIRS == 1 else m  # rows in Woodbury blocks
    for start in range(0, blocks, _BLOCK_PAIRS):
        X = psi_x[start : start + _BLOCK_PAIRS]
        Y = psi_y[start : start + _BLOCK_PAIRS]
        PX = P @ X.T
        G = np.linalg.solve(np.eye(X.shape[0]) + X @ PX, PX.T)
        K += (Y.T - K @ X.T) @ G
        P -= PX @ G
        np.copyto(P, 0.5 * (P + P.T))
    state = OnlineState(K, P, state.count + blocks)
    return _step(state, psi_x[-1], psi_y[-1]) if blocks < m else state


def _step(state: OnlineState, x: np.ndarray, y: np.ndarray) -> OnlineState:
    """The rank-one step for one row, kept as a pending term.

    With Px = pinv x, the gain gamma = 1 / (1 + x^T Px) in (0, 1] and
    u = gamma (y - K x), the step is K <- K + u Px^T and
    pinv <- pinv - gamma Px Px^T. It writes neither matrix: it forms

        K x = K0 x + U^T (W x),    Px = P0 x - W^T (gamma * (W x))

    with one product of W x and the rows' (-u_i, gamma_i w_i), and appends
    the row (-u, gamma Px, Px, sqrt(gamma)) to a copy of the pending rows.
    The step that would leave ``_BLOCK_PAIRS`` terms pending folds them
    into K0 and P0 instead, as a read does.
    """
    K, P = state._base
    pending = state._terms
    n = x.shape[0]
    t = 0 if pending is None else pending.shape[0]
    terms = np.empty((t + 1, 3 * n + 1))
    row = terms[t]
    Kx = np.matmul(K, x, out=row[:n])
    Px = np.matmul(P, x, out=row[n : 2 * n])
    if t:
        terms[:t] = pending
        row[: 2 * n] -= (pending[:, 2 * n : 3 * n] @ x) @ pending[:, : 2 * n]
    row[2 * n : 3 * n] = Px
    gamma = 1.0 / (1.0 + x @ Px)
    Kx -= y
    row[: 2 * n] *= gamma
    row[3 * n] = math.sqrt(gamma)
    if t + 1 == _BLOCK_PAIRS:
        return OnlineState(*_fold(state._base, terms), state.count + 1)
    out = OnlineState(K, P, state.count + 1)
    out._terms, out._read = terms, None
    return out


def online_update(state: OnlineState, pair: SnapshotPair, dictionary: Dictionary) -> OnlineState:
    """Absorb one snapshot pair and return the updated state.

    Both states are evaluated in one dictionary call and absorbed as a
    one-row block, bit for bit what ``online_update_many`` gives for the row.
    """
    psi = dictionary.evaluate(np.array((pair.x, pair.y)))
    return _step(state, psi[0], psi[1])


def online_update_many(
    state: OnlineState, psi_x: np.ndarray, psi_y: np.ndarray
) -> OnlineState:
    """Absorb the rows of precomputed evaluations (m, n) as pairs, in order.

    The rows go through the block recursion of ``_absorb``. Splitting them
    across calls at multiples of ``_BLOCK_PAIRS`` gives the same bits as one
    call; other splits agree up to rounding.
    """
    n = state._base[0].shape[0]  # the size, without folding pending terms
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
