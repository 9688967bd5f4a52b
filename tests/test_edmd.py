import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits

from koopseed import edmd
from koopseed.dictionary import _CHUNK_ROWS, build_dictionary
from koopseed.dynamics import rk4_step, sample_initial, simulate
from koopseed.edmd import (
    _BLOCK_PAIRS,
    OnlineState,
    SnapshotPair,
    batch_edmd_from_psi,
    online_init,
    online_update,
    online_update_many,
)
from koopseed.experiments import derive_seed_model, load_config

DUFFING = load_config("duffing").system


def ridge_oracle(dictionary, pairs, sigma, seed_matrix=None):
    """Closed-form solution the recursion must reproduce:
    (K0/sigma + Q)(P + I/sigma)^(-1) with Q, P formed explicitly."""
    n = len(dictionary)
    Q = np.zeros((n, n))
    P = np.zeros((n, n))
    for p in pairs:
        px = dictionary.evaluate(p.x)
        py = dictionary.evaluate(p.y)
        Q += np.outer(py, px)
        P += np.outer(px, px)
    K0 = np.zeros((n, n)) if seed_matrix is None else seed_matrix
    return (K0 / sigma + Q) @ np.linalg.inv(P + np.eye(n) / sigma)


def duffing_pairs(count, seed=0):
    x0 = sample_initial([(-1.5, 1.5)] * 6, seed)
    states = simulate(DUFFING, x0, count, 0.01)
    return [SnapshotPair(states[k], states[k + 1]) for k in range(count)]


def run_online(dictionary, pairs, sigma, seed=None):
    state = online_init(seed, sigma, dictionary=dictionary)
    for p in pairs:
        state = online_update(state, p, dictionary)
    return state


class TestSnapshotPair:
    def test_validates(self):
        with pytest.raises(ValueError):
            SnapshotPair([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            SnapshotPair([np.nan], [1.0])


def batch_from_pairs(dictionary, pairs):
    X = np.stack([p.x for p in pairs])
    Y = np.stack([p.y for p in pairs])
    return batch_edmd_from_psi(dictionary, dictionary.evaluate(X), dictionary.evaluate(Y))


class TestBatchEDMD:
    def test_identity_dynamics(self):
        d = build_dictionary(2, 2)
        rng = np.random.default_rng(0)
        pairs = [SnapshotPair(x, x) for x in rng.uniform(-1, 1, (3 * len(d), 2))]
        model = batch_from_pairs(d, pairs)
        assert np.linalg.norm(model.matrix - np.eye(len(d))) <= 1e-10

    def test_scalar_linear_map_is_exact(self):
        a = 0.8
        d = build_dictionary(1, 2)
        xs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        pairs = [SnapshotPair(x, a * x) for x in xs]
        model = batch_from_pairs(d, pairs)
        assert np.allclose(model.matrix, np.diag([1.0, a, a * a]), atol=1e-12)
        assert model.diagnostics["rank_deficient"] is False

    def test_degenerate_data_is_flagged(self):
        d = build_dictionary(2, 2)
        pairs = [SnapshotPair([0.5, 0.5], [0.4, 0.4])] * 10
        model = batch_from_pairs(d, pairs)
        assert model.diagnostics["rank_deficient"] is True
        assert model.diagnostics["gram_rank"] == 1
        assert np.isfinite(model.matrix).all()

    def test_requires_pairs(self):
        d = build_dictionary(1, 1)
        empty = np.empty((0, len(d)))
        with pytest.raises(ValueError, match="at least one snapshot pair"):
            batch_edmd_from_psi(d, empty, empty)


class TestOnlineInit:
    def test_sigma_one_gives_identity_pinv(self):
        d = build_dictionary(2, 2)
        state = online_init(None, 1.0, dictionary=d)
        assert np.array_equal(state.pinv, np.eye(len(d)))
        assert state.count == 0
        assert not state.matrix.any()

    def test_seed_matrix_is_copied(self):
        d = build_dictionary(1, 1)
        seed = np.eye(2)
        state = online_init(seed, 2.0)
        seed[0, 0] = 5.0
        assert state.matrix[0, 0] == 1.0
        assert np.array_equal(state.pinv, 2.0 * np.eye(2))

    def test_rejects_bad_sigma(self):
        d = build_dictionary(1, 1)
        with pytest.raises(ValueError):
            online_init(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            online_init(None, -1.0, dictionary=d)


class TestOnlineUpdate:
    def test_single_pair_closed_form(self):
        # for one pair and sigma = 1 the estimate is psi_y psi_x^T / (1+|psi_x|^2)
        d = build_dictionary(2, 1)
        pair = SnapshotPair([0.3, -0.2], [0.25, -0.1])
        state = online_update(online_init(None, 1.0, dictionary=d), pair, d)
        px = d.evaluate(pair.x)
        py = d.evaluate(pair.y)
        expect = np.outer(py, px) / (1.0 + px @ px)
        assert np.allclose(state.matrix, expect, atol=1e-14)
        oracle = ridge_oracle(d, [pair], 1.0)
        assert np.allclose(state.matrix, oracle, atol=1e-12)
        assert state.count == 1

    def test_exact_prediction_leaves_matrix_unchanged(self):
        d = build_dictionary(1, 2)
        state = OnlineState(matrix=np.diag([1.0, 0.5, 0.25]), pinv=np.eye(3), count=0)
        x = np.array([0.7])
        psi_x = d.evaluate(x)
        psi_y = state.matrix @ psi_x  # fabricate a perfectly predicted pair
        before_p = state.pinv.copy()
        new = online_update_many(state, psi_x[None, :], psi_y[None, :])
        assert np.allclose(new.matrix, state.matrix, atol=1e-15)
        # pinv still contracts
        v = np.array([1.0, 1.0, 1.0])
        assert v @ new.pinv @ v < v @ before_p @ v

    def test_gamma_bounds(self):
        # pinv staying symmetric positive definite is equivalent to every
        # rank-one gain lying in (0, 1]
        d = build_dictionary(2, 3)
        state = online_init(None, 10.0, dictionary=d)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5, 2)
            state = online_update(state, SnapshotPair(x, x * 0.9), d)
            assert np.array_equal(state.pinv, state.pinv.T)
            assert np.linalg.eigvalsh(state.pinv).min() > 0

    def test_single_pair_is_the_one_row_block_bit_for_bit(self):
        d = build_dictionary(6, 3)
        seed = derive_seed_model(load_config("duffing"))
        one = many = online_init(seed, 1.0)
        for p in duffing_pairs(50, seed=12):
            one = online_update(one, p, d)
            many = online_update_many(many, d.evaluate(p.x)[None, :], d.evaluate(p.y)[None, :])
        assert np.array_equal(one.matrix, many.matrix)
        assert np.array_equal(one.pinv, many.pinv)
        assert one.count == many.count == 50

    def test_seed_memory_layout_leaves_the_bits_alone(self):
        # the one-row step works on the state's own arrays, and a product's
        # rounding can depend on its operand's layout
        d = build_dictionary(6, 3)
        seed = derive_seed_model(load_config("duffing")).matrix
        pair = duffing_pairs(1, seed=13)[0]
        rows = online_update(online_init(seed, 1.0), pair, d)
        cols = online_update(online_init(np.asfortranarray(seed), 1.0), pair, d)
        assert np.array_equal(rows.matrix, cols.matrix)
        assert np.array_equal(rows.pinv, cols.pinv)

    def test_single_pair_does_not_call_the_public_bulk_name(self, monkeypatch):
        # a tracer that wraps both public names would count the pair twice
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return online_update_many(*args, **kwargs)

        monkeypatch.setattr(edmd, "online_update_many", counting)
        d = build_dictionary(2, 2)
        state = online_init(None, 1.0, dictionary=d)
        for x in np.random.default_rng(3).uniform(-1, 1, (5, 2)):
            state = online_update(state, SnapshotPair(x, 0.9 * x), d)
        assert calls == []
        assert state.count == 5

    def test_pinv_quadratic_form_monotone(self):
        d = build_dictionary(2, 2)
        state = online_init(None, 3.0, dictionary=d)
        rng = np.random.default_rng(2)
        probes = rng.standard_normal((5, len(d)))
        for _ in range(30):
            x = rng.uniform(-1, 1, 2)
            pair = SnapshotPair(x, 0.8 * x)
            new = online_update(state, pair, d)
            for v in probes:
                assert v @ new.pinv @ v <= v @ state.pinv @ v + 1e-12
            state = new

    def test_matches_ridge_oracle_any_sigma(self):
        d = build_dictionary(2, 3)
        pairs = duffing_pairs(120, seed=3)
        sub = [SnapshotPair(p.x[:2], p.y[:2]) for p in pairs]
        for sigma in (1.0, 30.0, 1000.0):
            state = run_online(d, sub, sigma)
            oracle = ridge_oracle(d, sub, sigma)
            rel = np.linalg.norm(state.matrix - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8, (sigma, rel)

    def test_seeded_recursion_matches_seeded_oracle(self):
        d = build_dictionary(2, 3)
        pairs = [SnapshotPair(p.x[:2], p.y[:2]) for p in duffing_pairs(80, seed=4)]
        seed = np.random.default_rng(9).standard_normal((len(d), len(d))) * 0.1
        # and the 84-monomial chain of one-row steps a stream caller runs
        config = load_config("duffing")
        preset = (config.dictionary(), duffing_pairs(2000), derive_seed_model(config).matrix, 1.0)
        for d, pairs, seed, sigma in [(d, pairs, seed, 2.0), preset]:
            state = run_online(d, pairs, sigma, seed=seed)
            oracle = ridge_oracle(d, pairs, sigma, seed_matrix=seed)
            rel = np.linalg.norm(state.matrix - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8, (len(d), rel)
            assert np.array_equal(state.pinv, state.pinv.T)

    def test_order_invariance_of_the_closed_form(self):
        d = build_dictionary(2, 2)
        pairs = [SnapshotPair(p.x[:2], p.y[:2]) for p in duffing_pairs(60, seed=5)]
        forward = run_online(d, pairs, 1.0)
        shuffled = list(pairs)
        np.random.default_rng(11).shuffle(shuffled)
        back = run_online(d, shuffled, 1.0)
        rel = np.linalg.norm(forward.matrix - back.matrix) / np.linalg.norm(forward.matrix)
        assert rel <= 1e-8

    def test_large_sigma_approaches_batch(self):
        # independent snapshot pairs keep the Gram matrix well conditioned;
        # a single short trajectory arc would leave it rank deficient, where
        # ridge and pseudoinverse legitimately differ
        d = build_dictionary(2, 2)
        fld = DUFFING.subsystems[0]
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.5, 1.5, (100, 2))
        pairs = [SnapshotPair(x, rk4_step(fld, x, 0.01)) for x in X]
        online = run_online(d, pairs, 1e8)
        batch = batch_from_pairs(d, pairs)
        rel = np.linalg.norm(online.matrix - batch.matrix) / np.linalg.norm(batch.matrix)
        assert rel <= 1e-5

    def test_update_many_equals_repeated_single(self):
        # blocks reorder the arithmetic, so the chains agree up to rounding
        d = build_dictionary(2, 2)
        pairs = [SnapshotPair(p.x[:2], p.y[:2]) for p in duffing_pairs(20, seed=7)]
        one_by_one = run_online(d, pairs, 1.0)
        X = np.stack([p.x for p in pairs])
        Y = np.stack([p.y for p in pairs])
        bulk = online_update_many(
            online_init(None, 1.0, dictionary=d), d.evaluate(X), d.evaluate(Y)
        )
        rel = np.linalg.norm(bulk.matrix - one_by_one.matrix) / np.linalg.norm(one_by_one.matrix)
        assert rel <= 1e-12
        assert one_by_one.count == bulk.count == 20

    def test_update_many_split_at_block_multiples_is_bit_exact(self):
        d = build_dictionary(2, 3)
        states = np.stack([p.x[:2] for p in duffing_pairs(58, seed=8)])
        psi = d.evaluate(states)
        start = online_init(None, 5.0, dictionary=d)
        whole = online_update_many(start, psi[:-1], psi[1:])
        state = start
        cuts = [0, _BLOCK_PAIRS, 4 * _BLOCK_PAIRS, len(psi) - 1]
        for lo, hi in zip(cuts, cuts[1:]):
            state = online_update_many(state, psi[lo:hi], psi[lo + 1 : hi + 1])
        assert np.array_equal(state.matrix, whole.matrix)
        assert np.array_equal(state.pinv, whole.pinv)
        assert state.count == whole.count == 57

    def test_update_many_rejects_mismatched_row_counts(self):
        d = build_dictionary(2, 2)
        psi = d.evaluate(np.random.default_rng(0).uniform(-1, 1, (8, 2)))
        state = online_init(None, 1.0, dictionary=d)
        with pytest.raises(ValueError, match="shape"):
            online_update_many(state, psi[:5], psi[1:8])

    def test_update_many_rejects_non_finite_rows(self):
        d = build_dictionary(2, 2)
        psi = d.evaluate(np.random.default_rng(0).uniform(-1, 1, (6, 2)))
        psi[3, 2] = np.nan
        state = online_init(None, 1.0, dictionary=d)
        with pytest.raises(ValueError, match="non-finite"):
            online_update_many(state, psi[:-1], psi[1:])


@given(st.data(), st.floats(-2.0, 3.0), st.integers(1, 75))
def test_update_many_matches_ridge_oracle_over_any_split(data, log_sigma, count):
    # independent random pairs, a random seed matrix and a random split into
    # calls, so blocks end mid-call and calls end mid-block
    d = build_dictionary(2, 3)
    n = len(d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = d.evaluate(rng.uniform(-1.5, 1.5, (count, 2)))
    Y = d.evaluate(rng.uniform(-1.5, 1.5, (count, 2)))
    seed = 0.1 * rng.standard_normal((n, n))
    sigma = 10.0**log_sigma
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=5)))
    state = online_init(seed, sigma)
    for lo, hi in zip([0] + cuts, cuts + [count]):
        state = online_update_many(state, X[lo:hi], Y[lo:hi])
    oracle = (seed / sigma + Y.T @ X) @ np.linalg.inv(X.T @ X + np.eye(n) / sigma)
    rel = np.linalg.norm(state.matrix - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8, (sigma, count, cuts, rel)
    assert state.count == count


def held_arrays(state):
    """Copies of every array a state holds, folded or pending."""
    held = []
    for value in vars(state).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                held.append(item.copy())
    return held


@given(st.data(), st.integers(2 * _BLOCK_PAIRS + 1, 5 * _BLOCK_PAIRS), st.floats(-2.0, 3.0))
def test_one_pair_chain_reads_agree_with_the_oracle_and_change_no_bits(data, count, log_sigma):
    # one-pair calls keep their rank-one terms pending and fold them every
    # _BLOCK_PAIRS pairs; reading matrix and pinv at random points folds the
    # pending terms for the read alone
    d = build_dictionary(2, 3)
    n = len(d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = d.evaluate(rng.uniform(-1.5, 1.5, (count, 2)))
    Y = d.evaluate(rng.uniform(-1.5, 1.5, (count, 2)))
    seed = 0.1 * rng.standard_normal((n, n))
    sigma = 10.0**log_sigma
    reads = set(data.draw(st.lists(st.integers(1, count), max_size=8)))
    read = unread = online_init(seed, sigma)
    for k in range(count):
        before = held_arrays(read)
        new = online_update_many(read, X[k : k + 1], Y[k : k + 1])
        after = held_arrays(read)
        assert len(before) == len(after) and all(map(np.array_equal, before, after))
        read = new
        unread = online_update_many(unread, X[k : k + 1], Y[k : k + 1])
        if k + 1 in reads:
            Xk, Yk = X[: k + 1], Y[: k + 1]
            oracle = (seed / sigma + Yk.T @ Xk) @ np.linalg.inv(Xk.T @ Xk + np.eye(n) / sigma)
            rel = np.linalg.norm(read.matrix - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8, (sigma, k + 1, rel)
            assert np.array_equal(read.pinv, read.pinv.T)
    assert np.array_equal(read.matrix, unread.matrix)
    assert np.array_equal(read.pinv, unread.pinv)
    assert np.array_equal(unread.pinv, unread.pinv.T)
    assert read.count == unread.count == count


def absorb_as_first_written(state, psi_x, psi_y):
    """The recursion with copies, in-place updates and a re-symmetrization
    after every block, the one-row step included. Its outer products are
    ``np.outer``; the einsum in ``_absorb`` gives the same products except
    that an exact zero comes out +0.0 there and -0.0 here, which cannot
    reach K or pinv unless one of their entries is -0.0."""
    K = state.matrix.copy()
    P = state.pinv.copy()
    m = psi_x.shape[0]
    for start in range(0, m, _BLOCK_PAIRS):
        if m - start == 1:
            x = psi_x[start]
            Px = P @ x
            gamma = 1.0 / (1.0 + x @ Px)
            K += np.outer(gamma * (psi_y[start] - K @ x), Px)
            q = math.sqrt(gamma) * Px
            P -= np.outer(q, q)
        else:
            X = psi_x[start : start + _BLOCK_PAIRS]
            Y = psi_y[start : start + _BLOCK_PAIRS]
            PX = P @ X.T
            G = np.linalg.solve(np.eye(X.shape[0]) + X @ PX, PX.T)
            K += (Y.T - K @ X.T) @ G
            P -= PX @ G
        np.copyto(P, 0.5 * (P + P.T))
    return K, P


@given(st.data(), st.sampled_from([1, _BLOCK_PAIRS + 1, 2 * _BLOCK_PAIRS + 1]), st.integers(2, 40))
def test_one_row_step_matches_the_first_formulation_bit_for_bit(data, m, n):
    # every call ends in a one-row block, after zero, one or two Woodbury blocks
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** data.draw(st.floats(-2.0, 2.0))
    A = rng.standard_normal((n, n))
    pinv = A @ A.T + scale * np.eye(n)
    pinv = 0.5 * (pinv + pinv.T)
    state = OnlineState(matrix=rng.standard_normal((n, n)), pinv=pinv, count=3)
    before = (state.matrix.copy(), state.pinv.copy())
    X = rng.uniform(-1.5, 1.5, (m, n))
    Y = rng.uniform(-1.5, 1.5, (m, n))
    new = online_update_many(state, X, Y)
    K, P = absorb_as_first_written(state, X, Y)
    assert np.array_equal(new.matrix, K)
    assert np.array_equal(new.pinv, P)
    assert np.array_equal(new.pinv, new.pinv.T)
    assert new.count == 3 + m
    # the input state is not written to, nor shared with the result
    assert np.array_equal(state.matrix, before[0]) and np.array_equal(state.pinv, before[1])
    assert not np.shares_memory(new.matrix, state.matrix)
    assert not np.shares_memory(new.pinv, state.pinv)


@given(st.data(), st.integers(1, 4), st.floats(-2.0, 3.0))
def test_learners_give_the_same_bits_for_every_psi_layout(data, blocks, log_sigma):
    # a multi-pass evaluation is a monomial-major view; the learners read
    # C-contiguous rows of it, of a C copy and of an F copy alike. The chain
    # has Woodbury blocks, split at a block multiple, and a trailing one-row block
    d = build_dictionary(2, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    view = d.evaluate(rng.uniform(-1.5, 1.5, (_CHUNK_ROWS + 1, 2)))
    assert not view.flags.c_contiguous
    count = blocks * _BLOCK_PAIRS + 1
    cut = data.draw(st.integers(0, blocks)) * _BLOCK_PAIRS
    seed = 0.1 * rng.standard_normal((len(d), len(d)))
    sigma = 10.0**log_sigma
    results = []
    for layout in (np.ascontiguousarray, np.asfortranarray, lambda a: a):
        X, Y = layout(view[:count]), layout(view[1 : count + 1])
        state = online_update_many(online_init(seed, sigma), X[:cut], Y[:cut])
        state = online_update_many(state, X[cut:], Y[cut:])
        results.append((state.matrix, state.pinv, batch_edmd_from_psi(d, X, Y).matrix))
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert_same_bits(a, b)
