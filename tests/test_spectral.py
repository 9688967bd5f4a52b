from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits

from koopseed import spectral
from koopseed.dictionary import build_dictionary
from koopseed.generator import PolynomialVectorField, local_koopman
from koopseed.model import KoopmanModel
from koopseed.spectral import (
    SPECTRAL_TOL,
    DefectiveDecompositionError,
    decompose,
    forecast_matrices,
    prediction_matrix,
    relative_l2,
    state_projector,
)


# a 2x2 Jordan block on build_dictionary(1, 2): forecasts take matrix powers
JORDAN_K = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])


def random_diagonalizable(n, rng, spectral_radius=1.0):
    """Random K with well-conditioned eigenbasis and |mu| <= spectral_radius."""
    K = rng.standard_normal((n, n)) * 0.3 + np.eye(n) * 0.2
    radius = np.abs(np.linalg.eigvals(K)).max()
    return K * (spectral_radius / radius)


def real_basis(dec):
    """The real eigenbasis V whose inverse is dec.basis_inverse: Re u_l at a
    real term and at a pair's upper term j, Im u_j at its lower term k."""
    U = dec.right_vectors
    return np.where(dec.eigenvalues.imag < 0, -U.imag, U.real)


def left_vectors(dec):
    """Complex left eigenvectors W (W.T @ U = I), rebuilt from basis_inverse:
    w_l = V^-1_l at a real term, w_j = (V^-1_j - i V^-1_k) / 2 and
    w_k = conj(w_j) at a pair, whose k holds the conjugates of j's vector."""
    mu, U, Vinv = dec.eigenvalues, dec.right_vectors, dec.basis_inverse
    W = Vinv.T.astype(complex)
    for j in np.flatnonzero(mu.imag > 0):
        k = np.flatnonzero((mu == mu[j].conj()) & (U == U[:, [j]].conj()).all(axis=0))[0]
        W[:, j] = (Vinv[j] - 1j * Vinv[k]) / 2
        W[:, k] = W[:, j].conj()
    return W


def power_forecasts(K, B, horizons):
    """Oracle B @ K^n per horizon, K^n formed by repeated left-multiplication."""
    out = {}
    Kn = np.eye(K.shape[0])
    for n in range(1, max(horizons) + 1):
        Kn = K @ Kn
        if n in horizons:
            out[n] = B @ Kn
    return out


class TestDecompose:
    def test_diagonal_matrix(self):
        d = build_dictionary(1, 1)
        dec = decompose(KoopmanModel(d, np.diag([1.0, 0.5])))
        assert np.allclose(dec.eigenvalues, [1.0, 0.5])
        assert np.allclose(np.abs(dec.right_vectors), np.eye(2))
        assert not dec.defective
        # modes are the projector columns at the eigen slots
        assert np.allclose(np.abs(dec.modes), state_projector(d) @ np.abs(dec.right_vectors))

    def test_identity_matrix(self):
        d = build_dictionary(2, 2)
        dec = decompose(KoopmanModel(d, np.eye(len(d))))
        assert np.allclose(dec.eigenvalues, np.ones(len(d)))
        x = np.array([0.3, -0.7])
        assert np.allclose(prediction_matrix(dec, 1) @ d.evaluate(x), x, atol=1e-10)

    def test_biorthonormality(self):
        d = build_dictionary(2, 3)
        rng = np.random.default_rng(0)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        gram = dec.basis_inverse @ real_basis(dec)
        assert np.abs(gram - np.eye(len(d))).max() <= 1e-8
        assert dec.residual <= 1e-8

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (2, 2), (2, 3)]))
    def test_left_vectors_are_conjugate_paired(self, seed, shape):
        # wherever eig pairs mu_k = conj(mu_j), the right vectors and the left
        # vectors read from basis_inverse are bitwise conjugates too; a real
        # eigenvalue has real vectors
        d = build_dictionary(*shape)
        rng = np.random.default_rng(seed)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        mu, U, W = dec.eigenvalues, dec.right_vectors, left_vectors(dec)
        assert not dec.defective
        for j in np.flatnonzero(mu.imag >= 0):
            (k,) = np.flatnonzero(mu == mu[j].conj())
            assert np.array_equal(W[:, k], W[:, j].conj())
            assert np.array_equal(U[:, k], U[:, j].conj())
        assert (mu.imag != 0).sum() == 2 * (mu.imag > 0).sum()
        assert np.abs(W.T @ U - np.eye(len(d))).max() <= 1e-8

    def test_conjugate_pairing_for_real_matrix(self):
        d = build_dictionary(2, 2)
        rng = np.random.default_rng(1)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        mu = dec.eigenvalues
        complex_mu = mu[np.abs(mu.imag) > 1e-12]
        assert len(complex_mu) % 2 == 0
        paired = sorted(complex_mu, key=lambda z: (z.real, abs(z.imag)))
        for a, b in zip(paired[::2], paired[1::2]):
            assert a == pytest.approx(np.conj(b))

    def test_ordering_descending_magnitude(self):
        d = build_dictionary(1, 3)
        dec = decompose(KoopmanModel(d, np.diag([0.2, 1.0, 0.7, 0.9])))
        mags = np.abs(dec.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-15)

    def test_defective_matrix_is_flagged(self):
        d = build_dictionary(1, 1)
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        dec = decompose(KoopmanModel(d, jordan))
        assert dec.defective
        with pytest.raises(DefectiveDecompositionError):
            prediction_matrix(dec, 1)

    def test_rejects_nonfinite(self):
        d = build_dictionary(1, 1)
        with pytest.raises(ValueError):
            decompose(KoopmanModel(d, np.array([[np.nan, 0.0], [0.0, 1.0]])))

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(7.0, 12.0),
        st.sampled_from([(1, 2), (2, 2), (2, 3)]),
        st.booleans(),
    )
    # pair rows put this certificate at 0.43 tol, so weighing them by 1 instead
    # of 1/sqrt(2) would move it into the band
    @example(seed=1, log_cond=8.9, shape=(2, 2), pairs=True)
    def test_defective_flag_equals_its_definition(self, seed, log_cond, shape, pairs):
        # K = V diag(lam) V^-1 with unit-norm eigenvectors and cond2(V) close
        # to 10**log_cond, which puts the Frobenius certificate below, inside
        # and above the band where the SVD decides. Two eigenvalues
        # 2e-log_cond apart share a unit off-diagonal; K is triangular up to
        # a permutation, so eig returns its eigenvectors at that conditioning.
        # With pairs, kron with a rotation turns them into two complex pairs,
        # so the large rows of V^-1 are pair rows, weighed by 1/sqrt(2).
        d = build_dictionary(*shape)
        N = len(d)
        assume(N >= 4 or not pairs)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-1.0, 1.0, N)
        lam[1] = lam[0] + 2.0 * 10.0**-log_cond
        K = np.diag(lam)
        K[0, 1] = 1.0
        if pairs:
            theta = rng.uniform(0.2, 2.9)
            rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            K[:4, :4] = np.kron(K[:2, :2], rotation)
        perm = rng.permutation(N)
        K = K[np.ix_(perm, perm)]
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            dec = decompose(KoopmanModel(d, K))
        eps = np.finfo(float).eps
        definition = (
            not np.isfinite(dec.residual)
            or dec.residual > SPECTRAL_TOL
            or np.linalg.cond(dec.right_vectors) * eps > SPECTRAL_TOL
        )
        assert dec.defective == definition
        scale = np.where(dec.eigenvalues.imag == 0, 1.0, np.sqrt(0.5))[:, None]
        certificate = np.sqrt(N) * np.linalg.norm(scale * dec.basis_inverse) * eps
        assert cond.called == (SPECTRAL_TOL / 2 < certificate <= N * SPECTRAL_TOL)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.sampled_from([(1, 3), (2, 2), (2, 3)]))
    def test_jordan_blocks_are_flagged(self, seed, size, shape):
        # an exact Jordan block, hidden by a permutation and a power-of-two
        # diagonal similarity, both exact in floating point
        d = build_dictionary(*shape)
        N = len(d)
        rng = np.random.default_rng(seed)
        J = np.diag(rng.uniform(-1.0, 1.0, N))
        J[:size, :size] = rng.uniform(-1.0, 1.0) * np.eye(size)
        J[range(size - 1), range(1, size)] = rng.uniform(0.5, 2.0, size - 1)
        scale = 2.0 ** rng.integers(-3, 4, N)
        perm = rng.permutation(N)
        K = (scale[:, None] * J / scale)[np.ix_(perm, perm)]
        assert decompose(KoopmanModel(d, K)).defective


class TestPredict:
    def test_predict_one_equals_matrix_action(self):
        d = build_dictionary(2, 3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            K = random_diagonalizable(len(d), rng)
            dec = decompose(KoopmanModel(d, K))
            x = rng.uniform(-1, 1, 2)
            oracle = state_projector(d) @ (K @ d.evaluate(x))
            got = prediction_matrix(dec, 1) @ d.evaluate(x)
            assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))

    def test_scalar_flow_seed(self):
        lam, dt = -0.7, 0.05
        d = build_dictionary(1, 3)
        f = PolynomialVectorField(1, [[((1,), lam)]])
        model = local_koopman(f, d, dt)
        dec = decompose(model)
        for x in (0.4, -1.2):
            got = prediction_matrix(dec, 1) @ d.evaluate(np.array([x]))
            assert got[0] == pytest.approx(np.exp(lam * dt) * x, rel=1e-10)

    def test_geometric_decay(self):
        d = build_dictionary(1, 1)
        dec = decompose(KoopmanModel(d, np.diag([1.0, 0.9])))
        for n in (1, 5, 20):
            got = prediction_matrix(dec, n) @ d.evaluate(np.array([2.0]))
            assert got[0] == pytest.approx(0.9**n * 2.0, rel=1e-12)

    def test_predict_n_against_power_oracle(self):
        d = build_dictionary(2, 3)  # 10-dimensional dictionary
        rng = np.random.default_rng(4)
        K = random_diagonalizable(len(d), rng, spectral_radius=1.05)
        dec = decompose(KoopmanModel(d, K))
        psi = d.evaluate(rng.uniform(-1, 1, 2))
        oracles = power_forecasts(K, state_projector(d), (1, 10, 100))
        for n in (1, 10, 100):
            oracle = oracles[n] @ psi
            got = prediction_matrix(dec, n) @ psi
            rel = np.linalg.norm(got - oracle) / max(1.0, np.linalg.norm(oracle))
            assert rel <= 1e-6

    def test_reconstruction_completeness(self):
        # sum_l v_l phi_l(x) = B V (V^-1 Psi(x)) must reproduce the state itself
        d = build_dictionary(3, 2)
        rng = np.random.default_rng(5)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        BV = state_projector(d) @ real_basis(dec)
        for _ in range(100):
            x = rng.uniform(-2, 2, 3)
            recon = BV @ (dec.basis_inverse @ d.evaluate(x))
            assert np.linalg.norm(recon - x) <= 1e-6 * max(1.0, np.linalg.norm(x))

    def test_real_outputs_small_imaginary_residue(self):
        d = build_dictionary(2, 2)
        rng = np.random.default_rng(6)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            phi = d.evaluate(x) @ left_vectors(dec)
            y = (dec.eigenvalues * phi) @ dec.modes.T
            assert np.abs(y.imag).max() <= 1e-8

    def test_prediction_matrix_matches_pointwise_formula(self):
        d = build_dictionary(2, 3)
        rng = np.random.default_rng(7)
        dec = decompose(KoopmanModel(d, random_diagonalizable(len(d), rng)))
        for n in (1, 7):
            M = prediction_matrix(dec, n)
            for _ in range(5):
                x = rng.uniform(-1, 1, 2)
                pointwise = (dec.eigenvalues**n * (d.evaluate(x) @ left_vectors(dec))) @ dec.modes.T
                assert np.abs(pointwise.imag).max() <= 1e-10
                assert np.allclose(M @ d.evaluate(x), pointwise.real, atol=1e-10)

    def test_matrix_power_fallback_for_defective(self):
        d = build_dictionary(2, 2)
        K = np.diag([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
        K[2, 3] = 1.0
        K[3, 3] = 0.8  # 2x2 Jordan block for eigenvalue 0.8
        mats, path = forecast_matrices(KoopmanModel(d, K), [3, 1, 3])
        assert path == "matrix-power"
        oracle = power_forecasts(K, state_projector(d), (1, 3))
        assert sorted(mats) == [1, 3]
        for n in (1, 3):
            assert np.array_equal(mats[n], oracle[n])


class TestForecastMatrices:
    def test_nonfinite_model_takes_matrix_powers(self):
        # horizon 2 reaches decompose, which rejects the model
        d = build_dictionary(1, 1)
        K = np.array([[1.0, 0.0], [np.inf, 0.5]])
        with np.errstate(invalid="ignore"):  # inf * 0 in the matrix powers
            _, path = forecast_matrices(KoopmanModel(d, K), [2])
        assert path == "matrix-power"

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2)]),
        st.sampled_from(["random", "jordan", "inf"]),
    )
    def test_horizons_up_to_one_are_row_reads(self, seed, shape, kind):
        # B and the state rows of K, bit for bit, without a decomposition
        d = build_dictionary(*shape)
        N, rows = len(d), d.state_indices()
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((N, N))
        if kind == "jordan":
            K = np.diag(np.full(N, rng.uniform(-1, 1))) + np.diag(np.ones(N - 1), 1)
        elif kind == "inf":
            K[rng.integers(N), rng.integers(N)] = rng.choice([np.inf, -np.inf])
        model = KoopmanModel(d, K)
        expected = {0: np.eye(N)[rows], 1: K[rows]}
        called = AssertionError("decompose called for horizons <= 1")
        with mock.patch.object(spectral, "decompose", side_effect=called):
            for horizons in ([], [0], [1], [0, 1], [1, 0, 1]):
                mats, path = forecast_matrices(model, horizons)
                assert path == "matrix-power"
                assert sorted(mats) == sorted(set(horizons))
                for n, M in mats.items():
                    assert_same_bits(M, expected[n])

    def test_only_horizon_zero_builds_the_projector(self, monkeypatch):
        # a one-step query reads K's state rows and builds no B; on the
        # recursion path [0, 1, 2] still gives B, B K and B K^2
        built = []
        projector = spectral.state_projector
        monkeypatch.setattr(spectral, "state_projector", lambda d: built.append(d) or projector(d))
        d = build_dictionary(1, 2)
        rows, model = d.state_indices(), KoopmanModel(d, JORDAN_K)
        mats, path = forecast_matrices(model, [1])
        assert (sorted(mats), path, built) == ([1], "matrix-power", [])
        assert_same_bits(mats[1], JORDAN_K[rows])
        mats, path = forecast_matrices(model, [0, 1, 2])
        assert (sorted(mats), path, len(built)) == ([0, 1, 2], "matrix-power", 1)
        for n, expected in enumerate((projector(d), JORDAN_K[rows], JORDAN_K[rows] @ JORDAN_K)):
            assert_same_bits(mats[n], expected)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 3), (2, 2), (2, 3)]))
    def test_defective_forecasts_are_the_state_row_recursion(self, seed, shape):
        # one eigenvalue in a chain of Jordan blocks: decompose flags it, and
        # horizons 1..30 are B K, then one product by K per horizon
        d = build_dictionary(*shape)
        N = len(d)
        rng = np.random.default_rng(seed)
        K = np.diag(np.full(N, rng.uniform(0.3, 0.9))) + np.triu(rng.uniform(0.1, 1.0, (N, N)), 1)
        model = KoopmanModel(d, K)
        assert decompose(model).defective
        mats, path = forecast_matrices(model, range(1, 31))
        assert path == "matrix-power"
        M = K[d.state_indices()]
        for n in range(1, 31):
            assert_same_bits(mats[n], M)
            M = M @ K

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 2)]))
    def test_spectral_equals_matrix_power(self, seed, shape):
        # K = V R V^-1 with R real 2x2 rotation-scaling blocks (and one 1x1
        # block for odd sizes), spectral radius 1, and cond(V) <= 4
        d = build_dictionary(*shape)
        N = len(d)
        rng = np.random.default_rng(seed)
        R = np.zeros((N, N))
        radii = rng.uniform(0.3, 1.0, N)
        radii[0] = 1.0
        for k in range(0, N - 1, 2):
            c, s = np.cos(rng.uniform(0.1, 3.0)), np.sin(rng.uniform(0.1, 3.0))
            R[k : k + 2, k : k + 2] = radii[k] * np.array([[c, -s], [s, c]])
        if N % 2:
            R[-1, -1] = -radii[-1]
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        V = Q * rng.uniform(0.5, 2.0, N)
        K = V @ R @ np.linalg.inv(V)
        horizons = range(1, 51)
        mats, path = forecast_matrices(KoopmanModel(d, K), horizons)
        assert path == "spectral"
        oracle = power_forecasts(K, state_projector(d), horizons)
        for n in horizons:
            rel = np.linalg.norm(mats[n] - oracle[n]) / max(1.0, np.linalg.norm(oracle[n]))
            assert rel <= 1e-6

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_repeated_complex_pair(self, seed, exact):
        # blockdiag(R, R, diagonal) with R a rotation-scaling block repeats a
        # complex pair. Taken as it is, eig returns the pair bitwise repeated,
        # each copy's terms side by side, and eigen_order then puts both upper
        # terms before both lower ones, so pairs are checked in eig's order.
        # Conjugated by a well-conditioned V, roundoff may split the pair
        # either way. No pairing may be wrong.
        d = build_dictionary(2, 2)
        N = len(d)
        rng = np.random.default_rng(seed)
        theta, radius = rng.uniform(0.2, 2.9), rng.uniform(0.5, 1.0)
        R = radius * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        K = np.diag(np.r_[0.0, 0.0, 0.0, 0.0, rng.uniform(-0.45, 0.45, N - 4)])
        K[:2, :2] = K[2:4, 2:4] = R
        if not exact:
            Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
            V = Q * rng.uniform(0.5, 2.0, N)
            K = V @ K @ np.linalg.inv(V)
        model = KoopmanModel(d, K)
        dec = decompose(model)
        mu = dec.eigenvalues
        if exact:
            assert mu[0] == mu[1] and mu[0].imag > 0 and mu[2] == mu[3] == mu[0].conj()
        if not dec.defective:
            assert np.abs(dec.basis_inverse @ real_basis(dec) - np.eye(N)).max() <= 1e-8
        horizons = range(1, 31)
        mats, path = forecast_matrices(model, horizons)
        assert path == "spectral" or not exact
        if path == "spectral":
            oracle = power_forecasts(K, state_projector(d), horizons)
            for n in horizons:
                rel = np.linalg.norm(mats[n] - oracle[n]) / max(1.0, np.linalg.norm(oracle[n]))
                assert rel <= 1e-6

    @given(st.integers(0, 2**32 - 1))
    def test_stacked_horizons_equal_single_products(self, seed):
        d = build_dictionary(2, 3)
        rng = np.random.default_rng(seed)
        model = KoopmanModel(d, random_diagonalizable(len(d), rng))
        horizons = [7, 0, 100, 3, 7, 1, 2, 3]
        mats, path = forecast_matrices(model, horizons)
        assert path == "spectral"
        assert sorted(mats) == sorted(set(horizons))
        dec = decompose(model)
        for n in horizons:
            assert np.array_equal(mats[n], prediction_matrix(dec, n))

    def test_zero_and_empty_horizons(self):
        # horizon 2 takes the query past the row reads, to decompose
        d = build_dictionary(1, 2)
        for K, expected in ((np.diag([1.0, 0.5, 0.25]), "spectral"), (JORDAN_K, "matrix-power")):
            mats, path = forecast_matrices(KoopmanModel(d, K), [0, 2])
            assert path == expected
            assert np.allclose(mats[0], state_projector(d), rtol=0.0, atol=1e-14)
            assert forecast_matrices(KoopmanModel(d, K), [])[0] == {}

    @pytest.mark.parametrize("bad", [-1, 2.7, True])
    def test_invalid_horizon_rejected_on_spectral_path(self, bad):
        # K^-1 exists here, so a negative horizon used to return 2.0 at x
        model = KoopmanModel(build_dictionary(1, 2), np.diag([1.0, 0.5, 0.25]))
        assert forecast_matrices(model, [2])[1] == "spectral"
        with pytest.raises(ValueError, match="horizon"):
            forecast_matrices(model, [2, bad])

    @pytest.mark.parametrize("bad", [-1, 2.7, True])
    def test_invalid_horizon_rejected_on_matrix_power_path(self, bad):
        # a Jordan K takes matrix powers, where a negative horizon gave K^0
        model = KoopmanModel(build_dictionary(1, 2), JORDAN_K)
        assert forecast_matrices(model, [1])[1] == "matrix-power"
        with pytest.raises(ValueError, match="horizon"):
            forecast_matrices(model, [1, bad])


class TestRelativeL2:
    def test_examples(self):
        assert relative_l2([3.0, 4.0], [3.0, 0.0]) == pytest.approx(0.8)
        assert relative_l2([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert relative_l2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.sqrt(2.0))

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_l2([0.0, 0.0], [1.0, 0.0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        true = rng.uniform(-1, 1, (6, 3))
        pred = true + rng.normal(0, 0.1, true.shape)
        batch = relative_l2(true, pred)
        for k in range(6):
            assert batch[k] == pytest.approx(relative_l2(true[k], pred[k]))

    def test_batch_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            relative_l2(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            relative_l2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_matches_numpy_norm(self):
        # bit for bit below 8 coordinates, where numpy sums in order too;
        # within rounding at 10, where numpy sums pairwise
        rng = np.random.default_rng(10)
        for dim in (1, 2, 4, 6, 7, 10):
            true = rng.standard_normal((200, dim))
            pred = true + rng.normal(0, 0.1, true.shape)
            got = relative_l2(true, pred)
            ref = np.linalg.norm(pred - true, axis=-1) / np.linalg.norm(true, axis=-1)
            if dim < 8:
                assert np.array_equal(got, ref)
            else:
                assert np.abs(got / ref - 1.0).max() <= 1e-15
