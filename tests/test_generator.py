import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits, power_loop, state_batches

from koopseed.dictionary import build_dictionary
from koopseed.dynamics import rk4_step
from koopseed.generator import (
    _THETA13,
    PolynomialVectorField,
    build_generator,
    expm,
    local_koopman,
)


def linear_field(A):
    """Right-hand side of xdot = A x as a polynomial field."""
    D = A.shape[0]
    comps = []
    for i in range(D):
        terms = []
        for j in range(D):
            e = tuple(1 if k == j else 0 for k in range(D))
            terms.append((e, A[i, j]))
        comps.append(terms)
    return PolynomialVectorField(D, comps)


def duffing_rhs(delta, alpha, beta):
    return PolynomialVectorField(
        2,
        [
            [((0, 1), 1.0)],
            [((0, 1), -delta), ((1, 0), -alpha), ((3, 0), -beta)],
        ],
    )


# hand-coded coefficient recurrence for the Duffing observable evolution:
# dc(n1,n2)/dt = (n1+1) c(n1+1, n2-1) - delta*n2 c(n1,n2)
#              - alpha*(n2+1) c(n1-1, n2+1) - beta*(n2+1) c(n1-3, n2+1)
def duffing_recurrence_matrix(dictionary, delta, alpha, beta):
    n = len(dictionary)
    R = np.zeros((n, n))
    for row, (n1, n2) in enumerate(dictionary.entries):
        if (n1 + 1, n2 - 1) in dictionary:
            R[row, dictionary.index_of((n1 + 1, n2 - 1))] += n1 + 1
        R[row, dictionary.index_of((n1, n2))] += -delta * n2
        if (n1 - 1, n2 + 1) in dictionary:
            R[row, dictionary.index_of((n1 - 1, n2 + 1))] += -alpha * (n2 + 1)
        if (n1 - 3, n2 + 1) in dictionary:
            R[row, dictionary.index_of((n1 - 3, n2 + 1))] += -beta * (n2 + 1)
    return R


@st.composite
def polynomial_fields(draw):
    """Fields over 1 to 4 variables with 1 to 3 output coordinates, terms of
    top exponent 1, 2 or 3 and nonzero coefficients of either sign."""
    var_count = draw(st.integers(1, 4))
    top = draw(st.sampled_from([1, 2, 3]))
    exponents = st.tuples(*[st.integers(0, top)] * var_count)
    coefficients = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda c: c != 0.0)
    terms = st.lists(st.tuples(exponents, coefficients), max_size=5)
    components = draw(st.lists(terms, min_size=1, max_size=3))
    return PolynomialVectorField(var_count, components)


class TestPolynomialVectorField:
    def test_merges_duplicate_terms(self):
        f = PolynomialVectorField(1, [[((1,), 2.0), ((1,), 3.0)]])
        assert f.components[0] == (((1,), 5.0),)

    def test_drops_zero_coefficients(self):
        f = PolynomialVectorField(1, [[((1,), 2.0), ((1,), -2.0)]])
        assert f.components[0] == ()

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            PolynomialVectorField(2, [[((1,), 1.0)], []])
        with pytest.raises(ValueError):
            PolynomialVectorField(1, [[((-1,), 1.0)]])
        with pytest.raises(ValueError):
            PolynomialVectorField(1, [[((1,), np.inf)]])

    def test_evaluate_duffing(self):
        f = duffing_rhs(0.2, -1.0, 0.5)
        x = np.array([2.0, 3.0])
        expect = np.array([3.0, -0.2 * 3.0 + 1.0 * 2.0 - 0.5 * 8.0])
        assert np.allclose(f.evaluate(x), expect)

    def test_evaluate_batch(self):
        f = duffing_rhs(0.2, -1.0, 0.5)
        xs = np.random.default_rng(0).uniform(-1, 1, (8, 2))
        batch = f.evaluate(xs)
        for k in range(8):
            # batched matmul may associate sums differently; ulp-level only
            assert np.allclose(batch[k], f.evaluate(xs[k]), rtol=1e-13, atol=1e-15)

    def test_zero_field(self):
        f = PolynomialVectorField(2, [[], []])
        assert np.array_equal(f.evaluate([1.0, 2.0]), np.zeros(2))

    @given(st.data())
    def test_evaluate_matches_power_loop_bit_for_bit(self, data):
        f = data.draw(polynomial_fields())
        flat = [m for terms in f.components for (m, _) in terms]
        assume(len(flat) >= 2)
        coef = np.zeros((f.component_count, len(flat)))
        t = 0
        for coord, terms in enumerate(f.components):
            for _, c in terms:
                coef[coord, t] = c
                t += 1
        x = data.draw(state_batches(f.var_count))
        expect = power_loop(x, np.array(flat, dtype=np.int64)) @ coef.T
        assert_same_bits(f.evaluate(x), expect)

    def test_overflow_gives_non_finite_values(self):
        f = duffing_rhs(0.2, -1.0, 0.5)
        x = np.array([[1e120, 0.0], [0.5, -0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            out = f.evaluate(x)
        assert not np.isfinite(out[0]).all()
        assert np.isfinite(out[1]).all()


@st.composite
def scaled_matrices(draw):
    """Square matrices of order 1 to 6 scaled to a 1-norm between 1e-8 and 1e2."""
    n = draw(st.integers(1, 6))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    norm = np.linalg.norm(A, 1)
    assume(norm > 0)
    return A * (10.0 ** draw(st.floats(-8.0, 2.0)) / norm)


def mpmath_expm(A):
    """exp(A) evaluated with 50 significant digits, rounded to float."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


def relative_error(X, oracle):
    return np.linalg.norm(X - oracle) / np.linalg.norm(oracle)


class TestExpm:
    @given(scaled_matrices())
    def test_matches_scipy(self, A):
        # scipy's own error reaches 1e-11 at 1-norms of 8 to 100 (measured
        # against mpmath_expm); where it is off, the 50-digit value decides
        X = expm(A)
        assert (
            relative_error(X, scipy.linalg.expm(A)) <= 1e-12
            or relative_error(X, mpmath_expm(A)) <= 1e-12
        )

    def test_matches_50_digit_oracle_with_squaring(self):
        A = np.array([
            [-1.5, 6.0, 0.0, 2.0],
            [0.0, -2.0, 5.0, 0.0],
            [0.25, 0.0, -1.0, 4.0],
            [0.0, -0.5, 0.0, -3.0],
        ])
        assert not np.allclose(A @ A.T, A.T @ A)  # non-normal
        assert np.linalg.norm(A, 1) > _THETA13  # so the result is squared
        assert relative_error(expm(A), mpmath_expm(A)) <= 1e-14

    def test_sampling_interval_error_far_below_unit_roundoff(self):
        G = build_generator(duffing_rhs(0.23, -0.99, 0.8), build_dictionary(2, 3)).matrix * 0.01
        assert relative_error(expm(G), mpmath_expm(G)) <= 1e-17

    def test_zero_gives_identity_exactly(self):
        assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))

    def test_inverse_is_exp_of_negation(self):
        A = np.random.default_rng(11).uniform(-2, 2, (6, 6))
        assert np.allclose(expm(A) @ expm(-A), np.eye(6), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            expm(A)


class TestBuildGenerator:
    def test_1d_scaling_is_diagonal(self):
        lam = 0.7
        d = build_dictionary(1, 3)
        f = PolynomialVectorField(1, [[((1,), lam)]])
        G = build_generator(f, d).matrix
        assert np.array_equal(G, np.diag([0.0, lam, 2 * lam, 3 * lam]))

    def test_harmonic_degree_one(self):
        # L = x2 d/dx1 - x1 d/dx2 on [1, x1, x2]
        d = build_dictionary(2, 1)
        f = PolynomialVectorField(2, [[((0, 1), 1.0)], [((1, 0), -1.0)]])
        G = build_generator(f, d).matrix
        expect = np.zeros((3, 3))
        expect[1, 2] = -1.0  # coefficient of x1 fed by the x2 slot
        expect[2, 1] = 1.0
        assert np.array_equal(G, expect)

    def test_constant_column_is_zero(self):
        d = build_dictionary(2, 3)
        G = build_generator(duffing_rhs(0.23, -0.99, 0.8), d).matrix
        assert not G[:, 0].any()

    def test_duffing_matches_hand_coded_recurrence(self):
        # exact equality entry by entry, all 10 indices
        delta, alpha, beta = 0.23, -0.99, 0.8
        d = build_dictionary(2, 3)
        G = build_generator(duffing_rhs(delta, alpha, beta), d).matrix
        R = duffing_recurrence_matrix(d, delta, alpha, beta)
        assert np.array_equal(G, R)

    def test_duffing_selected_entries(self):
        delta, alpha, beta = 0.15, -0.59, 0.86
        d = build_dictionary(2, 3)
        G = build_generator(duffing_rhs(delta, alpha, beta), d).matrix
        # target (m1, m2) from source (m1+1, m2-1) carries m1+1
        assert G[d.index_of((1, 1)), d.index_of((2, 0))] == 2.0
        # diagonal damping -delta * n2
        assert G[d.index_of((0, 2)), d.index_of((0, 2))] == -delta * 2
        # -alpha*(m2+1) from source (m1-1, m2+1)
        assert G[d.index_of((1, 0)), d.index_of((0, 1))] == -alpha
        # -beta*(m2+1) from source (m1-3, m2+1)
        assert G[d.index_of((3, 0)), d.index_of((0, 1))] == -beta

    def test_truncation_drops_out_of_range_targets(self):
        # pure cubic forcing pushes source (1,1) to target (4,0), which lies
        # outside degree 3 and must be dropped, leaving the column empty
        d = build_dictionary(2, 3)
        cubic_only = PolynomialVectorField(2, [[], [((3, 0), -1.0)]])
        G = build_generator(cubic_only, d).matrix
        col = G[:, d.index_of((1, 1))]
        assert not col.any()
        # the same source feeds an in-range target at lower degree bound
        assert G[d.index_of((3, 0)), d.index_of((0, 1))] == -1.0

    def test_rejects_mismatched_field(self):
        d = build_dictionary(2, 2)
        with pytest.raises(ValueError):
            build_generator(PolynomialVectorField(3, [[], [], []]), d)
        with pytest.raises(ValueError):
            build_generator(PolynomialVectorField(2, [[]]), d)


class TestLocalKoopman:
    def test_1d_scaling_exponentiates(self):
        lam, dt = -0.4, 0.13
        d = build_dictionary(1, 3)
        f = PolynomialVectorField(1, [[((1,), lam)]])
        K = local_koopman(build_generator(f, d), dt).matrix
        expect = np.diag([1.0, np.exp(lam * dt), np.exp(2 * lam * dt), np.exp(3 * lam * dt)])
        assert np.allclose(K, expect, atol=1e-14)

    def test_harmonic_rotation_block(self):
        dt = 0.01
        d = build_dictionary(2, 1)
        f = PolynomialVectorField(2, [[((0, 1), 1.0)], [((1, 0), -1.0)]])
        K = local_koopman(build_generator(f, d), dt).matrix
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(K[1:, 1:], scipy.linalg.expm(A * dt), atol=1e-14)
        assert K[1, 1] == pytest.approx(np.cos(dt))
        assert K[1, 2] == pytest.approx(np.sin(dt))

    def test_dt_zero_gives_identity(self):
        d = build_dictionary(2, 2)
        K = local_koopman(build_generator(duffing_rhs(0.2, -1.0, 0.5), d), 0.0).matrix
        assert np.array_equal(K, np.eye(len(d)))

    def test_rejects_bad_dt(self):
        d = build_dictionary(1, 1)
        gen = build_generator(PolynomialVectorField(1, [[((1,), 1.0)]]), d)
        with pytest.raises(ValueError):
            local_koopman(gen, np.nan)
        with pytest.raises(ValueError):
            local_koopman(gen, -0.1)

    def test_constant_invariance_exact(self):
        d = build_dictionary(2, 3)
        K = local_koopman(build_generator(duffing_rhs(0.23, -0.99, 0.8), d), 0.01).matrix
        unit = np.zeros(len(d))
        unit[0] = 1.0
        assert np.array_equal(K[:, 0], unit)
        assert np.array_equal(K[0, :], unit)

    def test_linear_exactness_property(self):
        # Psi(x(t+dt)) = K Psi(x(t)) holds exactly for linear flows
        rng = np.random.default_rng(42)
        for _ in range(10):
            D = rng.integers(1, 5)
            A = rng.uniform(-1, 1, (D, D))
            dt = 0.05
            d = build_dictionary(D, 1)
            K = local_koopman(build_generator(linear_field(A), d), dt).matrix
            flow = scipy.linalg.expm(A * dt)
            rel = np.linalg.norm(K[1:, 1:] - flow) / np.linalg.norm(flow)
            assert rel <= 1e-10
            for _ in range(5):
                x = rng.uniform(-2, 2, D)
                psi_next = d.evaluate(flow @ x)
                assert np.allclose(K @ d.evaluate(x), psi_next, atol=1e-12)

    def test_linear_degree_one_block_inside_bigger_dictionary(self):
        # linear dynamics keep each degree block closed, so the degree-1
        # block is still the exact flow inside a degree-2 dictionary
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (2, 2))
        dt = 0.05
        d = build_dictionary(2, 2)
        K = local_koopman(build_generator(linear_field(A), d), dt).matrix
        assert np.allclose(K[1:3, 1:3], scipy.linalg.expm(A * dt), atol=1e-12)

    def test_semigroup_for_linear_field(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, (3, 3))
        d = build_dictionary(3, 1)
        gen = build_generator(linear_field(A), d)
        K1 = local_koopman(gen, 0.03).matrix
        K2 = local_koopman(gen, 0.05).matrix
        K12 = local_koopman(gen, 0.08).matrix
        rel = np.linalg.norm(K12 - K1 @ K2) / np.linalg.norm(K12)
        assert rel <= 1e-10

    def test_rk4_route_agrees_with_expm(self):
        d = build_dictionary(2, 3)
        gen = build_generator(duffing_rhs(0.23, -0.99, 0.8), d)
        K_expm = local_koopman(gen, 0.01).matrix
        # independent route: integrate C' = G C, C(0) = I, with 200 RK4 substeps
        C = np.eye(len(d))
        for _ in range(200):
            C = rk4_step(gen.matrix.__matmul__, C, 0.01 / 200)
        rel = np.linalg.norm(K_expm - C.T) / np.linalg.norm(K_expm)
        assert rel <= 1e-8
