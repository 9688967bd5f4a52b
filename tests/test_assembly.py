import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits
from scipy.linalg import expm

from koopseed.assembly import assemble_global
from koopseed.dictionary import build_dictionary
from koopseed.experiments import derive_seed_model, load_config, override_config
from koopseed.generator import PolynomialVectorField, local_koopman
from koopseed.model import KoopmanModel

DT = 0.02


def harmonic(omega):
    return PolynomialVectorField(
        2, [[((0, 1), 1.0)], [((1, 0), -omega * omega)]]
    )


def local_model(field, degree):
    d = build_dictionary(field.var_count, degree)
    return local_koopman(field, d, DT)


def offsets_of(fields):
    return np.cumsum([0] + [f.var_count for f in fields]).tolist()


def block_indices(local, offset, glob):
    """Global indices of a local dictionary's monomials, each zero-padded
    into the variable slots that start at ``offset``."""
    pad = glob.var_count - offset - local.var_count
    return [glob.index_of((0,) * offset + m + (0,) * pad) for m in local.entries]


def interaction_mask(glob, offsets):
    """True at the global monomials that mix variables of two or more
    subsystems."""
    touched = [any(m[a:b]) for m in glob.entries for a, b in zip(offsets, offsets[1:])]
    return np.array(touched).reshape(len(glob), -1).sum(axis=1) >= 2


def embedded_locals(fields, glob, dt):
    """The seed written out per subsystem: each field's local_koopman on its
    own dictionary, placed at its zero-padded global indices; every entry
    outside the blocks is zero."""
    matrix = np.zeros((len(glob), len(glob)))
    for field, offset in zip(fields, offsets_of(fields)):
        local = local_koopman(field, build_dictionary(field.var_count, glob.max_degree), dt)
        idx = block_indices(local.dictionary, offset, glob)
        matrix[np.ix_(idx, idx)] = local.matrix
    return matrix


@st.composite
def subsystem_fields(draw):
    """1 to 3 subsystems of 1 to 3 variables each, every component a sum of
    up to 3 terms of degree 0 to 3 with coefficients in (-1, 1), and a
    dictionary degree of 1 to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for dim in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        components = []
        for _ in range(dim):
            terms = []
            for _ in range(rng.integers(0, 4)):
                exponents = np.zeros(dim, dtype=int)
                for _ in range(rng.integers(0, 4)):
                    exponents[rng.integers(dim)] += 1
                terms.append((tuple(exponents.tolist()), rng.uniform(-1.0, 1.0)))
            components.append(terms)
        fields.append(PolynomialVectorField(dim, components))
    return fields, draw(st.integers(1, 3))


@given(subsystem_fields())
def test_blocks_match_the_local_models(case):
    # one derivation on the global dictionary: interaction rows and columns
    # exactly zero, and each subsystem block its own local_koopman up to
    # roundoff. Not bit for bit in general: the global exponential scales,
    # multiplies and solves with interleaved blocks, so sums group
    # differently (the presets at degree 1, and duffing at degree 2, are
    # bitwise; see test_matches_the_per_subsystem_embedding)
    fields, degree = case
    glob = build_dictionary(sum(f.var_count for f in fields), degree)
    seed = assemble_global(fields, glob, DT).matrix
    mask = interaction_mask(glob, offsets_of(fields))
    assert not seed[mask, :].any()
    assert not seed[:, mask].any()
    expected = embedded_locals(fields, glob, DT)
    for field, offset in zip(fields, offsets_of(fields)):
        local = build_dictionary(field.var_count, degree)
        idx = block_indices(local, offset, glob)
        block = expected[np.ix_(idx, idx)]
        assert np.abs(seed[np.ix_(idx, idx)] - block).max() <= 1e-15 * np.abs(block).max()
    # the constant row is exactly e_0, and so is the constant column when
    # no subsystem has a constant term
    unit = np.eye(len(glob))[0]
    assert_same_bits(seed[0], unit)
    if not any(not any(m) for f in fields for terms in f.components for m, _ in terms):
        assert_same_bits(seed[:, 0], unit)


@pytest.mark.parametrize("preset, degree", [("duffing", 1), ("vdp", 1), ("duffing", 2)])
def test_matches_the_per_subsystem_embedding(preset, degree):
    config = override_config(load_config(preset), degree=degree)
    seed = derive_seed_model(config).matrix
    expected = embedded_locals(config.system.subsystems, config.dictionary(), config.dt)
    assert_same_bits(seed, expected)


def test_single_subsystem_is_pure_reindexing():
    # with one subsystem there is no interaction monomial to zero
    glob = build_dictionary(2, 3)
    local = local_model(harmonic(1.3), 3)
    seed = assemble_global([harmonic(1.3)], glob, DT)
    assert np.array_equal(seed.matrix, local.matrix)


def test_interaction_rows_and_columns_are_zero():
    glob = build_dictionary(4, 3)
    seed = assemble_global([harmonic(1.0), harmonic(0.7)], glob, DT)
    mask = interaction_mask(glob, (0, 2, 4))
    assert mask.sum() == 35 - 1 - 2 * 9  # all but the constant and each block's own 9
    assert not seed.matrix[mask, :].any()
    assert not seed.matrix[:, mask].any()


def test_returns_global_seed_type():
    glob = build_dictionary(2, 2)
    seed = assemble_global([harmonic(1.0)], glob, DT)
    assert type(seed) is KoopmanModel
    assert seed.dictionary == glob


class TestUncoupledExactness:
    """With all couplings zero the seed must predict exactly like the locals."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.A = [rng.uniform(-1, 1, (2, 2)) for _ in range(2)]
        fields = [
            PolynomialVectorField(
                2,
                [
                    [((1, 0), a[0, 0]), ((0, 1), a[0, 1])],
                    [((1, 0), a[1, 0]), ((0, 1), a[1, 1])],
                ],
            )
            for a in self.A
        ]
        self.locals = [local_model(f, 1) for f in fields]
        self.glob = build_dictionary(4, 1)
        self.seed = assemble_global(fields, self.glob, DT)

    def test_one_step_matches_exact_flow(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 4)
        psi_next = self.seed.matrix @ self.glob.evaluate(x)
        x_next = np.concatenate([expm(a * DT) @ x[2 * s : 2 * s + 2] for s, a in enumerate(self.A)])
        assert np.allclose(psi_next[1:5], x_next, atol=1e-12)

    def test_extracted_blocks_predict_bit_for_bit(self):
        # at degree 1 the global generator is the local ones side by side,
        # and the extracted blocks are the local matrices bit for bit, so
        # driving a block gives the local model's floats
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 4)
        for s, lm in enumerate(self.locals):
            mapping = block_indices(lm.dictionary, 2 * s, self.glob)
            block = self.seed.matrix[np.ix_(mapping, mapping)]
            local_psi = lm.dictionary.evaluate(x[2 * s : 2 * s + 2])
            assert np.array_equal(block @ local_psi, lm.matrix @ local_psi)

    def test_dense_global_matvec_matches_to_roundoff(self):
        # the dense matvec sums the same nonzeros interleaved with exact
        # zeros; BLAS may group partial sums differently, so compare at a
        # one-ulp tolerance rather than bitwise
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1, 1, 4)
            psi_next = self.seed.matrix @ self.glob.evaluate(x)
            for s, lm in enumerate(self.locals):
                mapping = block_indices(lm.dictionary, 2 * s, self.glob)
                local_next = lm.matrix @ lm.dictionary.evaluate(x[2 * s : 2 * s + 2])
                assert np.allclose(psi_next[mapping], local_next, rtol=5e-16, atol=5e-16)
