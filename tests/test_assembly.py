from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits
from scipy.linalg import expm

from koopseed.assembly import assemble_global
from koopseed.dictionary import build_dictionary
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


def block_indices(local, offset, glob):
    """Global indices of a local dictionary's monomials, each zero-padded
    into the variable slots that start at ``offset``."""
    pad = glob.var_count - offset - local.var_count
    return [glob.index_of((0,) * offset + m + (0,) * pad) for m in local.entries]


def mixes_subsystems(multi_index, offsets):
    touched = sum(any(multi_index[a:b]) for a, b in zip(offsets, offsets[1:]))
    return touched >= 2


def test_single_subsystem_is_pure_reindexing():
    glob = build_dictionary(2, 3)
    local = local_model(harmonic(1.3), 3)
    seed = assemble_global([local], glob)
    # with one subsystem the embedding is the identity permutation
    assert np.array_equal(seed.matrix, local.matrix)


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 3))
def test_block_consistency_bit_for_bit(seed, dims, degree):
    # random local matrices with K[0, 0] = 1: each extracted block is its
    # local matrix bit for bit, two blocks share only the constant slot and
    # every other entry, interaction rows and columns included, is zero
    rng = np.random.default_rng(seed)
    locals_ = []
    for dim in dims:
        local = build_dictionary(dim, degree)
        matrix = rng.standard_normal((len(local), len(local)))
        matrix[0, 0] = 1.0
        locals_.append(KoopmanModel(local, matrix))
    glob = build_dictionary(sum(dims), degree)
    assembled = assemble_global(locals_, glob).matrix
    offsets = np.cumsum([0] + dims).tolist()
    blocks = [block_indices(lm.dictionary, off, glob) for lm, off in zip(locals_, offsets)]
    covered = np.zeros(assembled.shape, dtype=bool)
    for lm, idx in zip(locals_, blocks):
        assert_same_bits(assembled[np.ix_(idx, idx)], lm.matrix)
        covered[np.ix_(idx, idx)] = True
    assert not assembled[~covered].any()
    for k, m in enumerate(glob.entries):
        if mixes_subsystems(m, offsets):
            assert not assembled[k, :].any()
            assert not assembled[:, k].any()
    for a, b in combinations(blocks, 2):
        assert set(a) & set(b) == {0}


def test_interaction_rows_and_columns_are_zero():
    glob = build_dictionary(4, 3)
    locals_ = [local_model(harmonic(1.0), 3), local_model(harmonic(0.7), 3)]
    seed = assemble_global(locals_, glob)
    for k, m in enumerate(glob.entries):
        if mixes_subsystems(m, (0, 2, 4)):
            assert not seed.matrix[k, :].any()
            assert not seed.matrix[:, k].any()


def test_structural_slot_count():
    # two 10-index embeddings share exactly the constant slot: the union of
    # written positions has 2 * 10^2 - 1 entries
    glob = build_dictionary(4, 3)
    local = build_dictionary(2, 3)
    full = KoopmanModel(local, np.ones((10, 10)))
    seed = assemble_global([full, full], glob)
    assert np.count_nonzero(seed.matrix) == 2 * 10 * 10 - 1


def test_rejects_bad_constant_entry():
    glob = build_dictionary(2, 2)
    local_dict = build_dictionary(2, 2)
    for k00 in (0.5, 0.0):
        bad = np.zeros((6, 6))
        bad[0, 0] = k00
        with pytest.raises(ValueError, match="expected 1"):
            assemble_global([KoopmanModel(local_dict, bad)], glob)


def test_rejects_dimension_mismatches():
    glob = build_dictionary(4, 2)
    lm = local_model(harmonic(1.0), 2)
    with pytest.raises(ValueError, match="^local models cover 2 variables, global dictionary has 4$"):
        assemble_global([lm], glob)  # missing a subsystem
    with pytest.raises(ValueError, match="^local models cover 6 variables, global dictionary has 4$"):
        assemble_global([lm, lm, lm], glob)  # one subsystem too many
    with pytest.raises(ValueError, match="^subsystem 1: local max_degree 3 != global 2$"):
        assemble_global([lm, local_model(harmonic(1.0), 3)], glob)


def test_returns_global_seed_type():
    glob = build_dictionary(2, 2)
    seed = assemble_global([local_model(harmonic(1.0), 2)], glob)
    assert type(seed) is KoopmanModel


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
        self.seed = assemble_global(self.locals, self.glob)

    def test_one_step_matches_exact_flow(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 4)
        psi_next = self.seed.matrix @ self.glob.evaluate(x)
        x_next = np.concatenate([expm(a * DT) @ x[2 * s : 2 * s + 2] for s, a in enumerate(self.A)])
        assert np.allclose(psi_next[1:5], x_next, atol=1e-12)

    def test_extracted_blocks_predict_bit_for_bit(self):
        # entries are embedded without arithmetic, so driving the extracted
        # block gives bit-identical floats to the local model
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
