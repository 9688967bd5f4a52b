import numpy as np
import pytest
from scipy.linalg import expm

from koopseed.assembly import assemble_global
from koopseed.dictionary import VariableLayout, build_dictionary, embed_indices
from koopseed.generator import PolynomialVectorField, build_generator, local_koopman
from koopseed.model import KoopmanModel

DT = 0.02


def harmonic(omega):
    return PolynomialVectorField(
        2, [[((0, 1), 1.0)], [((1, 0), -omega * omega)]]
    )


def local_model(field, degree):
    d = build_dictionary(field.var_count, degree)
    return local_koopman(build_generator(field, d), DT)


def mixes_subsystems(multi_index, layout):
    touched = 0
    for s in range(layout.subsystem_count):
        if any(multi_index[v] for v in layout.variables_of(s)):
            touched += 1
    return touched >= 2


def test_single_subsystem_is_pure_reindexing():
    layout = VariableLayout((2,))
    glob = build_dictionary(2, 3)
    local = local_model(harmonic(1.3), 3)
    seed = assemble_global([local], layout, glob)
    # with one subsystem the embedding is the identity permutation
    assert np.array_equal(seed.matrix, local.matrix)


def test_block_consistency_bit_for_bit():
    layout = VariableLayout((2, 2))
    glob = build_dictionary(4, 3)
    locals_ = [local_model(harmonic(1.0), 3), local_model(harmonic(0.7), 3)]
    seed = assemble_global(locals_, layout, glob)
    for s, lm in enumerate(locals_):
        mapping = embed_indices(lm.dictionary, layout, s, glob)
        block = seed.matrix[np.ix_(mapping, mapping)]
        assert np.array_equal(block, lm.matrix)


def test_interaction_rows_and_columns_are_zero():
    layout = VariableLayout((2, 2))
    glob = build_dictionary(4, 3)
    locals_ = [local_model(harmonic(1.0), 3), local_model(harmonic(0.7), 3)]
    seed = assemble_global(locals_, layout, glob)
    for k, m in enumerate(glob.entries):
        if mixes_subsystems(m, layout):
            assert not seed.matrix[k, :].any()
            assert not seed.matrix[:, k].any()


def test_structural_slot_count():
    # two 10-index embeddings share exactly the constant slot: the union of
    # writable positions has 2 * 10^2 - 1 entries
    layout = VariableLayout((2, 2))
    glob = build_dictionary(4, 3)
    local = build_dictionary(2, 3)
    slots = set()
    for s in range(2):
        mapping = embed_indices(local, layout, s, glob)
        for a in mapping:
            for b in mapping:
                slots.add((int(a), int(b)))
    assert len(slots) == 2 * 10 * 10 - 1


def test_all_zero_locals_leave_only_constant():
    layout = VariableLayout((2, 2))
    glob = build_dictionary(4, 2)
    local_dict = build_dictionary(2, 2)
    zeros = [KoopmanModel(local_dict, np.zeros((6, 6))) for _ in range(2)]
    seed = assemble_global(zeros, layout, glob)
    expect = np.zeros((15, 15))
    expect[0, 0] = 1.0
    assert np.array_equal(seed.matrix, expect)


def test_rejects_bad_constant_entry():
    layout = VariableLayout((2,))
    glob = build_dictionary(2, 2)
    local_dict = build_dictionary(2, 2)
    bad = np.zeros((6, 6))
    bad[0, 0] = 0.5
    with pytest.raises(ValueError):
        assemble_global([KoopmanModel(local_dict, bad)], layout, glob)


def test_rejects_dimension_mismatches():
    layout = VariableLayout((2, 2))
    glob = build_dictionary(4, 2)
    lm = local_model(harmonic(1.0), 2)
    with pytest.raises(ValueError):
        assemble_global([lm], layout, glob)  # missing a subsystem
    with pytest.raises(ValueError):
        assemble_global([lm, local_model(harmonic(1.0), 3)], layout, glob)  # degree


def test_returns_global_seed_type():
    layout = VariableLayout((2,))
    glob = build_dictionary(2, 2)
    seed = assemble_global([local_model(harmonic(1.0), 2)], layout, glob)
    assert type(seed) is KoopmanModel


class TestUncoupledExactness:
    """With all couplings zero the seed must predict exactly like the locals."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.A = [rng.uniform(-1, 1, (2, 2)) for _ in range(2)]
        self.layout = VariableLayout((2, 2))
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
        self.seed = assemble_global(self.locals, self.layout, self.glob)

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
            mapping = embed_indices(lm.dictionary, self.layout, s, self.glob)
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
                mapping = embed_indices(lm.dictionary, self.layout, s, self.glob)
                local_next = lm.matrix @ lm.dictionary.evaluate(x[2 * s : 2 * s + 2])
                assert np.allclose(psi_next[mapping], local_next, rtol=5e-16, atol=5e-16)
