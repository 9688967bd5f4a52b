import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from monomial_cases import assert_same_bits, exponent_lists, power_loop, state_batches

from koopseed.assembly import assemble_global
from koopseed.dictionary import (
    _CHUNK_ROWS,
    Dictionary,
    MonomialTable,
    build_dictionary,
)
from koopseed.generator import PolynomialVectorField, local_koopman


def test_sizes_match_binomial_counts():
    assert len(build_dictionary(2, 3)) == 10
    assert len(build_dictionary(6, 3)) == 84
    assert len(build_dictionary(4, 3)) == 35
    assert len(build_dictionary(2, 2)) == 6


def test_degree_one_single_variable():
    d = build_dictionary(1, 1)
    assert d.entries == ((0,), (1,))


def test_constant_first_and_graded_order():
    d = build_dictionary(2, 3)
    assert d.entries[0] == (0, 0)
    degrees = [sum(m) for m in d.entries]
    assert degrees == sorted(degrees)
    # within each degree the x1-major monomial comes first
    assert d.entries[1] == (1, 0) and d.entries[2] == (0, 1)
    assert d.entries[3:6] == ((2, 0), (1, 1), (0, 2))


def test_ordering_is_deterministic():
    a = build_dictionary(3, 4)
    b = build_dictionary(3, 4)
    assert a.entries == b.entries


def test_index_round_trip():
    d = build_dictionary(3, 3)
    for i, m in enumerate(d.entries):
        assert d.index_of(m) == i


def test_state_indices_are_variable_order():
    d = build_dictionary(4, 2)
    assert list(d.state_indices()) == [1, 2, 3, 4]


def test_state_indices_cannot_be_written():
    # one array is shared by every caller, so a write would move them all
    d = build_dictionary(2, 3)
    rows = d.state_indices()
    assert rows is d.state_indices()
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 5
    assert list(d.state_indices()) == [1, 2]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_dictionary(0, 3)
    with pytest.raises(ValueError):
        build_dictionary(2, 0)


def test_evaluate_simple_monomials():
    d = build_dictionary(2, 3)
    vals = d.evaluate([2.0, 1.0])
    assert vals[d.index_of((2, 1))] == pytest.approx(4.0)
    assert vals[d.index_of((0, 0))] == 1.0
    assert vals[d.index_of((3, 0))] == pytest.approx(8.0)


def test_evaluate_zero_state():
    d = build_dictionary(3, 2)
    vals = d.evaluate(np.zeros(3))
    expected = np.zeros(len(d))
    expected[0] = 1.0
    assert np.array_equal(vals, expected)


def test_evaluate_powers_of_three():
    d = build_dictionary(1, 2)
    assert np.allclose(d.evaluate([3.0]), [1.0, 3.0, 9.0])


def test_evaluate_batch_matches_single():
    d = build_dictionary(2, 3)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, size=(17, 2))
    batch = d.evaluate(xs)
    for k, x in enumerate(xs):
        assert np.array_equal(batch[k], d.evaluate(x))


def test_evaluate_rejects_bad_input():
    d = build_dictionary(2, 2)
    with pytest.raises(ValueError):
        d.evaluate([1.0])
    with pytest.raises(ValueError):
        d.evaluate([np.nan, 0.0])
    with pytest.raises(ValueError):
        d.evaluate([np.inf, 0.0])
    batch = np.zeros((2, 4, 2))
    batch[1, 2, 0] = -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        d.evaluate(batch)


def test_evaluate_is_multiplicative():
    # value at m+n equals product of values whenever m+n stays in range
    d = build_dictionary(2, 4)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=2)
        vals = d.evaluate(x)
        for m in d.entries:
            for n in d.entries:
                s = (m[0] + n[0], m[1] + n[1])
                if s in d:
                    prod = vals[d.index_of(m)] * vals[d.index_of(n)]
                    assert vals[d.index_of(s)] == pytest.approx(prod, rel=1e-12, abs=1e-12)


@given(st.data())
def test_monomial_table_matches_power_loop_bit_for_bit(data):
    exponents = data.draw(exponent_lists())
    x = data.draw(state_batches(exponents.shape[1]))
    assert_same_bits(MonomialTable(exponents)(x), power_loop(x, exponents))


@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_evaluate_matches_power_loop_bit_for_bit(data, var_count, max_degree):
    d = build_dictionary(var_count, max_degree)
    x = data.draw(state_batches(var_count))
    assert_same_bits(d.evaluate(x), power_loop(x, d.exponents))


@pytest.mark.parametrize("rows", [1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
def test_evaluate_matches_power_loop_across_the_chunk_boundary(rows):
    # the presets' dictionary (6 variables, degree 3), from one state to
    # batches that end just before, on and just after a chunk boundary
    d = build_dictionary(6, 3)
    x = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 6))
    assert_same_bits(d.evaluate(x), power_loop(x, d.exponents))


@pytest.mark.parametrize("shape", [(_CHUNK_ROWS + 1,), (2 * _CHUNK_ROWS + 1,), (3, 300)])
def test_multi_pass_evaluate_is_a_monomial_major_view(shape):
    # past one kernel pass the passes write one (count, n) array, so the
    # flattened Psi's transpose is that array, C-contiguous and not a copy
    d = build_dictionary(6, 3)
    x = np.random.default_rng(len(shape)).uniform(-3.0, 3.0, shape + (6,))
    psi = d.evaluate(x)
    assert_same_bits(psi, power_loop(x, d.exponents))
    flat_t = psi.reshape(-1, len(d)).T
    assert flat_t.flags.c_contiguous
    assert np.shares_memory(flat_t, psi)


@pytest.mark.parametrize("shape", [(), (1,), (_CHUNK_ROWS,), (2, _CHUNK_ROWS // 2)])
def test_single_pass_evaluate_is_c_contiguous(shape):
    d = build_dictionary(6, 3)
    x = np.random.default_rng(5).uniform(-3.0, 3.0, shape + (6,))
    psi = d.evaluate(x)
    assert psi.flags.c_contiguous
    assert_same_bits(psi, power_loop(x, d.exponents))


def test_evaluate_bits_do_not_depend_on_the_ufunc_buffer_size():
    # numpy squares instead of calling pow when an exponent is broadcast
    # along a row longer than half its buffer, so a small buffer would
    # expose an exponent column that is not stored in full. Besides the
    # presets' dictionary, two lists whose table has a single power row, at
    # single states, (1, D) batches and one row past a chunk
    d = build_dictionary(6, 3)
    rng = np.random.default_rng(7)
    cases = [(d.evaluate, d.exponents, rng.uniform(-3.0, 3.0, (_CHUNK_ROWS, 6)))]
    for exponents in ([[2, 0], [0, 1]], [[0, 3], [1, 1]]):
        table, exponents = MonomialTable(exponents), np.array(exponents)
        singles = rng.uniform(-3.0, 3.0, (64, 2))
        for x in [*singles, *singles[:, None], rng.uniform(-3.0, 3.0, (_CHUNK_ROWS + 1, 2))]:
            cases.append((table, exponents, x))
    for evaluate, exponents, x in cases:
        expect = power_loop(x, exponents)
        old = np.setbufsize(32)
        try:
            got = evaluate(x)
        finally:
            np.setbufsize(old)
        assert_same_bits(got, expect)


def test_constant_only_list_gives_ones():
    table = MonomialTable([[0, 0]])
    x = np.random.default_rng(3).uniform(-3.0, 3.0, (_CHUNK_ROWS + 1, 2))
    assert_same_bits(table(x), np.ones((_CHUNK_ROWS + 1, 1)))
    assert_same_bits(table(x[0]), np.ones(1))


def test_sizes_must_be_integers_not_truncated():
    # a subsystem's size is its field's var_count
    assert PolynomialVectorField(2.0, [[], []]).var_count == 2
    with pytest.raises(ValueError, match=r"^var_count 1\.5 is not an integer$"):
        PolynomialVectorField(1.5, [[]])
    with pytest.raises(ValueError, match=r"^var_count 2\.5 is not an integer$"):
        Dictionary(2.5, 3)
    with pytest.raises(ValueError, match="^max_degree True is not an integer$"):
        Dictionary(2, True)


def decaying_field(dim, sign):
    """dx_i/dt = sign * r_i x_i with rates r_i = 1, sqrt(2), sqrt(3): a
    monomial's Koopman diagonal entry is exp(sign * dt * sum_i n_i r_i),
    one value per multi-index."""
    return PolynomialVectorField(
        dim, [[(tuple(int(j == i) for j in range(dim)), sign * np.sqrt(i + 1))] for i in range(dim)]
    )


def embedded_indices(local, dims, subsystem, glob):
    """Global index of each of ``local``'s monomials for one subsystem, read
    back from ``assemble_global``: that subsystem's field decays and every
    other one grows, so only the constant shares its diagonal entry 1. The
    generator is diagonal, so the diagonal entries are the local model's
    bit for bit."""
    fields = [decaying_field(d, -1.0 if s == subsystem else 1.0) for s, d in enumerate(dims)]
    diagonal = np.diag(assemble_global(fields, glob, 0.1).matrix)
    marked = np.diag(local_koopman(fields[subsystem], local, 0.1).matrix)
    mapping = []
    for value in marked:
        (where,) = np.flatnonzero(diagonal == value)  # exactly one slot per monomial
        mapping.append(int(where))
    return mapping


def test_embed_zero_pads_into_subsystem_slots():
    glob = build_dictionary(4, 3)
    local = build_dictionary(2, 3)
    m0 = embedded_indices(local, (2, 2), 0, glob)
    m1 = embedded_indices(local, (2, 2), 1, glob)
    assert m0[local.index_of((2, 0))] == glob.index_of((2, 0, 0, 0))
    assert m1[local.index_of((2, 0))] == glob.index_of((0, 0, 2, 0))
    # constants collapse onto the global constant
    assert m0[0] == 0 and m1[0] == 0


def test_embed_images_overlap_only_at_constant():
    # derived by enumerating both embeddings and intersecting
    glob = build_dictionary(4, 3)
    local = build_dictionary(2, 3)
    assert len(glob) == 35
    img0 = set(embedded_indices(local, (2, 2), 0, glob))
    img1 = set(embedded_indices(local, (2, 2), 1, glob))
    assert len(img0) == 10 and len(img1) == 10
    assert img0 & img1 == {0}


def test_embed_is_injective():
    glob = build_dictionary(6, 3)
    local = build_dictionary(2, 3)
    for s in range(3):
        mapping = embedded_indices(local, (2, 2, 2), s, glob)
        assert len(set(mapping)) == len(mapping)
