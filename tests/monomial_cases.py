"""Reference values and ``hypothesis`` strategies for the monomial-kernel
property tests in test_dictionary.py and test_generator.py."""

import numpy as np
from hypothesis import strategies as st

from koopseed.dictionary import _CHUNK_ROWS


def power_loop(x, exponents):
    """Reference monomial values: the row product of ``x[..., d, None] **
    exponents[:, d]`` over the variables d, one ``pow`` per entry. With a
    single monomial the exponent is broadcast and numpy squares instead of
    calling pow, so callers pass two or more."""
    out = np.ones(x.shape[:-1] + (exponents.shape[0],))
    for d in range(exponents.shape[1]):
        out *= x[..., d, None] ** exponents[:, d]
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def state_batches(draw, var_count):
    """States with negative bases and signed zeros, in one of the shapes
    (D,), (n, D), (a, b, D), or a batch longer than one kernel chunk."""
    kind = draw(st.sampled_from(["one", "rows", "grid", "chunks"]))
    if kind == "one":
        lead = ()
    elif kind == "rows":
        lead = (draw(st.integers(1, 20)),)
    elif kind == "grid":
        lead = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    else:
        lead = (_CHUNK_ROWS + draw(st.integers(1, 50)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-3.0, 3.0, lead + (var_count,))
    x[rng.random(x.shape) < 0.05] = 0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    return x


@st.composite
def exponent_lists(draw):
    """2 to 12 monomials over 1 to 4 variables with top exponent 1, 2 or 3;
    prefixes of the listed monomials are often missing from the list."""
    var_count = draw(st.integers(1, 4))
    top = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(2, 12))
    entries = st.lists(st.integers(0, top), min_size=var_count, max_size=var_count)
    rows = draw(st.lists(entries, min_size=count, max_size=count))
    rows[draw(st.integers(0, count - 1))][draw(st.integers(0, var_count - 1))] = top
    return np.array(rows, dtype=np.int64)
