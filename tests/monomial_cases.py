"""Reference values and ``hypothesis`` strategies for the monomial-kernel
property tests in test_dictionary.py and test_generator.py, and the
reference field and RK4 loop of the trajectory tests in test_dynamics.py."""

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


def field_terms(field):
    """A field's flat term list and coefficient matrix: the exponents (T,
    var_count) of its terms in component order and the (D, T) matrix whose
    row i holds component i's coefficients, so that the field at states x
    is ``power_loop(x, flat) @ coef.T``."""
    flat = [m for terms in field.components for (m, _) in terms]
    coef = np.zeros((field.var_count, len(flat)))
    t = 0
    for coord, terms in enumerate(field.components):
        for _, c in terms:
            coef[coord, t] = c
            t += 1
    return np.array(flat, dtype=np.int64).reshape(len(flat), field.var_count), coef


def reference_rk4(field, x0s, steps, dt):
    """Classical RK4 from (n, D) initial states over ``field`` evaluated as
    ``power_loop(x, flat) @ coef.T``, a (n, T) @ (T, D) product at every
    stage: the (n, steps+1, D) trajectories."""
    flat, coef = field_terms(field)

    def f(x):
        return power_loop(x, flat) @ coef.T

    out = np.empty((x0s.shape[0], steps + 1, x0s.shape[1]))
    out[:, 0] = x = x0s
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        out[:, k + 1] = x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def state_batches(draw, var_count, rows=None):
    """States with negative bases and signed zeros, in one of the shapes
    (D,), (n, D), (a, b, D), or a batch longer than one kernel chunk; with
    ``rows``, in the shape (rows, D)."""
    kind = "fixed" if rows is not None else draw(st.sampled_from(["one", "rows", "grid", "chunks"]))
    if kind == "fixed":
        lead = (rows,)
    elif kind == "one":
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
    """2 to 12 monomials over 1 to 4 variables with top exponent 1, 2 or 3,
    in any order and with repeats and zero rows allowed."""
    var_count = draw(st.integers(1, 4))
    top = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(2, 12))
    entries = st.lists(st.integers(0, top), min_size=var_count, max_size=var_count)
    rows = draw(st.lists(entries, min_size=count, max_size=count))
    rows[draw(st.integers(0, count - 1))][draw(st.integers(0, var_count - 1))] = top
    return np.array(rows, dtype=np.int64)
