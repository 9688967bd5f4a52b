"""Monomial dictionaries over multi-indices.

A multi-index is a plain tuple of non-negative integer exponents, one per
state variable; the monomial it names is ``x_1**e_1 * ... * x_D**e_D``.
A Dictionary is the ordered set of all multi-indices up to a total-degree
bound, which is the observable basis every other module works in.
"""

import numbers
from itertools import combinations_with_replacement
from math import comb

import numpy as np

# States per MonomialTable kernel pass. It bounds the table and the
# temporaries independently of the batch size; larger passes were no faster
# on the preset test tensors and raised peak memory on small batches.
_CHUNK_ROWS = 512


def as_int(value, what: str) -> int:
    """``value`` as an int; a float counts only when it is integral (3.0 is
    3, 2.5 is rejected rather than truncated), and a bool or a string does
    not count. ``what`` names it in the error."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer")


def as_float(value, what: str) -> float:
    """``value`` as a float; it must be a real number, not a string or a
    bool. ``what`` names it in the error."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} {value!r} is not a number")


def as_list(value, what: str) -> list:
    """``value`` as a list; it must be a list, a tuple or an array, not a
    scalar, a string or a mapping. ``what`` names it in the error."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return list(value)
    raise ValueError(f"{what} {value!r} is not a list")


class MonomialTable:
    """Evaluates a fixed list of monomials, built once per exponent list.

    A pass fills a factor table for at most _CHUNK_ROWS states: a row of
    ones, the variables, then the powers ``x_v**e`` with e >= 2. Each
    monomial is the left-to-right product of its nonzero factors in
    variable order, padded at the end with the ones row; slot k holds every
    monomial's k-th factor row, and the pass folds the slots with one
    gather-multiply each. That is the product ``prod_d x[..., d, None] **
    exponents[:, d]`` forms, bit for bit: a factor with e = 0 is 1 and one
    with e = 1 is x itself, and multiplying by 1, the padding included, is
    exact.

    The powers are one ``power`` call over arrays because that call defines
    the bits: its SIMD pow can differ in the last bit from ``x * x``, from
    ``math.pow`` and between ``-a`` and ``a``. It gets one exponent per cell,
    column-major so that a single state's block is contiguous: an exponent
    broadcast along the states lets numpy square instead of calling pow once
    a row passes half its buffer (np.getbufsize()).
    """

    def __init__(self, exponents):
        exponents = np.asarray(exponents, dtype=np.int64)
        self.var_count = exponents.shape[1]
        powers = sorted({(v, int(e)) for m in exponents for v, e in enumerate(m) if e >= 2})
        row = {(v, 1): 1 + v for v in range(self.var_count)}
        row.update({f: 1 + self.var_count + i for i, f in enumerate(powers)})
        factors = [[row[(v, int(e))] for v, e in enumerate(m) if e] for m in exponents]
        slots = np.zeros((max([1] + [len(f) for f in factors]), len(factors)), dtype=np.intp)
        for i, f in enumerate(factors):
            slots[: len(f), i] = f
        self._slots = tuple(slots)
        self._sources = np.array([1 + v for v, _ in powers], dtype=np.intp)
        degrees = np.array([e for _, e in powers], dtype=float)
        self._exponents = np.repeat(degrees[None, :], _CHUNK_ROWS, axis=0).T

    def _fold(self, x) -> np.ndarray:
        # the (count, n) monomials at states x of shape (n, var_count), n <= _CHUNK_ROWS
        table = np.empty((1 + self.var_count + len(self._sources), x.shape[0]))
        table[0] = 1.0
        table[1 : 1 + self.var_count] = x.T
        exponents = self._exponents[:, : x.shape[0]]
        np.power(table.take(self._sources, axis=0), exponents, out=table[1 + self.var_count :])
        out = table.take(self._slots[0], axis=0)
        for slot in self._slots[1:]:
            out *= table.take(slot, axis=0)
        return out

    def __call__(self, x) -> np.ndarray:
        """Monomial values at states x of shape (..., var_count): a
        C-contiguous (..., count)."""
        flat = x if x.ndim == 2 else x.reshape(-1, self.var_count)
        if flat.shape[0] <= _CHUNK_ROWS:
            out = np.ascontiguousarray(self._fold(flat).T)
        else:
            out = np.empty((flat.shape[0], len(self._slots[0])))
            for start in range(0, flat.shape[0], _CHUNK_ROWS):
                out[start : start + _CHUNK_ROWS] = self._fold(flat[start : start + _CHUNK_ROWS]).T
        return out if x.ndim == 2 else out.reshape(x.shape[:-1] + out.shape[-1:])


def _graded_lex_entries(var_count, max_degree):
    # Degree ascending; within a degree, descending lexicographic on the
    # exponent tuple, so x_1 precedes x_2 and x_1^2 precedes x_1*x_2.
    # This puts the constant at index 0 and the monomial x_i at index i.
    entries = []
    for degree in range(max_degree + 1):
        block = []
        for combo in combinations_with_replacement(range(var_count), degree):
            exps = [0] * var_count
            for v in combo:
                exps[v] += 1
            block.append(tuple(exps))
        block.sort(key=lambda m: tuple(-e for e in m))
        entries.extend(block)
    return tuple(entries)


class Dictionary:
    """Ordered monomial basis: all exponent tuples with total degree <= max_degree.

    The ordering is graded lexicographic and deterministic across runs, so a
    (var_count, max_degree) pair always reconstructs the identical basis.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, var_count: int, max_degree: int):
        self.var_count = as_int(var_count, "var_count")
        self.max_degree = as_int(max_degree, "max_degree")
        if self.var_count < 1:
            raise ValueError("var_count must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        self.entries = _graded_lex_entries(self.var_count, self.max_degree)
        self._index = {m: i for i, m in enumerate(self.entries)}
        self._exponents = np.array(self.entries, dtype=np.int64)
        self._monomials = MonomialTable(self._exponents)
        self._states = np.array([self._index[tuple(row)] for row in np.eye(self.var_count, dtype=int)])
        self._states.setflags(write=False)
        assert len(self.entries) == comb(self.var_count + self.max_degree, self.max_degree)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"Dictionary(var_count={self.var_count}, max_degree={self.max_degree}, size={len(self)})"

    def __eq__(self, other):
        return (
            isinstance(other, Dictionary)
            and other.var_count == self.var_count
            and other.max_degree == self.max_degree
        )

    def __hash__(self):
        return hash((self.var_count, self.max_degree))

    @property
    def exponents(self) -> np.ndarray:
        """Exponent matrix of shape (size, var_count), row k = entry k."""
        return self._exponents

    def index_of(self, multi_index) -> int:
        """Position of a multi-index in the basis; KeyError if absent."""
        return self._index[tuple(multi_index)]

    def __contains__(self, multi_index):
        return tuple(multi_index) in self._index

    def state_indices(self) -> np.ndarray:
        """Indices of the degree-1 monomials x_1 .. x_D, in variable order (read-only)."""
        return self._states

    def evaluate(self, x) -> np.ndarray:
        """Evaluate every monomial at a state (or a batch of states).

        Parameters
        ----------
        x : array-like, shape (var_count,) or (..., var_count)

        Returns
        -------
        ndarray of shape (size,) or (..., size); component k is
        prod_i x_i**exponents_k[i], so the constant slot is always 1.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.var_count:
            raise ValueError(
                f"state has {x.shape[-1]} variables, dictionary expects {self.var_count}"
            )
        if not np.isfinite(x).all():
            raise ValueError("non-finite state passed to Dictionary.evaluate")
        return self._monomials(x)


def build_dictionary(var_count: int, max_degree: int) -> Dictionary:
    """Construct the graded-lexicographic monomial dictionary.

    Size is C(var_count + max_degree, max_degree); entry 0 is the constant.
    """
    return Dictionary(var_count, max_degree)
