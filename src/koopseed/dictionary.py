"""Monomial dictionaries over multi-indices.

A multi-index is a plain tuple of non-negative integer exponents, one per
state variable; the monomial it names is ``x_1**e_1 * ... * x_D**e_D``.
A Dictionary is the ordered set of all multi-indices up to a total-degree
bound, which is the observable basis every other module works in.
"""

import numbers
from dataclasses import dataclass
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

    Every monomial with two or more nonzero exponents is its *prefix* (the
    same tuple with its last nonzero exponent set to 0) times one factor
    ``x_v**e``; prefixes missing from the list are kept as hidden rows. The
    factors with e >= 2 are formed in one ``power`` call, and the products
    are filled level by level (by nonzero-variable count) with one
    gather-multiply per level, in a variables-first table: a row of ones,
    the variables, the powers, then the products.

    Construction works out everything that does not depend on the states:
    the power source rows (1 + each power's base variable), an exponent
    block with one exponent per power row and state, the slice of power
    rows, each level's gather rows and the rows of the listed monomials.
    ``_table`` is the one kernel: it fills the table for at most
    _CHUNK_ROWS states in a fixed handful of numpy calls, with ``power``
    writing straight into the power rows. A call gathers the listed rows of
    one table, or of one table per chunk for larger batches, so a single
    state pays no chunk loop.

    The powers stay one ``power`` call over arrays because that call
    defines the bits: its SIMD pow can differ in the last bit from ``x *
    x``, from ``math.pow`` and between ``-a`` and ``a``. Each value is the
    left-to-right product of ``x_d**e_d`` over d that ``prod_d x[..., d,
    None] ** exponents[:, d]`` forms, and so is bit-identical to it for two
    or more monomials: multiplying by a factor with e = 0, which is 1, is
    exact, and a factor with e = 1 is x itself, which pow returns exactly.
    (For a single monomial that loop broadcasts its exponent, and numpy's
    power then squares instead of calling pow.)
    """

    def __init__(self, exponents):
        exponents = np.asarray(exponents, dtype=np.int64)
        self.var_count = exponents.shape[1]
        monomials = [tuple(int(e) for e in m) for m in exponents]

        # monomial with >= 2 nonzero exponents -> (level, prefix, last factor)
        products = {}
        powers = set()  # factors (v, e) with e >= 2
        pending = list(monomials)
        while pending:
            m = pending.pop()
            nonzero = [v for v, e in enumerate(m) if e]
            last = nonzero[-1] if nonzero else 0
            if m[last] >= 2:
                powers.add((last, m[last]))
            if len(nonzero) >= 2 and m not in products:
                prefix = m[:last] + (0,) + m[last + 1 :]
                products[m] = (len(nonzero), prefix, (last, m[last]))
                pending.append(prefix)

        # Scratch rows: ones, x_v, the powers, then the products by level.
        powers = sorted(powers)
        # At least two powers, for the same reason: a broadcast exponent 2
        # is squared, which can differ from pow in the last bit.
        if len(powers) == 1:
            powers *= 2
        power_row = {f: 1 + self.var_count + i for i, f in enumerate(powers)}
        order = sorted(products, key=lambda m: products[m][0])
        position = {m: 1 + self.var_count + len(powers) + i for i, m in enumerate(order)}

        def factor_row(v, e):
            return 0 if e == 0 else 1 + v if e == 1 else power_row[(v, e)]

        def row_of(m):
            if m in position:
                return position[m]
            v = next((v for v, e in enumerate(m) if e), 0)
            return factor_row(v, m[v])

        self._levels = []
        for level in sorted({products[m][0] for m in order}):
            block = [m for m in order if products[m][0] == level]
            lo = position[block[0]]
            prefixes = np.array([row_of(products[m][1]) for m in block])
            factors = np.array([factor_row(*products[m][2]) for m in block])
            self._levels.append((lo, lo + len(block), prefixes, factors))
        first_power = 1 + self.var_count
        self._sources = np.array([1 + v for v, _ in powers], dtype=np.intp)
        # One exponent per cell, column-major so that a single state's block
        # is contiguous: an exponent broadcast along the states lets numpy
        # square instead of calling pow once a row passes half its buffer
        # (np.getbufsize()).
        degrees = np.array([e for _, e in powers], dtype=float)
        self._exponents = np.repeat(degrees[None, :], _CHUNK_ROWS, axis=0).T
        self._power_rows = slice(first_power, first_power + len(powers))
        self._table_rows = first_power + len(powers) + len(order)
        self._visible = np.array([row_of(m) for m in monomials], dtype=np.intp)

    def _table(self, x) -> np.ndarray:
        # the filled (table rows, n) table at states x of shape (n,
        # var_count), n <= _CHUNK_ROWS
        table = np.empty((self._table_rows, x.shape[0]))
        table[0] = 1.0
        table[1 : self._power_rows.start] = x.T
        exponents = self._exponents[:, : x.shape[0]]
        np.power(table.take(self._sources, axis=0), exponents, out=table[self._power_rows])
        for lo, hi, prefixes, factors in self._levels:
            np.multiply(table.take(prefixes, axis=0), table.take(factors, axis=0), out=table[lo:hi])
        return table

    def __call__(self, x) -> np.ndarray:
        """Monomial values at states x of shape (..., var_count): a
        C-contiguous (..., count)."""
        flat = x if x.ndim == 2 else x.reshape(-1, self.var_count)
        if flat.shape[0] <= _CHUNK_ROWS:
            out = np.ascontiguousarray(self._table(flat).take(self._visible, axis=0).T)
        else:
            out = np.empty((flat.shape[0], len(self._visible)))
            for start in range(0, flat.shape[0], _CHUNK_ROWS):
                table = self._table(flat[start : start + _CHUNK_ROWS])
                out[start : start + _CHUNK_ROWS] = table.take(self._visible, axis=0).T
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
        """Indices of the degree-1 monomials x_1 .. x_D, in variable order."""
        eye = np.eye(self.var_count, dtype=np.int64)
        return np.array([self.index_of(tuple(row)) for row in eye])

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


@dataclass(frozen=True)
class VariableLayout:
    """How the global state vector splits into per-subsystem blocks."""

    subsystem_dims: tuple

    def __post_init__(self):
        dims = tuple(as_int(d, "subsystem dimension") for d in self.subsystem_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def offsets(self) -> tuple:
        """Prefix sums: offsets[i] is where subsystem i starts; last entry is D."""
        out = [0]
        for d in self.subsystem_dims:
            out.append(out[-1] + d)
        return tuple(out)

    @property
    def total_vars(self) -> int:
        return sum(self.subsystem_dims)
