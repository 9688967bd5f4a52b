"""Local Koopman matrices derived from polynomial ODE right-hand sides.

For a polynomial field, applying ``sum_i f_i(x) d/dx_i`` to a monomial
produces a finite combination of monomials, so the evolution of the
observable-expansion coefficients is a linear ODE on the dictionary.
Advancing that ODE over one sampling interval yields the Koopman matrix of
the subsystem without any trajectory data.
"""

import numpy as np

from .dictionary import Dictionary, MonomialTable, as_float, as_int, as_list
from .model import KoopmanModel


# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp
# (Higham 2005), divided by b_0 so that the approximant at 0 is exactly I.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
# Largest 1-norm at which that approximant's backward error is below the unit
# roundoff.
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix by scaling and squaring.

    A is scaled by 2^-s until its 1-norm is at most _THETA13, the [13/13]
    Pade approximant r(A) = (V - U)^-1 (V + U) is evaluated in six matrix
    products and one solve, and the result is squared s times (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3 at degree 13 only).
    Non-finite input raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("expm needs a finite matrix")
    norm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    A = A / 2.0**s
    b = _PADE13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    # r(A) = I + 2 (V - U)^-1 U: solving for the part beside I keeps I out of
    # the rounding; on the presets' generators over one sampling interval the
    # error is 30-80x below that of solving for V + U
    X = ident + 2.0 * np.linalg.solve(V - U, U)
    for _ in range(s):
        X = X @ X
    return X


class PolynomialVectorField:
    """Sparse polynomial right-hand side, one term list per output coordinate.

    The right-hand side of an ODE: one component per input variable. Each
    term is (exponents, coefficient) with ``exponents`` a multi-index over
    all ``var_count`` variables; an exponent must be an integer (a float
    only when integral). Duplicate multi-indices within a coordinate are
    merged on construction; exact-zero coefficients are dropped.
    """

    def __init__(self, var_count: int, components):
        self.var_count = as_int(var_count, "var_count")
        if self.var_count < 1:
            raise ValueError("var_count must be >= 1")
        components = list(components)
        if len(components) != self.var_count:
            raise ValueError(f"{len(components)} components for {self.var_count} variables")
        merged = []
        for coord, terms in enumerate(components):
            acc = {}
            for t, (exponents, coeff) in enumerate(terms):
                where = f"coordinate {coord} term {t}"
                m = tuple(as_int(e, f"{where}: exponent") for e in as_list(exponents, f"{where}: exponents"))
                if len(m) != self.var_count:
                    raise ValueError(
                        f"coordinate {coord}: exponent vector {m} has length "
                        f"{len(m)}, expected {self.var_count}"
                    )
                if any(e < 0 for e in m):
                    raise ValueError(f"coordinate {coord}: negative exponent in {m}")
                coeff = as_float(coeff, f"{where}: coeff")
                if not np.isfinite(coeff):
                    raise ValueError(f"coordinate {coord}: non-finite coefficient")
                acc[m] = acc.get(m, 0.0) + coeff
            merged.append(tuple((m, c) for m, c in acc.items() if c != 0.0))
        self.components = tuple(merged)

        # flat term table for fast evaluation: f(x) = coef_matrix @ monomials(x)
        flat = [m for terms in self.components for (m, _) in terms]
        self._monomials = MonomialTable(
            np.array(flat, dtype=np.int64).reshape(len(flat), self.var_count)
        )
        coef = np.zeros((len(self.components), len(flat)))
        t = 0
        for coord, terms in enumerate(self.components):
            for _, c in terms:
                coef[coord, t] = c
                t += 1
        self._coef_t = coef.T

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the field at a state or a batch of states (..., var_count).

        One MonomialTable call gives the (n, T) monomials, and one product
        with ``_coef_t``, the (T, D) transpose view taken at construction,
        contracts them. The operands' shapes and layouts pick the BLAS
        routine and so the rounding: a single state goes through gemv, as
        RK4's training state always has, and a batch through gemm; a
        C-ordered copy of ``_coef_t`` would round a single state otherwise.
        So it reads the monomials as rows; only a multi-pass batch is copied.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.var_count:
            raise ValueError(
                f"state has {x.shape[-1]} variables, field expects {self.var_count}"
            )
        return np.ascontiguousarray(self._monomials(x)) @ self._coef_t

    def __call__(self, x):
        return self.evaluate(x)

    def __repr__(self):
        terms = sum(len(t) for t in self.components)
        return f"PolynomialVectorField(var_count={self.var_count}, terms={terms})"


def build_generator(field: PolynomialVectorField, dictionary: Dictionary) -> np.ndarray:
    """Assemble the coefficient-evolution generator G of a polynomial ODE.

    Entry (m, n) is the rate at which the coefficient of target monomial m
    grows from source monomial n; the coefficient vector c of an observable
    evolves as dc/dt = G c. The constant's column is identically zero.

    For every dictionary multi-index n, coordinate i with n_i >= 1 and field
    term (a, f_ia), the target m = n - e_i + a receives n_i * f_ia at entry
    (m, n). Targets whose total degree exceeds the dictionary bound are
    dropped (degree-closure truncation keeps the matrix square).
    """
    if field.var_count != dictionary.var_count:
        raise ValueError(
            f"field over {field.var_count} variables does not match "
            f"dictionary over {dictionary.var_count}"
        )

    n_dic = len(dictionary)
    G = np.zeros((n_dic, n_dic))
    for col, n in enumerate(dictionary.entries):
        for i in range(field.var_count):
            if n[i] < 1:
                continue
            for a, coeff in field.components[i]:
                m = list(n)
                m[i] -= 1
                for d, e in enumerate(a):
                    m[d] += e
                m = tuple(m)
                if m in dictionary:
                    G[dictionary.index_of(m), col] += n[i] * coeff
    return G


def local_koopman(field: PolynomialVectorField, dictionary: Dictionary, dt: float) -> KoopmanModel:
    """Advance the generator of ``field`` on ``dictionary`` over one sampling
    interval and orient the result so that Psi(x_next) ~= K Psi(x).

    Column m of exp(G dt) is the coefficient vector of the time-evolved
    monomial m, which forms row m of K; hence K = exp(G dt)^T, computed by
    scaling and squaring.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt < 0:
        raise ValueError("dt must be non-negative")

    G = build_generator(field, dictionary)
    flow = expm(G * dt)

    # The constant's column of G is structurally zero, so the evolved constant
    # is exactly the constant: scrub roundoff. When the field has no constant
    # forcing, row 0 of G is zero too and no monomial acquires a constant part.
    n = flow.shape[0]
    unit = np.zeros(n)
    unit[0] = 1.0
    flow[:, 0] = unit
    if not G[0, :].any():
        flow[0, :] = unit
    return KoopmanModel(dictionary, flow.T)
