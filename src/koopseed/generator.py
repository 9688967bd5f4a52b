"""Local Koopman matrices derived from polynomial ODE right-hand sides.

For a polynomial field, applying ``sum_i f_i(x) d/dx_i`` to a monomial
produces a finite combination of monomials, so the evolution of the
observable-expansion coefficients is a linear ODE on the dictionary.
Advancing that ODE over one sampling interval yields the Koopman matrix of
the subsystem without any trajectory data.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dictionary import Dictionary, MonomialTable
from .model import KoopmanModel


class PolynomialVectorField:
    """Sparse polynomial right-hand side, one term list per output coordinate.

    Each term is (exponents, coefficient) with ``exponents`` a multi-index
    over all ``var_count`` input variables. Duplicate multi-indices within a
    coordinate are merged on construction; exact-zero coefficients are
    dropped. The number of output coordinates may differ from var_count
    (coupling terms are rectangular); an ODE right-hand side is square.
    """

    def __init__(self, var_count: int, components):
        if var_count < 1:
            raise ValueError("var_count must be >= 1")
        self.var_count = int(var_count)
        merged = []
        for coord, terms in enumerate(components):
            acc = {}
            for exponents, coeff in terms:
                m = tuple(int(e) for e in exponents)
                if len(m) != self.var_count:
                    raise ValueError(
                        f"coordinate {coord}: exponent vector {m} has length "
                        f"{len(m)}, expected {self.var_count}"
                    )
                if any(e < 0 for e in m):
                    raise ValueError(f"coordinate {coord}: negative exponent in {m}")
                coeff = float(coeff)
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
        self._coef = np.zeros((len(self.components), len(flat)))
        t = 0
        for coord, terms in enumerate(self.components):
            for _, c in terms:
                self._coef[coord, t] = c
                t += 1

    @property
    def component_count(self) -> int:
        return len(self.components)

    def max_term_degree(self) -> int:
        return max((sum(m) for terms in self.components for (m, _) in terms), default=0)

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the field at a state or a batch of states (..., var_count)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.var_count:
            raise ValueError(
                f"state has {x.shape[-1]} variables, field expects {self.var_count}"
            )
        return self._monomials(x) @ self._coef.T

    def __call__(self, x):
        return self.evaluate(x)

    def __repr__(self):
        terms = sum(len(t) for t in self.components)
        return (
            f"PolynomialVectorField(var_count={self.var_count}, "
            f"components={self.component_count}, terms={terms})"
        )


@dataclass
class GeneratorMatrix:
    """Generator of observable-coefficient evolution on a monomial dictionary.

    Entry (m, n) is the rate at which the coefficient of target monomial m
    grows from source monomial n; the coefficient vector c of an observable
    evolves as dc/dt = G c. The constant's column is identically zero.
    """

    dictionary: Dictionary
    matrix: np.ndarray


def build_generator(field: PolynomialVectorField, dictionary: Dictionary) -> GeneratorMatrix:
    """Assemble the coefficient-evolution generator for a polynomial ODE.

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
    if field.component_count != field.var_count:
        raise ValueError("ODE right-hand side must have one component per variable")

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
    return GeneratorMatrix(dictionary, G)


def _rk4_matrix_flow(G: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    # Integrate C' = G C, C(0) = I with classical RK4; cross-check route for
    # the matrix exponential.
    C = np.eye(G.shape[0])
    h = dt / substeps
    for _ in range(substeps):
        k1 = G @ C
        k2 = G @ (C + 0.5 * h * k1)
        k3 = G @ (C + 0.5 * h * k2)
        k4 = G @ (C + h * k3)
        C = C + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return C


def local_koopman(
    gen: GeneratorMatrix,
    dt: float,
    method: str = "expm",
    rk4_substeps: int = 200,
) -> KoopmanModel:
    """Advance the generator over one sampling interval and orient the result
    so that Psi(x_next) ~= K Psi(x).

    Column m of exp(G dt) is the coefficient vector of the time-evolved
    monomial m, which forms row m of K; hence K = exp(G dt)^T. ``method`` is
    "expm" (scaling-and-squaring, default) or "rk4" (fixed-step integration
    of the matrix flow, >= 100 substeps; serves as an independent check).
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt < 0:
        raise ValueError("dt must be non-negative")

    if method == "expm":
        flow = expm(gen.matrix * dt)
    elif method == "rk4":
        flow = _rk4_matrix_flow(gen.matrix, dt, max(int(rk4_substeps), 100))
    else:
        raise ValueError(f"unknown method {method!r}")

    # The constant's column of G is structurally zero, so the evolved constant
    # is exactly the constant: scrub roundoff. When the field has no constant
    # forcing, row 0 of G is zero too and no monomial acquires a constant part.
    n = flow.shape[0]
    unit = np.zeros(n)
    unit[0] = 1.0
    flow[:, 0] = unit
    if not gen.matrix[0, :].any():
        flow[0, :] = unit
    return KoopmanModel(gen.dictionary, flow.T)
