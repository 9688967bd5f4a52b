"""Coupled polynomial dynamical systems and dataset generation.

Provides the coupled-system description that configs build, a classical
fixed-step RK4 integrator, seeded initial-state sampling so that every
dataset is exactly reproducible, and trajectory CSV input and output.
"""

from dataclasses import dataclass, field

import numpy as np

from .dictionary import VariableLayout
from .generator import PolynomialVectorField


class BlowUpError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class Coupling:
    """Directed coupling: subsystem ``target`` is driven by subsystem ``source``.

    The field maps the concatenated states (x_target, x_source) to a vector
    added to the target's time derivative, scaled by ``strength``.
    """

    target: int
    source: int
    strength: float
    field: PolynomialVectorField

    def __post_init__(self):
        self.strength = float(self.strength)
        if not np.isfinite(self.strength):
            raise ValueError("coupling strength must be finite")


def diffusive_coupling(dim_target: int, dim_source: int, drive_coord: int, observed_coord: int = 0) -> PolynomialVectorField:
    """Coupling field adding (x_source[observed] - x_target[observed]) to one coordinate.

    The standard position-difference coupling for second-order oscillators
    drives the velocity equation (drive_coord=1) with the position difference
    (observed_coord=0). ``drive_coord`` must index a target coordinate and
    ``observed_coord`` a coordinate of both subsystems.
    """
    if not 0 <= drive_coord < dim_target:
        raise ValueError(f"drive_coord {drive_coord} is not a coordinate of the {dim_target}-variable target")
    if not 0 <= observed_coord < min(dim_target, dim_source):
        raise ValueError(
            f"observed_coord {observed_coord} is not a coordinate of both the "
            f"{dim_target}-variable target and the {dim_source}-variable source"
        )
    nvars = dim_target + dim_source
    components = [[] for _ in range(dim_target)]
    plus = [0] * nvars
    plus[dim_target + observed_coord] = 1
    minus = [0] * nvars
    minus[observed_coord] = 1
    components[drive_coord] = [(tuple(plus), 1.0), (tuple(minus), -1.0)]
    return PolynomialVectorField(nvars, components)


def coupling_dims(layout: VariableLayout, target: int, source: int) -> tuple:
    """Block sizes (target, source) of a coupling; both indices must name a
    subsystem of ``layout`` (negative indices are rejected, not wrapped)."""
    count = layout.subsystem_count
    for role, index in (("target", target), ("source", source)):
        if not 0 <= index < count:
            raise ValueError(
                f"coupling {target}<-{source}: {role} {index} is not a subsystem index in 0..{count - 1}"
            )
    return layout.subsystem_dims[target], layout.subsystem_dims[source]


@dataclass
class CoupledSystem:
    """Subsystem fields plus pairwise couplings over a shared variable layout."""

    subsystems: list
    couplings: list
    layout: VariableLayout
    _full: PolynomialVectorField | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.subsystems) != self.layout.subsystem_count:
            raise ValueError("one subsystem field per layout block is required")
        for i, f in enumerate(self.subsystems):
            if f.var_count != self.layout.subsystem_dims[i] or f.component_count != f.var_count:
                raise ValueError(f"subsystem {i} field does not match its layout block")
        for c in self.couplings:
            di, dj = coupling_dims(self.layout, c.target, c.source)
            if c.field.var_count != di + dj or c.field.component_count != di:
                raise ValueError(
                    f"coupling {c.target}<-{c.source}: field must map "
                    f"{di + dj} variables to {di} components"
                )

    @property
    def dim(self) -> int:
        return self.layout.total_vars

    def full_field(self) -> PolynomialVectorField:
        """The induced polynomial vector field over all variables."""
        if self._full is None:
            D = self.layout.total_vars
            offsets = self.layout.offsets
            components = [[] for _ in range(D)]
            for i, f in enumerate(self.subsystems):
                off = offsets[i]
                for k, terms in enumerate(f.components):
                    for m, c in terms:
                        padded = [0] * D
                        padded[off : off + f.var_count] = m
                        components[off + k].append((tuple(padded), c))
            for cp in self.couplings:
                di = self.layout.subsystem_dims[cp.target]
                off_t = offsets[cp.target]
                off_s = offsets[cp.source]
                dj = self.layout.subsystem_dims[cp.source]
                for k, terms in enumerate(cp.field.components):
                    for m, c in terms:
                        padded = [0] * D
                        padded[off_t : off_t + di] = m[:di]
                        padded[off_s : off_s + dj] = m[di:]
                        components[off_t + k].append((tuple(padded), cp.strength * c))
            self._full = PolynomialVectorField(D, components)
        return self._full


def rk4_step(fld, x, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step; local error O(dt^5).

    ``fld`` is any callable state -> derivative (batches broadcast through).
    Raises BlowUpError when the result is non-finite.
    """
    x = np.asarray(x, dtype=float)
    k1 = fld(x)
    k2 = fld(x + 0.5 * dt * k1)
    k3 = fld(x + 0.5 * dt * k2)
    k4 = fld(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise BlowUpError("RK4 step produced non-finite state")
    return out


def _integrate(system: CoupledSystem, x0s: np.ndarray, steps: int, dt: float) -> np.ndarray:
    # RK4 from (n, D) initial states; returns (n, steps+1, D) trajectories.
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    fld = system.full_field()
    out = np.empty((x0s.shape[0], steps + 1, system.dim))
    out[:, 0] = x0s
    for k in range(steps):
        try:
            out[:, k + 1] = rk4_step(fld, out[:, k], dt)
        except BlowUpError as exc:
            raise BlowUpError(f"trajectory blew up at step {k + 1}", step=k + 1) from exc
    return out


def simulate(system: CoupledSystem, x0, steps: int, dt: float) -> np.ndarray:
    """Integrate the full coupled field from x0 for ``steps`` RK4 steps;
    returns (steps+1, D)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(f"x0 must have shape ({system.dim},)")
    return _integrate(system, x0[None], steps, dt)[0]


def simulate_batch(system: CoupledSystem, x0s, steps: int, dt: float) -> np.ndarray:
    """Integrate many initial states at once; returns (n, steps+1, D)."""
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != system.dim:
        raise ValueError(f"x0s must have shape (n, {system.dim})")
    return _integrate(system, x0s, steps, dt)


def sample_initial(ranges, rng_seed: int) -> np.ndarray:
    """Independent uniform draw per coordinate, reproducible from the seed."""
    rng = np.random.default_rng(rng_seed)
    out = np.empty(len(ranges))
    for i, (lo, hi) in enumerate(ranges):
        if hi < lo:
            raise ValueError(f"inverted range ({lo}, {hi}) for coordinate {i}")
        out[i] = rng.uniform(lo, hi)
    return out


def perturb_initial(x_train, radius: float, rng_seed: int) -> np.ndarray:
    """Training initial state plus uniform noise in (-radius, radius) per coordinate."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive")
    x_train = np.asarray(x_train, dtype=float)
    rng = np.random.default_rng(rng_seed)
    return x_train + rng.uniform(-radius, radius, size=x_train.shape)


def state_column_names(layout: VariableLayout) -> list:
    """Column names x_<subsystem>_<coordinate> (1-based) for trajectory CSVs."""
    names = []
    for i, d in enumerate(layout.subsystem_dims):
        names.extend(f"x_{i + 1}_{k + 1}" for k in range(d))
    return names


def save_trajectory_csv(path, states: np.ndarray, dt: float, layout: VariableLayout) -> None:
    """Write ``t`` plus one state column per variable at 17 significant digits."""
    names = state_column_names(layout)
    if len(names) != states.shape[1]:
        raise ValueError("layout does not match trajectory dimension")
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for k, row in enumerate(states):
            t = k * dt
            fh.write(format(t, ".17g") + "," + ",".join(format(v, ".17g") for v in row) + "\n")


def load_trajectory_csv(path) -> tuple:
    """Read a trajectory CSV written by save_trajectory_csv as (states, dt)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: at least two rows are needed to infer dt")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: trajectory contains non-finite values")
    steps = np.diff(data[:, 0])
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-12, atol=1e-12):
        raise ValueError(f"{path}: time column is not uniformly spaced")
    return data[:, 1:], dt
