"""Coupled polynomial dynamical systems and dataset generation.

Provides the coupled-system description that configs build, a classical
fixed-step RK4 integrator, seeded initial-state sampling so that every
dataset is exactly reproducible, and trajectory CSV input and output.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .dictionary import as_float, as_int
from .generator import PolynomialVectorField
from .model import write_csv


# Two time steps a and b are equal when |a - b| <= DT_TOLERANCE * (1 + |b|):
# the spacing check of load_trajectory_csv and the CLI's check of a
# trajectory's dt against the config's.
DT_TOLERANCE = 1e-12


class BlowUpError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class Coupling:
    """Diffusive coupling, the fields of a config's coupling record.

    Subsystem ``target`` is driven by subsystem ``source``: ``strength *
    (x_source[observed_coord] - x_target[observed_coord])`` is added to the
    time derivative of ``x_target[drive_coord]``, by default the target's
    last coordinate (the velocity of a second-order oscillator).
    CoupledSystem checks these fields against its subsystems.
    """

    target: int
    source: int
    strength: float = 1.0
    drive_coord: int | None = None
    observed_coord: int = 0


@dataclass
class CoupledSystem:
    """Subsystem fields plus diffusive couplings.

    Subsystem i owns the global variables ``offsets[i]:offsets[i + 1]``,
    in subsystem order; ``dim`` is the last offset. Construction works out
    the offsets, checks every coupling against the subsystems and builds
    ``field``, the full field RK4 integrates.
    """

    subsystems: list
    couplings: list
    offsets: tuple = field(init=False)

    def __post_init__(self):
        if not self.subsystems:
            raise ValueError("a coupled system needs at least one subsystem")
        self.offsets = offsets = (0, *accumulate(f.var_count for f in self.subsystems))
        D = self.dim
        components = [[] for _ in range(D)]
        for i, f in enumerate(self.subsystems):
            for k, terms in enumerate(f.components):
                for m, c in terms:
                    padded = [0] * D
                    padded[offsets[i] : offsets[i] + f.var_count] = m
                    components[offsets[i] + k].append((tuple(padded), c))
        for cp in self.couplings:
            target, source, drive, observed, strength = self._check(cp)
            plus = [0] * D
            plus[offsets[source] + observed] = 1
            minus = [0] * D
            minus[offsets[target] + observed] = 1
            components[offsets[target] + drive] += [(tuple(plus), strength), (tuple(minus), -strength)]
        self.field = PolynomialVectorField(D, components)

    def _check(self, cp: Coupling) -> tuple:
        # (target, source, drive_coord, observed_coord, strength) of a coupling
        # checked against the subsystems; the one check of coupling fields
        where = f"coupling {cp.target}<-{cp.source}"
        dims = [f.var_count for f in self.subsystems]
        target = as_int(cp.target, f"{where}: target")
        source = as_int(cp.source, f"{where}: source")
        for role, index in (("target", target), ("source", source)):
            if not 0 <= index < len(dims):
                raise ValueError(f"{where}: {role} {index} is not a subsystem index in 0..{len(dims) - 1}")
        if target == source:
            raise ValueError(f"{where}: target and source are the same subsystem")
        drive = dims[target] - 1 if cp.drive_coord is None else as_int(cp.drive_coord, f"{where}: drive_coord")
        if not 0 <= drive < dims[target]:
            raise ValueError(f"{where}: drive_coord {drive} is not a coordinate of the {dims[target]}-variable target")
        observed = as_int(cp.observed_coord, f"{where}: observed_coord")
        if not 0 <= observed < min(dims[target], dims[source]):
            raise ValueError(
                f"{where}: observed_coord {observed} is not a coordinate of both the "
                f"{dims[target]}-variable target and the {dims[source]}-variable source"
            )
        strength = as_float(cp.strength, f"{where}: strength")
        if not np.isfinite(strength):
            raise ValueError(f"{where}: strength {strength} is not finite")
        return target, source, drive, observed, strength

    @property
    def dim(self) -> int:
        return self.offsets[-1]


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
    out = np.empty((x0s.shape[0], steps + 1, system.dim))
    out[:, 0] = x0s
    for k in range(steps):
        try:
            out[:, k + 1] = rk4_step(system.field, out[:, k], dt)
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


def state_column_names(system: CoupledSystem) -> list:
    """Column names x_<subsystem>_<coordinate> (1-based) for trajectory CSVs."""
    names = []
    for i, f in enumerate(system.subsystems):
        names.extend(f"x_{i + 1}_{k + 1}" for k in range(f.var_count))
    return names


def save_trajectory_csv(path, states: np.ndarray, dt: float, system: CoupledSystem) -> None:
    """Write ``t`` plus one state column per variable of ``system``, through
    write_csv."""
    names = state_column_names(system)
    if len(names) != states.shape[1]:
        raise ValueError("system does not match trajectory dimension")
    rows = ([k * dt, *row] for k, row in enumerate(states.tolist()))
    write_csv(path, "t," + ",".join(names), rows)


def _malformed_line(path) -> str:
    # ", line n: cause" for the first body line np.loadtxt rejects, n counted
    # over the file (loadtxt's rows count from the header or the data), or "";
    # each line is parsed by loadtxt itself, whose rule is not float's
    with open(path) as fh:  # loadtxt skips blank and comment lines
        body = [(n, line.rstrip("\r\n")) for n, line in enumerate(fh, start=1)]
    body = [(n, line, line.split("#")[0].split(",")) for n, line in body[1:] if line.split("#")[0]]
    for n, line, cells in body:
        if len(cells) != len(body[0][2]):
            return f", line {n}: the number of columns changed from {len(body[0][2])} to {len(cells)}"
        try:
            np.loadtxt([line], delimiter=",")
        except ValueError as exc:  # the line is loadtxt's row 0 here
            return f", line {n}: {str(exc).replace(' at row 0,', ' at')}"
    return ""


def load_trajectory_csv(path) -> tuple:
    """Read a trajectory CSV written by save_trajectory_csv as (states, dt)."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}{_malformed_line(path) or f': {exc}'}") from exc
    if data.shape[0] < 2:
        raise ValueError(f"{path}: at least two rows are needed to infer dt")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: trajectory contains non-finite values")
    steps = np.diff(data[:, 0])
    dt = float(steps[0])
    if not dt > 0:
        raise ValueError(f"{path}: time step {dt} is not positive")
    if not np.allclose(steps, dt, rtol=DT_TOLERANCE, atol=DT_TOLERANCE):
        raise ValueError(f"{path}: time column is not uniformly spaced")
    return data[:, 1:], dt
