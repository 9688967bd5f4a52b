"""In-memory spans around calls into koopseed's public functions.

The tracer instruments the program from the outside: it rebinds each public
name listed in ``LAYERS`` in every loaded ``koopseed`` module that holds it
(``experiments`` imports ``simulate`` and friends by name, so patching only
the defining module would miss those calls), and patches methods on their
class. Each call records one span (name, start, end, parent) and adds to the
layer's work counters. Spans stay in memory until the run ends.
"""

import hashlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


class RepeatCounter:
    """Counts work whose key was already seen earlier in the same run."""

    def __init__(self):
        self._seen = set()
        self.total = 0
        self.repeated = 0

    def observe(self, key: bytes, weight: int = 1) -> bool:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        self.total += weight
        if digest in self._seen:
            self.repeated += weight
            return True
        self._seen.add(digest)
        return False

    @property
    def fraction(self) -> float:
        return self.repeated / self.total if self.total else 0.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# Counter hooks run after the span has closed, so their cost is charged to
# the caller's self time, not to the layer's.


def _count_dictionary(tracer, args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 1, "x"))
    tracer.add("dictionary.rows", rows)
    tracer.add("dictionary.bytes_out", result.nbytes)


def _count_field(tracer, args, kwargs, result):
    tracer.add("generator.field.rows", _rows(_arg(args, kwargs, 1, "x")))


def _count_simulate(tracer, args, kwargs, result):
    x0 = np.ascontiguousarray(_arg(args, kwargs, 1, "x0"), dtype=float)
    steps = int(_arg(args, kwargs, 2, "steps"))
    dt = float(_arg(args, kwargs, 3, "dt"))
    work = _rows(x0) * steps
    tracer.add("dynamics.state_steps", work)
    key = x0.tobytes() + repr((x0.shape, steps, dt)).encode()
    tracer.simulations.observe(key, work)


def _count_online_one(tracer, args, kwargs, result):
    pair = _arg(args, kwargs, 1, "pair")
    tracer.add("edmd.online.pairs", 1)
    tracer.pairs.observe(b"state" + pair.x.tobytes() + pair.y.tobytes())


def _count_online_many(tracer, args, kwargs, result):
    psi_x = np.ascontiguousarray(_arg(args, kwargs, 1, "psi_x"))
    psi_y = np.ascontiguousarray(_arg(args, kwargs, 2, "psi_y"))
    tracer.add("edmd.online.pairs", psi_x.shape[0])
    for k in range(psi_x.shape[0]):
        tracer.pairs.observe(b"psi" + psi_x[k].tobytes() + psi_y[k].tobytes())


def _count_batch(tracer, args, kwargs, result):
    tracer.add("edmd.batch.rank_deficient", int(bool(result.diagnostics.get("rank_deficient"))))


def _count_decompose(tracer, args, kwargs, result):
    tracer.add("spectral.decompose.defective", int(bool(result.defective)))


def _count_forecast(tracer, args, kwargs, result):
    tracer.add("experiments.forecast.fallback", int(result[1] != "spectral"))


def _count_points(tracer, args, kwargs, result):
    tracer.add("experiments.score.points", int(np.size(result)))


def _count_bytes(tracer, args, kwargs, result, path_index=0):
    tracer.add("output.bytes", os.path.getsize(_arg(args, kwargs, path_index, "path")))


def _count_bytes_method(tracer, args, kwargs, result):
    _count_bytes(tracer, args, kwargs, result, path_index=1)


# (defining module, attribute, span name, counter hook); "Class.method"
# attributes are patched on the class.
LAYERS = (
    ("koopseed.dictionary", "Dictionary.evaluate", "dictionary", _count_dictionary),
    ("koopseed.generator", "PolynomialVectorField.evaluate", "generator.field", _count_field),
    ("koopseed.generator", "build_generator", "generator.derive", None),
    ("koopseed.generator", "local_koopman", "generator.derive", None),
    ("koopseed.assembly", "assemble_global", "assembly.assemble", None),
    ("koopseed.dynamics", "simulate", "dynamics.simulate", _count_simulate),
    ("koopseed.dynamics", "simulate_batch", "dynamics.simulate", _count_simulate),
    ("koopseed.edmd", "online_update", "edmd.online", _count_online_one),
    ("koopseed.edmd", "online_update_many", "edmd.online", _count_online_many),
    ("koopseed.edmd", "batch_edmd_from_psi", "edmd.batch", _count_batch),
    ("koopseed.spectral", "decompose", "spectral.decompose", _count_decompose),
    ("koopseed.experiments", "forecast_matrices", "experiments.forecast", _count_forecast),
    ("koopseed.experiments", "onestep_errors", "experiments.score", _count_points),
    ("koopseed.experiments", "nstep_errors", "experiments.score", _count_points),
    ("koopseed.model", "save_matrix_csv", "output.write", _count_bytes),
    ("koopseed.experiments", "ErrorSummary.write_csv", "output.write", _count_bytes_method),
    ("koopseed.experiments", "save_spectrum_csv", "output.write", _count_bytes),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


def self_times(names, starts, ends, parents) -> dict:
    """Per-name self time: each span's duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root span.
    Returns {name: seconds} over the names present.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    duration = ends - starts
    covered = np.zeros_like(duration)
    nested = parents >= 0
    np.add.at(covered, parents[nested], duration[nested])
    own = duration - covered
    out = defaultdict(float)
    for name, value in zip(names, own.tolist()):
        out[name] += value
    return dict(out)


def root_time(starts, ends, parents) -> float:
    """Total duration of the spans that have no parent."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    roots = np.asarray(parents, dtype=np.int64) < 0
    return float((ends[roots] - starts[roots]).sum())


def nesting_errors(starts, ends, parents) -> int:
    """Spans that break the tree: a span that does not end after it starts,
    a child that is not inside its parent, or a root span that overlaps the
    root span before it."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    bad = ends < starts
    nested = parents >= 0
    outer = parents[nested]
    bad[nested] |= (starts[nested] < starts[outer]) | (ends[nested] > ends[outer])
    roots = np.flatnonzero(~nested)
    bad[roots[1:]] |= starts[roots[1:]] < ends[roots[:-1]]
    return int(bad.sum())


class Tracer:
    """Span recorder plus per-layer counters; install() patches koopseed."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counters = defaultdict(float)
        self.simulations = RepeatCounter()
        self.pairs = RepeatCounter()
        self._patches = []

    def add(self, counter: str, amount) -> None:
        self.counters[counter] += amount

    def _wrap(self, fn, span_name, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        calls = span_name + ".calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            self.counters[calls] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def install(self) -> None:
        """Rebind every LAYERS entry; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "koopseed" or n.startswith("koopseed."))
        ]
        for module_name, attr, span_name, hook in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict:
        return self_times(self.names, self.starts, self.ends, self.parents)

    def root_time(self) -> float:
        return root_time(self.starts, self.ends, self.parents)

    def nesting_errors(self) -> int:
        return nesting_errors(self.starts, self.ends, self.parents)

    def save(self, path) -> None:
        """Write the spans as an .npz: name ids, start, end, parent index."""
        ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int16),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )
