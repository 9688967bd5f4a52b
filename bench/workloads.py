"""The benchmark workloads: reproduce-duffing, reproduce-vdp, stream-duffing.

Each ``run_*`` function sets up, runs a fixed number of units of work (one
reproduce pipeline, or one stream episode) that lasts about ``seconds``
seconds (see unit_count) and returns a Result. With ``trace`` off it reports
the end-to-end metrics; with ``trace`` on it alternates untraced and traced
units and reports the per-layer metrics of the traced ones, per unit.

Every timing is normalised to machine speed with a SpeedGauge (see
speed.py): the gauge's kernel runs before and after each unit of work, and
inside reproduce pipelines before each probed call, and the unit's times
are divided by the median slowdown the kernel saw. Raw times are kept in
the result details.

Single learner calls and queries are timed in process CPU time
(``time.process_time``), walls in wall time. A call lasts from 100 us to
50 ms, and one descheduling by another tenant of the host can double it;
the program runs on one thread (the BLAS is pinned), so on a quiet host a
call's CPU time is its latency, and CPU time leaves such stalls out of the
percentiles. Work the program moves into other threads still counts.
"""

import contextlib
import copy
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gate
from speed import SpeedGauge
from tracer import Tracer

from koopseed import cli, dynamics, edmd, experiments
from koopseed.dictionary import Dictionary
from koopseed.model import KoopmanModel
from koopseed.spectral import state_projector

SETUP_REPEATS = 3

# Seconds of the run length that one unit of work (a pipeline, or a stream
# episode) stands for; see unit_count. At 30 s a run does 3 duffing
# pipelines, 2 vdp pipelines or 25 stream episodes: enough units to average
# out data and host noise, few enough that one run takes under a minute on
# the 2-core host the benchmark was calibrated on (a vdp pipeline takes
# about 20 s there, a duffing one 10 s, an episode 0.85 s).
UNIT_SECONDS = {"reproduce-duffing": 10.0, "reproduce-vdp": 15.0, "stream-duffing": 1.2}

STREAM_PRESET = "duffing"
STREAM_EPISODE_PAIRS = 2000
STREAM_QUERY_EVERY = 50
STREAM_POOL = 24  # trajectories generated at set-up; episodes reuse them cyclically
STREAM_CHECK_EVERY = 5  # every 5th spectral-path query is checked against matrix powers

_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import koopseed.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pairs_per_s", "1/s"),
    ("update_p50_us", "us"),
    ("update_p90_us", "us"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
)

PER_LAYER = (
    ("dictionary.calls", "count"),
    ("dictionary.self_s", "s"),
    ("dictionary.rows", "count"),
    ("dictionary.bytes_out", "B"),
    ("generator.field.calls", "count"),
    ("generator.field.self_s", "s"),
    ("generator.field.rows", "count"),
    ("generator.derive.self_s", "s"),
    ("assembly.assemble.self_s", "s"),
    ("dynamics.simulate.calls", "count"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.state_steps", "count"),
    ("dynamics.repeat_frac", "fraction"),
    ("edmd.online.calls", "count"),
    ("edmd.online.self_s", "s"),
    ("edmd.online.pairs", "count"),
    ("edmd.online.repeat_frac", "fraction"),
    ("edmd.batch.calls", "count"),
    ("edmd.batch.self_s", "s"),
    ("edmd.batch.rank_deficient", "count"),
    ("spectral.decompose.calls", "count"),
    ("spectral.decompose.self_s", "s"),
    ("spectral.decompose.defective", "count"),
    ("experiments.forecast.calls", "count"),
    ("experiments.forecast.self_s", "s"),
    ("experiments.forecast.fallback", "count"),
    ("experiments.score.self_s", "s"),
    ("experiments.score.points", "count"),
    ("output.write.self_s", "s"),
    ("output.bytes", "B"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "fraction"),
)


@dataclass
class Result:
    """Metrics as {name: (value, unit, samples)} plus the operation tally."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, messages) -> None:
        if messages:
            self.failed += 1
            self.failures.extend(messages)


@dataclass
class Timings:
    """Normalised samples collected over the units of one kind."""

    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    update_us: list = field(default_factory=list)  # per-pair CPU cost per learner call
    update_s: float = 0.0  # total CPU time inside the learner
    pairs: int = 0
    query_ms: list = field(default_factory=list)

    def add_unit(self, raw_wall, wall, factor, update_s=(), pairs=(), query_s=()) -> None:
        """One unit of work: its raw and normalised wall time, its slowdown
        factor, and its normalised learner-call and query durations."""
        self.walls.append(wall)
        self.raw_walls.append(raw_wall)
        self.factors.append(factor)
        for elapsed, count in zip(update_s, pairs):
            self.update_us.append(elapsed / count * 1e6)
            self.update_s += elapsed
            self.pairs += count
        self.query_ms.extend(t * 1e3 for t in query_s)


def _import_seconds(src_dir) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src_dir],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def _setup(src_dir, prepare, gauge):
    """SETUP_REPEATS normalised samples of (fresh-interpreter import time +
    prepare()). Returns (samples, raw samples, the last prepare() result)."""
    raw = []
    marks = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        marks.append(gauge.mark())
        gauge.tick()
        imported = _import_seconds(src_dir)
        start = time.perf_counter()
        prepared = prepare()
        raw.append(imported + time.perf_counter() - start)
    gauge.tick()
    samples = [r / gauge.factor(m, m + 2) for r, m in zip(raw, marks)]
    return samples, raw, prepared


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def unit_count(workload, seconds, trace) -> int:
    """Units of work in a run: ``seconds`` over the workload's UNIT_SECONDS,
    at least one; with tracing, that many untraced/traced pairs halved.

    The count depends on ``seconds`` alone, never on how fast the units
    run, so every run of a workload at a given seed times the same work.
    """
    units = max(1, int(seconds // UNIT_SECONDS[workload]))
    return max(1, units // 2) if trace else units


def end_to_end_metrics(setup_samples, timings) -> dict:
    """END_TO_END as {name: (value, unit, samples)}.

    ``wall_s`` is the mean over the run's units, not their median: the seed
    fixes which data the units run on, a unit's cost depends on its data,
    and the mean of all of them varies less from seed to seed than the
    middle one of a few.
    """
    t = timings
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (statistics.fmean(t.walls), len(t.walls)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "pairs_per_s": (t.pairs / t.update_s, len(t.update_us)),
        "update_p50_us": (_percentile(t.update_us, 50), len(t.update_us)),
        "update_p90_us": (_percentile(t.update_us, 90), len(t.update_us)),
        "query_p50_ms": (_percentile(t.query_ms, 50), len(t.query_ms)),
        "query_p90_ms": (_percentile(t.query_ms, 90), len(t.query_ms)),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def layer_metrics(tracer, units, traced_wall, factor, overhead) -> tuple:
    """Per-layer metrics per unit of work, plus accounting failures.

    ``traced_wall`` is the raw traced time; self times are divided by the
    slowdown ``factor``. Every child span must lie inside its parent and
    root spans must not overlap, so that self times add up to the time the
    root spans cover; that time must not exceed the traced wall time.
    """
    selfs = tracer.self_times()
    covered = tracer.root_time()
    unattributed = traced_wall - covered
    failures = []
    broken = tracer.nesting_errors()
    if broken:
        failures.append(f"span accounting: {broken} spans lie outside their parent or overlap")
    if unattributed < -1e-6:
        failures.append(
            f"span accounting: root spans cover {covered:.6f} s, more than the "
            f"traced wall {traced_wall:.6f} s"
        )
    special = {
        "dynamics.repeat_frac": tracer.simulations.fraction,
        "edmd.online.repeat_frac": tracer.pairs.fraction,
        "trace_overhead_frac": overhead,
        "unattributed_s": unattributed / factor / units,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = selfs.get(name[: -len(".self_s")], 0.0) / factor / units
        else:
            value = tracer.counters.get(name, 0.0) / units
        metrics[name] = (float(value), unit, units)
    return metrics, failures


def _overhead(untraced, traced) -> float:
    return statistics.median(traced.walls) / statistics.median(untraced.walls) - 1.0


def _timing_details(setup_raw, setup, untraced, traced, gauge) -> dict:
    return {
        "gauge_samples_s": gauge.samples,
        "setup_raw_s": setup_raw,
        "setup_s": setup,
        "untraced_raw_walls_s": untraced.raw_walls,
        "untraced_factors": untraced.factors,
        "traced_raw_walls_s": traced.raw_walls,
        "traced_factors": traced.factors,
    }


# ---------------------------------------------------------------------------
# reproduce-<preset>
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _rebound(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _sample(n) -> list:
    """First, middle and last index of a length-n axis."""
    return sorted({0, n // 2, n - 1})


class _PipelineProbe:
    """Times the online learner and the forecast queries inside reproduce,
    and checks the batch paths at any root seed.

    Names in ``experiments`` and ``Dictionary.evaluate`` are rebound for the
    untraced runs. The speed gauge ticks before each simulation and before
    and after each timed call, so its ticks spread over the whole pipeline.
    Timed calls are normalised by the median slowdown over the pipeline: one
    kernel run tracks the host's speed over a 30 ms call little better than
    chance, while the pipeline's ticks together track it from run to run.
    The gauge's time inside a pipeline is tallied so it can be taken off the
    pipeline's wall time.

    Each learner result is compared with the ridge oracle of its chain, the
    blocks absorbed since ``online_init``, inside the closing tick, so the
    check's cost stays out of the timings. Dictionary and error-score calls
    keep a few sampled rows, which ``check`` compares with the definitions
    after the pipeline.
    """

    def __init__(self, gauge, sigma):
        self.gauge = gauge
        self.sigma = sigma
        self.reset()

    def reset(self) -> None:
        self.update_s = []
        self.pairs = []
        self.query_s = []
        self.gauge_s = 0.0
        self.failures = []
        self._chains = {}  # id(learner result) -> (that state, its RidgeOracle)
        self._rows = []  # (dictionary entries, sampled states, their evaluations)
        self._scores = []  # (forecast matrix, psi, true state, scored error)

    def _tick(self, then=None) -> None:
        self.gauge_s += self.gauge.tick(then)

    def _check_block(self, state, psi_x, psi_y, out) -> None:
        parent = self._chains.get(id(state))
        if parent is None:  # a chain starts at a fresh online_init state
            oracle = gate.RidgeOracle(state.matrix, self.sigma)
        else:  # copied, so a chain may branch from any of its states
            oracle = copy.deepcopy(parent[1])
        oracle.absorb(psi_x, psi_y)
        self.failures += gate.check_oracle(out.matrix, oracle.matrix())
        self._chains[id(out)] = (out, oracle)

    def check(self) -> list:
        failures = list(self.failures)
        for entries, x, psi in self._rows:
            failures += gate.check_monomials(entries, x, psi)
        failures += gate.check_scores(self._scores)
        return failures

    @contextlib.contextmanager
    def installed(self):
        online_many = experiments.online_update_many
        forecast = experiments.forecast_matrices
        evaluate = Dictionary.evaluate
        onestep = experiments.onestep_errors
        nstep = experiments.nstep_errors

        def timed_online(state, psi_x, psi_y):
            self._tick()
            start = time.process_time()
            out = online_many(state, psi_x, psi_y)
            elapsed = time.process_time() - start
            self._tick(lambda: self._check_block(state, psi_x, psi_y, out))
            if psi_x.shape[0]:
                self.update_s.append(elapsed)
                self.pairs.append(psi_x.shape[0])
            return out

        def timed_forecast(model, horizons):
            # Only the one-step scoring queries are sampled: they are 20 of
            # the pipeline's 22 calls, and the two n-step calls, which are
            # twice as slow, would otherwise decide where the p90 falls.
            self._tick()
            start = time.process_time()
            out = forecast(model, horizons)
            elapsed = time.process_time() - start
            self._tick()
            if len(horizons) == 1:
                self.query_s.append(elapsed)
            return out

        def sampled_evaluate(dictionary, x):
            out = evaluate(dictionary, x)
            states = np.asarray(x, dtype=float).reshape(-1, dictionary.var_count)
            rows = _sample(len(states))
            self._rows.append(
                (dictionary.entries, states[rows], out.reshape(-1, len(dictionary))[rows])
            )
            return out

        def sampled_onestep(matrix, psi_test, test_states):
            out = onestep(matrix, psi_test, test_states)
            matrix = matrix.copy()
            for t in _sample(out.shape[0]):
                for k in _sample(out.shape[1]):
                    self._scores.append(
                        (matrix, psi_test[t, k].copy(), test_states[t, k + 1].copy(), out[t, k])
                    )
            return out

        def sampled_nstep(matrices, psi0, test_states, horizon):
            out = nstep(matrices, psi0, test_states, horizon)
            for n in (1, horizon):
                for t in _sample(out.shape[1]):
                    self._scores.append(
                        (matrices[n].copy(), psi0[t].copy(), test_states[t, n].copy(), out[n - 1, t])
                    )
            return out

        def ticked(fn):
            def call(*args, **kwargs):
                self._tick()
                return fn(*args, **kwargs)
            return call

        with contextlib.ExitStack() as stack:
            stack.enter_context(_rebound(experiments, "online_update_many", timed_online))
            stack.enter_context(_rebound(experiments, "forecast_matrices", timed_forecast))
            stack.enter_context(_rebound(experiments, "onestep_errors", sampled_onestep))
            stack.enter_context(_rebound(experiments, "nstep_errors", sampled_nstep))
            stack.enter_context(_rebound(Dictionary, "evaluate", sampled_evaluate))
            for name in ("simulate", "simulate_batch"):
                stack.enter_context(_rebound(experiments, name, ticked(getattr(experiments, name))))
            yield self


def _reproduce_once(preset, out_dir) -> float:
    argv = ["reproduce", preset, "--seeds", "1", "--no-raw", "--out", out_dir]
    log = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log):
        status = cli.main(argv)
    wall = time.perf_counter() - start
    with open(os.path.join(out_dir, "stdout.txt"), "w") as fh:
        fh.write(log.getvalue())
    if status != 0:
        raise RuntimeError(f"koopseed reproduce exited with {status}")
    return wall


def pipeline_root_seed(seed: int, index: int) -> int:
    """Root seed of a run's index-th pipeline: the workload seed itself
    first, then independent draws derived from it."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def run_reproduce(preset, seed, seconds, trace, src_dir, out_dir, reference_dir, spans_prefix):
    """Full ``koopseed reproduce <preset> --seeds 1 --no-raw`` pipelines.

    The CLI only accepts bundled preset names, so the workload seed reaches
    the pipeline by rebinding ``cli.load_config`` to a loader that replaces
    the preset's ``root_seed``. A run does ``unit_count`` pipelines with the
    root seeds ``pipeline_root_seed(seed, 0), (seed, 1), ...``: one
    pipeline's cost depends on its data (duffing states that settle in the
    negative well make ``x ** exponents`` up to 20x slower), so a run samples
    several draws rather than repeating one. In a traced run, each
    untraced/traced pair shares a root seed.
    """
    result = Result()
    gauge = SpeedGauge()
    default_seed = experiments.load_config(preset).root_seed
    roots = []

    def seeded(name):
        return experiments.override_config(experiments.load_config(name), root_seed=roots[-1])

    def prepare():
        config = experiments.override_config(experiments.load_config(preset), root_seed=seed)
        experiments.derive_seed_model(config)
        os.makedirs(out_dir, exist_ok=True)
        return config

    setup, setup_raw, config = _setup(src_dir, prepare, gauge)
    config = experiments.override_config(config, seeds=1)
    probe = _PipelineProbe(gauge, config.sigma)
    untraced, traced = Timings(), Timings()
    tracers = []

    def pipeline(timings, root, tracer=None):
        run_dir = os.path.join(out_dir, f"run{len(roots)}")
        roots.append(root)
        check_reference = reference_dir if root == default_seed else None
        os.makedirs(run_dir, exist_ok=True)
        result.attempted += 1
        probe.reset()
        mark = gauge.mark()
        gauge.tick()
        if tracer is None:
            with probe.installed():
                wall = _reproduce_once(preset, run_dir)
        else:
            with tracer:
                wall = _reproduce_once(preset, run_dir)
        gauge.tick()
        wall -= probe.gauge_s
        factor = gauge.factor(mark)
        timings.add_unit(
            wall, gauge.normalised(mark), factor,
            [t / factor for t in probe.update_s], probe.pairs,
            [t / factor for t in probe.query_s],
        )
        result.fail(probe.check() + gate.check_reproduce(run_dir, config, check_reference))
        if check_reference is not None:
            result.details["reference_bytes_identical"] = result.details.get(
                "reference_bytes_identical", True
            ) and gate.bytes_identical(run_dir, check_reference)

    units = unit_count(f"reproduce-{preset}", seconds, trace)
    with _rebound(cli, "load_config", seeded):
        for index in range(units):
            root = pipeline_root_seed(seed, index)
            pipeline(untraced, root)
            if trace:
                tracers.append(Tracer())
                pipeline(traced, root, tracers[-1])

    if not trace:
        result.metrics = end_to_end_metrics(setup, untraced)
    else:
        overhead = _overhead(untraced, traced)
        per_run = []
        for i, (tracer, wall, factor) in enumerate(
            zip(tracers, traced.raw_walls, traced.factors)
        ):
            metrics, failures = layer_metrics(tracer, 1, wall, factor, overhead)
            result.fail(failures)
            per_run.append(metrics)
            tracer.save(f"{spans_prefix}-{i}.npz")
        result.metrics = {
            name: (statistics.mean(m[name][0] for m in per_run), unit, len(per_run))
            for name, unit in PER_LAYER
        }
    result.details.update(
        _timing_details(setup_raw, setup, untraced, traced, gauge),
        root_seeds=roots,
        reference_checked=default_seed in roots,
    )
    return result


# ---------------------------------------------------------------------------
# stream-duffing
# ---------------------------------------------------------------------------


def stream_inputs(seed):
    """Seed model, dictionary and STREAM_POOL duffing trajectories from ``seed``."""
    config = experiments.load_config(STREAM_PRESET)
    seed_model = experiments.derive_seed_model(config)
    rng = np.random.default_rng(seed)
    lo, hi = np.array(config.init_ranges, dtype=float).T
    x0s = rng.uniform(lo, hi, size=(STREAM_POOL, config.system.dim))
    states = dynamics.simulate_batch(config.system, x0s, STREAM_EPISODE_PAIRS, config.dt)
    return config, seed_model, config.dictionary(), states


class _Episode:
    """One closed-loop episode: absorb STREAM_EPISODE_PAIRS pairs one at a
    time from the seed model, answering a forecast query every
    STREAM_QUERY_EVERY pairs."""

    def __init__(self, config, seed_model, dictionary, states):
        self.config = config
        self.seed_model = seed_model
        self.dictionary = dictionary
        self.states = states
        self.horizons = list(range(1, config.nstep_horizon + 1))
        self.update_s = []  # CPU seconds per update
        self.query_s = []  # CPU seconds per query
        self.samples = []  # (K, psi, forecasts) of spectral queries to check
        self.state = None

    def run(self) -> float:
        clock, cpu = time.perf_counter, time.process_time
        dictionary, states, horizons = self.dictionary, self.states, self.horizons
        state = edmd.online_init(self.seed_model, self.config.sigma)
        spectral_queries = 0
        start = clock()
        for k in range(STREAM_EPISODE_PAIRS):
            pair = edmd.SnapshotPair(states[k], states[k + 1])
            c = cpu()
            state = edmd.online_update(state, pair, dictionary)
            self.update_s.append(cpu() - c)
            if (k + 1) % STREAM_QUERY_EVERY == 0:
                c = cpu()
                model = KoopmanModel(dictionary, state.matrix)
                matrices, path = experiments.forecast_matrices(model, horizons)
                psi = dictionary.evaluate(states[k + 1])
                forecasts = np.stack([matrices[n] @ psi for n in horizons])
                self.query_s.append(cpu() - c)
                if path == "spectral":
                    spectral_queries += 1
                    if spectral_queries % STREAM_CHECK_EVERY == 0:
                        self.samples.append((state.matrix, psi, forecasts))
        wall = clock() - start
        self.state = state
        return wall

    @property
    def operations(self) -> int:
        return len(self.update_s) + len(self.query_s)

    def check(self, projector) -> list:
        psi = self.dictionary.evaluate(self.states)
        oracle = gate.RidgeOracle(self.seed_model.matrix, self.config.sigma)
        oracle.absorb(psi[:-1], psi[1:])
        failures = gate.check_oracle(self.state.matrix, oracle.matrix())
        for matrix, psi0, forecasts in self.samples:
            failures += gate.check_forecast(matrix, projector, psi0, forecasts, self.horizons)
        return failures


def run_stream(seed, seconds, trace, src_dir, spans_prefix):
    result = Result()
    gauge = SpeedGauge()
    setup, setup_raw, inputs = _setup(src_dir, lambda: stream_inputs(seed), gauge)
    config, seed_model, dictionary, pool = inputs
    projector = state_projector(dictionary)

    untraced, traced = Timings(), Timings()
    tracer = Tracer()
    units = unit_count("stream-duffing", seconds, trace)
    # a traced run pairs each traced episode with an untraced one on the
    # same trajectory
    kinds = (False, True) if trace else (False,)
    schedule = [(k, is_traced) for k in range(units) for is_traced in kinds]
    done = []  # (is_traced, raw wall, update and query CPU times)
    first = gauge.mark()
    gauge.tick()
    for episode_count, (k, is_traced) in enumerate(schedule):
        episode = _Episode(config, seed_model, dictionary, pool[k % STREAM_POOL])
        try:
            if is_traced:
                with tracer:
                    wall = episode.run()
            else:
                wall = episode.run()
        except (ArithmeticError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            result.attempted += max(episode.operations, 1)
            result.fail([f"episode {episode_count}: {type(exc).__name__}: {exc}"])
            break
        gauge.tick()
        result.attempted += episode.operations
        failures = episode.check(projector)
        result.failed += len(failures)
        result.failures.extend(failures)
        done.append((is_traced, wall, episode.update_s, episode.query_s))

    # One slowdown for the whole run: the two ticks around an episode track
    # the host's speed during it little better than chance, while all of the
    # run's ticks together track it from run to run.
    factor = gauge.factor(first)
    for is_traced, wall, update_s, query_s in done:
        (traced if is_traced else untraced).add_unit(
            wall,
            wall / factor,
            factor,
            [t / factor for t in update_s],
            [1] * len(update_s),
            [t / factor for t in query_s],
        )

    if not trace:
        result.metrics = end_to_end_metrics(setup, untraced)
    else:
        metrics, failures = layer_metrics(
            tracer,
            len(traced.walls),
            sum(traced.raw_walls),
            statistics.median(traced.factors),
            _overhead(untraced, traced),
        )
        result.fail(failures)
        result.metrics = metrics
        tracer.save(f"{spans_prefix}-0.npz")
    result.details.update(
        _timing_details(setup_raw, setup, untraced, traced, gauge),
        episodes=len(schedule),
    )
    return result
