"""Tests of the benchmark's own machinery (not part of the Tier-1 suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from koopseed import dynamics, edmd, experiments  # noqa: E402
from koopseed.dictionary import Dictionary, build_dictionary  # noqa: E402
from koopseed.model import KoopmanModel  # noqa: E402
from koopseed.spectral import decompose, prediction_matrix, state_projector  # noqa: E402


def test_self_time_arithmetic_on_hand_built_tree():
    #  0 root  [0, 10]
    #  1   child  [1, 4]
    #  2     grandchild [2, 3]
    #  3   child  [5, 9]
    #  4 root  [12, 13]
    names = ["a", "b", "c", "b", "a"]
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    parents = [-1, 0, 1, 0, -1]
    selfs = tracing.self_times(names, starts, ends, parents)
    assert selfs == pytest.approx({"a": 10 - 3 - 4 + 1, "b": (3 - 1) + 4, "c": 1})
    assert tracing.root_time(starts, ends, parents) == pytest.approx(11.0)
    assert sum(selfs.values()) == pytest.approx(tracing.root_time(starts, ends, parents))
    assert tracing.nesting_errors(starts, ends, parents) == 0


@pytest.mark.parametrize(
    "index, start, end",
    [
        (2, 2.0, 4.5),  # grandchild ends after its parent
        (3, -1.0, 9.0),  # child starts before its parent
        (4, 9.5, 13.0),  # second root overlaps the first
        (1, 4.0, 1.0),  # ends before it starts
    ],
)
def test_nesting_check_rejects_broken_tree(index, start, end):
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    parents = [-1, 0, 1, 0, -1]
    starts[index], ends[index] = start, end
    assert tracing.nesting_errors(starts, ends, parents) >= 1


def test_repeat_fraction_counts_weight_of_seen_keys():
    counter = tracing.RepeatCounter()
    a = np.arange(6.0).tobytes()
    b = (np.arange(6.0) + 1e-12).tobytes()
    assert counter.observe(a, 10) is False
    assert counter.observe(b, 30) is False  # differs in the last bits: not a repeat
    assert counter.observe(a, 10) is True
    assert counter.observe(a, 10) is True
    assert counter.total == 60 and counter.repeated == 20
    assert counter.fraction == pytest.approx(1 / 3)
    assert tracing.RepeatCounter().fraction == 0.0


def test_tracer_nests_field_spans_under_simulate_and_restores_names():
    config = experiments.load_config("duffing")
    x0 = np.full(config.system.dim, 0.3)
    original = experiments.simulate
    tracer = tracing.Tracer()
    with tracer:
        assert experiments.simulate is not original
        experiments.simulate(config.system, x0, 3, config.dt)
        experiments.simulate(config.system, x0, 3, config.dt)
    assert experiments.simulate is original
    assert dynamics.simulate is original
    assert tracer.counters["dynamics.simulate.calls"] == 2
    assert tracer.counters["generator.field.calls"] == 24  # 4 stages x 3 steps x 2
    assert tracer.counters["dynamics.state_steps"] == 6
    assert tracer.simulations.fraction == pytest.approx(0.5)
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert [tracer.names[i] for i in roots] == ["dynamics.simulate"] * 2
    assert all(tracer.names[p] == "dynamics.simulate" for p in tracer.parents if p >= 0)


def test_online_repeat_fraction_sees_replayed_pairs():
    d = build_dictionary(2, 2)
    rng = np.random.default_rng(3)
    psi = d.evaluate(rng.uniform(-1, 1, (11, 2)))
    tracer = tracing.Tracer()
    with tracer:
        state = edmd.online_init(None, 1.0, dictionary=d)
        state = edmd.online_update_many(state, psi[:-1], psi[1:])
        edmd.online_update_many(state, psi[:4], psi[1:5])
    assert tracer.counters["edmd.online.pairs"] == 14
    assert tracer.pairs.fraction == pytest.approx(4 / 14)


@pytest.fixture(scope="module")
def duffing_reference():
    ref_dir = os.path.join(BENCH_DIR, "reference", "duffing")
    config = experiments.override_config(experiments.load_config("duffing"), seeds=1)
    rows = {name: gate.read_rows(os.path.join(ref_dir, name)) for name in gate.REFERENCE_FILES}
    return config, rows


def _onestep_failures(config, rows, reference):
    return gate.check_summary(
        rows, config.checkpoints(), config.test_count * (config.test_length - 1), reference
    )


def test_gate_accepts_reference_summary(duffing_reference):
    config, ref = duffing_reference
    rows = ref["onestep_summary.csv"]
    assert _onestep_failures(config, rows, rows) == []
    counts = ref["spectrum_counts.csv"]
    assert gate.check_spectrum_counts(counts, 1, config.spectrum_train_pairs, counts) == []


@pytest.mark.parametrize(
    "method, factor, rejected",
    [
        ("proposed", 1 + 1e-5, True),
        ("edmd", 1 + 1e-2, False),
        ("edmd", 1.2, True),
    ],
)
def test_gate_rejects_perturbed_summary_value(duffing_reference, method, factor, rejected):
    config, ref = duffing_reference
    reference = ref["onestep_summary.csv"]
    rows = copy.deepcopy(reference)
    row = next(r for r in rows if r["method"] == method)
    row["mean"] = repr(float(row["mean"]) * factor)
    assert bool(_onestep_failures(config, rows, reference)) is rejected


def test_gate_rejects_wrong_count_and_non_finite_mean(duffing_reference):
    config, ref = duffing_reference
    rows = copy.deepcopy(ref["onestep_summary.csv"])
    rows[0]["count"] = "99999"
    rows[1]["mean"] = "nan"
    failures = _onestep_failures(config, rows, None)
    assert len(failures) == 2


def test_gate_rejects_shifted_spectrum_count(duffing_reference):
    config, ref = duffing_reference
    reference = ref["spectrum_counts.csv"]
    rows = copy.deepcopy(reference)
    rows[0]["count_above_threshold"] = str(int(rows[0]["count_above_threshold"]) + 1)
    assert gate.check_spectrum_counts(rows, 1, config.spectrum_train_pairs, reference)


def test_gate_oracle_accepts_recursion_and_rejects_perturbed_matrix():
    rng = np.random.default_rng(5)
    n, m, sigma = 6, 40, 2.0
    seed = rng.normal(size=(n, n))
    psi_x = rng.normal(size=(m, n))
    psi_y = rng.normal(size=(m, n))
    state = edmd.online_update_many(edmd.online_init(seed, sigma), psi_x, psi_y)
    ridge = gate.RidgeOracle(seed, sigma)
    ridge.absorb(psi_x[:15], psi_y[:15])
    ridge.absorb(psi_x[15:], psi_y[15:])
    oracle = ridge.matrix()
    assert gate.check_oracle(state.matrix, oracle) == []
    perturbed = state.matrix.copy()
    perturbed[2, 3] += 1e-6 * np.linalg.norm(oracle)
    assert gate.check_oracle(perturbed, oracle)


def test_gate_forecast_check_against_matrix_powers():
    d = build_dictionary(2, 2)
    rng = np.random.default_rng(9)
    K = 0.2 * rng.normal(size=(len(d), len(d))) + 0.5 * np.eye(len(d))
    model = KoopmanModel(d, K)
    dec = decompose(model)
    assert not dec.defective
    horizons = [1, 2, 5, 10]
    psi = d.evaluate(np.array([0.3, -0.2]))
    forecasts = np.stack([prediction_matrix(dec, n) @ psi for n in horizons])
    B = state_projector(d)
    assert gate.check_forecast(K, B, psi, forecasts, horizons) == []
    forecasts[2, 0] += 1e-3
    assert gate.check_forecast(K, B, psi, forecasts, horizons)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "reproduce-duffing", "reproduce-vdp", "stream-duffing"
    }


def _probe_calls(dictionary):
    """Learner, dictionary and scoring calls as the reproduce pipeline
    makes them, through a freshly installed probe; returns its failures."""
    rng = np.random.default_rng(11)
    states = rng.uniform(-1, 1, (3, 30, dictionary.var_count))
    probe = workloads._PipelineProbe(SpeedGauge(), 2.0)
    with probe.installed():
        psi = dictionary.evaluate(states)
        state = edmd.online_init(None, 2.0, dictionary=dictionary)
        first = experiments.online_update_many(state, psi[0, :12], psi[0, 1:13])
        experiments.online_update_many(first, psi[1, :12], psi[1, 1:13])  # a branch
        state = experiments.online_update_many(first, psi[0, 12:29], psi[0, 13:30])
        matrix = state_projector(dictionary) @ state.matrix
        experiments.onestep_errors(matrix, psi, states)
        experiments.nstep_errors({n: matrix for n in (1, 2, 3)}, psi[:, 0], states, 3)
    return probe.check()


def test_probe_checks_pass_on_the_program():
    assert _probe_calls(build_dictionary(2, 3)) == []


def _broken_update(state, psi_x, psi_y):
    return edmd.online_update_many(state, psi_x[:-1], psi_y[:-1])


def _broken_evaluate(self, x):
    out = _EVALUATE(self, x)
    out[..., -1] *= 1.0 + 1e-9
    return out


def _broken_onestep(forecast, psi_test, test_states):
    return _ONESTEP(forecast, psi_test, test_states) * (1.0 + 1e-6)


_EVALUATE = Dictionary.evaluate
_ONESTEP = experiments.onestep_errors


@pytest.mark.parametrize(
    "owner, name, broken",
    [
        (experiments, "online_update_many", _broken_update),
        (Dictionary, "evaluate", _broken_evaluate),
        (experiments, "onestep_errors", _broken_onestep),
    ],
)
def test_probe_checks_reject_a_broken_batch_path(monkeypatch, owner, name, broken):
    monkeypatch.setattr(owner, name, broken)
    assert _probe_calls(build_dictionary(2, 3))
