import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopseed import cli, dynamics, experiments
from koopseed.cli import main
from koopseed.dictionary import Dictionary
from koopseed.model import load_matrix_csv

from test_experiments import tiny_config_dict


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_dict()))
    return str(path)


def test_derive_writes_seed(tiny_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["derive", "--config", tiny_path, "--out", str(out)]) == 0
    model = load_matrix_csv(out / "seed_matrix.csv")
    assert model.matrix.shape == (15, 15)
    assert "seed_matrix.csv" in capsys.readouterr().out


def test_derive_degree_override(tiny_path, tmp_path):
    out = tmp_path / "out"
    main(["derive", "--config", tiny_path, "--out", str(out), "--degree", "1"])
    model = load_matrix_csv(out / "seed_matrix.csv")
    assert model.matrix.shape == (5, 5)


def test_simulate_writes_trajectories(tiny_path, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", tiny_path, "--out", str(out), "--tests", "2"])
    train = (out / "train_seed0.csv").read_text().splitlines()
    assert train[0] == "t,x_1_1,x_1_2,x_2_1,x_2_2"
    assert len(train) == 1 + 261
    assert (out / "test_seed0_000.csv").exists()
    assert (out / "test_seed0_001.csv").exists()


@pytest.mark.parametrize("flag", ["--tests", "--seed-index"])
def test_simulate_rejects_negative_counts(tiny_path, tmp_path, monkeypatch, flag):
    monkeypatch.setattr(dynamics, "rk4_step", None)  # any integration would fail
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"{flag} must be non-negative"):
        main(["simulate", "--config", tiny_path, "--out", str(out), flag, "-3"])
    assert not out.exists()


def test_simulate_integrates_training_once(tiny_path, tmp_path, monkeypatch):
    step = dynamics.rk4_step
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(dynamics, "rk4_step", counted)
    main(["simulate", "--config", tiny_path, "--out", str(tmp_path), "--tests", "2"])
    config = tiny_config_dict()
    assert len(calls) == config["train_steps"] + config["test_steps"]


@pytest.mark.parametrize("tests, rows", [(1, 2), (2, 2), (9, 4)])
def test_simulate_integrates_only_the_tests_it_writes(tiny_path, tmp_path, monkeypatch, tests, rows):
    # at least two rows: a one-row batch rounds unlike a row of a larger one
    full = tmp_path / "full"
    main(["simulate", "--config", tiny_path, "--out", str(full), "--tests", "4"])
    batch = experiments.simulate_batch
    sizes = []

    def counted(system, x0s, *args, **kwargs):
        sizes.append(len(x0s))
        return batch(system, x0s, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_batch", counted)
    out = tmp_path / "out"
    main(["simulate", "--config", tiny_path, "--out", str(out), "--tests", str(tests)])
    assert sizes == [rows]
    written = sorted(p.name for p in out.glob("test_*.csv"))
    assert written == [f"test_seed0_{t:03d}.csv" for t in range(min(tests, 4))]
    for name in written + ["train_seed0.csv"]:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def test_train_batch_and_online(tiny_path, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", tiny_path, "--out", str(out)])
    traj = str(out / "train_seed0.csv")
    main(["train-batch", "--config", tiny_path, "--traj", traj, "--out", str(out), "--pairs", "200"])
    batch = load_matrix_csv(out / "koopman_edmd_m200.csv")
    assert batch.matrix.shape == (15, 15)
    assert batch.diagnostics["method"] == "edmd"
    main(["train-online", "--config", tiny_path, "--traj", traj, "--out", str(out), "--pairs", "200"])
    online = load_matrix_csv(out / "koopman_online_m200.csv")
    assert online.matrix.shape == (15, 15)
    assert online.diagnostics["sigma"] == 1.0
    assert not np.array_equal(batch.matrix, online.matrix)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 142 pairs is the fewest at which two threads changed train-batch's
    # bytes before the CLI pinned the BLAS (84 monomials, 2 cores);
    # eval-onestep scores through products over the monomial-major test Psi,
    # eval-nstep through spectral forecasts and spectrum through eigvals
    main(["simulate", "--config", "duffing", "--out", str(tmp_path)])
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [
        (["train-batch", "--traj", str(tmp_path / "train_seed0.csv"), "--pairs", "142"], ["koopman_edmd_m142.csv"]),
        (["eval-onestep", "--seeds", "1", "--max-pairs", "1000", "--no-raw"], ["onestep_summary.csv"]),
        (["eval-nstep", "--seeds", "1", "--pairs", "500", "--horizon", "20", "--no-raw"], ["nstep_summary.csv"]),
        (["spectrum", "--seeds", "1", "--pairs", "500"], ["spectrum_counts.csv", "spectrum_seed0_edmd.csv"]),
    ]
    for argv, names in runs:
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            argv_out = [*argv, "--config", "duffing", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "koopseed.cli", *argv_out], env=env, check=True, capture_output=True)
            written.append([(out / name).read_bytes() for name in names])
        assert written[0] == written[1], argv[0]


@pytest.mark.parametrize(
    "command, name", [("train-online", "koopman_online_m200.csv"), ("train-batch", "koopman_edmd_m200.csv")]
)
def test_train_with_pairs_evaluates_only_the_states_it_uses(tmp_path, monkeypatch, command, name):
    # --pairs 200 on the preset's 5001-state trajectory reads 201 states,
    # and writes the bytes of a run on a file holding only those states
    main(["simulate", "--config", "duffing", "--out", str(tmp_path)])
    lines = (tmp_path / "train_seed0.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 5001
    (tmp_path / "head.csv").write_text("".join(lines[: 1 + 201]))
    evaluate = Dictionary.evaluate
    rows = []

    def recorded(dictionary, x):
        rows.append(len(x))
        return evaluate(dictionary, x)

    monkeypatch.setattr(Dictionary, "evaluate", recorded)
    written = []
    for traj in ("train_seed0.csv", "head.csv"):
        out = tmp_path / traj.removesuffix(".csv")
        main([command, "--config", "duffing", "--traj", str(tmp_path / traj), "--pairs", "200", "--out", str(out)])
        written.append((out / name).read_bytes())
    assert rows == [201, 201]
    assert written[0] == written[1]


def test_main_restores_the_callers_blas_thread_count(tiny_path, tmp_path, monkeypatch):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS does not export scipy_openblas_set_num_threads64_")
    get, put = threads
    seen = []
    derive = cli._cmd_derive
    monkeypatch.setattr(cli, "_cmd_derive", lambda args: (seen.append(get()), derive(args)))
    before = get()
    put(2)
    try:
        caller = get()  # two, or fewer on a one-core machine
        main(["derive", "--config", tiny_path, "--out", str(tmp_path)])
        assert seen == [1]
        assert get() == caller
    finally:
        put(before)


@pytest.mark.parametrize("command", ["train-online", "train-batch"])
def test_train_rejects_a_trajectory_at_another_dt(tiny_path, tmp_path, command):
    main(["simulate", "--config", tiny_path, "--out", str(tmp_path)])
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(tiny_config_dict(dt=0.02)))
    traj = str(tmp_path / "train_seed0.csv")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="sampled at dt 0.01, the config at dt 0.02"):
        main([command, "--config", str(coarse), "--traj", traj, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-online", "train-batch"])
@pytest.mark.parametrize("columns", [0, 2])
def test_train_rejects_a_trajectory_of_another_dimension(tiny_path, tmp_path, command, columns):
    # a t-only file and a 2-column one, against the tiny config's 4 variables
    traj = tmp_path / "narrow.csv"
    states = np.column_stack([0.01 * np.arange(3)] + [np.full(3, 0.1)] * columns)
    header = ",".join(["t"] + [f"x{i}" for i in range(columns)])
    np.savetxt(traj, states, delimiter=",", header=header, comments="")
    out = tmp_path / "out"
    match = f"narrow.csv has {columns} state columns, the config's system has dimension 4"
    with pytest.raises(SystemExit, match=match):
        main([command, "--config", tiny_path, "--traj", str(traj), "--out", str(out)])
    assert not out.exists()


def test_eval_onestep_cli(tiny_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["eval-onestep", "--config", tiny_path, "--out", str(out), "--seeds", "1"])
    assert (out / "onestep_summary.csv").exists()
    assert (out / "onestep_raw_seed0.npy").exists()
    printed = capsys.readouterr().out
    assert "onestep" in printed and "130" in printed


def test_error_state_is_left_unchanged(tiny_path, tmp_path):
    with np.errstate(all="warn"):
        before = np.geterr()
        main(["eval-onestep", "--config", tiny_path, "--out", str(tmp_path), "--seeds", "1", "--no-raw"])
        assert np.geterr() == before


def test_eval_onestep_no_raw(tiny_path, tmp_path):
    out = tmp_path / "out"
    main(["eval-onestep", "--config", tiny_path, "--out", str(out), "--seeds", "1", "--no-raw"])
    assert (out / "onestep_summary.csv").exists()
    assert not (out / "onestep_raw_seed0.npy").exists()
    assert not list(out.glob("*raw*"))


def test_eval_nstep_cli(tiny_path, tmp_path):
    out = tmp_path / "out"
    main([
        "eval-nstep", "--config", tiny_path, "--out", str(out),
        "--seeds", "1", "--pairs", "150", "--horizon", "5",
    ])
    lines = (out / "nstep_summary.csv").read_text().splitlines()
    assert lines[0] == "checkpoint_or_n,method,mean,std,count"
    assert len(lines) == 1 + 5 * 2


def test_printed_tables_equal_the_summary_csvs(tiny_path, tmp_path, capsys):
    for command, label in (("eval-onestep", "onestep"), ("eval-nstep", "nstep")):
        out = tmp_path / label
        main([command, "--config", tiny_path, "--out", str(out), "--no-raw"])
        printed = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in (out / f"{label}_summary.csv").read_text().splitlines()[1:]]
        expected = [f"{label}: checkpoint_or_n  proposed(mean/std)  edmd(mean/std)"]
        for proposed, edmd in zip(rows[::2], rows[1::2]):
            assert proposed[0] == edmd[0] and (proposed[1], edmd[1]) == ("proposed", "edmd")
            cells = "  ".join("%.6g/%.6g" % (float(r[2]), float(r[3])) for r in (proposed, edmd))
            expected.append(f"{label}: {int(proposed[0]):>6}  {cells}")
        assert printed == expected


def test_spectrum_cli(tiny_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["spectrum", "--config", tiny_path, "--out", str(out), "--seeds", "1", "--pairs", "150"])
    assert (out / "spectrum_seed0_proposed.csv").exists()
    assert (out / "spectrum_counts.csv").exists()
    assert "count(|mu|>0.99)" in capsys.readouterr().out
    assert not (out / "spectrum.svg").exists()


@pytest.mark.parametrize("pairs", ["-5", "0", "261"])
def test_spectrum_pairs_checked_like_config(tiny_path, tmp_path, pairs):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"spectrum_train_pairs must lie in \[1, 260\]"):
        main(["spectrum", "--config", tiny_path, "--out", str(out), "--seeds", "1", "--pairs", pairs])
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_sigma_rejected_before_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="sigma"):
        main(["reproduce", "duffing", "--sigma", "nan", "--seeds", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("derive", "--sigma"), ("simulate", "--degree"), ("simulate", "--sigma"), ("train-batch", "--sigma"),
        ("eval-nstep", "--checkpoint-stride"), ("eval-nstep", "--max-pairs"),
    ],
)
def test_flags_a_command_never_reads_are_rejected(tiny_path, tmp_path, capsys, command, flag):
    argv = [command, "--config", tiny_path, "--out", str(tmp_path / "out"), flag, "7"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + (["--traj", "train.csv"] if command == "train-batch" else []))
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_preset_fails_cleanly(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["derive", "--config", "nope", "--out", str(tmp_path)])
