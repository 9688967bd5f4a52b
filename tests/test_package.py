"""The README's library quick start, override table and output-file list,
the package's public names and the names the benchmark hooks stay in step
with the API; the suite runs its BLAS on the thread count that
tests/conftest.py pins."""

import argparse
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopseed
from koopseed import cli
from koopseed.cli import build_parser, main
from koopseed.experiments import ExperimentConfig

from test_experiments import flag_defective, tiny_config_dict

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Names bench/workloads.py and bench/selftest.py import, look up or rebind,
# by module.
WORKLOAD_NAMES = {
    "koopseed.experiments": (
        "online_update_many", "forecast_matrices", "onestep_errors", "nstep_errors",
        "simulate", "simulate_batch", "load_config", "override_config", "derive_seed_model",
    ),
    "koopseed.edmd": ("SnapshotPair", "online_update", "online_init"),
    "koopseed.cli": ("main", "load_config"),
    "koopseed.dynamics": ("simulate", "simulate_batch"),
    "koopseed.dictionary": ("Dictionary", "build_dictionary"),
    "koopseed.model": ("KoopmanModel",),
    "koopseed.spectral": ("state_projector", "decompose", "prediction_matrix"),
}


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["x_forecast"].shape == (6,)


def _readme_overrides():
    # subcommand -> {(flag, config field)} from the README's override table;
    # a flag sets the field of its own name unless the field follows it
    table = README.read_text().split("| subcommand | overrides |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            names, overrides = line.strip("|").split("|")
            flags = re.findall(r"`(--[\w-]+)`(?: \(`(\w+)`\))?", overrides)
            for name in re.findall(r"`([\w-]+)`", names):
                rows[name] = {(flag, dest or flag[2:].replace("-", "_")) for flag, dest in flags}
    return rows


def test_readme_override_table_matches_the_cli():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {
        name: {(a.option_strings[0], a.dest) for a in sub._actions if a.dest in fields}
        for name, sub in commands.items()
    }
    assert _readme_overrides() == parsed


def _readme_output_patterns():
    # file name -> regex, from the README's "Output files" list; a
    # <placeholder> stands for one name part without "_" or ".", * for any
    section = README.read_text().split("## Output files", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([\w<>*-]+\.(?:csv|npy|txt))`", section)
    return {n: re.sub(r"<\w+>", "[^_.]+", re.escape(n)).replace(r"\*", ".+") for n in names}


def test_readme_output_list_names_every_written_file(tmp_path, monkeypatch):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(tiny_config_dict(seeds=1)))
    out = tmp_path / "out"
    traj = ["--traj", str(out / "train_seed0.csv")]
    runs = [["derive"], ["simulate", "--tests", "2"], ["train-online", *traj], ["train-batch", *traj], ["spectrum"]]
    for command, *flags in runs:
        main([command, "--config", str(config), "--out", str(out), *flags])
    # every decomposition flagged defective, so the n-step stage writes its
    # notes; one-step forecasts never decompose, so that stage writes none
    flag_defective(monkeypatch)
    for command in ("eval-onestep", "eval-nstep"):
        main([command, "--config", str(config), "--out", str(out)])
    written = sorted(p.name for p in out.iterdir())
    patterns = _readme_output_patterns()
    assert [n for n in written if not any(re.fullmatch(p, n) for p in patterns.values())] == []
    assert [n for n, p in patterns.items() if not any(re.fullmatch(p, w) for w in written)] == []


def test_all_names_resolve():
    assert [name for name in koopseed.__all__ if not hasattr(koopseed, name)] == []


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    return tracer.LAYERS


def test_bench_hooked_names_resolve():
    missing = []
    for module_name, attr, _, _ in _bench_layers():
        owner = importlib.import_module(module_name)
        if "." in attr:  # the tracer patches the method on its own class
            cls_name, meth = attr.split(".")
            if meth not in vars(getattr(owner, cls_name, object)):
                missing.append(f"{module_name}.{attr}")
        elif not hasattr(owner, attr):
            missing.append(f"{module_name}.{attr}")
    for module_name, attrs in WORKLOAD_NAMES.items():
        owner = importlib.import_module(module_name)
        missing += [f"{module_name}.{a}" for a in attrs if not hasattr(owner, a)]
    assert missing == []


def test_derive_runs_without_scipy(tmp_path):
    # in a fresh interpreter, so that no module the tests import counts, and
    # with scipy and mpmath unimportable, as on an install without them
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(tiny_config_dict()))
    traj = tmp_path / "train_seed0.csv"
    runs = [
        (["derive", "--config", "duffing"], ["seed_matrix.csv"]),
        (["simulate"], ["train_seed0.csv"]),
        (["train-online", "--traj", str(traj)], ["koopman_online_m260.csv"]),
        (["train-batch", "--traj", str(traj)], ["koopman_edmd_m260.csv"]),
        (["eval-onestep"], ["onestep_summary.csv", "onestep_raw_seed1.npy"]),
        (["eval-nstep"], ["nstep_summary.csv", "nstep_raw_seed1.npy"]),
        (["spectrum"], ["spectrum_counts.csv", "spectrum_seed1_edmd.csv"]),
    ]
    calls = "".join(
        f"main({[*argv, *([] if argv[0] == 'derive' else ['--config', str(config)]), '--out', str(tmp_path)]!r})\n"
        for argv, _ in runs
    )
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "from koopseed.cli import main\n"
        f"{calls}"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath') and sys.modules[m]))\n"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert [name for _, names in runs for name in names if not (tmp_path / name).exists()] == []


def test_suite_runs_the_blas_on_one_thread():
    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        pytest.skip("the caller chose another BLAS thread count")
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS does not export scipy_openblas_get_num_threads64_")
    assert threads[0]() == 1
