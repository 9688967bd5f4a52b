import dataclasses
import functools
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from koopseed import experiments, spectral
from koopseed.dictionary import build_dictionary
from koopseed.experiments import (
    METHODS,
    config_from_dict,
    derive_seed,
    derive_seed_model,
    derived_seed,
    generate_data,
    load_config,
    onestep_errors,
    override_config,
    run_experiments,
    save_spectrum_csv,
    simulate_training,
    spectrum_of,
    train_checkpoint_models,
)
from koopseed.model import KoopmanModel, load_matrix_csv
from koopseed.spectral import forecast_matrices, relative_l2


def tiny_config_dict(**overrides):
    base = {
        "name": "tiny",
        "degree": 2,
        "dt": 0.01,
        "train_steps": 260,
        "train_burn_in": 0,
        "test_count": 4,
        "test_steps": 60,
        "test_burn_in": 0,
        "perturb_radius": 0.3,
        "sigma": 1.0,
        "checkpoint_stride": 130,
        "max_pairs": None,
        "nstep_horizon": 20,
        "nstep_train_pairs": 200,
        "spectrum_train_pairs": 200,
        "root_seed": 99,
        "seeds": 2,
        "init_ranges": [[-1.5, 1.5]] * 4,
        "subsystems": [
            {
                "dim": 2,
                "coordinates": [
                    [{"exponents": [0, 1], "coeff": 1.0}],
                    [
                        {"exponents": [0, 1], "coeff": -0.23},
                        {"exponents": [1, 0], "coeff": 0.99},
                    ],
                ],
            },
            {
                "dim": 2,
                "coordinates": [
                    [{"exponents": [0, 1], "coeff": 1.0}],
                    [
                        {"exponents": [0, 1], "coeff": -0.15},
                        {"exponents": [1, 0], "coeff": 0.59},
                    ],
                ],
            },
        ],
        "couplings": [
            {"target": 0, "source": 1, "strength": 1.0, "type": "diffusive", "drive_coord": 1},
            {"target": 1, "source": 0, "strength": 1.0, "type": "diffusive", "drive_coord": 1},
        ],
    }
    base.update(overrides)
    return base


@pytest.fixture
def tiny_config():
    return config_from_dict(tiny_config_dict())


def flag_defective(patch, flagged=lambda model: True):
    """Make ``spectral.decompose`` flag the decomposition of every model that
    ``flagged`` picks as defective, so that its forecasts of horizons past 1
    take the state-row recursion; ``patch`` is a monkeypatch."""
    decompose = spectral.decompose

    def forced(model):
        dec = decompose(model)
        return dataclasses.replace(dec, defective=dec.defective or flagged(model))

    patch.setattr(spectral, "decompose", forced)


class TestConfig:
    def test_bundled_presets_load(self):
        duffing = load_config("duffing")
        assert duffing.system.dim == 6
        assert duffing.degree == 3
        assert duffing.train_pairs == 5000
        assert duffing.checkpoints()[:2] == [500, 1000]
        vdp = load_config("vdp")
        assert vdp.train_pairs == 5000
        assert vdp.test_length == 2001
        assert vdp.perturb_radius == 0.2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_config_dict()))
        cfg = load_config(str(path))
        assert cfg.name == "tiny"
        assert cfg.system.dim == 4

    def test_missing_config_rejected(self):
        with pytest.raises(FileNotFoundError):
            load_config("no-such-preset")

    def test_directory_does_not_shadow_preset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "duffing").mkdir()
        (tmp_path / "no-such-preset").mkdir()
        assert load_config("duffing").name == "duffing"
        with pytest.raises(FileNotFoundError):
            load_config("no-such-preset")

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            config_from_dict(tiny_config_dict(max_pairs=10_000))
        with pytest.raises(ValueError):
            config_from_dict(tiny_config_dict(train_burn_in=260))
        with pytest.raises(ValueError):
            config_from_dict(tiny_config_dict(nstep_horizon=61))
        with pytest.raises(ValueError):
            config_from_dict(tiny_config_dict(sigma=0.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                config_from_dict(tiny_config_dict(sigma=bad))
            with pytest.raises(ValueError, match="perturb_radius must be positive and finite"):
                config_from_dict(tiny_config_dict(perturb_radius=bad))
        with pytest.raises(ValueError):
            config_from_dict(tiny_config_dict(init_ranges=[[-1, 1]] * 3))
        with pytest.raises(ValueError, match="^root_seed must be >= 0$"):
            override_config(load_config("duffing"), root_seed=-1)

    @pytest.mark.parametrize("kind", ["difusive", None])
    def test_coupling_type_must_be_diffusive(self, kind):
        raw = tiny_config_dict()
        del raw["couplings"][1]["type"]
        if kind is not None:
            raw["couplings"][1]["type"] = kind
        with pytest.raises(ValueError, match=f"coupling 1<-0: type {kind!r}"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("observed_coord", -3),
            ("target", -1),
            ("target", 5),
            ("source", 3),
            ("drive_coord", 7),
            ("target", 0.6),
            ("drive_coord", 1.5),
        ],
    )
    def test_coupling_indices_are_range_checked(self, key, value):
        raw = tiny_config_dict()
        raw["couplings"][1][key] = value
        target, source = raw["couplings"][1]["target"], raw["couplings"][1]["source"]
        with pytest.raises(ValueError, match=f"coupling {target}<-{source}: {key} {value} is not"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "where, path",
        [
            ("subsystem 1", ("subsystems", 1)),
            ("subsystem 0 coordinate 1 term 1", ("subsystems", 0, "coordinates", 1, 1)),
            ("coupling 1<-0", ("couplings", 1)),
        ],
        ids=["subsystem", "term", "coupling"],
    )
    def test_unknown_keys_are_rejected(self, where, path):
        raw = tiny_config_dict()
        entry = raw
        for key in path:
            entry = entry[key]
        entry["sigmaa"] = 5.0
        with pytest.raises(ValueError, match=f"^{where}: unknown key 'sigmaa'$"):
            config_from_dict(raw)

    def test_misspelled_keys_are_named(self):
        raw = tiny_config_dict()
        del raw["train_burn_in"], raw["sigma"]
        raw.update(train_burnin=60, sigmaa=5.0)
        with pytest.raises(ValueError, match="^config: unknown key 'sigmaa', 'train_burnin'$"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "where, path, key",
        [
            ("config", (), "degree"),
            ("config", (), "subsystems"),
            ("subsystem 1", ("subsystems", 1), "dim"),
            ("subsystem 0 coordinate 1 term 0", ("subsystems", 0, "coordinates", 1, 0), "coeff"),
            (r"coupling \?<-0", ("couplings", 1), "target"),
        ],
        ids=["config", "subsystems", "subsystem", "term", "coupling"],
    )
    def test_missing_keys_are_named(self, where, path, key):
        raw = tiny_config_dict()
        entry = raw
        for k in path:
            entry = entry[k]
        del entry[key]
        with pytest.raises(ValueError, match=f"^{where}: missing key '{key}'$"):
            config_from_dict(raw)

    def test_keys_with_a_default_may_be_left_out(self):
        raw = tiny_config_dict()
        for key in ("train_burn_in", "test_burn_in", "sigma", "max_pairs", "seeds", "couplings"):
            del raw[key]
        cfg = config_from_dict(raw)
        assert (cfg.train_burn_in, cfg.test_burn_in, cfg.sigma, cfg.max_pairs, cfg.seeds) == (0, 0, 1.0, None, 1)
        assert cfg.system.couplings == []
        coupling = {"target": 1, "source": 0, "type": "diffusive"}
        loaded = config_from_dict(tiny_config_dict(couplings=[coupling])).system.couplings[0]
        assert (loaded.strength, loaded.drive_coord, loaded.observed_coord) == (1.0, None, 0)

    @pytest.mark.parametrize("key, value", [("degree", 2.5), ("train_steps", 260.9), ("seeds", "2"), ("degree", True)])
    def test_integer_fields_must_be_integral(self, key, value):
        with pytest.raises(ValueError, match=f"^config: {key} {value!r} is not an integer$"):
            config_from_dict(tiny_config_dict(**{key: value}))
        cfg = config_from_dict(tiny_config_dict(degree=3.0, train_steps=260.0))
        assert (cfg.degree, cfg.train_steps) == (3, 260) and type(cfg.degree) is int

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("degree", 2.5, "config: degree 2.5 is not an integer"),
            ("train_steps", 260.9, "config: train_steps 260.9 is not an integer"),
            ("seeds", 1.5, "config: seeds 1.5 is not an integer"),
            ("root_seed", 3.7, "config: root_seed 3.7 is not an integer"),
            ("dt", "fast", "config: dt 'fast' is not a number"),
            ("sigma", "x", "config: sigma 'x' is not a number"),
            ("dt", True, "config: dt True is not a number"),
            ("name", None, "config: name None is not a string"),
            (
                "init_ranges",
                [[-1.5, 1.5]] + [[-1.5, 1.5, 0.0]] * 3,
                "init range 1 [-1.5, 1.5, 0.0] is not a (lo, hi) pair",
            ),
        ],
        ids=["degree", "train_steps", "seeds", "root_seed", "dt", "sigma", "dt-bool", "name", "init_ranges"],
    )
    def test_json_and_override_check_values_alike(self, tiny_config, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(tiny_config_dict(**{key: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            override_config(tiny_config, **{key: value})

    @pytest.mark.parametrize(
        "path, key, value, message",
        [
            (("couplings", 1), "strength", "strong", "coupling 1<-0: strength 'strong' is not a number"),
            (
                ("subsystems", 0, "coordinates", 1, 0),
                "coeff",
                "x",
                "subsystem 0: coordinate 1 term 0: coeff 'x' is not a number",
            ),
            (("couplings", 1), "target", 0, "coupling 0<-0: target and source are the same subsystem"),
        ],
        ids=["strength", "coeff", "self-coupling"],
    )
    def test_nested_values_are_named_by_place(self, path, key, value, message):
        raw = tiny_config_dict()
        entry = raw
        for k in path:
            entry = entry[k]
        entry[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "path, key, value, message",
        [
            ((), "init_ranges", 5, "config: init_ranges 5 is not a list"),
            ((), "subsystems", 5, "config: subsystems 5 is not a list"),
            ((), "subsystems", [5], "subsystem 0: 5 is not a record"),
            (("subsystems", 0), "coordinates", 5, "subsystem 0: coordinates 5 is not a list"),
            (("subsystems", 0, "coordinates"), 1, [5], "subsystem 0 coordinate 1 term 0: 5 is not a record"),
            (
                ("subsystems", 0, "coordinates", 1, 0),
                "exponents",
                5,
                "subsystem 0: coordinate 1 term 0: exponents 5 is not a list",
            ),
            ((), "couplings", {"a": 1}, "config: couplings {'a': 1} is not a list"),
            ((), "couplings", [5], "coupling ?<-?: 5 is not a record"),
        ],
        ids=["init_ranges", "subsystems", "subsystem", "coordinates", "term", "exponents", "couplings", "coupling"],
    )
    def test_scalars_where_the_schema_has_a_list_are_named(self, path, key, value, message):
        raw = tiny_config_dict()
        entry = raw
        for k in path:
            entry = entry[k]
        entry[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(raw)

    def test_exponents_must_be_integral(self):
        raw = tiny_config_dict()
        raw["subsystems"][0]["coordinates"][1][0]["exponents"] = [0, 1.5]
        with pytest.raises(
            ValueError, match=r"^subsystem 0: coordinate 1 term 0: exponent 1\.5 is not an integer$"
        ):
            config_from_dict(raw)
        raw["subsystems"][0]["coordinates"][1][0]["exponents"] = [0.0, 1.0]
        assert config_from_dict(raw).system.subsystems[0].components[1][0][0] == (0, 1)

    @pytest.mark.parametrize(
        "bad", [(1.5, -1.5), (-1.5, float("inf")), (float("nan"), 1.0)], ids=["inverted", "inf", "nan"]
    )
    def test_init_ranges_must_be_finite_and_ordered(self, bad):
        ranges = [[-1.5, 1.5]] * 4
        ranges[2] = list(bad)
        with pytest.raises(ValueError, match=r"^init range 2 .* must be finite with lo <= hi$"):
            config_from_dict(tiny_config_dict(init_ranges=ranges))

    @pytest.mark.parametrize("horizon", [0, 61])
    def test_nstep_horizon_names_its_interval(self, tiny_config, horizon):
        # tiny_config's test trajectories hold 61 states, so 60 steps
        with pytest.raises(ValueError, match=r"^nstep_horizon must lie in \[1, 60\]$"):
            override_config(tiny_config, nstep_horizon=horizon)

    def test_override_revalidates(self, tiny_config):
        smaller = override_config(tiny_config, seeds=1)
        assert smaller.seeds == 1
        with pytest.raises(ValueError):
            override_config(tiny_config, max_pairs=9999)

    def test_checkpoints(self, tiny_config):
        assert tiny_config.checkpoints() == [130, 260]
        capped = override_config(tiny_config, max_pairs=140)
        assert capped.checkpoints() == [130]
        below_stride = override_config(tiny_config, max_pairs=100)
        assert below_stride.checkpoints() == [100]
        assert override_config(capped, max_pairs=None).checkpoints() == [130, 260]

    def test_derived_seed_is_stable(self):
        a = derived_seed(7, "train-init", 0)
        b = derived_seed(7, "train-init", 0)
        c = derived_seed(7, "train-init", 1)
        d = derived_seed(7, "test-perturb", 0)
        assert a == b
        assert len({a, c, d}) == 3


class TestDeriveSeed:
    def test_duffing_seed_structure(self, tmp_path):
        cfg = load_config("duffing")
        path = tmp_path / "seed.csv"
        seed = derive_seed(cfg, path)
        assert seed.matrix.shape == (84, 84)
        # every interaction monomial row/column is structurally zero
        glob = cfg.dictionary()
        offsets = cfg.system.offsets
        for k, m in enumerate(glob.entries):
            if sum(any(m[a:b]) for a, b in zip(offsets, offsets[1:])) >= 2:
                assert not seed.matrix[k, :].any()
                assert not seed.matrix[:, k].any()
        loaded = load_matrix_csv(path)
        assert np.array_equal(loaded.matrix, seed.matrix)
        assert loaded.dictionary == glob

    def test_single_linear_subsystem_matches_exponential(self):
        A = np.array([[0.0, 1.0], [-0.8, -0.1]])
        raw = tiny_config_dict(
            degree=1,
            subsystems=[
                {
                    "dim": 2,
                    "coordinates": [
                        [{"exponents": [0, 1], "coeff": 1.0}],
                        [{"exponents": [1, 0], "coeff": -0.8}, {"exponents": [0, 1], "coeff": -0.1}],
                    ],
                }
            ],
            couplings=[],
            init_ranges=[[-1.5, 1.5]] * 2,
            nstep_horizon=20,
        )
        cfg = config_from_dict(raw)
        seed = derive_seed_model(cfg)
        assert seed.matrix.shape == (3, 3)
        assert np.allclose(seed.matrix[1:, 1:], expm(A * cfg.dt), atol=1e-12)

    def test_degree_one_three_subsystems_is_seven(self):
        cfg = override_config(load_config("duffing"), degree=1)
        seed = derive_seed_model(cfg)
        assert seed.matrix.shape == (7, 7)


class TestGenerateData:
    def test_shapes_and_burn_in(self, tiny_config):
        data = generate_data(tiny_config, 0)
        assert data.train_states.shape == (261, 4)
        assert data.test_states.shape == (4, 61, 4)

    def test_test_starts_near_training_initial_state(self, tiny_config):
        data = generate_data(tiny_config, 0)
        x0 = simulate_training(tiny_config, 0)[0]
        for t in range(tiny_config.test_count):
            offset = data.test_states[t, 0] - x0
            assert np.all(np.abs(offset) < tiny_config.perturb_radius)

    def test_burn_in_discards(self):
        cfg = config_from_dict(tiny_config_dict(train_burn_in=60, test_burn_in=10))
        data = generate_data(cfg, 0)
        assert data.train_states.shape == (201, 4)
        assert data.test_states.shape == (4, 51, 4)

    @pytest.mark.parametrize("burn_in", [0, 10])
    def test_test_states_hold_no_burn_in(self, burn_in):
        # the discarded prefix is freed: the test states' buffer is their own size
        cfg = config_from_dict(tiny_config_dict(test_burn_in=burn_in))
        states = generate_data(cfg, 0).test_states
        assert states.flags.c_contiguous
        buffer = states
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.nbytes == states.nbytes

    def test_deterministic(self, tiny_config):
        a = generate_data(tiny_config, 1)
        b = generate_data(tiny_config, 1)
        assert np.array_equal(a.train_states, b.train_states)
        assert np.array_equal(a.test_states, b.test_states)
        c = generate_data(tiny_config, 0)
        assert not np.array_equal(a.train_states, c.train_states)


def _assert_summary_reduces_raw(out, stage, s, keys) -> np.ndarray:
    """Seed s's raw error array of ``stage``, after checking that row 2i + j
    of its per-seed summary is the exact mean and std of raw[i, j]."""
    raw = np.load(out / f"{stage}_raw_seed{s}.npy")
    rows = (out / f"{stage}_summary_seed{s}.csv").read_text().splitlines()[1:]
    assert raw.shape[:2] == (len(keys), len(METHODS)) and len(rows) == raw.shape[0] * raw.shape[1]
    for row, line in enumerate(rows):
        i, j = divmod(row, len(METHODS))
        key_s, method, mean_s, std_s, count_s = line.split(",")
        assert (int(key_s), method, int(count_s)) == (keys[i], METHODS[j], raw[i, j].size)
        assert float(mean_s) == np.mean(raw[i, j])
        assert float(std_s) == np.std(raw[i, j])
    return raw


def three_blocks(tiny_config, patch):
    """tiny_config with 8 test trajectories of 61 states, scored in blocks of
    at most 183 states: three blocks, of 3, 3 and 2 trajectories."""
    patch.setattr(experiments, "_SCORE_BLOCK_STATES", 183)
    return override_config(tiny_config, test_count=8)


class TestExperimentDrivers:
    def test_onestep_summary_and_raw_agree(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        summary = run_experiments(tiny_config, ("onestep",), out)["onestep"]
        assert summary.keys == [130, 260]
        points_per_seed = tiny_config.test_count * (tiny_config.test_length - 1)
        assert summary.mean.shape == summary.std.shape == summary.count.shape == (2, len(METHODS))
        assert (summary.count == tiny_config.seeds * points_per_seed).all()
        assert np.isfinite(summary.mean).all() and (summary.std >= 0).all()
        for s in range(tiny_config.seeds):
            raw = _assert_summary_reduces_raw(out, "onestep", s, summary.keys)
            assert raw.shape == (2, len(METHODS), tiny_config.test_count, tiny_config.test_length - 1)

    def test_onestep_single_checkpoint(self, tiny_config):
        cfg = override_config(tiny_config, checkpoint_stride=260, seeds=1)
        summary = run_experiments(cfg, ("onestep",))["onestep"]
        assert summary.keys == [260]

    def test_nstep_horizon_one_reduces_to_one_step(self, tiny_config):
        cfg = override_config(tiny_config, nstep_horizon=1, seeds=1)
        summary = run_experiments(cfg, ("nstep",))["nstep"]
        assert summary.keys == [1]
        # recompute: one-step predictions from each test trajectory start
        from koopseed.experiments import forecast_matrices

        data = generate_data(cfg, 0)
        models = train_checkpoint_models(cfg, data, [cfg.nstep_train_pairs])
        dic = cfg.dictionary()
        for j, method in enumerate(METHODS):
            mats, _ = forecast_matrices(models[method][cfg.nstep_train_pairs], [1])
            errs = [
                relative_l2(
                    data.test_states[t, 1], mats[1] @ dic.evaluate(data.test_states[t, 0])
                )
                for t in range(cfg.test_count)
            ]
            assert summary.mean[0, j] == pytest.approx(float(np.mean(errs)), rel=1e-12)

    def test_nstep_files(self, tiny_config, tmp_path):
        out = tmp_path / "nstep"
        summary = run_experiments(tiny_config, ("nstep",), out)["nstep"]
        assert summary.keys == list(range(1, 21))
        for s in range(tiny_config.seeds):
            raw = _assert_summary_reduces_raw(out, "nstep", s, summary.keys)
            assert raw.shape == (20, len(METHODS), tiny_config.test_count)

    def test_spectrum_export(self, tiny_config, tmp_path):
        out = tmp_path / "spec"
        result = run_experiments(tiny_config, ("spectrum",), out)["spectrum"]
        n_dic = len(tiny_config.dictionary())
        for method in METHODS:
            assert len(result["counts"][method]) == tiny_config.seeds
            assert all(0 <= c <= n_dic for c in result["counts"][method])
            data = np.loadtxt(out / f"spectrum_seed0_{method}.csv", delimiter=",", skiprows=1)
            assert data.shape == (n_dic, 3)
            assert np.allclose(np.abs(data[:, 0] + 1j * data[:, 1]), data[:, 2])
        counts_lines = (out / "spectrum_counts.csv").read_text().splitlines()
        assert counts_lines[0] == "method,seed,count_above_threshold,threshold,pairs"
        assert len(counts_lines) == 1 + 2 * tiny_config.seeds

    def test_identity_spectrum_counts_everything(self, tmp_path):
        dic = build_dictionary(2, 2)
        mu = spectrum_of(KoopmanModel(dic, np.eye(len(dic))))
        assert np.array_equal(mu, np.ones(len(dic), dtype=complex))
        assert int((np.abs(mu) > 0.99).sum()) == len(dic)
        save_spectrum_csv(tmp_path / "id.csv", mu)
        data = np.loadtxt(tmp_path / "id.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 2], np.ones(len(dic)))

    def test_byte_determinism(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiments(tiny_config, ("onestep",), out_a)
        run_experiments(tiny_config, ("onestep",), out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_notes_name_the_matrix_power_path(self, tiny_config, tmp_path, monkeypatch):
        cfg = override_config(tiny_config, seeds=1)
        run_experiments(cfg, ("onestep", "nstep"), tmp_path / "spectral")
        assert not any(p.suffix == ".txt" for p in (tmp_path / "spectral").iterdir())

        # the proposed models' decompositions flagged: of those, only the
        # n-step query reaches decompose, as one-step forecasts are row reads
        flag_defective(monkeypatch, lambda model: model.diagnostics.get("sigma") is not None)
        out = tmp_path / "forced"
        run_experiments(cfg, ("onestep", "nstep"), out)
        notes = (out / "nstep_notes.txt").read_text()
        assert notes == "seed=0 pairs=200 method=proposed forecast-path=matrix-power\n"
        assert not (out / "onestep_notes.txt").exists()

    def test_normal_run_removes_stale_notes(self, tiny_config, tmp_path, monkeypatch):
        # every decomposition flagged defective, then a normal run into the
        # same directory: the first run's notes must not remain, and neither
        # may a one-step notes file that an older version wrote
        with monkeypatch.context() as patch:
            flag_defective(patch)
            run_experiments(tiny_config, ("onestep", "nstep"), tmp_path)
        notes = (tmp_path / "nstep_notes.txt").read_text().splitlines()
        assert notes == [
            f"seed={s} pairs=200 method={m} forecast-path=matrix-power"
            for s in range(tiny_config.seeds)
            for m in METHODS
        ]
        assert not (tmp_path / "onestep_notes.txt").exists()
        (tmp_path / "onestep_notes.txt").write_text("seed=0 checkpoint=130 method=edmd forecast-path=matrix-power\n")
        run_experiments(tiny_config, ("onestep", "nstep"), tmp_path)
        assert not any(p.suffix == ".txt" for p in tmp_path.iterdir())

    def test_horizon_one_nstep_query_writes_no_notes(self, tiny_config, tmp_path):
        # a query of horizon 1 alone is an exact row read, not a fallback,
        # although it reports the path "matrix-power"
        cfg = override_config(tiny_config, seeds=1, nstep_horizon=1)
        run_experiments(cfg, ("nstep",), tmp_path)
        assert (tmp_path / "nstep_summary.csv").exists()
        assert not any(p.suffix == ".txt" for p in tmp_path.iterdir())

    def test_run_without_raw_removes_stale_raw_files(self, tiny_config, tmp_path):
        run_experiments(tiny_config, ("onestep", "nstep"), tmp_path, write_raw=True)
        assert len(list(tmp_path.glob("*.npy"))) == 2 * tiny_config.seeds
        run_experiments(tiny_config, ("onestep", "nstep"), tmp_path, write_raw=False)
        assert not list(tmp_path.glob("*.npy"))

    def test_run_with_fewer_seeds_removes_stale_seed_files(self, tiny_config, tmp_path):
        run_experiments(tiny_config, out_dir=tmp_path)
        assert any("seed1" in p.name for p in tmp_path.iterdir())
        run_experiments(override_config(tiny_config, seeds=1), out_dir=tmp_path)
        fresh = tmp_path / "fresh"
        run_experiments(override_config(tiny_config, seeds=1), out_dir=fresh)
        names = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
        assert names == sorted(p.name for p in fresh.iterdir())
        assert not any("seed1" in name for name in names)

    def test_run_keeps_the_files_of_stages_it_does_not_run(self, tiny_config, tmp_path):
        run_experiments(tiny_config, ("onestep",), tmp_path)
        onestep = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_experiments(tiny_config, ("nstep",), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("onestep")} == onestep
        assert (tmp_path / "nstep_raw_seed1.npy").exists()

    @pytest.mark.parametrize(
        "stages, message", [((), "no stage given"), (("foo",), "unknown stage 'foo'")]
    )
    def test_bad_stages_rejected_before_simulation(self, tiny_config, monkeypatch, stages, message):
        def no_simulation(*args):
            raise AssertionError("a simulation ran before the stages were checked")

        monkeypatch.setattr(experiments, "simulate", no_simulation)
        monkeypatch.setattr(experiments, "simulate_batch", no_simulation)
        with pytest.raises(ValueError, match=message):
            run_experiments(tiny_config, stages)

    def test_repeated_stages_run_once_each(self, tiny_config):
        twice = run_experiments(tiny_config, ("onestep", "onestep"))
        once = run_experiments(tiny_config, ("onestep",))
        assert twice.keys() == once.keys() == {"onestep"}
        assert np.array_equal(twice["onestep"].mean, once["onestep"].mean)

    def test_shared_pass_matches_separate_stages(self, tiny_config, tmp_path):
        shared, separate = tmp_path / "shared", tmp_path / "separate"
        results = run_experiments(tiny_config, out_dir=shared)
        alone = {stage: run_experiments(tiny_config, (stage,), separate)[stage] for stage in results}
        assert results.keys() == alone.keys()
        assert results["spectrum"] == alone["spectrum"]
        for stage in ("onestep", "nstep"):
            for field in ("keys", "mean", "std", "count"):
                assert np.array_equal(getattr(results[stage], field), getattr(alone[stage], field))
        names = sorted(p.name for p in shared.iterdir())
        assert names == sorted(p.name for p in separate.iterdir())
        assert "onestep_raw_seed1.npy" in names and "nstep_raw_seed1.npy" in names
        for name in names:
            assert (shared / name).read_bytes() == (separate / name).read_bytes(), name

    def test_checkpoint_union_trains_like_single_count(self, tiny_config):
        data = generate_data(tiny_config, 0)
        pairs = tiny_config.nstep_train_pairs
        union = sorted(set(tiny_config.checkpoints()) | {pairs})
        assert union == [130, 200, 260]
        together = train_checkpoint_models(tiny_config, data, union)
        alone = train_checkpoint_models(tiny_config, data, [pairs])
        for method in METHODS:
            assert np.array_equal(together[method][pairs].matrix, alone[method][pairs].matrix)

    def test_seed_aggregation_averages_each_cell_like_np_mean(self):
        # at 8 or more seeds np.mean's pairwise sum adds in another order than
        # a sum over the seed axis of the stacked summaries
        rng = np.random.default_rng(16)
        keys = list(range(1, 51))
        per_seed = [
            experiments.ErrorSummary(
                keys, rng.lognormal(-7, 2, (50, 2)), rng.lognormal(-7, 2, (50, 2)), np.full((50, 2), 3)
            )
            for _ in range(10)
        ]
        summary = experiments._aggregate_summaries(per_seed)
        assert summary.keys == keys
        assert (summary.count == 30).all()
        for cell in np.ndindex(50, 2):
            assert summary.mean[cell] == np.mean([s.mean[cell] for s in per_seed])
            assert summary.std[cell] == np.mean([s.std[cell] for s in per_seed])

    def test_multi_block_summaries_match_the_raw_moments(self, tiny_config, monkeypatch, tmp_path):
        cfg = three_blocks(tiny_config, monkeypatch)
        run_experiments(cfg, ("onestep",), tmp_path)
        for s in range(cfg.seeds):
            raw = np.load(tmp_path / f"onestep_raw_seed{s}.npy")
            rows = np.loadtxt(tmp_path / f"onestep_summary_seed{s}.csv", delimiter=",", skiprows=1, usecols=(2, 3, 4))
            assert raw.shape[2] == 8 and len(rows) == raw.shape[0] * raw.shape[1]
            for row, (mean, std, count) in enumerate(rows):
                cell = raw[divmod(row, len(METHODS))]
                assert count == cell.size
                assert mean == pytest.approx(np.mean(cell), rel=1e-14, abs=0)
                assert std == pytest.approx(np.std(cell), rel=1e-14, abs=0)

    def test_summaries_with_and_without_raw_output_are_byte_equal(self, tiny_config, monkeypatch, tmp_path):
        cfg = three_blocks(tiny_config, monkeypatch)
        with_raw, without = tmp_path / "raw", tmp_path / "no-raw"
        summary = run_experiments(cfg, ("onestep",), with_raw, write_raw=True)["onestep"]
        run_experiments(cfg, ("onestep",), without, write_raw=False)
        names = sorted(p.name for p in without.iterdir())
        assert names == ["onestep_summary.csv", "onestep_summary_seed0.csv", "onestep_summary_seed1.csv"]
        for name in names:
            assert (with_raw / name).read_bytes() == (without / name).read_bytes(), name
        unwritten = run_experiments(cfg, ("onestep",))["onestep"]
        assert np.array_equal(unwritten.mean, summary.mean) and np.array_equal(unwritten.std, summary.std)

    def test_onestep_stage_holds_no_per_point_array_without_raw_output(self, tiny_config, monkeypatch):
        # 40 trajectories of 300 states, one per block, at 10 checkpoints: the
        # per-seed error array would take 1.9 MB, and a block's Psi 36 kB
        cfg = override_config(tiny_config, test_count=40, test_steps=299, checkpoint_stride=26, seeds=1)
        monkeypatch.setattr(experiments, "_SCORE_BLOCK_STATES", cfg.test_length)
        would_be = np.empty((len(cfg.checkpoints()), len(METHODS), cfg.test_count, cfg.test_length - 1)).nbytes
        assert would_be > 1.9e6
        scores, peaks = experiments._onestep_scores, []

        def traced(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = scores(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(experiments, "_onestep_scores", traced)
        tracemalloc.start()
        try:
            run_experiments(cfg, ("onestep",))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and 0 < peaks[0] < would_be

    def test_methods_share_test_data(self, tiny_config):
        # identical counts per method at each checkpoint: same trajectories,
        # same points, same metric
        summary = run_experiments(override_config(tiny_config, seeds=1), ("onestep",))["onestep"]
        assert (summary.count == summary.count[:, :1]).all()


@given(st.data(), st.integers(2, 400), st.floats(0.0, 0.5))
def test_merged_moments_match_numpy_over_any_split(data, size, log_std):
    # values about 1e3 with a std of 1 to 3: a merge by sums of squares loses
    # about 1e-9 of the std there, the pairwise update about 1e-13
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = 1e3 + 10.0**log_std * rng.standard_normal(size)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, size - 1), min_size=1, max_size=7))))
    parts = [(part.size, np.mean(part), np.var(part)) for part in np.split(values, cuts)]
    n, mean, var = functools.reduce(experiments._merge_moments, parts)
    assert n == size
    assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
    assert np.sqrt(var) == pytest.approx(np.std(values), rel=1e-12, abs=0)


class TestOnestepErrors:
    def test_equals_row_layout_formula(self, tiny_config):
        # plane-layout scoring gives the bits of the row-layout formula
        data = generate_data(tiny_config, 0)
        models = train_checkpoint_models(tiny_config, data, tiny_config.checkpoints())
        psi = tiny_config.dictionary().evaluate(data.test_states)
        count, length, n_dic = psi.shape
        truth = data.test_states[:, 1:]
        for method in METHODS:
            for model in models[method].values():
                forecast = forecast_matrices(model, [1])[0][1]
                pred = (psi.reshape(-1, n_dic) @ forecast.T).reshape(count, length, -1)[:, :-1]
                expected = np.linalg.norm(pred - truth, axis=-1) / np.linalg.norm(truth, axis=-1)
                got = onestep_errors(forecast, psi, data.test_states)
                assert got.shape == (count, length - 1)
                assert np.array_equal(got, expected)

    # Bounds in states on tiny_config's 4 trajectories of 61 states: blocks of
    # 3 and 1, below one trajectory (one per block), exactly one trajectory,
    # and one block larger than the whole set.
    @pytest.mark.parametrize("bound", [183, 10, 61, 10**6])
    def test_blocked_scores_equal_whole_tensor(self, tiny_config, monkeypatch, bound):
        monkeypatch.setattr(experiments, "_SCORE_BLOCK_STATES", bound)
        dictionary = tiny_config.dictionary()
        data = generate_data(tiny_config, 0)
        models = train_checkpoint_models(tiny_config, data, tiny_config.checkpoints())
        summary, errors = experiments._onestep_scores(tiny_config, dictionary, data, models, True)
        psi = dictionary.evaluate(data.test_states)
        assert summary.keys == tiny_config.checkpoints()
        for i, cp in enumerate(summary.keys):
            for j, method in enumerate(METHODS):
                forecast = forecast_matrices(models[method][cp], [1])[0][1]
                expected = onestep_errors(forecast, psi, data.test_states)
                assert np.array_equal(errors[i, j], expected)

    # 3 trajectories of 300 states, so a block spans more than one dictionary
    # pass: the whole set in one block, and blocks of two trajectories and
    # then one, which is a single pass
    @pytest.mark.parametrize("bound", [10**6, 600])
    def test_multi_pass_blocks_score_like_row_major_psi(self, tiny_config, monkeypatch, bound):
        monkeypatch.setattr(experiments, "_SCORE_BLOCK_STATES", bound)
        config = override_config(tiny_config, test_count=3, test_steps=299, seeds=1)
        dictionary = config.dictionary()
        data = generate_data(config, 0)
        models = train_checkpoint_models(config, data, config.checkpoints())
        summary, errors = experiments._onestep_scores(config, dictionary, data, models, True)
        psi = np.ascontiguousarray(dictionary.evaluate(data.test_states))
        for i, cp in enumerate(summary.keys):
            for j, method in enumerate(METHODS):
                forecast = forecast_matrices(models[method][cp], [1])[0][1]
                assert np.array_equal(errors[i, j], onestep_errors(forecast, psi, data.test_states))

    def test_test_tensor_is_never_evaluated_whole(self, tiny_config, monkeypatch):
        # one trajectory per block; each block's Psi must be gone before the
        # next block is evaluated, so one block's Psi is alive at a time
        bound = tiny_config.test_length
        monkeypatch.setattr(experiments, "_SCORE_BLOCK_STATES", bound)
        evaluate = experiments.Dictionary.evaluate
        test_calls = []
        blocks = []

        def recorded(dictionary, x):
            if x.ndim == 3:  # the training states are one 2-D trajectory
                assert all(block() is None for block in blocks), "an earlier block's Psi is alive"
                test_calls.append(x.shape[0] * x.shape[1])
                psi = evaluate(dictionary, x)
                blocks.append(weakref.ref(psi))
                return psi
            return evaluate(dictionary, x)

        monkeypatch.setattr(experiments.Dictionary, "evaluate", recorded)
        run_experiments(tiny_config, ("onestep",))
        total = tiny_config.seeds * tiny_config.test_count * tiny_config.test_length
        assert sum(test_calls) == total
        assert max(test_calls) <= bound

    def test_zero_norm_truth_rejected(self, tiny_config):
        data = generate_data(tiny_config, 0)
        states = data.test_states.copy()
        states[1, 5] = 0.0
        psi = tiny_config.dictionary().evaluate(states)
        forecast = np.zeros((states.shape[-1], psi.shape[-1]))
        with pytest.raises(ValueError, match="zero-norm"):
            onestep_errors(forecast, psi, states)
