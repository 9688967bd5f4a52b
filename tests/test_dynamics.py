import dataclasses
import re

import numpy as np
import pytest
from monomial_cases import assert_same_bits, reference_rk4

from koopseed import dynamics
from koopseed.dynamics import (
    BlowUpError,
    CoupledSystem,
    Coupling,
    load_trajectory_csv,
    perturb_initial,
    rk4_step,
    sample_initial,
    save_trajectory_csv,
    simulate,
    simulate_batch,
)
from koopseed.experiments import load_config
from koopseed.generator import PolynomialVectorField

DUFFING = load_config("duffing").system


def harmonic_system():
    f = PolynomialVectorField(2, [[((0, 1), 1.0)], [((1, 0), -1.0)]])
    return CoupledSystem(subsystems=[f], couplings=[])


class TestRK4:
    def test_harmonic_single_step(self):
        sys_ = harmonic_system()
        out = rk4_step(sys_.field, np.array([1.0, 0.0]), 0.01)
        exact = np.array([np.cos(0.01), -np.sin(0.01)])
        assert np.linalg.norm(out - exact) <= 1e-10

    def test_zero_field_is_identity(self):
        f = PolynomialVectorField(2, [[], []])
        x = np.array([0.4, -1.2])
        assert np.array_equal(rk4_step(f, x, 0.1), x)

    def test_scalar_exponential(self):
        f = PolynomialVectorField(1, [[((1,), 1.0)]])
        out = rk4_step(f, np.array([1.0]), 0.01)
        assert abs(out[0] - np.exp(0.01)) <= 1e-11

    def test_fourth_order_convergence(self):
        # halving dt divides the harmonic-oscillator global error by ~16
        sys_ = harmonic_system()
        fld = sys_.field

        def global_error(dt):
            steps = round(1.0 / dt)
            x = np.array([1.0, 0.0])
            for _ in range(steps):
                x = rk4_step(fld, x, dt)
            return np.linalg.norm(x - np.array([np.cos(1.0), -np.sin(1.0)]))

        ratio = global_error(0.02) / global_error(0.01)
        assert 12.0 <= ratio <= 20.0

    def test_blow_up_raises(self):
        f = PolynomialVectorField(1, [[((2,), 1.0)]])  # xdot = x^2
        with pytest.raises(BlowUpError), pytest.warns(RuntimeWarning, match="overflow"):
            rk4_step(f, np.array([1e200]), 1.0)


class TestSimulate:
    def test_lengths_and_initial_state(self):
        sys_ = harmonic_system()
        states = simulate(sys_, [1.0, 0.0], 25, 0.01)
        assert states.shape == (26, 2)
        assert np.array_equal(states[0], [1.0, 0.0])

    def test_zero_steps(self):
        states = simulate(harmonic_system(), [0.5, 0.5], 0, 0.01)
        assert states.shape == (1, 2)

    def test_duffing_bounded(self):
        x0 = sample_initial([(-1.5, 1.5)] * 6, 11)
        states = simulate(DUFFING, x0, 5000, 0.01)
        assert np.abs(states).max() < 10.0

    def test_vanderpol_bounded_after_relaxation(self):
        system = load_config("vdp").system
        x0 = sample_initial([(-np.pi / 2, np.pi / 2), (-1, 1)] * 3, 12)
        settled = simulate(system, x0, 6000, 0.01)[1000:]
        assert np.abs(settled).max() < 15.0
        assert np.abs(settled[:, 0]).max() > 0.5  # limit cycle, not a fixed point

    def test_blow_up_reports_step(self):
        f = PolynomialVectorField(1, [[((2,), 1.0)]])
        sys_ = CoupledSystem(subsystems=[f], couplings=[])
        with pytest.raises(BlowUpError) as info, pytest.warns(RuntimeWarning, match="overflow"):
            simulate(sys_, [5.0], 1000, 0.5)
        assert info.value.step is not None

    @pytest.mark.parametrize("batch", [False, True])
    def test_overflowing_field_blows_up_at_its_step(self, batch):
        x0 = np.array([1e120, 0.0, 0.5, 0.0, 0.5, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowUpError, match="at step 1$"
        ) as info:
            if batch:
                simulate_batch(DUFFING, x0[None], 10, 0.01)
            else:
                simulate(DUFFING, x0, 10, 0.01)
        assert info.value.step == 1

    @pytest.mark.parametrize(
        "x0s, steps, dt",
        [
            (np.full(6, 0.5), 3, 0.01),
            (np.full((2, 6), 0.5), 3, np.nan),
            (np.full((2, 6), 0.5), 3, -0.01),
            (np.full((2, 6), 0.5), 3, 0.0),
            (np.full((2, 6), 0.5), -1, 0.01),
        ],
        ids=["one-state", "nan-dt", "negative-dt", "zero-dt", "negative-steps"],
    )
    def test_batch_rejects_bad_input(self, x0s, steps, dt):
        with pytest.raises(ValueError):
            simulate_batch(DUFFING, x0s, steps, dt)

    def test_determinism_bit_identical(self):
        x0 = sample_initial([(-1.5, 1.5)] * 6, 13)
        a = simulate(DUFFING, x0, 200, 0.01)
        b = simulate(DUFFING, x0, 200, 0.01)
        assert np.array_equal(a, b)

    def test_batch_matches_requested_shape(self):
        x0s = np.stack([sample_initial([(-1.5, 1.5)] * 6, s) for s in range(4)])
        out = simulate_batch(DUFFING, x0s, 50, 0.01)
        assert out.shape == (4, 51, 6)
        # each row equals an independent simulation to high accuracy
        for k in range(4):
            single = simulate(DUFFING, x0s[k], 50, 0.01)
            assert np.allclose(out[k], single, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("preset", ["duffing", "vdp"])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_trajectories_match_the_written_out_rk4_bit_for_bit(self, preset, rows):
        # one row through simulate, batches through simulate_batch: each
        # stage's field is the power-loop monomials times the coefficient
        # matrix's transpose at the same (n, T) @ (T, D) shape
        config = load_config(preset)
        x0 = sample_initial(config.init_ranges, rows)
        x0s = np.stack([perturb_initial(x0, config.perturb_radius, s) for s in range(rows)])
        expect = reference_rk4(config.system.field, x0s, 300, config.dt)
        if rows == 1:
            got = simulate(config.system, x0s[0], 300, config.dt)[None]
        else:
            got = simulate_batch(config.system, x0s, 300, config.dt)
        assert_same_bits(got, expect)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_each_step_evaluates_the_field_four_times_through_the_class(self, monkeypatch, rows):
        # the benchmark's tracer counts field calls by patching the class
        # attribute, so every RK4 stage must look evaluate up on the class
        calls = {"evaluate": 0, "rk4_step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(PolynomialVectorField, "evaluate", counted("evaluate", PolynomialVectorField.evaluate))
        monkeypatch.setattr(dynamics, "rk4_step", counted("rk4_step", dynamics.rk4_step))
        x0s = np.full((rows, 6), 0.5)
        if rows == 1:
            simulate(DUFFING, x0s[0], 7, 0.01)
        else:
            simulate_batch(DUFFING, x0s, 7, 0.01)
        assert calls == {"evaluate": 28, "rk4_step": 7}


class TestSampling:
    def test_ranges_respected(self):
        ranges = [(-1.5, 1.5)] * 6
        x = sample_initial(ranges, 42)
        assert x.shape == (6,)
        assert np.all(x > -1.5) and np.all(x < 1.5)

    def test_degenerate_range(self):
        x = sample_initial([(0.7, 0.7)], 1)
        assert x[0] == 0.7

    def test_determinism(self):
        ranges = [(-np.pi / 2, np.pi / 2), (-1, 1)] * 3
        assert np.array_equal(sample_initial(ranges, 9), sample_initial(ranges, 9))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            sample_initial([(1.0, -1.0)], 0)

    def test_perturb_bounds(self):
        x = np.zeros(6)
        for radius in (0.3, 0.2):
            eps = perturb_initial(x, radius, 3) - x
            assert np.all(np.abs(eps) < radius)

    def test_perturb_scales_with_radius(self):
        x = np.zeros(4)
        big = perturb_initial(x, 1.0, 17)
        tiny = perturb_initial(x, 1e-9, 17)
        assert np.allclose(tiny, big * 1e-9, rtol=1e-12)

    def test_perturb_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            perturb_initial(np.zeros(2), 0.0, 0)


def pair_of_zero_fields(*couplings, dims=(2, 2)):
    subsystems = [PolynomialVectorField(d, [[]] * d) for d in dims]
    return CoupledSystem(subsystems=subsystems, couplings=list(couplings))


class TestCoupling:
    def test_layout_is_derived_from_the_subsystems(self):
        assert pair_of_zero_fields(Coupling(0, 1), dims=(2, 3)).offsets == (0, 2, 5)
        assert DUFFING.offsets == (0, 2, 4, 6)

    def test_layout_offsets(self):
        system = pair_of_zero_fields(dims=(2, 3, 1))
        assert system.offsets == (0, 2, 5, 6)
        assert system.dim == 6
        assert list(range(system.offsets[1], system.offsets[2])) == [2, 3, 4]
        with pytest.raises(ValueError, match="^a coupled system needs at least one subsystem$"):
            CoupledSystem(subsystems=[], couplings=[])

    def test_diffusive_field_values(self):
        system = pair_of_zero_fields(Coupling(target=0, source=1))  # drives the last coordinate
        out = system.field.evaluate(np.array([0.3, 9.0, 1.1, 9.0]))
        assert np.array_equal(out, [0.0, 1.1 - 0.3, 0.0, 0.0])
        observed = pair_of_zero_fields(Coupling(0, 1, strength=2.5, drive_coord=0, observed_coord=1))
        out = observed.field.evaluate(np.array([0.3, 9.0, 1.1, 7.0]))
        assert np.array_equal(out, [2.5 * (7.0 - 9.0), 0.0, 0.0, 0.0])

    def test_edge_contributions_antisymmetric(self):
        # diffusive force along i<->j cancels when summed across the edge
        system = pair_of_zero_fields(Coupling(0, 1), Coupling(1, 0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            out = system.field.evaluate(rng.uniform(-2, 2, 4))
            assert out[1] == -out[3]

    def test_full_field_includes_couplings(self):
        x = sample_initial([(-1.5, 1.5)] * 6, 5)
        out = DUFFING.field.evaluate(x)
        # first coordinates are plain velocity pass-throughs
        assert out[0] == pytest.approx(x[1])
        d1 = DUFFING.subsystems[0].evaluate(x[:2])
        assert out[1] == pytest.approx(d1[1] + (x[2] - x[0]))
        # middle oscillator feels both neighbours
        d2 = DUFFING.subsystems[1].evaluate(x[2:4])
        assert out[3] == pytest.approx(d2[1] + (x[0] - x[2]) + (x[4] - x[2]))

    def test_zero_strength_decouples(self):
        couplings = [dataclasses.replace(c, strength=0.0) for c in DUFFING.couplings]
        system = CoupledSystem(DUFFING.subsystems, couplings)
        x = sample_initial([(-1.5, 1.5)] * 6, 6)
        out = system.field.evaluate(x)
        for s, f in enumerate(DUFFING.subsystems):
            assert np.allclose(out[2 * s : 2 * s + 2], f.evaluate(x[2 * s : 2 * s + 2]))

    def test_replace_without_couplings_integrates_the_uncoupled_field(self):
        x0 = np.linspace(-1, 1, 6)
        simulate(DUFFING, x0, 1, 0.01)  # the coupled field is in use before the copy
        uncoupled = dataclasses.replace(DUFFING, couplings=[])
        alone = CoupledSystem(DUFFING.subsystems, [])
        assert np.array_equal(simulate(uncoupled, x0, 5, 0.01), simulate(alone, x0, 5, 0.01))
        assert np.array_equal(uncoupled.field.evaluate(x0)[:2], DUFFING.subsystems[0].evaluate(x0[:2]))

    def test_vanderpol_field_values(self):
        f = load_config("vdp").system.subsystems[0]
        x = np.array([0.5, -0.4])
        expect = np.array([-0.4, 1.32 * (1 - 0.25) * (-0.4) - 0.5])
        assert np.allclose(f.evaluate(x), expect)

    def test_coupling_indices_checked_for_python_callers(self):
        with pytest.raises(ValueError, match=r"^coupling -1<-0: target -1 is not a subsystem index in 0\.\.1$"):
            pair_of_zero_fields(Coupling(-1, 0))
        with pytest.raises(
            ValueError,
            match="^coupling 0<-1: observed_coord 2 is not a coordinate of both the "
            "3-variable target and the 2-variable source$",
        ):
            pair_of_zero_fields(Coupling(0, 1, observed_coord=2), dims=(3, 2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^coupling 1<-0: strength {bad} is not finite$"):
                pair_of_zero_fields(Coupling(1, 0, strength=bad))
        with pytest.raises(ValueError, match="^coupling 1<-0: strength 'strong' is not a number$"):
            pair_of_zero_fields(Coupling(1, 0, strength="strong"))

    def test_self_coupling_is_rejected(self):
        with pytest.raises(ValueError, match="^coupling 0<-0: target and source are the same subsystem$"):
            pair_of_zero_fields(Coupling(0, 0))


class TestTrajectoryCSV:
    def test_round_trip(self, tmp_path):
        x0 = sample_initial([(-1.5, 1.5)] * 6, 21)
        states = simulate(DUFFING, x0, 40, 0.01)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, states, 0.01, DUFFING)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2"
        loaded, dt = load_trajectory_csv(path)
        assert dt == pytest.approx(0.01)
        assert np.array_equal(loaded, states)  # 17 digits round-trips

    def test_nonuniform_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x_1_1\n0,1\n0.01,2\n0.5,3\n")
        with pytest.raises(ValueError):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("times", [(0, 0, 0), (0.02, 0.01, 0)], ids=["constant", "reversed"])
    def test_time_must_increase(self, tmp_path, times):
        path = tmp_path / "still.csv"
        path.write_text("t,x_1_1\n" + "".join(f"{t},{k}\n" for k, t in enumerate(times)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: time step .* is not positive$"):
            load_trajectory_csv(path)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # loadtxt: input contained no data
    @pytest.mark.parametrize("body", ["", "0,1\n"], ids=["header-only", "one-row"])
    def test_short_file_rejected(self, tmp_path, body):
        path = tmp_path / "short.csv"
        path.write_text("t,x_1_1\n" + body)
        with pytest.raises(ValueError, match="at least two rows"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "body, cause",
        [
            # numpy's own messages read "row 0" here and "row 2" below
            ("0,abc\n0.01,2\n", "line 2: could not convert string to float: 'abc'"),
            ("0,1\n0.01\n", "line 3: the number of columns changed from 2 to 1"),
        ],
        ids=["not-a-number", "short-row"],
    )
    def test_malformed_body_names_the_file(self, tmp_path, body, cause):
        path = tmp_path / "malformed.csv"
        path.write_text("t,x_1_1\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, {cause}')}$"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "body, line",
        [("0,1\n\n# note\n0.01,x\n", 5), ("0,1 # first\n0.01,2\n \n", 4)],
        ids=["after-blank-and-comment-lines", "whitespace-line"],
    )
    def test_malformed_line_counts_every_file_line(self, tmp_path, body, line):
        # np.loadtxt skips empty and comment-only lines; the line named is
        # still the file's own
        path = tmp_path / "malformed.csv"
        path.write_text("t,x_1_1\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line {line}: ')}"):
            load_trajectory_csv(path)

    def test_trajectory_validates(self, tmp_path):
        for value in ("nan", "inf"):
            path = tmp_path / f"{value}.csv"
            path.write_text(f"t,x_1_1\n0,1\n0.01,{value}\n0.02,3\n")
            with pytest.raises(ValueError, match="non-finite"):
                load_trajectory_csv(path)
