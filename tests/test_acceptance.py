"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them even
on success). The benchmark-trend criteria run the bundled presets end to
end and take a few minutes; everything else is seconds.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from koopseed.dictionary import build_dictionary
from koopseed.dynamics import rk4_step, sample_initial
from koopseed.edmd import SnapshotPair, batch_edmd_from_psi, online_init, online_update
from koopseed.experiments import load_config, run_experiments
from koopseed.generator import PolynomialVectorField, build_generator, local_koopman
from koopseed.model import KoopmanModel
from koopseed.spectral import decompose, prediction_matrix, state_projector

def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    return ok


def linear_field(A):
    D = A.shape[0]
    return PolynomialVectorField(
        D,
        [
            [(tuple(1 if k == j else 0 for k in range(D)), A[i, j]) for j in range(D)]
            for i in range(D)
        ],
    )


def duffing_snapshot_pairs(count, rng_seed):
    """Independent snapshot pairs of the coupled Duffing flow map.

    Independent initial states keep the dictionary Gram matrix full rank;
    a single short trajectory arc would leave most of the 84 observable
    directions unexcited, where ridge and pseudoinverse solutions
    legitimately differ.
    """
    fld = load_config("duffing").system.field
    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(-1.5, 1.5, (count, 6))
    return [SnapshotPair(x, rk4_step(fld, x, 0.01)) for x in X]


def test_criterion_1_generator_linear_exactness():
    """Degree-1 block of the derived Koopman matrix matches the exact flow."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        D = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 1.0, (D, D))
        dt = 0.05
        d = build_dictionary(D, 1)
        K = local_koopman(linear_field(A), d, dt).matrix
        flow = expm(A * dt)
        rel = np.linalg.norm(K[1:, 1:] - flow) / np.linalg.norm(flow)
        worst = max(worst, rel)
    assert report("1 generator linear exactness", worst <= 1e-8, f"worst rel={worst:.2e}")


def test_criterion_2_duffing_recurrence_exact():
    """Generator coefficients equal the hand-coded recurrence, no float error."""
    delta, alpha, beta = 0.23, -0.99, 0.8
    d = build_dictionary(2, 3)
    fld = PolynomialVectorField(
        2, [[((0, 1), 1.0)], [((0, 1), -delta), ((1, 0), -alpha), ((3, 0), -beta)]]
    )
    G = build_generator(fld, d)
    R = np.zeros_like(G)
    for row, (n1, n2) in enumerate(d.entries):
        if (n1 + 1, n2 - 1) in d:
            R[row, d.index_of((n1 + 1, n2 - 1))] += n1 + 1
        R[row, d.index_of((n1, n2))] += -delta * n2
        if (n1 - 1, n2 + 1) in d:
            R[row, d.index_of((n1 - 1, n2 + 1))] += -alpha * (n2 + 1)
        if (n1 - 3, n2 + 1) in d:
            R[row, d.index_of((n1 - 3, n2 + 1))] += -beta * (n2 + 1)
    ok = bool(np.array_equal(G, R))
    assert report("2 coefficient recurrence conformance", ok, "exact equality over all 10 indices")


def test_criterion_3_online_batch_equivalence():
    """Online recursion vs batch pseudoinverse and vs the ridge oracle."""
    d = build_dictionary(6, 3)
    pairs = duffing_snapshot_pairs(500, rng_seed=31)
    psi_x = np.stack([d.evaluate(p.x) for p in pairs])
    psi_y = np.stack([d.evaluate(p.y) for p in pairs])
    Q = psi_y.T @ psi_x
    P = psi_x.T @ psi_x

    batch = batch_edmd_from_psi(d, psi_x, psi_y)
    state = online_init(None, 1e8, dictionary=d)
    for p in pairs:
        state = online_update(state, p, d)
    rel_batch = np.linalg.norm(state.matrix - batch.matrix) / np.linalg.norm(batch.matrix)
    ok = rel_batch <= 1e-5

    details = [f"sigma=1e8 vs batch rel={rel_batch:.2e}"]
    for sigma in (1.0, 1e3, 1e8):
        st = online_init(None, sigma, dictionary=d)
        for p in pairs:
            st = online_update(st, p, d)
        oracle = Q @ np.linalg.inv(P + np.eye(len(d)) / sigma)
        rel = np.linalg.norm(st.matrix - oracle) / np.linalg.norm(oracle)
        details.append(f"sigma={sigma:g} vs oracle rel={rel:.2e}")
        ok = ok and rel <= 1e-8
    assert report("3 online/batch equivalence", ok, "; ".join(details))


def test_criterion_4_spectral_consistency():
    """Spectral predictions equal matrix actions; modes reconstruct states."""
    rng = np.random.default_rng(44)
    ok = True
    details = []

    d = build_dictionary(2, 3)
    B = state_projector(d)
    for trial in range(5):
        K = rng.standard_normal((len(d), len(d))) * 0.3 + np.eye(len(d)) * 0.2
        K *= 1.05 / np.abs(np.linalg.eigvals(K)).max()
        dec = decompose(KoopmanModel(d, K))
        worst = 0.0
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            psi = d.evaluate(x)
            one = np.linalg.norm(prediction_matrix(dec, 1) @ psi - B @ (K @ psi))
            worst = max(worst, one / max(1.0, np.linalg.norm(B @ (K @ psi))))
            for n in (10, 100):
                target = psi.copy()
                for _ in range(n):
                    target = K @ target
                oracle = B @ target
                rel = np.linalg.norm(prediction_matrix(dec, n) @ psi - oracle) / max(
                    1.0, np.linalg.norm(oracle)
                )
                worst = max(worst, rel)
        ok = ok and worst <= 1e-6
        details.append(f"trial{trial} worst rel={worst:.2e}")

    K = rng.standard_normal((len(d), len(d))) * 0.3 + np.eye(len(d)) * 0.2
    dec = decompose(KoopmanModel(d, K))
    # B V, the state rows of the real eigenbasis that basis_inverse inverts
    BV = np.where(dec.eigenvalues.imag < 0, -dec.modes.imag, dec.modes.real)
    worst_rec = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        recon = BV @ (dec.basis_inverse @ d.evaluate(x))
        worst_rec = max(
            worst_rec, np.linalg.norm(recon - x) / max(1.0, np.linalg.norm(x))
        )
    ok = ok and worst_rec <= 1e-6
    assert report(
        "4 spectral consistency", ok, f"reconstruction worst={worst_rec:.2e}"
    )


@pytest.fixture(scope="module")
def preset_results():
    """All stages of a bundled preset, run once per preset for criteria 5-8.

    One-step checkpoints below the cap equal those of a capped run bit for
    bit: online updates split only at checkpoints, which are multiples of
    the Woodbury block, and EDMD refits from scratch at every checkpoint.
    """
    cache = {}

    def results(name):
        if name not in cache:
            cfg = load_config(name)
            assert cfg.seeds >= 5
            cache[name] = run_experiments(cfg)
        return cache[name]

    return results


@pytest.mark.slow
def test_criterion_5_duffing_onestep_trend(preset_results):
    """Seed-averaged one-step error: proposed below EDMD at 500..2000 pairs."""
    summary = preset_results("duffing")["onestep"]
    means = dict(zip(summary.keys, summary.mean.tolist()))
    rows = {cp: tuple(means[cp]) for cp in [500, 1000, 1500, 2000]}
    strict = all(rows[cp][0] < rows[cp][1] for cp in (500, 1000))
    loose = all(rows[cp][0] <= rows[cp][1] for cp in (1500, 2000))
    detail = " ".join(f"{cp}:{p:.3e}<{e:.3e}" for cp, (p, e) in rows.items())
    assert report("5 duffing one-step trend", strict and loose, detail)


@pytest.mark.slow
def test_criterion_6_vdp_onestep_trend(preset_results):
    """Seed-averaged one-step error: proposed below EDMD through 2500 pairs,
    means within a factor of 2 from 3000 pairs on."""
    summary = preset_results("vdp")["onestep"]
    means = dict(zip(summary.keys, summary.mean.tolist()))
    below = {}
    for cp in (500, 1000, 1500, 2000, 2500):
        p, e = means[cp]
        below[cp] = (p < e, p, e)
    within = {}
    for cp in (3000, 3500, 4000, 4500, 5000):
        p, e = means[cp]
        ratio = max(p, e) / min(p, e)
        within[cp] = (ratio <= 2.0, ratio, p, e)
    ok = all(v[0] for v in below.values()) and all(v[0] for v in within.values())
    detail = (
        "below: "
        + " ".join(f"{cp}:{'y' if v[0] else 'N'}(p={v[1]:.2e},e={v[2]:.2e})" for cp, v in below.items())
        + " | factor<=2: "
        + " ".join(
            f"{cp}:{'y' if v[0] else 'N'}({v[1]:.2f},p={v[2]:.2e},e={v[3]:.2e},"
            f"lower={'p' if v[2] < v[3] else 'e'})"
            for cp, v in within.items()
        )
    )
    assert report("6 vdp one-step trend", ok, detail)


@pytest.mark.slow
@pytest.mark.parametrize("preset_name", ["duffing", "vdp"])
def test_criterion_7_nstep_trend(preset_results, preset_name):
    """Seed-averaged n-step error: proposed <= EDMD on >= 90 of 100 horizons."""
    summary = preset_results(preset_name)["nstep"]
    means = dict(zip(summary.keys, summary.mean.tolist()))
    wins = sum(1 for p, e in means.values() if p <= e)
    assert report(
        f"7 {preset_name} n-step trend", wins >= 90, f"proposed<=edmd at {wins}/100 horizons"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "preset_name,pair_count", [("duffing", 2000), ("vdp", 1000)]
)
def test_criterion_8_spectrum_counts(preset_results, preset_name, pair_count):
    """Fewer near-unit-magnitude eigenvalues for the proposed method."""
    result = preset_results(preset_name)["spectrum"]
    assert result["pairs"] == pair_count
    mean_p = result["mean_counts"]["proposed"]
    mean_e = result["mean_counts"]["edmd"]
    assert report(
        f"8 {preset_name} spectrum counts",
        mean_p < mean_e,
        f"proposed={mean_p:.1f} edmd={mean_e:.1f} (|mu|>0.99 at {pair_count} pairs)",
    )


def test_criterion_9_rk4_order():
    """Halving dt cuts the harmonic-oscillator global error ~16x."""
    fld = PolynomialVectorField(2, [[((0, 1), 1.0)], [((1, 0), -1.0)]])

    def global_error(dt):
        steps = round(1.0 / dt)
        x = np.array([1.0, 0.0])
        for _ in range(steps):
            x = rk4_step(fld, x, dt)
        return np.linalg.norm(x - np.array([np.cos(1.0), -np.sin(1.0)]))

    ratio = global_error(0.02) / global_error(0.01)
    assert report("9 RK4 convergence order", 12.0 <= ratio <= 20.0, f"ratio={ratio:.2f}")


@pytest.mark.slow
def test_criterion_10_reproduce_determinism(tmp_path):
    """`reproduce duffing --seeds 1` twice yields byte-identical files."""
    from koopseed.cli import main

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["reproduce", "duffing", "--seeds", "1", "--out", str(out_a)])
    main(["reproduce", "duffing", "--seeds", "1", "--out", str(out_b)])
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    ok = names_a == names_b and len(names_a) > 0
    diffs = []
    for name in names_a:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            ok = False
            diffs.append(name)
    by_suffix = sorted(Counter(Path(name).suffix for name in names_a).items())
    assert report(
        "10 reproduce determinism",
        ok,
        f"{len(names_a)} files compared ({', '.join(f'{n} {suffix}' for suffix, n in by_suffix)})"
        + (f", diffs: {diffs}" if diffs else ""),
    )
