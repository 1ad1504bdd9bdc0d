import numpy as np
import pytest

from dirlap import (
    ExperimentConfig,
    SpectralFilter,
    apply_filter,
    make_band,
    run_noise_sweep,
    run_spectrum_comparison,
    synthesize_bandlimited,
    vertex_signal,
)
from dirlap.experiments import TRIAL_BLOCK, reference_pair


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = ExperimentConfig()
        assert (cfg.n, cfg.p, cfg.w, cfg.k) == (20, 0.2, 0.8, 5)
        assert cfg.sigmas == (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
        assert cfg.trials == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"p": 1.5},
            {"w": 0.0},
            {"k": 0},
            {"k": 25},
            {"sigmas": ()},
            {"sigmas": (0.5, 0.1)},
            {"sigmas": (-0.1, 0.2)},
            {"trials": 0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sigmas": (float("nan"),)}, "sigmas"),
            ({"sigmas": (float("inf"),)}, "sigmas"),
            ({"sigmas": (0.1, float("inf"))}, "sigmas"),
            ({"w": float("inf")}, "w"),
            ({"w": float("nan")}, "w"),
        ],
    )
    def test_non_finite_rejected_by_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n": 20.5}, "n"),
            ({"n": 20.0}, "n"),
            ({"n": True}, "n"),
            ({"k": 2.5}, "k"),
            ({"trials": 2.5}, "trials"),
            ({"seed": 1.5}, "seed"),
            ({"seed": False}, "seed"),
        ],
    )
    def test_non_integer_rejected_by_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(n=np.int64(12), k=np.int32(3), trials=np.int64(4), seed=np.uint8(9))
        assert (cfg.n, cfg.k, cfg.trials, cfg.seed) == (12, 3, 4, 9)

    def test_to_dict_round_trips(self):
        cfg = ExperimentConfig(sigmas=(0.1, 0.2), trials=3)
        assert ExperimentConfig(**{**cfg.to_dict(), "sigmas": tuple(cfg.to_dict()["sigmas"])}) == cfg


class TestSpectrumComparison:
    def test_metric_separation(self):
        res = run_spectrum_comparison(ExperimentConfig(seed=7))
        cyc, per = res["cycle"], res["perturbed"]
        assert cyc.henrici <= 1e-6
        assert cyc.kappa <= 1 + 1e-6
        assert cyc.delta <= 1e-10
        assert cyc.alpha == pytest.approx(1.0, abs=1e-12)
        assert per.henrici > 0.5
        assert per.kappa > 10
        assert per.delta > 0
        assert len(cyc.lambdas) == len(per.lambdas) == 20

    def test_cycle_spectrum_on_shifted_unit_circle(self):
        res = run_spectrum_comparison(ExperimentConfig())
        lams = res["cycle"].lambdas
        assert np.max(np.abs(np.abs(lams - 1.0) - 1.0)) < 1e-9


@pytest.fixture(scope="module")
def sweep():
    return run_noise_sweep(ExperimentConfig(sigmas=(0.05, 0.2), trials=40, seed=3))


class TestNoiseSweep:
    def test_deterministic(self, sweep):
        again = run_noise_sweep(ExperimentConfig(sigmas=(0.05, 0.2), trials=40, seed=3))
        assert [t.err_l2 for t in again.trials] == [t.err_l2 for t in sweep.trials]

    def test_noiseless_reconstruction_is_exact(self):
        res = run_noise_sweep(ExperimentConfig(sigmas=(0.0,), trials=5))
        for row in res.summary:
            assert row.err_mean <= 1e-9

    def test_perturbed_error_dominates_cycle(self, sweep):
        cyc = {r.sigma: r.err_mean for r in sweep.summary if r.graph == "cycle"}
        per = {r.sigma: r.err_mean for r in sweep.summary if r.graph == "perturbed"}
        kappa = sweep.reports["perturbed"].kappa
        for sigma in (0.05, 0.2):
            assert per[sigma] >= cyc[sigma]
            assert per[sigma] / cyc[sigma] <= kappa

    def test_bound_never_violated(self, sweep):
        for t in sweep.trials:
            assert t.err_l2 <= t.bound

    def test_trial_grid_complete(self, sweep):
        assert len(sweep.trials) == 2 * 2 * 40
        assert {t.graph for t in sweep.trials} == {"cycle", "perturbed"}

    def test_real_noise_flag(self):
        res = run_noise_sweep(
            ExperimentConfig(sigmas=(0.1,), trials=10, real_noise=True)
        )
        assert all(np.isfinite(t.err_l2) for t in res.trials)

    def test_summary_consistent_with_trials(self, sweep):
        rows = [t.err_l2 for t in sweep.trials if t.graph == "cycle" and t.sigma == 0.05]
        row = next(r for r in sweep.summary if r.graph == "cycle" and r.sigma == 0.05)
        assert row.err_mean == pytest.approx(np.mean(rows), rel=1e-12)
        assert row.err_std == pytest.approx(np.std(rows), rel=1e-9)


def per_trial_sweep(config):
    """The sweep as one Python iteration per trial: four draws, one filter call each."""
    rows = []
    for graph, (_, dec) in reference_pair(config).items():
        band = make_band(dec, config.k)
        low_pass = SpectralFilter.ideal(band.omega, config.n)
        stream = {"cycle": 0, "perturbed": 1}[graph]
        for sigma_index, sigma in enumerate(config.sigmas):
            for trial in range(config.trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=config.seed, spawn_key=(stream, sigma_index, trial))
                )
                c = (rng.standard_normal(config.k) + 1j * rng.standard_normal(config.k)) / np.sqrt(2.0)
                x0 = synthesize_bandlimited(band, c)
                if config.real_noise:
                    eta = sigma * rng.standard_normal(config.n)
                else:
                    eta = sigma * (
                        rng.standard_normal(config.n) + 1j * rng.standard_normal(config.n)
                    ) / np.sqrt(2.0)
                x_rec = apply_filter(vertex_signal(x0.values + eta), low_pass, dec)
                err_abs = float(np.linalg.norm(x_rec.values - x0.values))
                rows.append((graph, sigma, trial, err_abs / x0.norm(), err_abs,
                             dec.kappa * float(np.linalg.norm(eta)) / x0.norm()))
    return rows


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigmas": (0.0, 0.05, 0.3), "trials": 2 * TRIAL_BLOCK + 3, "seed": 4},
        {"sigmas": (0.0, 0.05, 0.3), "trials": 2 * TRIAL_BLOCK + 3, "seed": 4, "real_noise": True},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1, "real_noise": True},
    ],
    ids=["complex", "real", "one-trial-complex", "one-trial-real"],
)
def test_sweep_matches_per_trial_loop(kwargs):
    # blocks of trials draw from the same per-trial streams as one call per trial
    config = ExperimentConfig(**kwargs)
    expected = per_trial_sweep(config)
    got = run_noise_sweep(config).trials
    assert [(t.graph, t.sigma, t.trial) for t in got] == [row[:3] for row in expected]
    for t, (_, sigma, _, err_l2, err_abs, bound) in zip(got, expected):
        if sigma == 0.0:
            # noiseless reconstruction: both errors are rounding noise and the bound is 0
            assert t.bound == bound == 0.0
            assert max(t.err_l2, err_l2, t.err_abs, err_abs) < 1e-14
        else:
            assert t.err_l2 == pytest.approx(err_l2, rel=1e-12)
            assert t.err_abs == pytest.approx(err_abs, rel=1e-12)
            assert t.bound == pytest.approx(bound, rel=1e-12)
