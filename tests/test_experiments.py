import math
import statistics

import numpy as np
import pytest

from dirlap import (
    ExperimentConfig,
    NonFiniteError,
    SpectralFilter,
    apply_filter,
    make_band,
    asymmetry_index,
    henrici_departure,
    normality_departure,
    reference_pair,
    run_noise_sweep,
    synthesize_bandlimited,
    vertex_signal,
)
from dirlap import experiments
from dirlap.experiments import (
    _GRAPH_STREAM, SUMMARY_FIELDS, SweepCell, _block_trials, _cell_draws, _trial_seeds,
)


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
            {"n": 10_001},
            {"p": 1.5},
            {"w": 0.0},
            {"k": 0},
            {"k": 25},
            {"sigmas": ()},
            {"sigmas": (0.5, 0.1)},
            {"sigmas": (-0.1, 0.2)},
            {"trials": 0},
            {"trials": 2**32},
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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"p": True}, "p must be a real number"),
            ({"p": "0.2"}, "p must be a real number"),
            ({"w": True}, "w must be a real number"),
            ({"w": "0.8"}, "w must be a real number"),
            ({"sigmas": ("0.1",)}, "sigmas must be real numbers"),
            ({"sigmas": (0.1, True)}, "sigmas must be real numbers"),
            ({"sigmas": "0.1"}, "sigmas must be real numbers"),
            ({"real_noise": "false"}, "real_noise must be true or false"),
            ({"real_noise": 1}, "real_noise must be true or false"),
        ],
    )
    def test_wrong_type_rejected_by_field(self, kwargs, field):
        # JSON gives strings and booleans; neither may pass for a number, nor a string for a flag
        with pytest.raises(ValueError, match=f"^{field}, got "):
            ExperimentConfig(**kwargs)

    def test_integers_accepted_as_reals(self):
        cfg = ExperimentConfig(p=1, w=2, sigmas=(0, 1), real_noise=True)
        assert (cfg.p, cfg.w, cfg.sigmas, cfg.real_noise) == (1, 2, (0.0, 1.0), True)

    def test_largest_trials_accepted(self):
        # the trial index is one 32-bit word of its stream's seed key
        assert ExperimentConfig(trials=2**32 - 1).trials == 2**32 - 1

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(n=np.int64(12), k=np.int32(3), trials=np.int64(4), seed=np.uint8(9))
        assert (cfg.n, cfg.k, cfg.trials, cfg.seed) == (12, 3, 4, 9)

    def test_to_dict_round_trips(self):
        cfg = ExperimentConfig(sigmas=(0.1, 0.2), trials=3)
        assert ExperimentConfig(**{**cfg.to_dict(), "sigmas": tuple(cfg.to_dict()["sigmas"])}) == cfg


class TestSpectrumComparison:
    def test_metric_separation(self):
        res = reference_pair(ExperimentConfig(seed=7))
        cyc, per = res["cycle"], res["perturbed"]
        assert henrici_departure(cyc) <= 1e-6
        assert cyc.kappa <= 1 + 1e-6
        assert normality_departure(cyc.matrix) <= 1e-10
        assert asymmetry_index(cyc.matrix) == pytest.approx(1.0, abs=1e-12)
        assert henrici_departure(per) > 0.5
        assert per.kappa > 10
        assert normality_departure(per.matrix) > 0
        assert len(cyc.lambdas) == len(per.lambdas) == 20

    def test_cycle_spectrum_on_shifted_unit_circle(self):
        res = reference_pair(ExperimentConfig())
        lams = res["cycle"].lambdas
        assert np.max(np.abs(np.abs(lams - 1.0) - 1.0)) < 1e-9


@pytest.fixture(scope="module")
def sweep():
    return run_noise_sweep(ExperimentConfig(sigmas=(0.05, 0.2), trials=40, seed=3))


class TestNoiseSweep:
    def test_deterministic(self, sweep):
        again = run_noise_sweep(ExperimentConfig(sigmas=(0.05, 0.2), trials=40, seed=3))
        for cell, other in zip(again.cells, sweep.cells, strict=True):
            assert cell.err_l2.tolist() == other.err_l2.tolist()

    def test_noiseless_reconstruction_is_exact(self):
        res = run_noise_sweep(ExperimentConfig(sigmas=(0.0,), trials=5))
        for cell in res.cells:
            assert cell.err_mean <= 1e-9

    def test_perturbed_error_dominates_cycle(self, sweep):
        cyc = {c.sigma: c.err_mean for c in sweep.cells if c.graph == "cycle"}
        per = {c.sigma: c.err_mean for c in sweep.cells if c.graph == "perturbed"}
        kappa = sweep.decompositions["perturbed"].kappa
        for sigma in (0.05, 0.2):
            assert per[sigma] >= cyc[sigma]
            assert per[sigma] / cyc[sigma] <= kappa

    def test_bound_never_violated(self, sweep):
        for cell in sweep.cells:
            assert np.all(cell.err_l2 <= cell.bound)

    def test_trial_grid_complete(self, sweep):
        assert [(cell.graph, cell.sigma) for cell in sweep.cells] == [
            ("cycle", 0.05), ("cycle", 0.2), ("perturbed", 0.05), ("perturbed", 0.2)
        ]
        for cell in sweep.cells:
            assert cell.err_l2.shape == cell.err_abs.shape == cell.bound.shape == (40,)

    def test_real_noise_flag(self):
        res = run_noise_sweep(
            ExperimentConfig(sigmas=(0.1,), trials=10, real_noise=True)
        )
        assert all(np.all(np.isfinite(cell.err_l2)) for cell in res.cells)

    def test_summary_consistent_with_trials(self, sweep):
        cell = next(c for c in sweep.cells if c.graph == "cycle" and c.sigma == 0.05)
        assert cell.err_mean == pytest.approx(np.mean(cell.err_l2), rel=1e-12)
        assert cell.err_std == pytest.approx(np.std(cell.err_l2), rel=1e-9)

    def test_every_summary_field_is_read_off_its_cell(self, sweep):
        for cell in sweep.cells:
            assert [getattr(cell, name) for name in SUMMARY_FIELDS[:2]] == [cell.graph, cell.sigma]
            assert all(type(getattr(cell, name)) is float for name in SUMMARY_FIELDS[2:])

    @pytest.mark.parametrize("trials", [1, 40, 129])
    def test_summary_is_fmean_of_trials(self, trials, monkeypatch):
        # exact: the summary bytes rest on it; blocks of 128 trials, so 129 spans two
        monkeypatch.setattr(experiments, "_block_trials", lambda n: 128)
        res = run_noise_sweep(ExperimentConfig(sigmas=(0.0, 0.05, 0.2), trials=trials, seed=3))
        for cell in res.cells:
            errs = cell.err_l2.tolist()
            mean = statistics.fmean(errs)
            assert cell.err_mean == mean
            assert cell.err_std == math.sqrt(statistics.fmean([(e - mean) ** 2 for e in errs]))
            assert cell.err_abs_mean == statistics.fmean(cell.err_abs.tolist())
            assert cell.bound_mean == statistics.fmean(cell.bound.tolist())

    def test_err_std_squares_as_python_pow(self):
        # x * x and Python's x ** 2 round apart on these deviations, and so do the two err_std
        errs = [0.792, 0.969, 0.318]
        cell = SweepCell("cycle", 0.1, np.array(errs), np.array(errs), np.array(errs))
        mean = statistics.fmean(errs)
        assert cell.err_std == math.sqrt(statistics.fmean([(e - mean) ** 2 for e in errs]))

    def test_summary_of_finite_trials_whose_sum_overflows(self):
        # each squared deviation is finite, their sum is not: statistics.fmean raises
        # OverflowError there (fig2 at sigma 1e153 ended in a traceback)
        errs = np.linspace(1e153, 1.3e154, 300)
        squares = ((errs - statistics.fmean(errs.tolist())) ** 2).tolist()
        with pytest.raises(OverflowError):
            statistics.fmean(squares)
        cell = SweepCell("cycle", 0.1, errs, errs, errs)
        assert cell.err_mean == cell.err_abs_mean == cell.bound_mean == statistics.fmean(errs.tolist())
        assert cell.err_std == pytest.approx(1e150 * statistics.pstdev((errs / 1e150).tolist()))

    def test_overflowed_trials_are_refused_by_name(self):
        with pytest.raises(NonFiniteError, match=r"^err_l2 of the cycle graph at sigma 1e\+200 "):
            run_noise_sweep(ExperimentConfig(sigmas=(0.1, 1e200), trials=3))


def per_trial_sweep(config):
    """The sweep as one Python iteration per trial: four draws, one filter call each."""
    rows = []
    for graph, dec in reference_pair(config).items():
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
        {"sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4},
        {"sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4, "real_noise": True},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1, "real_noise": True},
    ],
    ids=["complex", "real", "one-trial-complex", "one-trial-real"],
)
def test_sweep_matches_per_trial_loop(kwargs, monkeypatch):
    # blocks of trials draw from the same per-trial streams as one call per trial;
    # 259 trials in blocks of 128 are two whole blocks and a partial one
    monkeypatch.setattr(experiments, "_block_trials", lambda n: 128)
    config = ExperimentConfig(**kwargs)
    expected = per_trial_sweep(config)
    got = [
        (cell.graph, cell.sigma, trial, *values)
        for cell in run_noise_sweep(config).cells
        for trial, values in enumerate(zip(cell.err_l2.tolist(), cell.err_abs.tolist(),
                                           cell.bound.tolist()))
    ]
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for (_, _, _, t_l2, t_abs, t_bound), (_, sigma, _, err_l2, err_abs, bound) in zip(got, expected):
        if sigma == 0.0:
            # noiseless reconstruction: both errors are rounding noise and the bound is 0
            assert t_bound == bound == 0.0
            assert max(t_l2, err_l2, t_abs, err_abs) < 1e-14
        else:
            assert t_l2 == pytest.approx(err_l2, rel=1e-12)
            assert t_abs == pytest.approx(err_abs, rel=1e-12)
            assert t_bound == pytest.approx(bound, rel=1e-12)


class TestTrialStreams:
    TRIALS = (0, 1, 127, 128, 129, 2**32 - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**160 - 1, 2**200])
    def test_seed_rows_match_seed_sequence(self, seed):
        for graph in (0, 1):
            for sigma_index in (0, 5):
                for trial in self.TRIALS:
                    expected = np.random.SeedSequence(
                        entropy=seed, spawn_key=(graph, sigma_index, trial)
                    ).generate_state(4, np.uint64)
                    got = _trial_seeds(seed, graph, sigma_index)(range(trial, trial + 1))
                    assert got.dtype == np.uint64
                    assert got.tolist() == [expected.tolist()]

    def test_seed_rows_of_a_block(self):
        rows = _trial_seeds(2**32, 1, 2)(range(100, 100 + 128))
        assert rows.shape == (128, 4)
        for trial, row in zip(range(100, 100 + 128), rows.tolist()):
            seq = np.random.SeedSequence(entropy=2**32, spawn_key=(1, 2, trial))
            assert row == seq.generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
    def test_one_cell_replay_serves_every_block(self, seed):
        # one replay per cell, called block by block across two block boundaries
        block = _block_trials(20)
        edges = (block - 5, block, 2 * block, 2 * block + 7)
        trials = range(edges[0], edges[-1])
        rows = _trial_seeds(seed, 1, 3)
        got = np.concatenate([rows(range(a, b)) for a, b in zip(edges, edges[1:])])
        assert got.dtype == np.uint64
        assert got.shape == (len(trials), 4)
        for trial, row in zip(trials, got.tolist()):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(1, 3, trial))
            assert row == seq.generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize(
        "seed, graph, sigma_index, trial, head",
        [
            (0, "cycle", 0, 0,
             ["-0x1.81323c6fa478ap+0", "-0x1.2380ff4b1dfe5p-1", "-0x1.78d36113ffac6p+0"]),
            (2**64 + 1, "perturbed", 5, 129,
             ["-0x1.970629100883dp-1", "-0x1.4fb74bccb9017p-1", "-0x1.05554fc55adabp+1"]),
        ],
    )
    def test_first_variates_pinned(self, seed, graph, sigma_index, trial, head):
        # fixed values, so a seeding fault shows even if numpy's SeedSequence changed with it
        seeds = _trial_seeds(seed, _GRAPH_STREAM[graph], sigma_index)
        z = _cell_draws(ExperimentConfig(seed=seed), seeds, range(trial, trial + 1))
        assert [float.hex(float(v)) for v in z[0, :3]] == head


class TestSweepBlocks:
    CONFIG = {"n": 10, "k": 3, "sigmas": (0.05, 0.3), "trials": 300, "seed": 2}

    @pytest.mark.parametrize(
        "n, trials", [(2, 2**14), (20, 1024), (256, 128), (10000, 2), (2**15 + 1, 1)]
    )
    def test_block_is_the_largest_power_of_two_within_the_entry_bound(self, n, trials):
        assert _block_trials(n) == trials
        assert trials * n <= 2**15 or trials == 1

    @staticmethod
    def values(config):
        return [(cell.err_l2, cell.err_abs, cell.bound) for cell in run_noise_sweep(config).cells]

    @pytest.mark.parametrize("real_noise", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("trials", [16, 32, 128])
    def test_power_of_two_blocks_keep_every_bit(self, monkeypatch, real_noise, trials):
        # each trial keeps its place in the matrix-product kernels' column panels
        config = ExperimentConfig(**self.CONFIG, real_noise=real_noise)
        expected = self.values(config)
        monkeypatch.setattr(experiments, "_block_trials", lambda n: trials)
        for got, want in zip(self.values(config), expected, strict=True):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("real_noise", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("trials", [1, 7])
    def test_any_block_size_keeps_the_trials(self, monkeypatch, real_noise, trials):
        # other widths draw the same streams; the products may round a column differently
        config = ExperimentConfig(**self.CONFIG, real_noise=real_noise)
        expected = self.values(config)
        monkeypatch.setattr(experiments, "_block_trials", lambda n: trials)
        for got, want in zip(self.values(config), expected, strict=True):
            for a, b in zip(got, want):
                assert a == pytest.approx(b, rel=1e-12)
