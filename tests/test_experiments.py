import math
import numbers
import re
import statistics
import tracemalloc

import numpy as np
import pytest

from dirlap import (
    BandModel,
    DirectedGraph,
    ExperimentConfig,
    NonFiniteError,
    apply_filter,
    asymmetry_index,
    decompose,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
    henrici_departure,
    noise_certificate,
    normality_departure,
    plan_sampling,
    reference_pair,
    run_noise_sweep,
    select_sampling_set,
    synthesize_bandlimited,
)
from dirlap import experiments, fileio
from dirlap.experiments import (
    _GRAPH_STREAM, SUMMARY_FIELDS, SweepCell, _block_trials,
)


#: every scalar parameter of the library: its kind, the name its errors give, a value in its
#: range, and one outside it with its range's text
GATED = {
    "DirectedGraph.n": (numbers.Integral, "vertex count", 3, 0, "[1, 10000]"),
    "gen_directed_cycle.n": (numbers.Integral, "n", 3, 1, "[2, 10000]"),
    "gen_perturbed_cycle.n": (numbers.Integral, "n", 6, 10_001, "[2, 10000]"),
    "gen_perturbed_cycle.p": (numbers.Real, "p", 0.5, 1.5, "[0, 1]"),
    "gen_perturbed_cycle.w": (numbers.Real, "w", 0.8, 0.0, "[5e-324, inf]"),
    "gen_perturbed_cycle.seed": (numbers.Integral, "seed", 3, -1, "[0, inf]"),
    "read_edge_list.n": (numbers.Integral, "n", 4, 10_001, "[1, 10000]"),
    "BandModel.k": (numbers.Integral, "band size", 2, 7, "[1, 6]"),
    "select_sampling_set.m": (numbers.Integral, "sample budget", 3, 1, "[2, 6]"),
    "select_sampling_set.seed": (numbers.Integral, "seed", 3, -1, "[0, inf]"),
    "noise_certificate.eta_norm": (numbers.Real, "noise norm", 0.8, -0.5, "[0, inf]"),
    "ExperimentConfig.n": (numbers.Integral, "n", 12, 1, "[2, 10000]"),
    "ExperimentConfig.p": (numbers.Real, "p", 0.8, -0.5, "[0, 1]"),
    "ExperimentConfig.w": (numbers.Real, "w", 0.8, -1, "[5e-324, inf]"),
    "ExperimentConfig.seed": (numbers.Integral, "seed", 3, -1, "[0, inf]"),
    "ExperimentConfig.k": (numbers.Integral, "k", 3, 21, "[1, 20]"),
    "ExperimentConfig.trials": (numbers.Integral, "trials", 3, 2**32, "[1, 4294967295]"),
    "ExperimentConfig.sigmas": (numbers.Real, "sigmas", 0.8, -0.5, "[0, inf]"),
}


def _refusals():
    """(parameter, value, full error text) for each value every gated parameter refuses."""
    for param, (kind, what, _, outside, bounds) in GATED.items():
        integral = kind is numbers.Integral
        not_kind = f"{what} must be {'an integer' if integral else 'a real number'}, got "
        # None asks read_edge_list to infer n; everywhere else it is no number
        cases = [(value, not_kind + repr(value)) for value in (True, "1", None)
                 if (param, value) != ("read_edge_list.n", None)]
        if integral:
            cases += [(value, not_kind + repr(value)) for value in (2.5, 20.0)]
        else:
            cases += [(value, f"{what} must be finite, got {value}")
                      for value in (math.nan, math.inf, 10**400)]
        shown = outside if integral else float(outside)
        cases.append((outside, f"{what} must lie in {bounds}, got {shown}"))
        for value, message in cases:
            label = "10**400" if value == 10**400 else repr(value)
            yield pytest.param(param, value, message, id=f"{param}-{label}")


@pytest.fixture(scope="module")
def gated_calls(tmp_path_factory):
    """Each gated parameter's call: it passes a value, the other arguments valid, and
    returns what the library kept of it or made with it."""
    edges = tmp_path_factory.mktemp("gated") / "g.csv"
    edges.write_text("src,dst,weight\n0,1,1\n1,2,1\n2,0,1\n")
    band = BandModel(decompose(directed_laplacian(gen_directed_cycle(6))), 2)
    plan = plan_sampling(band, range(6))
    return {
        "DirectedGraph.n": lambda v: DirectedGraph(v, [0], [1], [1.0]).n,
        "gen_directed_cycle.n": lambda v: gen_directed_cycle(v).n,
        "gen_perturbed_cycle.n": lambda v: gen_perturbed_cycle(v, 0.5, 0.8, 0).dst.tolist(),
        "gen_perturbed_cycle.p": lambda v: gen_perturbed_cycle(6, v, 0.8, 0).dst.tolist(),
        "gen_perturbed_cycle.w": lambda v: gen_perturbed_cycle(6, 1, v, 0).weight.tolist(),
        "gen_perturbed_cycle.seed": lambda v: gen_perturbed_cycle(6, 0.5, 0.8, v).dst.tolist(),
        "read_edge_list.n": lambda v: fileio.read_edge_list(edges, v).n,
        "BandModel.k": lambda v: BandModel(band.decomposition, v).k,
        "select_sampling_set.m": lambda v: select_sampling_set(band, v).tolist(),
        "select_sampling_set.seed": lambda v: select_sampling_set(band, 3, "random", v).tolist(),
        "noise_certificate.eta_norm": lambda v: noise_certificate(plan, v),
        "ExperimentConfig.sigmas": lambda v: ExperimentConfig(sigmas=(v,)).sigmas[0],
        **{f"ExperimentConfig.{name}": lambda v, name=name: getattr(
            ExperimentConfig(**{name: v}), name) for name in ("n", "p", "w", "seed", "k", "trials")},
    }


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
            ({"sigmas": ("0.1",)}, "sigmas must be a real number"),
            ({"sigmas": (0.1, True)}, "sigmas must be a real number"),
            ({"sigmas": "0.1"}, "sigmas must be a real number"),
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
        # the documented range of trials ends below 2**32
        assert ExperimentConfig(trials=2**32 - 1).trials == 2**32 - 1

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(n=np.int64(12), k=np.int32(3), trials=np.int64(4), seed=np.uint8(9))
        assert (cfg.n, cfg.k, cfg.trials, cfg.seed) == (12, 3, 4, 9)

    @pytest.mark.parametrize("param, value, message", _refusals())
    def test_every_gated_parameter_refuses_by_one_rule(self, gated_calls, param, value, message):
        # a bool or a string is no number, a float no integer, and an integer past float64
        # no finite real; each error is a ValueError naming the parameter, from one gate
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gated_calls[param](value)

    @pytest.mark.parametrize("param", GATED)
    def test_numpy_scalar_acts_as_its_python_value(self, gated_calls, param):
        kind, _, inside, _, _ = GATED[param]
        scalar = np.int64(inside) if kind is numbers.Integral else np.float32(inside)
        # the w rows: np.float32(0.8) compared with a float64 bound warns of a cast overflow
        kept, expected = gated_calls[param](scalar), gated_calls[param](scalar.item())
        assert kept == expected and type(kept) is type(expected)

    def test_numpy_config_writes_the_files_of_the_python_config(self, tmp_path):
        # the writers need the fields as Python values: json refuses np.int64, and the
        # sweep's block size calls int.bit_length on n
        def files(config, out):
            fileio.write_spectrum_comparison(config, reference_pair(config), out / "fig1")
            fileio.write_noise_sweep(config, run_noise_sweep(config), out / "fig2")
            return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}

        python = files(ExperimentConfig(n=20, trials=3), tmp_path / "python")
        assert files(ExperimentConfig(n=np.int64(20), trials=np.int64(3)), tmp_path / "numpy") == python

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            (0.1, "sigmas must be a sequence of real numbers, got 0.1"),
            (None, "sigmas must be a sequence of real numbers, got None"),
            ({0.1: 1}, "sigmas must be a sequence of real numbers, got {0.1: 1}"),
            ({0.1}, "sigmas must be a sequence of real numbers, got {0.1}"),
            (np.array(0.1), "sigmas must be a sequence of real numbers, got array(0.1)"),
            # a string is one value that is not a number, never a grid of its characters
            ("0.1", "sigmas must be a real number, got '0.1'"),
            (b"0.1", "sigmas must be a real number, got b'0.1'"),
            (b"\x01\x02", "sigmas must be a real number, got b'\\x01\\x02'"),
        ],
        ids=["scalar", "none", "mapping", "set", "0-d-array", "str", "bytes", "byte-values"],
    )
    def test_sigmas_not_a_sequence_refused(self, sigmas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(sigmas=sigmas)

    @pytest.mark.parametrize("sigmas", [[0.1, 0.2], range(2), np.array([0.1, 0.2])],
                             ids=["list", "range", "1-d-array"])
    def test_sigmas_sequence_accepted(self, sigmas):
        assert ExperimentConfig(sigmas=sigmas).sigmas == tuple(float(s) for s in sigmas)

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
        kappa = sweep.bands["perturbed"].decomposition.kappa
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
        band = BandModel(dec, config.k)
        low_pass = (np.arange(config.n) < band.k).astype(float)  # the ideal filter's indicator
        stream = {"cycle": 0, "perturbed": 1}[graph]
        for sigma_index, sigma in enumerate(config.sigmas):
            # one stream per cell, its trials drawn one after another
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(stream, sigma_index))
            )
            for trial in range(config.trials):
                c = (rng.standard_normal(config.k) + 1j * rng.standard_normal(config.k)) / np.sqrt(2.0)
                x0 = synthesize_bandlimited(band, c)
                if config.real_noise:
                    eta = sigma * rng.standard_normal(config.n)
                else:
                    eta = sigma * (
                        rng.standard_normal(config.n) + 1j * rng.standard_normal(config.n)
                    ) / np.sqrt(2.0)
                x_rec = apply_filter(x0 + eta, low_pass, dec)
                err_abs = float(np.linalg.norm(x_rec - x0))
                rows.append((graph, sigma, trial, err_abs / np.linalg.norm(x0), err_abs,
                             dec.kappa * float(np.linalg.norm(eta)) / np.linalg.norm(x0)))
    return rows


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4},
        {"sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4, "real_noise": True},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1},
        {"n": 9, "k": 2, "sigmas": (0.2,), "trials": 1, "seed": 1, "real_noise": True},
        # one mode, whose U_omega^* carries a second, unused row
        {"k": 1, "sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4},
        {"k": 1, "sigmas": (0.0, 0.05, 0.3), "trials": 259, "seed": 4, "real_noise": True},
        # the whole spectrum, where P_omega = I
        {"n": 9, "k": 9, "sigmas": (0.0, 0.2), "trials": 130, "seed": 1},
        {"n": 9, "k": 9, "sigmas": (0.0, 0.2), "trials": 130, "seed": 1, "real_noise": True},
    ],
    ids=["complex", "real", "one-trial-complex", "one-trial-real", "one-mode-complex",
         "one-mode-real", "whole-band-complex", "whole-band-real"],
)
def test_sweep_matches_per_trial_loop(kwargs, monkeypatch):
    # a block's one draw from its cell's stream gives each trial the variates that four
    # calls per trial give; 259 trials in blocks of 128 are two whole blocks and a partial one
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
    @staticmethod
    def stream(seed, graph, sigma_index):
        """The PCG64 stream of one (graph, sigma) cell."""
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(graph, sigma_index))))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
    def test_one_cell_stream_serves_every_block(self, seed):
        # block by block across two block boundaries, the cell's stream gives each trial the
        # row that one call for every trial gives, and that four calls per trial give
        k, n = 5, 20
        block = _block_trials(n)
        edges = (0, block, 2 * block, 2 * block + 7)
        generator, out = self.stream(seed, 1, 3), np.empty((block, 2 * k + 2 * n))
        got = np.concatenate([generator.standard_normal(out=out[: b - a]).copy()
                              for a, b in zip(edges, edges[1:])])
        one_call = self.stream(seed, 1, 3).standard_normal((edges[-1], 2 * k + 2 * n))
        rng = self.stream(seed, 1, 3)
        split = [np.concatenate([rng.standard_normal(size) for size in (k, k, n, n)])
                 for _ in range(edges[-1])]
        assert np.array_equal(got, one_call)
        assert np.array_equal(got, np.array(split))

    @pytest.mark.parametrize(
        "seed, graph, sigma_index, trial, head",
        [
            (0, "cycle", 0, 0,
             ["0x1.92625f321f8d5p-1", "-0x1.d70412e7f5b1ep-1", "0x1.78b965b654f72p+0"]),
            (2**64 + 1, "perturbed", 5, 129,
             ["0x1.089d4688d2a37p-2", "0x1.e21c0f13c6d6cp-2", "-0x1.698c0aff74ee6p+0"]),
        ],
    )
    def test_first_variates_pinned(self, seed, graph, sigma_index, trial, head):
        # fixed values, so a seeding fault shows even if numpy's SeedSequence changed with it
        generator = self.stream(seed, _GRAPH_STREAM[graph], sigma_index)
        # rows of 2k coefficient and 2n noise variates at the default n = 20, k = 5
        z = generator.standard_normal(out=np.empty((trial + 1, 2 * 5 + 2 * 20)))
        assert [float.hex(float(v)) for v in z[trial, :3]] == head

    @pytest.mark.parametrize("real_noise", [False, True], ids=["complex", "real"])
    def test_trials_keep_their_values_when_trials_grows(self, real_noise):
        # at n = 20 a block is 1024 trials, so 1100 trials are two blocks, 300 one narrower one
        def cells(trials):
            return run_noise_sweep(ExperimentConfig(trials=trials, real_noise=real_noise)).cells

        for short, long in zip(cells(300), cells(1100), strict=True):
            for name in ("err_l2", "err_abs", "bound"):
                assert np.array_equal(getattr(short, name), getattr(long, name)[:300])


class TestSweepBlocks:
    CONFIG = {"n": 10, "k": 3, "sigmas": (0.05, 0.3), "trials": 300, "seed": 2}

    #: float64 entries per trial and cell a sweep may hold at once: err_abs, ||x0|| and
    #: ||eta|| while the cell runs, then err_l2 and bound
    RESULT_ENTRIES_PER_TRIAL = 5

    def test_working_memory_is_one_block(self):
        # 16 times the trials grow the peak by the per-trial results alone: the draws and
        # products of a block stay one block wide however many trials a cell runs
        def peak(trials):
            tracemalloc.start()
            try:
                cells = len(run_noise_sweep(ExperimentConfig(trials=trials)).cells)
                return tracemalloc.get_traced_memory()[1], cells
            finally:
                tracemalloc.stop()

        (small, cells), (large, _) = peak(2**12), peak(2**16)
        assert large - small <= self.RESULT_ENTRIES_PER_TRIAL * 8 * cells * (2**16 - 2**12)

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
