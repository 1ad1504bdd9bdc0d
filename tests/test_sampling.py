import itertools
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from dirlap import (
    BandModel,
    DimensionMismatchError,
    DirectedGraph,
    GraphSignal,
    NearDefectiveError,
    NonFiniteError,
    RankDeficientError,
    decompose,
    directed_laplacian,
    forward,
    gen_directed_cycle,
    gen_perturbed_cycle,
    noise_certificate,
    plan_sampling,
    recover,
    select_sampling_set,
    synthesize_bandlimited,
)
from dirlap import fileio, sampling
from dirlap.cli import main
from dirlap.sampling import RANK_RTOL, _rank_one_sigma_min


def complex_gaussian(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def reference_greedy(band, m):
    """Greedy gamma selection by one SVD per (step, candidate), with the selector's tie rule."""
    chosen, remaining = [], list(range(band.n))
    for _ in range(m):
        scores = np.array([
            np.linalg.svd(band.v_omega[chosen + [cand]], compute_uv=False)[-1]
            for cand in remaining
        ])
        best = remaining[int(np.argmax(scores >= scores.max() - RANK_RTOL * band.synthesis_norm))]
        chosen.append(best)
        remaining.remove(best)
    return np.sort(np.array(chosen, dtype=int))


class TestMakeBand:
    def test_full_band(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 20)
        assert band.k == 20
        assert np.array_equal(band.v_omega, dec.v)

    def test_dc_band_spans_constants(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 1)
        x = synthesize_bandlimited(band, np.array([2.0 + 1.0j]))
        assert np.max(np.abs(x.values - x.values[0])) < 1e-8

    def test_band_indices_are_lowest_magnitudes(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        assert np.array_equal(band.omega, np.arange(5))

    @pytest.mark.parametrize("k", [0, 21])
    def test_band_size_range(self, perturbed20, k):
        _, dec = perturbed20
        with pytest.raises(ValueError, match=rf"band size must lie in \[1, 20\], got {k}"):
            BandModel(dec, k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", [0, 3]])
    def test_band_size_must_be_an_integer(self, perturbed20, k):
        # np.arange(2.5) has 3 entries, so a float size would plan a 3-mode band; an
        # index set is not a size
        _, dec = perturbed20
        with pytest.raises(ValueError, match="band size must be an integer"):
            BandModel(dec, k)

    def test_numpy_integer_size_accepted(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, np.uint8(2))
        assert type(band.k) is int and band.k == 2
        assert band.omega.tolist() == [0, 1]


class TestBandModel:
    @pytest.mark.parametrize("graph, k", [("perturbed20", 2), ("perturbed20", 5), ("cycle4", 2)])
    def test_lowpass_gain_is_the_projector_norm(self, request, graph, k):
        _, dec = request.getfixturevalue(graph)
        band = BandModel(dec, k)
        u_omega = dec.u[:, band.omega]
        expected = np.linalg.norm(band.v_omega @ u_omega.conj().T, 2)
        assert band.lowpass_gain == pytest.approx(expected, rel=1e-12)
        assert band.lowpass_gain <= dec.kappa * (1 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lowpass_gain_is_one_on_a_cycle(self, cycle4, k):
        # a normal graph's projector is orthogonal
        _, dec = cycle4
        assert BandModel(dec, k).lowpass_gain == pytest.approx(1.0, rel=1e-12)

    def test_sample_and_fig1_never_compute_lowpass_gain(self, tmp_path, monkeypatch):
        # the gain is read only by fig2; every other band computes it never
        bands = []

        class RecordingBand(BandModel):
            def __post_init__(self):
                super().__post_init__()
                bands.append(self)

        monkeypatch.setattr(sampling, "BandModel", RecordingBand)
        runner = CliRunner()
        graph, signal = tmp_path / "g.csv", tmp_path / "x.csv"
        fileio.write_edge_list(gen_perturbed_cycle(20, 0.2, 0.8, seed=7), graph)
        fileio.write_signal(GraphSignal(np.arange(20.0)), signal)
        for args in (
            ["sample", str(graph), "--k", "5", "--m", "8", "--signal", str(signal),
             "--recover-out", str(tmp_path / "r.csv"), "--out", str(tmp_path / "plan.json")],
            ["experiment", "fig1", "--out-dir", str(tmp_path / "fig1")],
        ):
            assert runner.invoke(main, args).exit_code == 0
        assert len(bands) == 1
        assert "lowpass_gain" not in bands[0].__dict__


class TestSynthesize:
    def test_unit_coefficient_returns_eigenvector(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 4)
        x = synthesize_bandlimited(band, np.array([1.0, 0, 0, 0]))
        assert np.linalg.norm(x.values - dec.v[:, 0]) < 1e-12

    def test_out_of_band_mass_vanishes(self, perturbed20, rng):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        c = complex_gaussian(rng, 5)
        xhat = forward(synthesize_bandlimited(band, c), dec)
        assert np.linalg.norm(xhat.values[5:]) <= 1e-9 * np.linalg.norm(c)

    def test_coefficient_length_checked(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        with pytest.raises(DimensionMismatchError):
            synthesize_bandlimited(band, np.ones(4))

    def test_overflow_is_refused_by_name(self, perturbed20):
        # finite coefficients whose synthesis passes float64: no matmul warning escapes
        band = BandModel(perturbed20[1], 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the synthesis overflowed float64$"):
                synthesize_bandlimited(band, np.full(5, 1.5e308))


class TestPlanSampling:
    def test_sample_set_is_sorted_and_collapsed(self, perturbed20):
        _, dec = perturbed20
        plan = plan_sampling(BandModel(dec, 3), [7, 2, 7, 19, 0, 2])
        assert plan.sample_set.tolist() == [0, 2, 7, 19]
        assert np.array_equal(plan.b, plan.band.v_omega[[0, 2, 7, 19]])

    def test_empty_sample_set_refused(self, perturbed20):
        _, dec = perturbed20
        with pytest.raises(ValueError, match="sample set must not be empty"):
            plan_sampling(BandModel(dec, 3), [])

    def test_cycle_dc_single_vertex(self, cycle4):
        # v_0 = (1/2) * ones, so the 1x1 sampling matrix is [1/2]
        _, dec = cycle4
        band = BandModel(dec, 1)
        plan = plan_sampling(band, [0])
        assert plan.gamma == pytest.approx(0.5, abs=1e-12)
        assert plan.b_norm == pytest.approx(0.5, abs=1e-12)

    def test_full_sampling(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 6)
        plan = plan_sampling(band, range(20))
        s = np.linalg.svd(band.v_omega, compute_uv=False)
        assert plan.gamma == pytest.approx(s[-1], rel=1e-12)
        assert plan.gamma > 0

    def test_fewer_samples_than_band_is_rank_deficient(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        assert plan_sampling(band, [0, 3, 11]).gamma == 0.0

    def test_gamma_le_bnorm(self, perturbed20, rng):
        _, dec = perturbed20
        band = BandModel(dec, 4)
        for _ in range(20):
            m = int(rng.integers(4, 21))
            plan = plan_sampling(band, rng.choice(20, size=m, replace=False))
            assert plan.gamma <= plan.b_norm + 1e-15

    def test_empty_sample_set_rejected(self, cycle4):
        _, dec = cycle4
        with pytest.raises(ValueError):
            plan_sampling(BandModel(dec, 1), [])

    def test_out_of_range_vertex_rejected(self, cycle4):
        _, dec = cycle4
        with pytest.raises(ValueError):
            plan_sampling(BandModel(dec, 1), [4])

    @pytest.mark.parametrize("bad", [0.9, 5.5, 7.0, True, "7"])
    def test_non_integer_vertex_refused(self, perturbed20, bad):
        # each one would otherwise be truncated or cast into a vertex index
        _, dec = perturbed20
        with pytest.raises(ValueError, match="sample vertices must be integers"):
            plan_sampling(BandModel(dec, 2), [0, bad, 12])

    def test_plan_carries_its_band(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 3)
        plan = plan_sampling(band, np.array([2, 0, 9, 2], dtype=np.int32))
        assert plan.band is band
        assert plan.sample_set.tolist() == [0, 2, 9]


class TestRecover:
    def test_noiseless_recovery_is_exact(self, perturbed20, rng):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        for _ in range(25):
            c = complex_gaussian(rng, 5)
            x = synthesize_bandlimited(band, c)
            x_rec = recover(plan, x.values[plan.sample_set])
            assert np.linalg.norm(x_rec.values - x.values) <= 1e-9 * x.norm()

    def test_zero_samples_zero_reconstruction(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 3)
        plan = plan_sampling(band, range(10))
        assert recover(plan, np.zeros(10, dtype=complex)).norm() == 0.0

    def test_rank_deficient_plan_refused(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, [1, 8, 15])
        with pytest.raises(RankDeficientError):
            recover(plan, np.zeros(3, dtype=complex))

    def test_aliased_samples_refused_even_with_enough_rows(self):
        # vertices 1 and 2 each have the one out-arc to 0, so rows 1 and 2 of L give
        # v_1 = v_2 for every eigenvector with lambda != 1: the band of the two lowest
        # (0 and 0.38) sampled at {1, 2} has m = k, but the samples cannot tell the
        # modes apart
        g = DirectedGraph(4, [0, 0, 1, 2], [1, 3, 0, 0], [1.0, 1.0, 1.0, 1.0])
        band = BandModel(decompose(directed_laplacian(g)), 2)
        plan = plan_sampling(band, [1, 2])
        assert plan.gamma <= 1e-12 * plan.b_norm
        with pytest.raises(RankDeficientError):
            recover(plan, np.zeros(2, dtype=complex))

    def test_overflowing_recovery_raises_non_finite(self, cycle4):
        plan = plan_sampling(BandModel(cycle4[1], 2), [0, 1, 2])
        with pytest.raises(NonFiniteError, match="^the recovery overflowed float64$"):
            recover(plan, np.full(3, 1e308 + 1e308j))

    def test_sample_length_checked(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 3)
        plan = plan_sampling(band, range(8))
        with pytest.raises(DimensionMismatchError):
            recover(plan, np.zeros(5, dtype=complex))

    def test_pinv_gamma_product_is_one(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        for sample in (range(20), range(0, 20, 2), [0, 2, 3, 7, 11, 13, 19]):
            plan = plan_sampling(band, sample)
            pinv_norm = np.linalg.norm(np.linalg.pinv(plan.b, rcond=1e-12), 2)
            assert pinv_norm * plan.gamma == pytest.approx(1.0, rel=1e-10)


class TestCertificates:
    def test_zero_noise(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 4)
        plan = plan_sampling(band, range(12))
        assert noise_certificate(plan, 0.0) == 0.0

    def test_orthonormal_band_certificate(self, cycle20):
        # cycle eigenvectors are orthonormal: ||V_omega|| = 1, bound = eta/gamma
        _, dec = cycle20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        assert noise_certificate(plan, 0.3) == pytest.approx(0.3 / plan.gamma, rel=1e-9)

    def test_noise_bound_monte_carlo(self, perturbed20, rng):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        pinv = np.linalg.pinv(plan.b, rcond=1e-12)
        for _ in range(2000):
            c = complex_gaussian(rng, 5)
            x = synthesize_bandlimited(band, c)
            eta = 0.1 * complex_gaussian(rng, plan.m)
            y = x.values[plan.sample_set] + eta
            x_rec = band.v_omega @ (pinv @ y)
            err = np.linalg.norm(x_rec - x.values)
            assert err <= noise_certificate(plan, np.linalg.norm(eta))

    def test_out_of_band_tail_bounded(self, perturbed20, rng):
        # x = V_omega c + r with r spanned by the complementary modes, no noise:
        # recovery treats the sampled remainder P_M r as noise
        _, dec = perturbed20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        pinv = np.linalg.pinv(plan.b, rcond=1e-12)
        for _ in range(200):
            c = complex_gaussian(rng, 5)
            d = 0.05 * complex_gaussian(rng, 15)
            in_band = band.v_omega @ c
            tail = dec.v[:, 5:] @ d
            y = (in_band + tail)[plan.sample_set]
            x_rec = band.v_omega @ (pinv @ y)
            err = np.linalg.norm(x_rec - in_band)
            cert = noise_certificate(plan, np.linalg.norm(tail[plan.sample_set]))
            assert err <= cert * (1 + 1e-10)

    def test_rank_deficient_plan_rejected(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        plan = plan_sampling(band, [0, 5])
        with pytest.raises(RankDeficientError):
            noise_certificate(plan, 1.0)

    @pytest.mark.parametrize("eta_norm", [np.nan, np.inf, -1.0, True, "1", None])
    def test_noise_norm_must_be_finite_and_nonnegative(self, perturbed20, eta_norm):
        # a NaN fails every comparison, so a sign check alone would certify nan; numpy
        # reads True as 1.0 and would raise its own TypeError on "1"
        _, dec = perturbed20
        plan = plan_sampling(BandModel(dec, 4), range(12))
        message = {"nan": "noise norm must be finite, got nan",
                   "inf": "noise norm must be finite, got inf",
                   "-1.0": "noise norm must lie in [0, inf], got -1.0"}.get(
                       str(eta_norm), f"noise norm must be a real number, got {eta_norm!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            noise_certificate(plan, eta_norm)


class TestFrameBounds:
    def test_sandwich_for_random_coefficients(self, perturbed20, rng):
        _, dec = perturbed20
        band = BandModel(dec, 4)
        for sample in (range(20), range(0, 20, 3)):
            plan = plan_sampling(band, sample)
            for _ in range(100):
                c = complex_gaussian(rng, 4)
                bc = np.linalg.norm(plan.b @ c) ** 2
                c2 = np.linalg.norm(c) ** 2
                assert plan.gamma**2 * c2 <= bc * (1 + 1e-10)
                assert bc <= plan.b_norm**2 * c2 * (1 + 1e-10)


class TestSelectSamplingSet:
    def test_full_budget_returns_all_vertices(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        for strategy in ("greedy-gamma", "random"):
            assert np.array_equal(
                select_sampling_set(band, 20, strategy), np.arange(20)
            )

    def test_greedy_near_exhaustive_on_cycle(self):
        # spec-scale oracle: n=8, K=2, budget 2, all 28 pairs enumerated
        dec = decompose(directed_laplacian(gen_directed_cycle(8)))
        band = BandModel(dec, 2)
        greedy = plan_sampling(band, select_sampling_set(band, 2)).gamma
        best = max(
            plan_sampling(band, pair).gamma
            for pair in itertools.combinations(range(8), 2)
        )
        assert greedy >= 0.95 * best

    def test_greedy_beats_random_median(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 3)
        greedy = plan_sampling(band, select_sampling_set(band, 5)).gamma
        randoms = [
            plan_sampling(band, select_sampling_set(band, 5, "random", seed)).gamma
            for seed in range(100)
        ]
        assert greedy >= np.median(randoms)

    def test_random_is_seed_deterministic(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 3)
        a = select_sampling_set(band, 6, "random", 11)
        b = select_sampling_set(band, 6, "random", 11)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [True, 1.5, 2.0, -1, "1", None])
    def test_seed_must_be_a_nonnegative_integer(self, perturbed20, seed):
        # numpy would run True as seed 1 and raise its own TypeError on 1.5
        band = BandModel(perturbed20[1], 3)
        message = {-1: "seed must lie in [0, inf], got -1"}.get(
            seed, f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_sampling_set(band, 6, "random", seed)

    def test_budget_below_band_rejected(self, perturbed20):
        _, dec = perturbed20
        band = BandModel(dec, 5)
        with pytest.raises(ValueError):
            select_sampling_set(band, 4)

    @pytest.mark.parametrize("strategy", ["greedy-gamma", "random"])
    @pytest.mark.parametrize("m", [True, 6.0, 6.5, "6"])
    def test_non_integer_budget_refused(self, perturbed20, strategy, m):
        # the same rule under both strategies, as a band's k
        _, dec = perturbed20
        with pytest.raises(ValueError, match="sample budget must be an integer"):
            select_sampling_set(BandModel(dec, 1), m, strategy)

    def test_unknown_strategy_rejected(self, perturbed20):
        _, dec = perturbed20
        with pytest.raises(ValueError):
            select_sampling_set(BandModel(dec, 2), 3, "simulated-annealing")

    def test_cycle_first_pick_is_vertex_zero(self, cycle20):
        # every row of a Fourier band has the same norm, so every candidate of the
        # first step ties and the lowest index wins whatever the rounding
        _, dec = cycle20
        assert np.array_equal(select_sampling_set(BandModel(dec, 1), 1), [0])
        for k in range(1, 7):
            band = BandModel(dec, k)
            norms = np.linalg.norm(band.v_omega, axis=1)
            assert np.ptp(norms) <= RANK_RTOL * band.synthesis_norm
            assert select_sampling_set(band, k)[0] == 0

    @pytest.mark.parametrize("seed, expected", [
        (1, [0, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 21, 22, 24, 26, 27, 29, 31, 32, 33, 34, 35,
             38, 39, 40, 41, 42, 43, 45, 47, 48, 49, 50, 54, 55, 59, 60, 61, 62, 63, 64, 65,
             69, 70, 71, 72, 75, 76, 77, 79, 83, 84, 88, 91, 92, 93, 94, 96, 97, 98, 99, 100,
             107, 110, 111, 113, 115, 116, 117, 120, 121, 122, 123, 124, 126, 129, 130, 131,
             132, 133, 135, 137, 139, 140, 141, 143, 144, 146, 147, 148]),
        (2, [0, 2, 3, 4, 5, 6, 7, 8, 11, 13, 14, 16, 17, 18, 19, 20, 22, 23, 25, 27, 28, 31,
             34, 35, 38, 41, 42, 43, 45, 46, 48, 51, 52, 53, 54, 56, 58, 61, 62, 63, 67, 68,
             69, 72, 74, 76, 77, 79, 80, 81, 83, 84, 85, 86, 90, 91, 92, 93, 97, 98, 100, 101,
             102, 103, 106, 107, 108, 109, 111, 112, 113, 114, 115, 116, 120, 121, 122, 125,
             126, 127, 129, 133, 134, 135, 136, 143, 145, 146, 148, 149]),
    ])
    def test_pinned_sets_at_n150(self, seed, expected):
        # chosen by the per-candidate SVD loop; no step of these runs is near a tie
        g = gen_perturbed_cycle(150, 0.05, 0.8, seed)
        band = BandModel(decompose(directed_laplacian(g)), 15)
        assert select_sampling_set(band, 90).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_greedy_matches_reference_on_perturbed_cycles(n, p, seed, data):
    try:
        dec = decompose(directed_laplacian(gen_perturbed_cycle(n, p, 0.8, seed)))
    except NearDefectiveError:
        assume(False)
    k = data.draw(st.integers(1, min(6, n)), label="k")
    m = data.draw(st.integers(k, n), label="m")
    band = BandModel(dec, k)
    assert np.array_equal(select_sampling_set(band, m), reference_greedy(band, m))


@pytest.mark.parametrize("n, p, seed, k, m", [
    (8, 0.11257226178967854, 207194120, 4, 6),
    (10, 0.11571890634799628, 916389845, 3, 6),
    (25, 0.03509087503658459, 464503419, 6, 10),
])
def test_greedy_matches_reference_on_ill_conditioned_bands(n, p, seed, k, m):
    # kappa ~ 1e8 and gamma ~ 3e-8: the scores carry relative rounding errors near
    # 1e-9, and distinct candidates agree to within them; a tie band relative to
    # the best score would let the two scorers pick different vertices here
    dec = decompose(directed_laplacian(gen_perturbed_cycle(n, p, 1.0, seed)))
    band = BandModel(dec, k)
    assert np.array_equal(select_sampling_set(band, m), reference_greedy(band, m))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_greedy_matches_reference_on_directed_cycles(n, data):
    # circulant: exact ties at every step, settled by the tie rule on both sides
    dec = decompose(directed_laplacian(gen_directed_cycle(n)))
    k = data.draw(st.integers(1, min(6, n)), label="k")
    m = data.draw(st.integers(k, n), label="m")
    band = BandModel(dec, k)
    assert np.array_equal(select_sampling_set(band, m), reference_greedy(band, m))


@pytest.mark.parametrize("j, k, rank", [
    (0, 4, 0), (2, 4, 2), (4, 4, 4), (7, 4, 4),
    (0, 1, 0), (1, 1, 1), (3, 1, 1),
    (3, 5, 2),
], ids=["j0", "j<k", "j=k", "j>k", "k1-j0", "k1-j1", "k1-j3", "rank-deficient"])
def test_rank_one_sigma_min_matches_svd(rng, j, k, rank):
    b = complex_gaussian(rng, (j, rank)) @ complex_gaussian(rng, (rank, k))
    # two candidates inside b's row space, where ||r||^2 - ||r W||^2 would cancel
    rows = np.vstack([complex_gaussian(rng, (6, k)), complex_gaussian(rng, (2, j)) @ b])
    got = _rank_one_sigma_min(b, rows)
    want = [np.linalg.svd(np.vstack([b, r]), compute_uv=False)[-1] for r in rows]
    tol = 1e-12 * np.linalg.norm(np.vstack([b, rows]), 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    if rank + 1 < min(j + 1, k):
        # [b; r] has rank at most rank + 1, below its smaller dimension
        np.testing.assert_allclose(got, 0.0, rtol=0, atol=tol)


def test_exact_recovery_across_graphs(rng):
    decs = [decompose(directed_laplacian(gen_directed_cycle(n))) for n in (5, 9, 16)]
    decs += [
        decompose(directed_laplacian(gen_perturbed_cycle(14, 0.25, 0.8, s)))
        for s in (1, 4)
    ]
    for _ in range(100):
        dec = decs[rng.integers(len(decs))]
        k = int(rng.integers(1, min(6, dec.n) + 1))
        band = BandModel(dec, k)
        plan = None
        while plan is None or plan.gamma <= 1e-6 * plan.b_norm:
            m = int(rng.integers(k, dec.n + 1))
            plan = plan_sampling(band, rng.choice(dec.n, size=m, replace=False))
        c = complex_gaussian(rng, k)
        x = synthesize_bandlimited(band, c)
        x_rec = recover(plan, x.values[plan.sample_set])
        assert np.linalg.norm(x_rec.values - x.values) <= 1e-9 * x.norm()
