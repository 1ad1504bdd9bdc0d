import itertools

import numpy as np
import pytest

from dirlap import (
    DimensionMismatchError,
    RankDeficientError,
    approx_band_certificate,
    decompose,
    directed_laplacian,
    forward,
    gen_directed_cycle,
    gen_perturbed_cycle,
    make_band,
    noise_certificate,
    plan_sampling,
    recover,
    select_sampling_set,
    synthesize_bandlimited,
)


def complex_gaussian(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


class TestMakeBand:
    def test_full_band(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 20)
        assert band.k == 20
        assert np.array_equal(band.v_omega, dec.v)

    def test_dc_band_spans_constants(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 1)
        x = synthesize_bandlimited(band, np.array([2.0 + 1.0j]))
        assert np.max(np.abs(x.values - x.values[0])) < 1e-8

    def test_band_indices_are_lowest_magnitudes(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        assert np.array_equal(band.omega, np.arange(5))

    @pytest.mark.parametrize("k", [0, 21])
    def test_band_size_range(self, perturbed20, k):
        _, dec = perturbed20
        with pytest.raises(ValueError):
            make_band(dec, k)


class TestSynthesize:
    def test_unit_coefficient_returns_eigenvector(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 4)
        x = synthesize_bandlimited(band, np.array([1.0, 0, 0, 0]))
        assert np.linalg.norm(x.values - dec.v[:, 0]) < 1e-12

    def test_out_of_band_mass_vanishes(self, perturbed20, rng):
        _, dec = perturbed20
        band = make_band(dec, 5)
        c = complex_gaussian(rng, 5)
        xhat = forward(synthesize_bandlimited(band, c), dec)
        assert np.linalg.norm(xhat.values[5:]) <= 1e-9 * np.linalg.norm(c)

    def test_coefficient_length_checked(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        with pytest.raises(DimensionMismatchError):
            synthesize_bandlimited(band, np.ones(4))


class TestPlanSampling:
    def test_cycle_dc_single_vertex(self, cycle4):
        # v_0 = (1/2) * ones, so the 1x1 sampling matrix is [1/2]
        _, dec = cycle4
        band = make_band(dec, 1)
        plan = plan_sampling(band, [0])
        assert plan.gamma == pytest.approx(0.5, abs=1e-12)
        assert plan.b_norm == pytest.approx(0.5, abs=1e-12)

    def test_full_sampling(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 6)
        plan = plan_sampling(band, range(20))
        s = np.linalg.svd(band.v_omega, compute_uv=False)
        assert plan.gamma == pytest.approx(s[-1], rel=1e-12)
        assert plan.gamma > 0

    def test_fewer_samples_than_band_is_rank_deficient(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        assert plan_sampling(band, [0, 3, 11]).gamma == 0.0

    def test_gamma_le_bnorm(self, perturbed20, rng):
        _, dec = perturbed20
        band = make_band(dec, 4)
        for _ in range(20):
            m = int(rng.integers(4, 21))
            plan = plan_sampling(band, rng.choice(20, size=m, replace=False))
            assert plan.gamma <= plan.b_norm + 1e-15

    def test_empty_sample_set_rejected(self, cycle4):
        _, dec = cycle4
        with pytest.raises(ValueError):
            plan_sampling(make_band(dec, 1), [])

    def test_out_of_range_vertex_rejected(self, cycle4):
        _, dec = cycle4
        with pytest.raises(ValueError):
            plan_sampling(make_band(dec, 1), [4])


class TestRecover:
    def test_noiseless_recovery_is_exact(self, perturbed20, rng):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        for _ in range(25):
            c = complex_gaussian(rng, 5)
            x = synthesize_bandlimited(band, c)
            rep = recover(plan, band, x.values[plan.sample_set])
            assert np.linalg.norm(rep.x_rec.values - x.values) <= 1e-9 * x.norm()
            assert rep.residual <= 1e-10 * np.linalg.norm(x.values[plan.sample_set])
            assert np.linalg.norm(rep.coeffs - c) <= 1e-9 * np.linalg.norm(c)

    def test_zero_samples_zero_reconstruction(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 3)
        plan = plan_sampling(band, range(10))
        rep = recover(plan, band, np.zeros(10, dtype=complex))
        assert rep.x_rec.norm() == 0.0
        assert rep.error_bound == 0.0

    def test_rank_deficient_plan_refused(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, [1, 8, 15])
        with pytest.raises(RankDeficientError):
            recover(plan, band, np.zeros(3, dtype=complex))

    def test_aliased_samples_refused_even_with_enough_rows(self, cycle4):
        # modes 0 and 2 of the 4-cycle take identical values on vertices
        # {0, 2}, so those two rows are linearly dependent: m = K but the
        # samples cannot tell the modes apart
        _, dec = cycle4
        from dirlap import BandModel

        band = BandModel(decomposition=dec, omega=np.array([0, 3]))
        plan = plan_sampling(band, [0, 2])
        assert plan.gamma <= 1e-12 * plan.b_norm
        with pytest.raises(RankDeficientError):
            recover(plan, band, np.zeros(2, dtype=complex))

    def test_sample_length_checked(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 3)
        plan = plan_sampling(band, range(8))
        with pytest.raises(DimensionMismatchError):
            recover(plan, band, np.zeros(5, dtype=complex))

    def test_pinv_gamma_product_is_one(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        for sample in (range(20), range(0, 20, 2), [0, 2, 3, 7, 11, 13, 19]):
            plan = plan_sampling(band, sample)
            pinv_norm = np.linalg.norm(np.linalg.pinv(plan.b, rcond=1e-12), 2)
            assert pinv_norm * plan.gamma == pytest.approx(1.0, rel=1e-10)


class TestCertificates:
    def test_zero_noise(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 4)
        plan = plan_sampling(band, range(12))
        assert noise_certificate(plan, band, 0.0) == 0.0
        assert approx_band_certificate(plan, band, 0.0, 0.0) == 0.0

    def test_orthonormal_band_certificate(self, cycle20):
        # cycle eigenvectors are orthonormal: ||V_omega|| = 1, bound = eta/gamma
        _, dec = cycle20
        band = make_band(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        assert noise_certificate(plan, band, 0.3) == pytest.approx(0.3 / plan.gamma, rel=1e-9)

    def test_noise_bound_monte_carlo(self, perturbed20, rng):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        pinv = np.linalg.pinv(plan.b, rcond=1e-12)
        for _ in range(2000):
            c = complex_gaussian(rng, 5)
            x = synthesize_bandlimited(band, c)
            eta = 0.1 * complex_gaussian(rng, plan.m)
            y = x.values[plan.sample_set] + eta
            x_rec = band.v_omega @ (pinv @ y)
            err = np.linalg.norm(x_rec - x.values)
            assert err <= noise_certificate(plan, band, np.linalg.norm(eta))

    def test_approx_band_reduces_to_noise_certificate(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, range(0, 20, 2))
        assert approx_band_certificate(plan, band, 0.0, 0.7) == pytest.approx(
            noise_certificate(plan, band, 0.7)
        )

    def test_out_of_band_tail_bounded(self, perturbed20, rng):
        # x = V_omega c + r with r spanned by the complementary modes, no noise
        _, dec = perturbed20
        band = make_band(dec, 5)
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
            cert = approx_band_certificate(
                plan, band, np.linalg.norm(tail[plan.sample_set]), 0.0
            )
            assert err <= cert * (1 + 1e-10)

    def test_rank_deficient_plan_rejected(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        plan = plan_sampling(band, [0, 5])
        with pytest.raises(RankDeficientError):
            noise_certificate(plan, band, 1.0)


class TestFrameBounds:
    def test_sandwich_for_random_coefficients(self, perturbed20, rng):
        _, dec = perturbed20
        band = make_band(dec, 4)
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
        band = make_band(dec, 5)
        for strategy in ("greedy-gamma", "random"):
            assert np.array_equal(
                select_sampling_set(band, 20, strategy), np.arange(20)
            )

    def test_greedy_near_exhaustive_on_cycle(self):
        # spec-scale oracle: n=8, K=2, budget 2, all 28 pairs enumerated
        dec = decompose(directed_laplacian(gen_directed_cycle(8)))
        band = make_band(dec, 2)
        greedy = plan_sampling(band, select_sampling_set(band, 2)).gamma
        best = max(
            plan_sampling(band, pair).gamma
            for pair in itertools.combinations(range(8), 2)
        )
        assert greedy >= 0.95 * best

    def test_greedy_beats_random_median(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 3)
        greedy = plan_sampling(band, select_sampling_set(band, 5)).gamma
        randoms = [
            plan_sampling(band, select_sampling_set(band, 5, "random", seed)).gamma
            for seed in range(100)
        ]
        assert greedy >= np.median(randoms)

    def test_random_is_seed_deterministic(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 3)
        a = select_sampling_set(band, 6, "random", 11)
        b = select_sampling_set(band, 6, "random", 11)
        assert np.array_equal(a, b)

    def test_budget_below_band_rejected(self, perturbed20):
        _, dec = perturbed20
        band = make_band(dec, 5)
        with pytest.raises(ValueError):
            select_sampling_set(band, 4)

    def test_unknown_strategy_rejected(self, perturbed20):
        _, dec = perturbed20
        with pytest.raises(ValueError):
            select_sampling_set(make_band(dec, 2), 3, "simulated-annealing")


def test_exact_recovery_across_graphs(rng):
    decs = [decompose(directed_laplacian(gen_directed_cycle(n))) for n in (5, 9, 16)]
    decs += [
        decompose(directed_laplacian(gen_perturbed_cycle(14, 0.25, 0.8, s)))
        for s in (1, 4)
    ]
    for _ in range(100):
        dec = decs[rng.integers(len(decs))]
        k = int(rng.integers(1, min(6, dec.n) + 1))
        band = make_band(dec, k)
        plan = None
        while plan is None or plan.gamma <= 1e-6 * plan.b_norm:
            m = int(rng.integers(k, dec.n + 1))
            plan = plan_sampling(band, rng.choice(dec.n, size=m, replace=False))
        c = complex_gaussian(rng, k)
        x = synthesize_bandlimited(band, c)
        rep = recover(plan, band, x.values[plan.sample_set])
        assert np.linalg.norm(rep.x_rec.values - x.values) <= 1e-9 * x.norm()
