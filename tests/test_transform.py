import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirlap import (
    BandModel,
    DimensionMismatchError,
    GraphSignal,
    NonFiniteError,
    apply_filter,
    decompose,
    directed_laplacian,
    energy_identity,
    forward,
    gen_directed_cycle,
    gen_perturbed_cycle,
    gram_matrix,
    inverse,
    plan_sampling,
    recover,
    synthesize_bandlimited,
    tv_bounds,
)


def random_signal(rng, n):
    return GraphSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def indicator(omega, n):
    """The ideal filter's response: 1 on the bins in ``omega``, 0 elsewhere."""
    response = np.zeros(n, dtype=np.complex128)
    response[omega] = 1.0
    return response


class TestTransformPair:
    def test_eigenvector_maps_to_coordinate(self, perturbed20):
        _, dec = perturbed20
        for k in (0, 3, 19):
            xhat = forward(GraphSignal(dec.v[:, k]), dec)
            ek = np.zeros(20)
            ek[k] = 1.0
            assert np.linalg.norm(xhat.values - ek) < 1e-9

    def test_constant_signal_hits_dc_bin(self, perturbed20):
        _, dec = perturbed20
        xhat = forward(GraphSignal(np.ones(20)), dec).values
        assert abs(xhat[0] - np.sqrt(20)) < 1e-8
        assert np.max(np.abs(xhat[1:])) < 1e-8

    def test_cycle4_impulse_is_flat_spectrum(self, cycle4):
        # DFT eigenbasis: the impulse spreads evenly, |xhat_k| = 1/2
        _, dec = cycle4
        xhat = forward(GraphSignal([1.0, 0.0, 0.0, 0.0]), dec)
        assert np.allclose(np.abs(xhat.values), 0.5, atol=1e-9)

    def test_round_trip(self, perturbed20, rng):
        _, dec = perturbed20
        for _ in range(20):
            x = random_signal(rng, 20)
            back = inverse(forward(x, dec), dec)
            assert np.linalg.norm(back.values - x.values) <= dec.kappa * 20 * 1e-12 * x.norm()

    def test_dc_bin_synthesizes_constant(self, perturbed20):
        _, dec = perturbed20
        e0 = np.zeros(20)
        e0[0] = 1.0
        x = inverse(GraphSignal(e0), dec)
        assert np.allclose(x.values, np.ones(20) / np.sqrt(20), atol=1e-9)

    def test_zero_spectrum_is_zero_signal(self, cycle4):
        _, dec = cycle4
        assert inverse(GraphSignal(np.zeros(4)), dec).norm() == 0.0

    def test_dimension_mismatch(self, cycle4):
        _, dec = cycle4
        with pytest.raises(DimensionMismatchError):
            forward(GraphSignal(np.zeros(5)), dec)


class TestOverflow:
    """A result past float64 raises NonFiniteError by name, with numpy's warnings off."""

    BIG = np.full(4, 1e308 + 1e308j)

    def test_forward(self, cycle4):
        with pytest.raises(NonFiniteError, match="^the forward transform overflowed float64$"):
            forward(GraphSignal(self.BIG), cycle4[1])

    def test_inverse(self, cycle4):
        with pytest.raises(NonFiniteError, match="^the inverse transform overflowed float64$"):
            inverse(GraphSignal(self.BIG), cycle4[1])

    def test_filter(self, cycle4):
        x = GraphSignal(self.BIG.real * 1e-8)  # the forward part stays finite
        with pytest.raises(NonFiniteError, match="^the filter overflowed float64$"):
            apply_filter(x, np.full(4, 1e300), cycle4[1])

    def test_tv_bounds(self, cycle4):
        # every entry 1e300: the spectral energies pass float64, while actual is 0
        dec = decompose(cycle4[0] * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the total variation overflowed float64$"):
                tv_bounds(GraphSignal(np.ones(4)), dec)

    def test_energy_identity(self, perturbed20):
        # forward stays finite, while ||x||^2 = 2e601 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the energy identity overflowed float64$"):
                energy_identity(GraphSignal(np.full(20, 1e300)), perturbed20[1])

    def test_non_finite_input_is_still_refused_by_the_signal(self):
        with pytest.raises(ValueError, match="signal entries must be finite"):
            GraphSignal([1.0, np.inf])


#: each complex input vector's name in errors, its length on the perturbed 20-cycle, and a
#: call that passes it through the gate
GATED_INPUTS = {
    "signal": (20, lambda dec, v: GraphSignal(v)),
    "filter response": (20, lambda dec, v: apply_filter(GraphSignal(np.ones(20)), v, dec)),
    "coefficients": (5, lambda dec, v: synthesize_bandlimited(BandModel(dec, 5), v)),
    "samples": (10, lambda dec, v: recover(plan_sampling(BandModel(dec, 5), range(0, 20, 2)), v)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "2-D"])
@pytest.mark.parametrize("what", list(GATED_INPUTS))
def test_every_input_vector_passes_one_gate(perturbed20, what, bad):
    # unchecked, a NaN sample reads as "the recovery overflowed float64", and an
    # infinite coefficient lets numpy's matmul warning escape
    size, call = GATED_INPUTS[what]
    if bad == "2-D":
        values = np.ones((size, 1))
        refusal = pytest.raises(
            DimensionMismatchError, match=rf"^{what} must be one-dimensional, got shape \({size}, 1\)$")
    else:
        values = np.ones(size, dtype=np.complex128)
        values[-1] = bad
        refusal = pytest.raises(ValueError, match=f"^{what} entries must be finite$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with refusal:
            call(perturbed20[1], values)


class TestEnergyIdentity:
    def test_cycle_recovers_parseval(self, cycle20, rng):
        _, dec = cycle20
        x = random_signal(rng, 20)
        vertex_e, gram_e = energy_identity(x, dec)
        xhat = forward(x, dec)
        assert gram_e == pytest.approx(vertex_e, rel=1e-10)
        assert xhat.norm() ** 2 == pytest.approx(vertex_e, rel=1e-8)

    def test_identity_holds_off_normal(self, perturbed20, rng):
        _, dec = perturbed20
        for _ in range(50):
            x = random_signal(rng, 20)
            vertex_e, gram_e = energy_identity(x, dec)
            assert abs(vertex_e - gram_e) <= 1e-8 * vertex_e

    def test_unit_spectral_energy_is_rayleigh_quotient(self, perturbed20, rng):
        _, dec = perturbed20
        eigs = np.linalg.eigvalsh(gram_matrix(dec))
        for _ in range(20):
            xhat = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            xhat /= np.linalg.norm(xhat)
            x = inverse(GraphSignal(xhat), dec)
            assert eigs[0] - 1e-9 <= x.norm() ** 2 <= eigs[-1] + 1e-9


class TestFilters:
    def test_all_pass_is_identity(self, perturbed20, rng):
        _, dec = perturbed20
        filt = np.ones(20)
        x = random_signal(rng, 20)
        y = apply_filter(x, filt, dec)
        assert np.linalg.norm(y.values - x.values) <= dec.kappa * 1e-10 * x.norm()

    def test_ideal_projector_idempotent(self, perturbed20, rng):
        _, dec = perturbed20
        filt = indicator([0, 1, 2, 5], 20)
        x = random_signal(rng, 20)
        once = apply_filter(x, filt, dec)
        twice = apply_filter(once, filt, dec)
        assert np.linalg.norm(twice.values - once.values) <= 1e-8 * max(1.0, once.norm())

    def test_dc_projector_extracts_mean_mode(self, perturbed20, rng):
        _, dec = perturbed20
        x = random_signal(rng, 20)
        y = apply_filter(x, indicator([0], 20), dec)
        expected = np.vdot(dec.u[:, 0], x.values) * dec.v[:, 0]
        assert np.linalg.norm(y.values - expected) < 1e-9

    def test_linearity(self, perturbed20, rng):
        _, dec = perturbed20
        filt = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x, y = random_signal(rng, 20), random_signal(rng, 20)
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        combo = apply_filter(GraphSignal(a * x.values + b * y.values), filt, dec)
        split = a * apply_filter(x, filt, dec).values + b * apply_filter(y, filt, dec).values
        assert np.linalg.norm(combo.values - split) <= 1e-10 * max(1.0, np.linalg.norm(split))

    def test_complementary_projectors_sum_to_identity(self, perturbed20, rng):
        _, dec = perturbed20
        omega = [0, 1, 2]
        rest = [k for k in range(20) if k not in omega]
        x = random_signal(rng, 20)
        total = (
            apply_filter(x, indicator(omega, 20), dec).values
            + apply_filter(x, indicator(rest, 20), dec).values
        )
        assert np.linalg.norm(total - x.values) <= dec.kappa * 1e-10 * x.norm()

    def test_tap_count_mismatch(self, cycle4, rng):
        _, dec = cycle4
        with pytest.raises(DimensionMismatchError):
            apply_filter(random_signal(rng, 4), np.ones(6), dec)


class TestTotalVariation:
    def test_constant_signal_has_zero_variation(self, perturbed20):
        _, dec = perturbed20
        assert tv_bounds(GraphSignal(np.ones(20)), dec).actual < 1e-20

    def test_eigenvector_variation_is_eigenvalue_squared(self, perturbed20):
        _, dec = perturbed20
        for k in (1, 7, 19):
            tv = tv_bounds(GraphSignal(dec.v[:, k]), dec).actual
            assert tv == pytest.approx(abs(dec.lambdas[k]) ** 2, rel=1e-8, abs=1e-12)

    def test_alternating_cycle_signal(self, cycle4):
        # x=(1,-1,1,-1) on the 4-cycle: Lx = 2x entrywise, so ||Lx||^2 = 16
        _, dec = cycle4
        assert tv_bounds(GraphSignal([1.0, -1.0, 1.0, -1.0]), dec).actual == pytest.approx(16.0)


class TestTvBounds:
    def test_sandwich_monte_carlo(self, perturbed20, rng):
        _, dec = perturbed20
        for _ in range(1000):
            b = tv_bounds(random_signal(rng, 20), dec)
            scale = max(b.actual, 1e-30)
            assert b.lower <= b.actual * (1 + 1e-10) + 1e-12 * scale
            assert b.actual <= b.upper * (1 + 1e-10) + 1e-12 * scale

    def test_cycle_collapses_to_equality(self, cycle20, rng):
        _, dec = cycle20
        for _ in range(50):
            b = tv_bounds(random_signal(rng, 20), dec)
            assert b.lower == pytest.approx(b.actual, rel=1e-8)
            assert b.upper == pytest.approx(b.actual, rel=1e-8)
            assert b.spectral_energy == pytest.approx(b.actual, rel=1e-8)

    def test_constant_signal_all_zero(self, perturbed20):
        _, dec = perturbed20
        b = tv_bounds(GraphSignal(np.ones(20)), dec)
        assert b.lower < 1e-12 and b.actual < 1e-12 and b.upper < 1e-12


class TestFrequencyOrder:
    def test_cycle4_magnitude_sequence(self, cycle4):
        _, dec = cycle4
        assert np.allclose(np.abs(dec.lambdas), [0.0, np.sqrt(2), np.sqrt(2), 2.0], atol=1e-9)

    def test_dc_is_first_for_laplacians(self, perturbed20):
        _, dec = perturbed20
        assert abs(dec.lambdas[0]) < 1e-9


class TestSpectralPerturbationBound:
    """``kappa(V)`` bounds how far spectral-domain noise moves the synthesized signal:

        ||V (xhat + eta) - V xhat|| / ||V xhat|| <= kappa * ||eta|| / ||xhat||
    """

    def test_normal_graph_bound_is_tight_and_safe(self, cycle20, rng):
        _, dec = cycle20
        for _ in range(100):
            xhat = forward(random_signal(rng, 20), dec)
            x = inverse(xhat, dec)
            eta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            bound = dec.kappa * np.linalg.norm(eta) / xhat.norm()
            assert bound == pytest.approx(np.linalg.norm(eta) / xhat.norm(), rel=1e-9)
            err = np.linalg.norm(
                inverse(GraphSignal(xhat.values + eta), dec).values - x.values
            )
            assert err / x.norm() <= bound * (1 + 1e-10)

    def test_monte_carlo_never_violated(self, perturbed20, rng):
        _, dec = perturbed20
        for _ in range(2000):
            xhat = forward(random_signal(rng, 20), dec)
            x = inverse(xhat, dec)
            eta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            bound = dec.kappa * np.linalg.norm(eta) / xhat.norm()
            err = np.linalg.norm(dec.v @ eta) / x.norm()
            assert err <= bound * (1 + 1e-10)

    def test_adversarial_alignment_attains_bound(self, perturbed20):
        # signal on the bottom singular direction, noise on the top one
        _, dec = perturbed20
        _, _, vh = np.linalg.svd(dec.v)
        xhat = GraphSignal(np.conj(vh[-1]))
        eta = np.conj(vh[0])
        x = inverse(xhat, dec)
        err = np.linalg.norm(dec.v @ eta) / x.norm()
        bound = dec.kappa * np.linalg.norm(eta) / xhat.norm()
        assert err <= bound * (1 + 1e-10)
        assert err >= bound / 2.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(n, seed):
    dec = decompose(directed_laplacian(gen_perturbed_cycle(n, 0.3, 0.8, seed)))
    rng = np.random.default_rng(seed)
    x = GraphSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    back = inverse(forward(x, dec), dec)
    assert np.linalg.norm(back.values - x.values) <= max(dec.kappa * n * 1e-12, 1e-13) * x.norm()


def test_parseval_restoration_on_normal_graphs(rng):
    # whenever the Henrici departure vanishes the plain two-norm is preserved
    for n in (4, 9, 16):
        dec = decompose(directed_laplacian(gen_directed_cycle(n)))
        for _ in range(30):
            x = GraphSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            xhat = forward(x, dec)
            assert abs(xhat.norm() ** 2 - x.norm() ** 2) <= 1e-8 * x.norm() ** 2
