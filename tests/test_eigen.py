import contextlib
import io
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from dirlap import (
    BandModel,
    DirectedGraph,
    GraphSignal,
    NearDefectiveError,
    NonFiniteError,
    apply_filter,
    asymmetry_index,
    decompose,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
    gram_matrix,
    henrici_departure,
    forward,
    inverse,
    normality_departure,
)
from dirlap import fileio
from dirlap.eigen import _certify, _frequency_sort, _normalize_columns, _solve


def circulant_cycle_eigenvalues(n):
    """Closed-form spectrum of the unit directed n-cycle Laplacian."""
    return 1.0 - np.exp(2j * np.pi * np.arange(n) / n)


def bidirectional_cycle(n):
    ring = np.arange(n)
    src = np.concatenate([ring, (ring + 1) % n])
    dst = np.concatenate([(ring + 1) % n, ring])
    return DirectedGraph(n, src, dst, np.ones(2 * n))


def complete_graph(n):
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    return DirectedGraph(n, src, dst, np.ones(src.size))


def complex_decompose(lap):
    """Reference: the decomposition in complex arithmetic, without the checks.

    A plain record of the fields the tests compare: complex ``eig`` does not
    return exact conjugate pairs, so there is no real basis to rebuild kappa from.
    """
    lambdas, vec = np.linalg.eig(lap.astype(np.complex128))
    order = _frequency_sort(lambdas)
    lambdas = lambdas[order]
    vec = vec[:, order]
    _normalize_columns(vec)
    s = np.linalg.svd(vec, compute_uv=False)
    vinv = np.linalg.inv(vec)
    residual = float(np.max(np.linalg.norm(lap @ vec - vec * lambdas, axis=0)))
    return SimpleNamespace(
        matrix=lap, lambdas=lambdas, v=vec, u=vinv.conj().T, kappa=float(s[0] / s[-1]),
        sigma_min=float(s[-1]), sigma_max=float(s[0]), residual=residual,
    )


def match_multisets(computed, expected):
    """Greatest pairwise distance under an optimal eigenvalue matching."""
    cost = np.abs(computed[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


class TestDecompose:
    def test_cycle4_spectrum(self, cycle4):
        _, dec = cycle4
        expected = np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 2.0])
        assert np.allclose(dec.lambdas, expected, atol=1e-9)
        assert np.allclose(np.abs(dec.lambdas), [0.0, np.sqrt(2), np.sqrt(2), 2.0], atol=1e-9)

    @pytest.mark.parametrize("n", [3, 8, 17, 30])
    def test_matches_circulant_oracle(self, n):
        dec = decompose(directed_laplacian(gen_directed_cycle(n)))
        assert match_multisets(dec.lambdas, circulant_cycle_eigenvalues(n)) < 1e-9

    def test_symmetric_two_cycle(self):
        # hand decomposition of [[1,-1],[-1,1]]: eigenpairs (0, (1,1)/sqrt2), (2, (1,-1)/sqrt2)
        dec = decompose(directed_laplacian(gen_directed_cycle(2)))
        assert np.allclose(dec.lambdas, [0.0, 2.0], atol=1e-12)
        assert dec.kappa == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.abs(dec.v[:, 0]), 1 / np.sqrt(2), atol=1e-12)
        # second mode is (1,-1)/sqrt(2): both moduli tie, so the first entry leads
        assert np.allclose(dec.v[:, 1], np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_magnitude_ordering_with_argument_tiebreak(self, cycle20, perturbed20):
        for _, dec in (cycle20, perturbed20):
            mags = np.abs(dec.lambdas)
            assert np.all(np.diff(mags) >= -1e-9 * (1 + mags[:-1]))
            # conjugate pairs adjacent, negative argument first
            k = 0
            while k < dec.n:
                if abs(dec.lambdas[k].imag) <= 1e-9:
                    k += 1
                    continue
                assert dec.lambdas[k].imag < 0 < dec.lambdas[k + 1].imag
                assert dec.lambdas[k] == pytest.approx(np.conj(dec.lambdas[k + 1]), abs=1e-9)
                k += 2
        # the cycle's spectrum is 0, nine conjugate pairs, then the real mode 2
        assert np.all(cycle20[1].lambdas[1:19:2].imag < 0)

    def test_unit_norm_and_phase_fixed_columns(self, perturbed20):
        _, dec = perturbed20
        norms = np.linalg.norm(dec.v, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        lead = dec.v[np.argmax(np.abs(dec.v), axis=0), np.arange(dec.n)]
        assert np.all(np.abs(lead.imag) < 1e-12)
        assert np.all(lead.real > 0)

    def test_biorthogonality(self, perturbed20):
        _, dec = perturbed20
        defect = np.linalg.norm(dec.u.conj().T @ dec.v - np.eye(dec.n), "fro")
        assert defect <= dec.n * 1e-10

    def test_reconstruction(self, perturbed20):
        lap, dec = perturbed20
        rebuilt = dec.v @ np.diag(dec.lambdas) @ dec.u.conj().T
        tol = 1e-8 * dec.kappa * np.linalg.norm(lap, "fro")
        assert np.linalg.norm(rebuilt - lap, "fro") <= tol

    def test_eigen_residual(self, perturbed20):
        lap, dec = perturbed20
        assert dec.residual <= 1e-8 * np.linalg.norm(lap, 2)

    def test_conjugate_symmetry_of_real_spectrum(self, perturbed20):
        _, dec = perturbed20
        assert match_multisets(dec.lambdas, np.conj(dec.lambdas)) < 1e-8

    def test_gershgorin_containment(self, perturbed20):
        _, dec = perturbed20
        assert np.all(dec.lambdas.real >= -1e-10)

    def test_perturbed_cycle_is_ill_conditioned(self, perturbed20):
        _, dec = perturbed20
        assert dec.kappa > 10.0

    def test_left_eigenvector_property(self, cycle4):
        # columns of U are eigenvectors of L* with conjugated eigenvalues
        lap, dec = cycle4
        for k in range(4):
            resid = lap.conj().T @ dec.u[:, k] - np.conj(dec.lambdas[k]) * dec.u[:, k]
            assert np.linalg.norm(resid) < 1e-9

    def test_rejects_non_square(self):
        from dirlap import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            decompose(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_jordan_block_raises_near_defective(self):
        with pytest.raises(NearDefectiveError):
            decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_directed_path_raises_near_defective(self):
        # the path Laplacian has eigenvalue 1 with full algebraic, unit geometric multiplicity
        for n in (3, 8, 40):
            g = DirectedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
            with pytest.raises(NearDefectiveError):
                decompose(directed_laplacian(g))

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="must be real"):
            decompose(np.array([[1.0, 1j], [0.0, 2.0]]))

    @pytest.mark.parametrize("dtype", [object, str, bytes])
    def test_rejects_non_numeric(self, dtype):
        # np.isfinite would raise numpy's own TypeError on these
        with pytest.raises(ValueError, match="must be real"):
            decompose(np.array([[1, 2], [3, 4]], dtype=dtype))

    def test_rejects_empty(self):
        from dirlap import DimensionMismatchError

        with pytest.raises(DimensionMismatchError, match="non-empty square matrix"):
            decompose(np.zeros((0, 0)))


def _perturbed(n, seed):
    return directed_laplacian(gen_perturbed_cycle(n, 0.2, 0.8, seed))


def _real_spectrum():
    # similar to diag(1..7) by a random basis: real eigenvalues, non-normal
    s = np.random.default_rng(3).standard_normal((7, 7))
    return s @ np.diag(np.arange(1.0, 8.0)) @ np.linalg.inv(s)


class TestRealArithmetic:
    """The real-basis decomposition against the complex one it replaced."""

    @pytest.mark.parametrize(
        "lap",
        [
            _perturbed(20, 7),
            _perturbed(150, 1),
            _perturbed(400, 2),
            # two vertex-disjoint 3-cycles: each conjugate pair occurs twice
            directed_laplacian(
                DirectedGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], np.ones(6))
            ),
            _real_spectrum(),
        ],
        ids=["perturbed20", "perturbed150", "perturbed400", "two-3-cycles", "real-spectrum"],
    )
    def test_matches_complex_reference(self, lap):
        dec, ref = decompose(lap), complex_decompose(lap)
        scale = np.linalg.norm(lap, 2)
        assert np.abs(dec.lambdas - ref.lambdas).max() <= 1e-13 * scale
        assert np.abs(dec.v - ref.v).max() <= 1e-11
        assert np.abs(dec.u - ref.u).max() <= 1e-12 * ref.kappa
        assert dec.kappa == pytest.approx(ref.kappa, rel=1e-11)
        assert dec.sigma_min == pytest.approx(ref.sigma_min, rel=1e-11)
        assert dec.sigma_max == pytest.approx(ref.sigma_max, rel=1e-11)
        # both residuals are rounding noise; a wrong pair term would be O(|Im lambda|)
        assert abs(dec.residual - ref.residual) <= 1e-14 * scale * dec.n
        direct = np.linalg.norm(lap @ dec.v - dec.v * dec.lambdas, axis=0).max()
        assert abs(dec.residual - direct) <= 1e-14 * scale * dec.n

    def test_conjugate_pairs_are_exact(self):
        dec = decompose(_perturbed(150, 1))
        for k in np.flatnonzero(dec.lambdas.imag > 0):
            partner = np.flatnonzero(dec.lambdas == np.conj(dec.lambdas[k]))
            assert partner.size == 1
            assert np.array_equal(dec.v[:, partner[0]], dec.v[:, k].conj())
            assert np.array_equal(dec.u[:, partner[0]], dec.u[:, k].conj())

    def test_real_eigenvalues_are_exactly_real(self):
        dec = decompose(_real_spectrum())
        assert np.all(dec.lambdas.imag == 0.0)
        assert np.all(dec.v.imag == 0.0)
        assert np.all(dec.u.imag == 0.0)

    @pytest.mark.parametrize(
        "g",
        [gen_directed_cycle(20), gen_directed_cycle(400), gen_directed_cycle(2)],
        ids=["cycle20", "cycle400", "bidirectional-2-cycle"],
    )
    def test_flat_eigenvectors_same_as_complex_eig(self, g):
        # every column is flat, so the tie rule leads with entry 0
        lap = directed_laplacian(g)
        dec = decompose(lap)
        assert np.abs(dec.v - complex_decompose(lap).v).max() <= 1e-12
        assert np.allclose(dec.v[0], 1.0 / np.sqrt(g.n), rtol=0.0, atol=1e-12)


class TestConditioning:
    """The refusal reads ``s_i = ||u_i||``; kappa's SVD runs on its first read only."""

    def test_transforms_run_no_svd(self, rng):
        dec = decompose(_perturbed(20, 7))
        x = GraphSignal(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        inverse(forward(x, dec), dec)
        apply_filter(x, np.arange(20) < 3, dec)
        assert "kappa" not in dec.__dict__
        assert "_sigma_extremes" not in dec.__dict__

    def test_first_read_runs_one_svd_of_v(self):
        dec = decompose(_perturbed(20, 7))
        s = np.linalg.svd(dec.v, compute_uv=False)
        assert dec.kappa == pytest.approx(s[0] / s[-1], rel=1e-11)
        assert "kappa" in dec.__dict__ and "_sigma_extremes" in dec.__dict__
        assert dec.sigma_min == pytest.approx(s[-1], rel=1e-11)
        assert dec.sigma_max == pytest.approx(s[0], rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        p=st.floats(0.0, 0.5),
        w=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_condition_numbers_bound_kappa(self, n, p, w, seed):
        # with unit columns, max_i s_i <= kappa(V) <= n max_i s_i; both sides carry a
        # relative rounding error of about n eps kappa from the inverse and the SVD
        try:
            dec = decompose(directed_laplacian(gen_perturbed_cycle(n, p, w, seed)))
        except NearDefectiveError:
            assume(False)
        s_max = np.linalg.norm(dec.u, axis=0).max()
        slack = 1.0 + 10 * n * np.finfo(np.float64).eps * dec.kappa
        assert s_max <= dec.kappa * slack
        assert dec.kappa <= n * s_max * slack

    @pytest.mark.parametrize("pair", [False, True], ids=["real", "conjugate-pairs"])
    @pytest.mark.parametrize("d, refused", [(1.01e-12, False), (0.99e-12, True)])
    def test_refusal_boundary_is_the_largest_condition_number(self, d, refused, pair):
        # t = [[0, 1], [0, d]] has max_i s_i about 1/d and kappa about 2/d: the refusal
        # reads the first, so 1/d just under the limit passes with kappa above it.
        # t (x) I + I (x) rotation has the eigenvectors kron(x, y) with unit orthonormal
        # y, so the same s_i, carried by the conjugate pairs +-i and d +- i
        m = np.array([[0.0, 1.0], [0.0, d]])
        if pair:
            m = np.kron(m, np.eye(2)) + np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
        if refused:
            with pytest.raises(NearDefectiveError, match="eigenvalue condition number"):
                decompose(m)
        else:
            assert decompose(m).kappa > 1e12

    def test_singular_basis_raises_near_defective(self, monkeypatch):
        def singular(w):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NearDefectiveError, match="singular") as info:
            decompose(_perturbed(20, 7))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_nan_condition_number_raises_near_defective(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda w: np.full_like(w, np.nan))
        with pytest.raises(NearDefectiveError, match="condition number nan"):
            decompose(_perturbed(20, 7))

    def test_biorthogonality_defect_raises_near_defective(self, monkeypatch):
        # an inverse off by 1e-6 in every entry keeps s_max far under the limit, but
        # ||W^-1 W - I||_F, about 2.2e-5, exceeds n * 1e-8 = 2e-7
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda w: inv(w) + 1e-6)
        with pytest.raises(NearDefectiveError, match="fails biorthogonality"):
            decompose(_perturbed(20, 7))


class TestCertify:
    """The certify stage checks the basis it is handed, whichever solver made it.

    The perturbed 20-cycle has real modes at positions 0, 5, 10 and 17 and eight
    conjugate pairs.
    """

    LAP = _perturbed(20, 7)

    def test_round_trip_is_decompose(self):
        dec, got = decompose(self.LAP), _certify(self.LAP, *_solve(self.LAP))
        for field in ("lambdas", "v", "u"):
            assert np.array_equal(getattr(got, field), getattr(dec, field))
        assert all(np.array_equal(a, b) for a, b in zip(got.pairs, dec.pairs))
        assert got.residual == dec.residual

    def test_near_parallel_columns_are_refused(self):
        lambdas, vec, p, q = _solve(self.LAP)
        assert np.array_equal(np.flatnonzero(lambdas.imag == 0), [0, 5, 10, 17])
        col = vec[:, 10] + 1e-13 * vec[:, 5]
        vec[:, 5] = col / np.linalg.norm(col)
        with pytest.raises(NearDefectiveError, match="eigenvalue condition number"):
            _certify(self.LAP, lambdas, vec, p, q)

    def test_residual_is_read_off_the_given_basis(self):
        lambdas, vec, p, q = _solve(self.LAP)
        vec[3, 10] += 1e-3
        e = vec[:, 10]
        expected = np.linalg.norm(self.LAP @ e - lambdas[10] * e)
        assert expected > 1e-4 > 1e6 * decompose(self.LAP).residual
        assert _certify(self.LAP, lambdas, vec, p, q).residual == pytest.approx(expected,
                                                                                rel=1e-12)

    @pytest.mark.parametrize("g", [gen_directed_cycle(200), gen_perturbed_cycle(200, 0.2, 0.8, 1)],
                             ids=["cycle200", "perturbed200"])
    def test_no_square_array_outlives_a_stage(self, g):
        # 5.7 and 5.6 n^2 doubles: the record's v, u and matrix are 5; one more n x n
        # array kept alive across the stages adds 1
        lap = directed_laplacian(g)
        decompose(lap)
        tracemalloc.start()
        try:
            decompose(lap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * 8 * g.n**2


class TestDcMode:
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_cycle_isolates_dc(self, n):
        dec = decompose(directed_laplacian(gen_directed_cycle(n)))
        assert dec.dc_isolated
        assert dec.zero_multiplicity == 1
        assert dec.dc_angle <= 1e-12
        assert np.allclose(dec.v[:, 0], np.ones(n) / np.sqrt(n), atol=1e-9)

    def test_perturbed_cycle_isolates_dc(self, perturbed20):
        _, dec = perturbed20
        assert dec.dc_isolated

    def test_disjoint_cycles_report_multiplicity(self):
        # two vertex-disjoint 3-cycles: a two-dimensional null space, no isolated DC mode
        g = DirectedGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], np.ones(6))
        dec = decompose(directed_laplacian(g))
        assert not dec.dc_isolated
        assert dec.zero_multiplicity == 2

    @pytest.mark.parametrize(
        "lap",
        [np.diag([1.0, 2.0]), np.array([[1.0, -1.0], [-1.0, 1.0]])],
        ids=["no-zero-mode", "two-cycle"],
    )
    def test_isolated_is_python_bool(self, lap):
        dec = decompose(lap)
        assert type(dec.dc_isolated) is bool
        assert type(dec.zero_multiplicity) is int and type(dec.dc_angle) is float

    def test_values_are_cached_on_first_read(self, perturbed20):
        _, dec = perturbed20
        fresh = decompose(dec.matrix)
        assert {"zero_multiplicity", "dc_angle", "dc_isolated"}.isdisjoint(vars(fresh))
        assert fresh.dc_isolated
        assert {"zero_multiplicity", "dc_angle", "dc_isolated"} <= set(vars(fresh))


class TestScaleInvariance:
    LAP = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed=0))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_order_band_and_dc_report_do_not_depend_on_scale(self, scale):
        # every weight times ``scale``: the tie gap and the zero test move with the spectrum
        ref = decompose(self.LAP)
        dec = decompose(scale * self.LAP)
        top = np.abs(ref.lambdas).max()
        np.testing.assert_allclose(np.abs(dec.lambdas) / scale, np.abs(ref.lambdas),
                                   rtol=0.0, atol=1e-9 * top)
        np.testing.assert_allclose(dec.lambdas / scale, ref.lambdas, rtol=0.0, atol=1e-9 * top)
        band, ref_band = BandModel(dec, 5), BandModel(ref, 5)
        np.testing.assert_allclose(band.v_omega, ref_band.v_omega, rtol=0.0, atol=1e-9)
        assert dec.zero_multiplicity == ref.zero_multiplicity == 1
        assert dec.dc_isolated and ref.dc_isolated

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-300, 300), n=st.integers(3, 12), p=st.sampled_from([0.0, 0.3, 0.6]),
           seed=st.integers(0, 2**16))
    def test_metrics_survive_any_finite_scale(self, k, n, p, seed):
        # every weight times 10**k, up to where L stays finite: the unscaled squares of the
        # indices overflowed to nan beyond about 1e150 and underflowed to 0 below 1e-160
        g = gen_perturbed_cycle(n, p, 0.8, seed)
        scale = 10.0**k
        lap = directed_laplacian(DirectedGraph(n, g.src, g.dst, g.weight * scale))
        ref_lap = directed_laplacian(g)
        dec, ref_dec = decompose(lap), decompose(ref_lap)
        assert asymmetry_index(lap) == pytest.approx(asymmetry_index(ref_lap), rel=1e-12)
        assert normality_departure(lap) == pytest.approx(normality_departure(ref_lap),
                                                         rel=1e-12, abs=1e-15)
        # a difference of sums of squares: its root carries sqrt(n eps) of ||L||_F
        fro = scale * np.linalg.norm(ref_lap, "fro")
        assert abs(henrici_departure(dec) - scale * henrici_departure(ref_dec)) <= 1e-6 * fro
        assert dec.kappa == pytest.approx(ref_dec.kappa, rel=1e-6)
        assert np.isfinite(dec.residual) and dec.residual <= 1e-8 * fro
        assert np.array_equal(BandModel(dec, 2).omega, BandModel(ref_dec, 2).omega)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            fileio.write_metrics(dec, None, "json")
        payload = json.loads(buf.getvalue(), parse_constant=_refuse)
        assert all(np.isfinite(payload[key]) for key in ("alpha", "delta", "henrici", "kappa"))

    @settings(max_examples=40, deadline=None)
    @given(j=st.integers(-1000, 1000), n=st.integers(2, 10), seed=st.integers(0, 2**16))
    def test_indices_are_bit_identical_under_power_of_two_scaling(self, j, n, seed):
        # scaling by 2**j moves no bit of L / s, the matrix the indices are computed on
        lap = directed_laplacian(gen_perturbed_cycle(n, 0.4, 0.8, seed))
        scaled = np.ldexp(lap, j)
        assert asymmetry_index(scaled) == asymmetry_index(lap)
        assert normality_departure(scaled) == normality_departure(lap)

    @pytest.mark.parametrize("seed", range(6))
    def test_indices_hold_in_the_top_binade(self, seed):
        # max|L| in [2**1023, 2**1024): a unit scale of 2**1024 would be inf, m / s all
        # zeros and every index a plausible 0
        lap = directed_laplacian(gen_perturbed_cycle(8, 0.4, 0.8, seed))
        top = np.max(np.abs(lap))
        for scaled in (np.ldexp(lap, 1024 - np.frexp(top)[1]),
                       lap * (1.5 * 2.0**1023 / top)):
            assert 2.0**1023 <= np.max(np.abs(scaled)) < np.inf
            assert asymmetry_index(scaled) == pytest.approx(asymmetry_index(lap), rel=1e-12)
            assert normality_departure(scaled) == pytest.approx(normality_departure(lap),
                                                                rel=1e-12, abs=1e-15)
            assert asymmetry_index(scaled) > 0.1
        assert asymmetry_index(np.ldexp(lap, 1024 - np.frexp(top)[1])) == asymmetry_index(lap)

    def test_top_binade_decomposition_is_finite_or_refused(self):
        # |lambda| = sqrt(3) w for the 3-cycle stays finite at w = 1e308; the 4-cycle's 2 w
        # does not, and a spectrum of inf would read as a Henrici departure of 0
        for n, w in ((3, 1e308), (4, 8e307)):
            g = gen_directed_cycle(n)
            dec = decompose(directed_laplacian(DirectedGraph(n, g.src, g.dst, np.full(n, w))))
            assert (asymmetry_index(dec.matrix), normality_departure(dec.matrix)) == (1.0, 0.0)
            assert 0 <= henrici_departure(dec) <= 1e-6 * w
            assert 0 < dec.residual <= 1e-12 * w
        for seed in (1, 2):  # graphs whose spectrum stays finite with max|L| in the top binade
            ref = decompose(directed_laplacian(gen_perturbed_cycle(8, 0.4, 0.8, seed)))
            j = 1024 - np.frexp(np.max(np.abs(ref.matrix)))[1]
            dec = decompose(np.ldexp(ref.matrix, j))
            assert henrici_departure(dec) == pytest.approx(np.ldexp(henrici_departure(ref), j),
                                                           rel=1e-9)
            assert 0 < dec.residual <= 1e-12 * np.ldexp(1.0, 1023)
        g = gen_directed_cycle(4)
        with pytest.raises(NonFiniteError, match="eigenvalue's modulus overflows"):
            decompose(directed_laplacian(DirectedGraph(4, g.src, g.dst, np.full(4, 1e308))))


def _refuse(constant):
    raise ValueError(f"non-finite JSON number {constant}")


class TestGramMatrix:
    def test_cycle_gram_is_identity(self, cycle20):
        _, dec = cycle20
        assert np.linalg.norm(gram_matrix(dec) - np.eye(20), "fro") < 1e-10

    def test_hermitian_positive_definite(self, perturbed20):
        _, dec = perturbed20
        m = gram_matrix(dec)
        assert np.linalg.norm(m - m.conj().T, "fro") < 1e-12
        assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_extremes_match_kappa_squared(self, perturbed20):
        _, dec = perturbed20
        eigs = np.linalg.eigvalsh(gram_matrix(dec))
        assert eigs[-1] / eigs[0] == pytest.approx(dec.kappa**2, rel=1e-6)


class TestHenrici:
    @pytest.mark.parametrize(
        "g",
        [gen_directed_cycle(20), gen_directed_cycle(400), bidirectional_cycle(8),
         complete_graph(6)],
        ids=["cycle20", "cycle400", "bidirectional8", "K6"],
    )
    def test_normal_graphs_read_exactly_zero(self, g):
        lap = directed_laplacian(g)
        assert henrici_departure(decompose(lap)) == 0.0

    def test_floor_leaves_perturbed20_unchanged(self, perturbed20):
        # the value before the rounding floor existed
        lap, dec = perturbed20
        assert henrici_departure(dec) == pytest.approx(6.322010113563914, rel=1e-12)

    def test_cycle20_is_normal(self, cycle20):
        lap, dec = cycle20
        assert henrici_departure(dec) <= 1e-6

    def test_perturbed20_departure(self, perturbed20):
        lap, dec = perturbed20
        assert henrici_departure(dec) > 0.5

    def test_symmetric_matrix(self, rng):
        m = rng.standard_normal((7, 7))
        m = m + m.T
        dec = decompose(m)
        assert henrici_departure(dec) <= 1e-8

    def test_diagnostics_consistency(self, perturbed20):
        lap, dec = perturbed20
        gram_eigs = np.linalg.eigvalsh(gram_matrix(dec))
        assert np.sqrt(gram_eigs[-1] / gram_eigs[0]) == pytest.approx(dec.kappa, rel=1e-8)
        fro2 = np.linalg.norm(lap, "fro") ** 2
        assert henrici_departure(dec) ** 2 == pytest.approx(
            fro2 - np.sum(np.abs(dec.lambdas) ** 2), abs=1e-8 * fro2
        )


@pytest.mark.parametrize("n", range(3, 31, 3))
def test_normality_trichotomy_on_cycles(n):
    # kappa = 1, Henrici = 0 and commutator = 0 degenerate together
    lap = directed_laplacian(gen_directed_cycle(n))
    dec = decompose(lap)
    assert dec.kappa - 1.0 <= 1e-6
    assert henrici_departure(dec) <= 1e-6
    assert normality_departure(lap) <= 1e-6


def test_normality_trichotomy_on_symmetric(rng):
    for _ in range(5):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        dec = decompose(m)
        assert dec.kappa - 1.0 <= 1e-6
        assert henrici_departure(dec) <= 1e-6
        assert normality_departure(m) <= 1e-6


def test_trichotomy_on_random_circulants(rng):
    # circulants (polynomials in the cyclic shift) are normal: all three
    # indicators must degenerate together. The commutator and kappa reach
    # 1e-8 easily; the Henrici departure is a difference of O(||M||^2)
    # sums, so its floor scales with the matrix norm.
    for _ in range(10):
        n = int(rng.integers(4, 20))
        shift = np.zeros((n, n))
        shift[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        coeffs = rng.standard_normal(n)
        m = sum(c * np.linalg.matrix_power(shift, j) for j, c in enumerate(coeffs))
        dec = decompose(m)
        assert normality_departure(m) <= 1e-8
        assert dec.kappa - 1.0 <= 1e-8
        assert henrici_departure(dec) <= 1e-6 * max(1.0, np.linalg.norm(m, "fro"))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 20, 30])
def test_suite_graph_contracts_on_cycles(n):
    lap = directed_laplacian(gen_directed_cycle(n))
    dec = decompose(lap)
    _assert_decomposition_contracts(lap, dec)


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_suite_graph_contracts_on_perturbed(seed):
    lap = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed))
    dec = decompose(lap)
    _assert_decomposition_contracts(lap, dec)


def _assert_decomposition_contracts(lap, dec):
    assert dec.kappa <= 1e6
    assert dec.residual <= 1e-8 * np.linalg.norm(lap, 2)
    n = dec.n
    assert np.linalg.norm(dec.u.conj().T @ dec.v - np.eye(n), "fro") <= n * 1e-10
    rebuilt = dec.v @ np.diag(dec.lambdas) @ dec.u.conj().T
    assert np.linalg.norm(rebuilt - lap, "fro") <= 1e-8 * dec.kappa * np.linalg.norm(lap, "fro")
    assert np.min(dec.lambdas.real) >= -1e-10
