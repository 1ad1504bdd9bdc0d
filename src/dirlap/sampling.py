"""Bandlimited models, vertex sampling, recovery, and stability certificates.

A band is the low-pass band of a decomposition: its ``k`` lowest-|lambda|
modes, ``omega = {0, ..., k-1}``. A signal is bandlimited to it when it lies
in the span of those right eigenvectors, ``x = V_omega c``. Sampling at a
vertex set takes the rows of ``V_omega``:

    B = P_M V_omega,    y = B c (+ noise)

A plan carries its band. Recovery is the least-squares solution
``c = pinv(B) y``, exact whenever ``B`` has full column rank; recovery and
the noise certificate refuse the same plans, those with ``gamma`` at or
below ``RANK_RTOL * sigma_max(B)``. Robustness is governed by two factors
the certificate keeps separate: the sampling geometry through
``gamma = sigma_min(B)`` and the eigenvector geometry through
``||V_omega||_2`` (equal to 1 only when the synthesis basis is orthonormal).
A band also carries the ideal low-pass filter's noise gain ``||P_omega||_2``
(``BandModel.lowpass_gain``), which ``kappa(V)`` bounds.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .eigen import SpectralDecomposition
from .errors import RankDeficientError
from .graphs import _PARAMETERS, _scalar
from .transform import _finite, _indices, _vector

#: singular values below RANK_RTOL * sigma_max count as zero (rank boundary)
RANK_RTOL = 1e-12
#: stop once every secular step moves its root by at most this relative amount
_SECULAR_RTOL = 4.0 * np.finfo(float).eps
#: secular iteration cap; the model step converges in a handful, bisection only guards it
_SECULAR_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class BandModel:
    """Low-pass band of one decomposition: its ``k`` lowest-|lambda| modes.

    ``k`` is an integer in ``[1, n]``; ``omega`` is ``0, ..., k-1`` and
    ``v_omega`` holds the decomposition's first ``k`` eigenvector columns.
    """

    decomposition: SpectralDecomposition
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _scalar(self.k, numbers.Integral, "band size", 1,
                                              self.decomposition.n))

    @property
    def omega(self) -> np.ndarray:
        return np.arange(self.k)

    @property
    def n(self) -> int:
        return self.decomposition.n

    @cached_property
    def v_omega(self) -> np.ndarray:
        """Synthesis submatrix ``V_omega``, a C-ordered copy of the band's columns."""
        return np.ascontiguousarray(self.decomposition.v[:, : self.k])

    @cached_property
    def synthesis_norm(self) -> float:
        """Spectral norm ``||V_omega||_2`` of the synthesis submatrix."""
        return float(np.linalg.norm(self.v_omega, 2))

    @cached_property
    def lowpass_gain(self) -> float:
        """``||P_omega||_2 = ||V_omega U_omega^*||_2`` of the band's oblique projector, at O(n k^2).

        The ideal low-pass filter's exact worst-case noise gain: at most
        ``kappa(V)``, and 1 on a normal graph. With thin QRs ``V_omega = Q_1
        R_1`` and ``U_omega = Q_2 R_2``, ``P_omega = Q_1 (R_1 R_2^*) Q_2^*``
        has the norm of the k x k matrix ``R_1 R_2^*``.
        """
        r1 = np.linalg.qr(self.v_omega, mode="r")
        r2 = np.linalg.qr(self.decomposition.u[:, : self.k], mode="r")
        return float(np.linalg.norm(r1 @ r2.conj().T, 2))


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Vertex sample set of a band, with its sampling matrix and stability constants.

    ``B = P_M V_omega`` takes the sampled rows of the band's synthesis
    matrix; ``gamma = sigma_min(B)`` and ``b_norm = sigma_max(B)``. A plan
    with ``gamma <= RANK_RTOL * b_norm`` does not identify the band (the
    samples alias it); it stays a valid diagnostic object, but recovery
    and the noise certificate refuse it.
    """

    band: BandModel
    sample_set: np.ndarray
    b: np.ndarray
    gamma: float
    b_norm: float

    @property
    def m(self) -> int:
        return self.sample_set.shape[0]


def synthesize_bandlimited(band: BandModel, c) -> np.ndarray:
    """Synthesize ``x = V_omega c`` (exactly bandlimited by construction).

    Raises:
        DimensionMismatchError: ``c`` does not have length ``k``.
        NonFiniteError: the synthesized signal overflowed float64.
    """
    c = _vector(c, "coefficients", band.k)
    return _finite("the synthesis", lambda: band.v_omega @ c)


def plan_sampling(band: BandModel, sample_set: Iterable[int]) -> SamplingPlan:
    """Evaluate a vertex sample set against a band.

    Extracts the sampled rows of ``V_omega`` and computes the extreme
    singular values; duplicate vertices collapse (set semantics). With
    fewer samples than band size the rank is deficient by counting, so
    ``gamma = 0`` without further analysis.
    """
    sample = np.sort(_indices(sample_set, band.n, "sample vertices"))
    if sample.size == 0:
        raise ValueError("sample set must not be empty")
    sample = sample[np.insert(sample[1:] != sample[:-1], 0, True)]
    b = band.v_omega[sample, :]
    s = np.linalg.svd(b, compute_uv=False)
    gamma = float(s[-1]) if sample.size >= band.k else 0.0
    return SamplingPlan(band=band, sample_set=sample, b=b, gamma=gamma, b_norm=float(s[0]))


def _require_full_rank(plan: SamplingPlan) -> None:
    if plan.gamma <= RANK_RTOL * plan.b_norm:
        raise RankDeficientError(
            f"sampling matrix is rank deficient (gamma={plan.gamma:.3e}, "
            f"sigma_max={plan.b_norm:.3e}); samples alias the band"
        )


def recover(plan: SamplingPlan, y) -> np.ndarray:
    """Least-squares recovery ``c = pinv(B) y``, returning ``x = V_omega c``.

    Exact (to rounding) when ``y`` consists of noiseless samples of a
    signal bandlimited to the plan's band.

    Raises:
        RankDeficientError: when ``gamma`` sits below the rank boundary
            ``RANK_RTOL * sigma_max``; the samples do not determine the
            band coefficients.
        DimensionMismatchError: ``y`` does not have length ``m``.
        NonFiniteError: the recovered signal overflowed float64.
    """
    _require_full_rank(plan)
    y = _vector(y, "samples", plan.m)
    pinv = np.linalg.pinv(plan.b, rcond=RANK_RTOL)
    return _finite("the recovery", lambda: plan.band.v_omega @ (pinv @ y))


def noise_certificate(plan: SamplingPlan, eta_norm: float) -> float:
    """Guaranteed error ceiling ``||V_omega||_2 * eta_norm / gamma``.

    Bounds ``||x_rec - x||_2`` for least-squares recovery of a bandlimited
    signal whose samples carry additive noise of norm ``eta_norm``.

    Raises:
        RankDeficientError: the plan is one :func:`recover` refuses.
        ValueError: ``eta_norm`` is not a finite nonnegative real.
    """
    _require_full_rank(plan)
    eta_norm = _scalar(eta_norm, numbers.Real, "noise norm", 0, math.inf)
    return plan.band.synthesis_norm * eta_norm / plan.gamma


def select_sampling_set(
    band: BandModel, m: int, strategy: str = "greedy-gamma", seed: int = 0
) -> np.ndarray:
    """Choose ``m`` sample vertices for a band.

    ``"greedy-gamma"`` grows the set one vertex at a time, each step adding
    the vertex that maximizes the smallest singular value of the augmented
    sample matrix ``[B; r]``. Below ``k`` rows the smallest *computed*
    singular value is used, which greedily builds rank until gamma proper
    becomes positive. Each step scores every remaining candidate at once by
    one SVD of the chosen rows ``B = U diag(s) W*`` (``O(j k^2)``), one
    product ``z = r W`` for all candidates (``O(n k^2)``) and a secular
    equation per candidate (``O(k)`` per iteration). With ``s_1`` the
    smallest singular value, the new one is the root ``w`` in
    ``[s_1, min(s_2, sqrt(s_1^2 + ||z||^2))]`` of

        1 + sum_i |z_i|^2 / ((s_i - w)(s_i + w)) = 0,

    written in the singular values themselves, so ``B* B`` and its
    squared-singular-value rounding never arise (see :func:`_secular_root`).
    Below ``k`` rows, ``s`` gains a 0 weighted by ``||r - (r W) W*||^2``.

    Ties: candidates scoring within ``RANK_RTOL * ||V_omega||_2`` of the
    step's best count as tied and the lowest index wins. That is the rank
    boundary's resolution: every score is a singular value of rows of
    ``V_omega``, computed to an absolute error of a few ``eps * ||V_omega||_2``
    whichever way it is scored. So exact ties (every vertex of a circulant
    graph, say) are decided by the rule, not by rounding, even where the
    scores themselves are tiny.
    ``"random"`` draws a uniform sample without replacement from a PCG64
    generator seeded with ``seed``.

    Raises:
        ValueError: ``m`` not an integer in ``[k, n]``, ``seed`` not one in
            ``[0, inf]``, or an unknown ``strategy``.
    """
    m = _scalar(m, numbers.Integral, "sample budget", band.k, band.n)
    seed = _scalar(seed, *_PARAMETERS["seed"])
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(band.n, size=m, replace=False))
    if strategy != "greedy-gamma":
        raise ValueError(f"unknown strategy {strategy!r}")

    v = band.v_omega
    tie = RANK_RTOL * band.synthesis_norm
    chosen: list[int] = []
    free = np.ones(band.n, dtype=bool)
    for _ in range(m):
        cand = np.flatnonzero(free)
        scores = _rank_one_sigma_min(v[chosen], v[cand])
        best = cand[np.argmax(scores >= scores.max() - tie)]
        chosen.append(int(best))
        free[best] = False
    return np.sort(np.array(chosen, dtype=int))


def _rank_one_sigma_min(b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Smallest computed singular value of ``[b; r]`` for each row ``r`` of ``rows``."""
    _, s, wh = np.linalg.svd(b, full_matrices=False)
    s, wh = s[::-1], wh[::-1]                      # ascending singular values
    z = rows @ wh.conj().T                         # one row per candidate
    weights = np.abs(z) ** 2
    if s.size < b.shape[1]:                        # pole 0 weighs the part outside b's row space
        r_perp = rows - z @ wh
        s = np.concatenate(([0.0], s))
        weights = np.column_stack((np.linalg.norm(r_perp, axis=1) ** 2, weights))
    s1 = s[0]
    if s.size == 1:
        return np.sqrt(s1 * s1 + weights[:, 0])
    mu = _secular_root((s[1:] - s1) * (s[1:] + s1), weights[:, 0], weights[:, 1:])
    return np.sqrt(s1 * s1 + mu)


def _secular_root(delta: np.ndarray, a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Smallest root ``mu >= 0`` of ``1 - a/mu + sum_i rest_i / (delta_i - mu)``, per row.

    This is the σ-form secular equation shifted to its smallest pole:
    ``mu = (w - s_1)(w + s_1)`` and ``delta_i = (s_i - s_1)(s_i + s_1)``
    (ascending), so every denominator ``(s_i - w)(s_i + w) = delta_i - mu``
    is a difference of products of singular values. The root lies in
    ``[0, min(delta_1, a + sum(rest))]``; it is ``delta_1`` itself when the
    pole there has no weight.

    Each iteration keeps ``-a/mu`` exact and models the other terms as
    ``p + q / (delta_1 - mu)``, matched in value and slope at the iterate
    (Bunch, Nielsen & Sorensen 1978); the model's root is one quadratic.
    A step that leaves the bracket of sign changes is replaced by bisection,
    and the iteration stops once every step is within rounding of its root.
    """
    d1 = delta[0]
    if d1 == 0.0:                                  # repeated smallest singular value stays put
        return np.zeros(a.shape)
    on_pole = np.count_nonzero(delta == d1)
    q_pole = rest[:, :on_pole].sum(axis=1)
    far_w, far_d = rest[:, on_pole:], delta[on_pole:]
    lo = np.zeros(a.shape)
    hi = np.minimum(d1, a + rest.sum(axis=1))
    mu = lo.copy()
    for _ in range(_SECULAR_MAX_ITER):
        gap = d1 - mu
        inv = 1.0 / (far_d - mu[:, None])
        ratio = gap[:, None] * inv
        p = 1.0 + (far_w * (1.0 - ratio) * inv).sum(axis=1)
        q = q_pole + (far_w * ratio * ratio).sum(axis=1)
        # sign of the secular function at mu, times mu * (d1 - mu) >= 0
        g = p * mu * gap + q * mu - a * gap
        lo = np.where(g <= 0.0, mu, lo)
        hi = np.where(g >= 0.0, mu, hi)
        pd, b = p * d1, p * d1 + q + a
        disc = (pd - a) ** 2 + q * (q + 2.0 * (pd + a))
        step = 2.0 * a * d1 / (b + np.sqrt(disc))
        # a step within rounding of mu has converged, even if rounding put it outside the bracket
        done = np.abs(step - mu) <= _SECULAR_RTOL * step
        mu = np.where(done | ((step >= lo) & (step <= hi)), step, 0.5 * (lo + hi))
        if done.all():
            break
    return mu

