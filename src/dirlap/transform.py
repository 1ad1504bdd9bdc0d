"""Biorthogonal graph Fourier transform, spectral filtering, and variation.

Analysis projects onto the dual basis, synthesis expands in the right
eigenvectors:

    xhat = U* x = V^{-1} x          x = V xhat

For normal operators (e.g. the directed cycle) ``V`` is unitary and the
transform preserves energy exactly. In general the Gram matrix ``M = V* V``
takes the role of the spectral metric:

    ||x||^2 = xhat* M xhat          (always an equality)

and the directed total variation ``||L x||^2`` is sandwiched between
``sigma_min(V)^2`` and ``sigma_max(V)^2`` times the weighted spectral energy
``sum |lambda_k|^2 |xhat_k|^2``, so the spread of the sandwich is exactly
the squared eigenvector condition number.

A signal is its values. :class:`GraphSignal` holds one 1-D complex vector
of finite entries, whether it lists vertex values or spectral coefficients;
a transform takes either and cannot tell them apart. A filter is its
length-n complex response ``h``, applied as ``V diag(h) V^{-1}``. One gate,
:func:`_vector`, checks every complex input vector. A transform or filter
whose result overflows float64 raises :class:`NonFiniteError` naming it;
numpy's overflow warnings stay off.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .eigen import SpectralDecomposition, gram_matrix
from .errors import DimensionMismatchError, NonFiniteError
from .graphs import _is_a


def _vector(values, what: str) -> np.ndarray:
    """``values`` as a 1-D complex128 copy with finite entries; ``what`` names it in errors.

    A wrong dimension raises :class:`DimensionMismatchError`, a NaN or infinite entry ``ValueError``.
    """
    values = np.array(values, dtype=np.complex128)
    if values.ndim != 1:
        raise DimensionMismatchError(f"{what} must be one-dimensional, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} entries must be finite")
    return values


@dataclass(frozen=True, eq=False)
class GraphSignal:
    """A complex signal, vertex values or spectral coefficients alike, kept as :func:`_vector`'s copy."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _vector(self.values, "signal"))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _indices(values: Iterable, n: int, what: str) -> np.ndarray:
    """``values`` as an int array of indices in ``[0, n)``, ``what`` naming them in errors.

    Each index must be an integer: a float, bool or string is refused, not truncated.
    """
    values = list(values)
    for i in values:
        if not _is_a(i, numbers.Integral):
            raise ValueError(f"{what} must be integers, got {i!r}")
    out_of_range = f"{what} must lie in [0, {n})"
    try:
        idx = np.asarray(values, dtype=int)
    except OverflowError as exc:
        raise ValueError(out_of_range) from exc
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(out_of_range)
    return idx


def _finite(what: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """``compute()``, run with numpy's overflow warnings off, if every entry is finite.

    Raises:
        NonFiniteError: an entry overflowed float64; ``what`` names the
            operation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what} overflowed float64")
    return values


def _expect(x: GraphSignal, n: int) -> None:
    """Refuse a signal whose length is not the decomposition's ``n``."""
    if x.n != n:
        raise DimensionMismatchError(f"signal has length {x.n}, decomposition has n={n}")


@dataclass(frozen=True)
class TvBounds:
    """Two-sided spectral bound on the directed total variation.

    ``lower <= actual <= upper`` with
    ``lower = sigma_min(V)^2 * spectral_energy`` and
    ``upper = sigma_max(V)^2 * spectral_energy``; all three coincide for
    normal operators.
    """

    lower: float
    upper: float
    spectral_energy: float
    actual: float


def forward(x: GraphSignal, dec: SpectralDecomposition) -> GraphSignal:
    """Analysis transform ``xhat = U* x = V^{-1} x`` (projection on the dual basis)."""
    _expect(x, dec.n)
    return GraphSignal(_finite("the forward transform", lambda: dec.u.conj().T @ x.values))


def inverse(xhat: GraphSignal, dec: SpectralDecomposition) -> GraphSignal:
    """Synthesis transform ``x = V xhat``."""
    _expect(xhat, dec.n)
    return GraphSignal(_finite("the inverse transform", lambda: dec.v @ xhat.values))


def energy_identity(x: GraphSignal, dec: SpectralDecomposition) -> tuple[float, float]:
    """Vertex energy ``||x||^2`` and its spectral form ``xhat* (V* V) xhat``.

    The two agree as an algebraic identity on every graph, normal or not;
    the Gram quadratic form is mathematically real, so only the real part
    is returned.

    Raises:
        NonFiniteError: either energy overflowed float64.
    """
    xhat = forward(x, dec).values
    vertex_energy, gram_energy = _finite("the energy identity", lambda: np.array(
        [np.linalg.norm(x.values) ** 2, np.vdot(xhat, gram_matrix(dec) @ xhat).real])).tolist()
    return vertex_energy, gram_energy


def apply_filter(x: GraphSignal, response, dec: SpectralDecomposition) -> GraphSignal:
    """Apply the filter whose response is ``h``: ``V diag(h) V^{-1} x``.

    ``response`` holds one complex gain per frequency bin, ``n`` in all. For
    an ideal indicator response this is the oblique projector onto the
    spanned right eigensubspace (idempotent, but not Hermitian unless the
    operator is normal).
    """
    _expect(x, dec.n)
    h = _vector(response, "filter response")
    if h.shape[0] != dec.n:
        raise DimensionMismatchError(f"filter has {h.shape[0]} taps, decomposition has n={dec.n}")
    return GraphSignal(_finite("the filter", lambda: dec.v @ (h * (dec.u.conj().T @ x.values))))


def tv_bounds(x: GraphSignal, dec: SpectralDecomposition) -> TvBounds:
    """Sandwich the directed total variation by spectral energies.

    The actual variation is ``||L x||^2``, the squared graph-derivative
    energy: zero exactly on the null space of ``L`` (constant signals for
    strongly connected graphs). It lies between ``sigma_min(V)^2`` and
    ``sigma_max(V)^2`` times ``spectral_energy = sum |lambda_k|^2 |xhat_k|^2``.

    Raises:
        NonFiniteError: one of the four numbers overflowed float64.
    """
    xhat = forward(x, dec).values

    def energies():
        spectral = np.sum((np.abs(dec.lambdas) * np.abs(xhat)) ** 2)
        lx = dec.matrix @ x.values
        return np.array([dec.sigma_min**2 * spectral, dec.sigma_max**2 * spectral, spectral,
                         np.vdot(lx, lx).real])

    return TvBounds(*_finite("the total variation", energies).tolist())
