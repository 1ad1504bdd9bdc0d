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

A signal is a 1-D complex array of finite entries, whether it lists vertex
values or spectral coefficients; a transform takes either and cannot tell
them apart. A filter is its length-n complex response ``h``, applied as
``V diag(h) V^{-1}``. One gate, :func:`_vector`, checks every complex input
vector, its length included, and every function here returns a new
complex128 array. A transform or filter whose result overflows float64
raises :class:`NonFiniteError` naming it; numpy's overflow warnings stay off.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .eigen import SpectralDecomposition, gram_matrix
from .errors import NonFiniteError
from .graphs import _array, _is_a, _vector_shape


def _vector(values, what: str, n: int | None = None) -> np.ndarray:
    """``values`` as a 1-D complex128 copy of finite entries, ``n`` if given; ``what`` names it.

    Checked in order: a bool, string or object array raises ``ValueError``, a wrong
    dimension :class:`DimensionMismatchError`, a NaN or infinite entry ``ValueError``,
    and a length other than ``n`` ``DimensionMismatchError: {what} must have length {n}, got {m}``.
    """
    values = _array(values, "numbers", what).astype(np.complex128)
    _vector_shape(values, what)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} entries must be finite")
    if n is not None:
        _vector_shape(values, what, n)
    return values


# No function takes or returns this record; its one reader is perfbench/tracer.py's
# VALIDATED_RECORDS, which times its __post_init__. It goes when that entry does.
@dataclass(frozen=True, eq=False)
class GraphSignal:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _vector(self.values, "signal"))


def _indices(values: Iterable, n: int, what: str) -> np.ndarray:
    """``values`` as an int array of indices in ``[0, n)``, ``what`` naming them in errors.

    Each index must be an integer: a float, bool or string is refused, not truncated.
    """
    values = list(values)
    for i in values:
        if not _is_a(i, numbers.Integral):
            raise ValueError(f"{what} must be integers, got {i!r}")
    if not all(0 <= i < n for i in values):
        raise ValueError(f"{what} must lie in [0, {n})")
    return np.asarray(values, dtype=int)


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


def forward(x, dec: SpectralDecomposition) -> np.ndarray:
    """Analysis transform ``xhat = U* x = V^{-1} x`` (projection on the dual basis).

    Raises:
        DimensionMismatchError: ``x`` does not have length ``n``.
    """
    return _analysis(_vector(x, "signal", dec.n), dec)


def _analysis(x: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """:func:`forward` of a signal that has passed its gate."""
    return _finite("the forward transform", lambda: dec.u.conj().T @ x)


def inverse(xhat, dec: SpectralDecomposition) -> np.ndarray:
    """Synthesis transform ``x = V xhat``.

    Raises:
        DimensionMismatchError: ``xhat`` does not have length ``n``.
    """
    xhat = _vector(xhat, "signal", dec.n)
    return _finite("the inverse transform", lambda: dec.v @ xhat)


def energy_identity(x, dec: SpectralDecomposition) -> tuple[float, float]:
    """Vertex energy ``||x||^2`` and its spectral form ``xhat* (V* V) xhat``.

    The two agree as an algebraic identity on every graph, normal or not;
    the Gram quadratic form is mathematically real, so only the real part
    is returned.

    Raises:
        NonFiniteError: either energy overflowed float64.
    """
    x = _vector(x, "signal", dec.n)
    xhat = _analysis(x, dec)
    vertex_energy, gram_energy = _finite("the energy identity", lambda: np.array(
        [np.linalg.norm(x) ** 2, np.vdot(xhat, gram_matrix(dec) @ xhat).real])).tolist()
    return vertex_energy, gram_energy


def apply_filter(x, response, dec: SpectralDecomposition) -> np.ndarray:
    """Apply the filter whose response is ``h``: ``V diag(h) V^{-1} x``.

    ``response`` holds one complex gain per frequency bin, ``n`` in all. For
    an ideal indicator response this is the oblique projector onto the
    spanned right eigensubspace (idempotent, but not Hermitian unless the
    operator is normal).

    Raises:
        DimensionMismatchError: ``x`` or ``response`` does not have length ``n``.
    """
    x = _vector(x, "signal", dec.n)
    h = _vector(response, "filter response", dec.n)
    return _finite("the filter", lambda: dec.v @ (h * (dec.u.conj().T @ x)))


def tv_bounds(x, dec: SpectralDecomposition) -> TvBounds:
    """Sandwich the directed total variation by spectral energies.

    The actual variation is ``||L x||^2``, the squared graph-derivative
    energy: zero exactly on the null space of ``L`` (constant signals for
    strongly connected graphs). It lies between ``sigma_min(V)^2`` and
    ``sigma_max(V)^2`` times ``spectral_energy = sum |lambda_k|^2 |xhat_k|^2``.

    Raises:
        NonFiniteError: one of the four numbers overflowed float64.
    """
    x = _vector(x, "signal", dec.n)
    xhat = _analysis(x, dec)

    def energies():
        spectral = np.sum((np.abs(dec.lambdas) * np.abs(xhat)) ** 2)
        lx = dec.matrix @ x
        return np.array([dec.sigma_min**2 * spectral, dec.sigma_max**2 * spectral, spectral,
                         np.vdot(lx, lx).real])

    return TvBounds(*_finite("the total variation", energies).tolist())
