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

A transform or filter whose result overflows float64 raises
:class:`NonFiniteError` naming it; numpy's overflow warnings stay off.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .eigen import SpectralDecomposition, gram_matrix
from .errors import DimensionMismatchError, NonFiniteError

VERTEX = "vertex"
SPECTRAL = "spectral"


@dataclass(frozen=True, eq=False)
class GraphSignal:
    """Complex signal over vertices or over frequency bins.

    The ``domain`` tag exists so that transforms can reject input that is
    already in the target domain instead of silently double-transforming.
    """

    values: np.ndarray
    domain: str

    def __post_init__(self):
        if self.domain not in (VERTEX, SPECTRAL):
            raise ValueError(f"domain must be {VERTEX!r} or {SPECTRAL!r}, got {self.domain!r}")
        values = np.array(self.values, dtype=np.complex128)
        if values.ndim != 1:
            raise ValueError(f"signal must be one-dimensional, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal entries must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def vertex_signal(values) -> GraphSignal:
    return GraphSignal(np.asarray(values), VERTEX)


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind``; a bool is a bool only, never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


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


def _expect(x: GraphSignal, domain: str, n: int) -> None:
    if x.domain != domain:
        raise ValueError(f"expected a {domain}-domain signal, got {x.domain}-domain")
    if x.n != n:
        raise DimensionMismatchError(f"signal has length {x.n}, decomposition has n={n}")


@dataclass(frozen=True, eq=False)
class SpectralFilter:
    """Diagonal spectral response, one complex gain per frequency bin."""

    response: np.ndarray

    def __post_init__(self):
        response = np.array(self.response, dtype=np.complex128)
        if response.ndim != 1:
            raise ValueError("filter response must be one-dimensional")
        if not np.all(np.isfinite(response)):
            raise ValueError("filter response must be finite")
        object.__setattr__(self, "response", response)

    @classmethod
    def ideal(cls, omega: Iterable[int], n: int) -> "SpectralFilter":
        """Indicator response on the index set ``omega`` (entries in {0, 1})."""
        response = np.zeros(n, dtype=np.complex128)
        response[_indices(omega, n, "band indices")] = 1.0
        return cls(response)


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
    _expect(x, VERTEX, dec.n)
    return GraphSignal(_finite("the forward transform", lambda: dec.u.conj().T @ x.values),
                       SPECTRAL)


def inverse(xhat: GraphSignal, dec: SpectralDecomposition) -> GraphSignal:
    """Synthesis transform ``x = V xhat``."""
    _expect(xhat, SPECTRAL, dec.n)
    return GraphSignal(_finite("the inverse transform", lambda: dec.v @ xhat.values), VERTEX)


def energy_identity(x: GraphSignal, dec: SpectralDecomposition) -> tuple[float, float]:
    """Vertex energy ``||x||^2`` and its spectral form ``xhat* (V* V) xhat``.

    The two agree as an algebraic identity on every graph, normal or not;
    the Gram quadratic form is mathematically real, so only the real part
    is returned.
    """
    _expect(x, VERTEX, dec.n)
    xhat = forward(x, dec).values
    gram_energy = float(np.real(np.vdot(xhat, gram_matrix(dec) @ xhat)))
    return float(np.linalg.norm(x.values) ** 2), gram_energy


def apply_filter(x: GraphSignal, filt: SpectralFilter, dec: SpectralDecomposition) -> GraphSignal:
    """Apply the diagonal spectral filter: ``V diag(h) V^{-1} x``.

    For an ideal indicator response this is the oblique projector onto the
    spanned right eigensubspace (idempotent, but not Hermitian unless the
    operator is normal).
    """
    _expect(x, VERTEX, dec.n)
    if filt.response.shape[0] != dec.n:
        raise DimensionMismatchError(
            f"filter has {filt.response.shape[0]} taps, decomposition has n={dec.n}"
        )
    y = _finite("the filter", lambda: _filter_values(x.values, filt.response, dec))
    return GraphSignal(y, VERTEX)


def _filter_values(
    values: np.ndarray, response: np.ndarray, dec: SpectralDecomposition
) -> np.ndarray:
    """``V diag(h) U* values`` for one signal ``(n,)`` or a block ``(n, T)`` of column signals."""
    xhat = dec.u.conj().T @ values
    return dec.v @ (response.reshape(response.shape + (1,) * (values.ndim - 1)) * xhat)


def tv_bounds(x: GraphSignal, dec: SpectralDecomposition) -> TvBounds:
    """Sandwich the directed total variation by spectral energies.

    The actual variation is ``||L x||^2``, the squared graph-derivative
    energy: zero exactly on the null space of ``L`` (constant signals for
    strongly connected graphs). It lies between ``sigma_min(V)^2`` and
    ``sigma_max(V)^2`` times ``spectral_energy = sum |lambda_k|^2 |xhat_k|^2``.
    """
    _expect(x, VERTEX, dec.n)
    xhat = forward(x, dec).values
    spectral_energy = float(np.sum((np.abs(dec.lambdas) * np.abs(xhat)) ** 2))
    lx = dec.matrix @ x.values
    return TvBounds(
        lower=dec.sigma_min**2 * spectral_energy,
        upper=dec.sigma_max**2 * spectral_energy,
        spectral_energy=spectral_energy,
        actual=float(np.real(np.vdot(lx, lx))),
    )
