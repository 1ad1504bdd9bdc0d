"""General (non-Hermitian) eigendecomposition with a dual basis.

A diagonalizable operator ``L = V diag(lambdas) V^{-1}`` is stored together
with the dual basis ``U = (V^{-1})*``, so analysis is projection on the
columns of ``U`` and synthesis is expansion in the columns of ``V``:

    u_j* v_i = delta_ij          (biorthogonality)

Eigenvalues are ordered by non-decreasing magnitude, which is the frequency
ordering appropriate for Laplacians (the zero eigenvalue, i.e. the DC mode,
comes first). Ties in magnitude are broken by ascending complex argument in
(-pi, pi] and then by the original index, which keeps conjugate pairs
adjacent and makes the output deterministic. The tie gap and the zero test
are relative to the largest magnitude, so scaling every weight scales the
spectrum and changes neither the order nor the DC values.

Eigenvector columns have unit 2-norm with the phase rotated so the lead
entry is real and positive. The lead is the first entry whose modulus is
within a relative 1e-8 of the column's largest, so a flat column (a Fourier
mode of a circulant graph) always leads with its first entry rather than
with whichever entry rounding made largest. All remaining freedom lives in
``U`` via ``U* = V^{-1}``.

The backend is LAPACK's dense real non-symmetric solver ``dgeev`` (Hessenberg
reduction followed by shifted QR iteration) as exposed by ``numpy.linalg.eig``
on the real matrix. It returns each complex eigenvalue with its exact
conjugate, stored next to it (+imag first), and the conjugate eigenvector.
Every O(n^3) step after it runs on the real basis ``W``: real eigenvectors as
they are, and each conjugate pair ``v, conj(v)`` replaced by the columns
``sqrt2 Re v, sqrt2 Im v``. Then ``V = W T`` with ``T`` unitary, so the
biorthogonality defect ``||W^{-1} W - I||_F`` equals ``||V^{-1} V - I||_F``,
and ``U* = T^H W^{-1}`` after one real inverse. The pairs are taken from
LAPACK's storage order, never by matching eigenvalues, so repeated pairs
stay distinct.

The refusal of a defective operator reads the eigenvalue condition numbers
``s_i = ||u_i||`` of the unit columns ``v_i`` (Golub & Van Loan, *Matrix
Computations*, section 7.2), which cost O(n^2) from the inverse: with unit
columns, ``max_i s_i <= kappa(V) <= n max_i s_i``. ``kappa`` and the extreme
singular values of ``V`` come from a real SVD of ``W``, rebuilt from ``v``
and the stored pair positions on the first read of any of them, so a caller
that never reads them pays no SVD.

Every basis, whatever solver produces it, passes ``_certify``'s residual and refusals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NearDefectiveError, NonFiniteError
from .graphs import _square, _unit_scale

#: gap, relative to the largest magnitude, under which two eigenvalue magnitudes count as tied
_MAG_TIE_RTOL = 1e-9
#: |lambda| at or below this times the largest magnitude is a zero eigenvalue (DC mode)
ZERO_EIGENVALUE_RTOL = 1e-8
#: angular tolerance for "parallel to the constant vector"
DC_ANGLE_TOL = 1e-6
#: eigenvalue condition number max_i ||u_i|| beyond which the dual basis is numerically meaningless
DEFECTIVE_KAPPA_LIMIT = 1e12
#: relative gap under which an entry's modulus ties the column maximum
_FLAT_RTOL = 1e-8
#: the Henrici radicand's rounding floor, in units of ``n * eps * ||L||_F^2``. Each
#: computed ``|lambda_k|^2`` is off by about ``2 |lambda_k| eps ||L||``, so on a normal
#: ``L`` the radicand reads up to 1.83 units over every unit-weight 4-vertex digraph and
#: up to 5.6 over random symmetric weights at n <= 8; the smallest genuine departure
#: among the 4-vertex digraphs, ``0.154 ||L||_F``, is a radicand of over 10^12 units
_HENRICI_FLOOR = 16


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ordered eigensystem of one operator plus conditioning metadata.

    Attributes:
        matrix: the decomposed operator (kept for residual/variation checks)
        lambdas: eigenvalues, non-decreasing in magnitude
        v: right eigenvectors as columns, unit norm, phase-fixed
        u: dual basis columns, ``u.conj().T = V^{-1}`` (the analysis operator)
        pairs: ``(p, q)``, the positions of each conjugate pair's ``+imag``
            member and of its conjugate
        residual: max_k ||L v_k - lambda_k v_k||_2
        kappa: 2-norm condition number sigma_max(V) / sigma_min(V)
        sigma_min, sigma_max: extreme singular values of V
        zero_multiplicity: the eigenvalues at or below ``ZERO_EIGENVALUE_RTOL``
            times the largest magnitude; one per closed class of a graph
        dc_angle: angle between ``v_0`` and the constant vector
        dc_isolated: the first eigenvalue is zero, of multiplicity 1, and
            ``dc_angle <= DC_ANGLE_TOL``; true for strongly connected graphs

    ``kappa``, ``sigma_min`` and ``sigma_max`` are computed by one SVD on the
    first read of any of them, and each DC value on its first read, then cached.
    """

    matrix: np.ndarray
    lambdas: np.ndarray
    v: np.ndarray
    u: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    residual: float

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @cached_property
    def _sigma_extremes(self) -> tuple[float, float]:
        """``(sigma_min, sigma_max)`` of ``V``, from a real SVD of ``W`` (same singular values)."""
        s = np.linalg.svd(_real_basis(self.v, *self.pairs)[0], compute_uv=False)
        return float(s[-1]), float(s[0])

    @property
    def sigma_min(self) -> float:
        return self._sigma_extremes[0]

    @property
    def sigma_max(self) -> float:
        return self._sigma_extremes[1]

    @cached_property
    def kappa(self) -> float:
        sigma_min, sigma_max = self._sigma_extremes
        return np.inf if sigma_min == 0.0 else sigma_max / sigma_min

    @property
    def _is_zero(self) -> np.ndarray:
        mags = np.abs(self.lambdas)
        return mags <= ZERO_EIGENVALUE_RTOL * mags.max()

    @cached_property
    def zero_multiplicity(self) -> int:
        return int(np.count_nonzero(self._is_zero))

    @cached_property
    def dc_angle(self) -> float:
        ones = np.ones(self.n) / np.sqrt(self.n)
        v0 = self.v[:, 0]
        return float(np.arcsin(min(1.0, np.linalg.norm(v0 - np.vdot(ones, v0) * ones))))

    @cached_property
    def dc_isolated(self) -> bool:
        return bool(self._is_zero[0] and self.zero_multiplicity == 1
                    and self.dc_angle <= DC_ANGLE_TOL)


def _frequency_sort(lambdas: np.ndarray) -> np.ndarray:
    """Permutation ordering eigenvalues by (|lambda|, arg, original index).

    Magnitudes within ``_MAG_TIE_RTOL`` times the largest of their sorted
    neighbour form one tie group, so conjugate pairs sort by argument, not by
    rounding noise.
    """
    order = np.argsort(np.abs(lambdas), kind="stable")
    mags = np.abs(lambdas[order])
    group = np.cumsum(np.diff(mags, prepend=mags[:1]) > _MAG_TIE_RTOL * mags[-1])
    return order[np.lexsort((order, np.angle(lambdas[order]), group))]


def _normalize_columns(vec: np.ndarray) -> None:
    """Scale columns in place to unit norm, the lead entry real and positive.

    The lead is the first entry whose modulus is within ``_FLAT_RTOL`` of the
    column maximum, so flat columns (Fourier modes) do not take it from
    rounding noise.
    """
    vec /= np.linalg.norm(vec, axis=0)
    mags = np.abs(vec)
    first = np.argmax(mags >= (1.0 - _FLAT_RTOL) * mags.max(axis=0), axis=0)
    lead = vec[first, np.arange(vec.shape[1])]
    vec /= lead / np.abs(lead)


def _real_basis(vec: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real basis ``W`` of the columns ``vec`` and its column scale.

    ``W = V T^H``: ``[v_p v_q] = sqrt2 [Re v_p, Im v_p] T`` with ``T`` unitary
    for each conjugate pair at positions ``(p, q)``, the other columns real.
    So ``W`` has the singular values of ``V``, and ``V^{-1} = T^H W^{-1}``.
    """
    scale = np.ones(vec.shape[1])
    scale[p] = scale[q] = np.sqrt(2.0)
    w = vec.real.copy()
    w[:, q] = vec.imag[:, p]
    w *= scale
    return w, scale


def _solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``a``'s eigenpairs, frequency-ordered, unit and phase-fixed, and the pair positions."""
    n = a.shape[0]
    lambdas, vec = np.linalg.eig(a)
    if not np.all(np.isfinite(np.abs(lambdas))):
        raise NonFiniteError("an eigenvalue's modulus overflows float64; scale the weights down")
    # dgeev stores each conjugate pair next to each other, +imag member first;
    # p and q are the sorted positions of the two members
    first = np.flatnonzero(lambdas.imag > 0)
    order = _frequency_sort(lambdas)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    p, q = rank[first], rank[first + 1]
    lambdas = lambdas[order].astype(np.complex128, copy=False)
    vec = vec[:, order].astype(np.complex128, copy=False)
    _normalize_columns(vec)
    return lambdas, vec, p, q


def _certify(a: np.ndarray, lambdas, vec, p, q) -> SpectralDecomposition:
    """Check and record a unit, phase-fixed, frequency-ordered basis as given, never re-sorted."""
    n = a.shape[0]
    w, scale = _real_basis(vec, p, q)

    # (L W - W Re(Lambda) plus the pair terms) / s; ||r_p||^2 + ||r_q||^2 is twice
    # the squared residual of each of v_p and v_q. L and Lambda are divided by s,
    # as in the indices, so that neither the product nor the squares overflow
    s = _unit_scale(a)
    r = (a / s) @ w
    r -= w * (lambdas.real / s)
    beta = lambdas.imag[p] / s
    r[:, p] += w[:, q] * beta
    r[:, q] -= w[:, p] * beta
    col2 = np.einsum("ij,ij->j", r, r)
    del r
    col2[p] = col2[q] = 0.5 * (col2[p] + col2[q])
    residual = float(np.sqrt(np.max(col2))) * s

    try:
        winv = np.linalg.inv(w)
    except np.linalg.LinAlgError as exc:
        # exactly parallel eigenvectors, as LAPACK returns for the directed path
        raise NearDefectiveError(
            "eigenvector matrix is singular; the operator is numerically defective"
        ) from exc
    # s_i = ||u_i||: row i of W^{-1} for a real mode, and for a pair u_p and u_q =
    # conj(u_p) both have norm^2 half the sum of rows p and q (see u below)
    s2 = np.einsum("ij,ij->i", winv, winv)
    s2[p] = s2[q] = 0.5 * (s2[p] + s2[q])
    s_max = float(np.sqrt(np.max(s2)))
    if not s_max <= DEFECTIVE_KAPPA_LIMIT:
        raise NearDefectiveError(
            f"eigenvalue condition number {s_max:.3e} exceeds {DEFECTIVE_KAPPA_LIMIT:.1e}; "
            "the operator is numerically defective"
        )

    d = winv @ w
    del w
    d.flat[:: n + 1] -= 1.0
    ortho_defect = np.linalg.norm(d, "fro")
    del d
    if ortho_defect > n * 1e-8:
        raise NearDefectiveError(
            f"dual basis fails biorthogonality (defect {ortho_defect:.3e} > {n * 1e-8:.1e})"
        )

    # u = (V^{-1})* = W^{-T} T: u_p = (row p + i row q of W^{-1}) / sqrt2, u_q = conj(u_p)
    winv /= scale[:, None]
    u = winv.T.astype(np.complex128)
    del winv
    u.imag[:, p] = u.real[:, q]
    u.real[:, q] = u.real[:, p]
    u.imag[:, q] = -u.imag[:, p]
    return SpectralDecomposition(
        matrix=np.array(a, copy=True),
        lambdas=lambdas,
        v=vec,
        u=u,
        pairs=(p, q),
        residual=residual,
    )


def decompose(l) -> SpectralDecomposition:
    """Eigendecompose a real square matrix and build the dual (left) basis.

    Raises:
        DimensionMismatchError: if ``l`` is not a square matrix, or is empty.
        ValueError: if an entry is complex, non-numeric or not finite.
        NearDefectiveError: if the basis is exactly singular, an eigenvalue condition number
            ``s_i = ||u_i||`` exceeds ``DEFECTIVE_KAPPA_LIMIT`` (or is NaN), or the dual fails
            biorthogonality beyond ``n * 1e-8`` (Frobenius): an (effectively) defective operator.
        NonFiniteError: if an eigenvalue's modulus overflows float64 (top-binade weights).
    """
    a = _square(l, real=True).astype(np.float64, copy=False)
    return _certify(a, *_solve(a))


def gram_matrix(dec: SpectralDecomposition) -> np.ndarray:
    """Gram matrix ``M = V* V`` of the right eigenvectors.

    Hermitian positive definite; the metric tensor relating spectral
    coefficients to vertex-domain energy. Equals the identity iff the
    operator is normal.
    """
    return dec.v.conj().T @ dec.v


def henrici_departure(dec: SpectralDecomposition) -> float:
    """Henrici departure from normality ``sqrt(||L||_F^2 - sum |lambda_k|^2)`` of ``dec.matrix``.

    Zero iff ``L`` is normal. A radicand at or below the rounding floor
    ``_HENRICI_FLOOR * n * eps * ||L||_F^2`` reads as 0: for a normal matrix
    the two sums agree only to rounding, and the square root would magnify
    that noise. Both sums are taken of ``L / s`` for a power of two ``s`` near
    ``max|L_ij|``, and the root multiplied back by ``s``, so no finite scale
    overflows them.
    """
    s = _unit_scale(dec.matrix)
    fro2 = np.linalg.norm(dec.matrix / s, "fro") ** 2
    gap = fro2 - float(np.sum(np.abs(dec.lambdas / s) ** 2))
    if gap <= _HENRICI_FLOOR * dec.n * np.finfo(np.float64).eps * fro2:
        return 0.0
    return float(np.sqrt(gap)) * s

