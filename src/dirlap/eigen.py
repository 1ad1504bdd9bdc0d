"""General (non-Hermitian) eigendecomposition with a dual basis.

A diagonalizable operator ``L = V diag(lambdas) V^{-1}`` is stored together
with the dual basis ``U = (V^{-1})*``, so analysis is projection on the
columns of ``U`` and synthesis is expansion in the columns of ``V``:

    u_j* v_i = delta_ij          (biorthogonality)

Eigenvalues are ordered by non-decreasing magnitude, which is the frequency
ordering appropriate for Laplacians (the zero eigenvalue, i.e. the DC mode,
comes first). Ties in magnitude are broken by ascending complex argument in
(-pi, pi] and then by the original index, which keeps conjugate pairs
adjacent and makes the output deterministic.

Eigenvector columns have unit 2-norm with the phase rotated so the
largest-magnitude entry is real and positive; all remaining freedom lives in
``U`` via ``U* = V^{-1}``.

The backend is LAPACK's dense non-symmetric solver (Hessenberg reduction
followed by shifted QR iteration) as exposed by ``numpy.linalg.eig``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NearDefectiveError

#: relative gap under which two eigenvalue magnitudes count as tied
_MAG_TIE_RTOL = 1e-9
#: |lambda| below this is treated as a zero eigenvalue (DC mode)
ZERO_EIGENVALUE_TOL = 1e-8
#: angular tolerance for "parallel to the constant vector"
DC_ANGLE_TOL = 1e-6
#: kappa(V) beyond which the dual basis is numerically meaningless
DEFECTIVE_KAPPA_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ordered eigensystem of one operator plus conditioning metadata.

    Attributes:
        matrix: the decomposed operator (kept for residual/variation checks)
        lambdas: eigenvalues, non-decreasing in magnitude
        v: right eigenvectors as columns, unit norm, phase-fixed
        u: dual basis columns, ``u.conj().T = V^{-1}`` (the analysis operator)
        kappa: 2-norm condition number sigma_max(V) / sigma_min(V)
        sigma_min, sigma_max: extreme singular values of V
        residual: max_k ||L v_k - lambda_k v_k||_2
    """

    matrix: np.ndarray
    lambdas: np.ndarray
    v: np.ndarray
    u: np.ndarray
    kappa: float
    sigma_min: float
    sigma_max: float
    residual: float

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


@dataclass(frozen=True)
class DcModeReport:
    """Outcome of the DC-mode check; truthy iff the mean is isolated."""

    isolated: bool
    zero_multiplicity: int
    angle: float

    def __bool__(self) -> bool:
        return self.isolated


def _frequency_sort(lambdas: np.ndarray) -> np.ndarray:
    """Permutation ordering eigenvalues by (|lambda|, arg, original index)."""
    mags = np.abs(lambdas)
    order = list(np.argsort(mags, kind="stable"))
    out: list[int] = []
    i = 0
    while i < len(order):
        j = i + 1
        # group near-ties so conjugate pairs sort by argument, not by rounding noise
        while j < len(order) and (
            mags[order[j]] - mags[order[j - 1]] <= _MAG_TIE_RTOL * (1.0 + mags[order[j]])
        ):
            j += 1
        out.extend(sorted(order[i:j], key=lambda t: (np.angle(lambdas[t]), t)))
        i = j
    return np.array(out, dtype=int)


def _normalize_columns(vec: np.ndarray) -> np.ndarray:
    vec = vec / np.linalg.norm(vec, axis=0)
    lead = vec[np.argmax(np.abs(vec), axis=0), np.arange(vec.shape[1])]
    return vec / (lead / np.abs(lead))


def decompose(l) -> SpectralDecomposition:
    """Eigendecompose a square matrix and build the dual (left) basis.

    Raises:
        NearDefectiveError: if ``kappa(V) > DEFECTIVE_KAPPA_LIMIT`` or the computed
            dual basis fails biorthogonality beyond ``n * 1e-8`` in
            Frobenius norm. Both signal an (effectively) defective operator
            for which the diagonalization is numerically meaningless.
    """
    a = np.asarray(l)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]

    lambdas, vec = np.linalg.eig(a.astype(np.complex128))
    order = _frequency_sort(lambdas)
    lambdas = lambdas[order]
    vec = _normalize_columns(vec[:, order])

    s = np.linalg.svd(vec, compute_uv=False)
    sigma_max, sigma_min = float(s[0]), float(s[-1])
    kappa = np.inf if sigma_min == 0.0 else sigma_max / sigma_min
    if kappa > DEFECTIVE_KAPPA_LIMIT:
        raise NearDefectiveError(
            f"eigenvector condition number {kappa:.3e} exceeds {DEFECTIVE_KAPPA_LIMIT:.1e}; "
            "the operator is numerically defective"
        )

    vinv = np.linalg.inv(vec)
    ortho_defect = np.linalg.norm(vinv @ vec - np.eye(n), "fro")
    if ortho_defect > n * 1e-8:
        raise NearDefectiveError(
            f"dual basis fails biorthogonality (defect {ortho_defect:.3e} > {n * 1e-8:.1e})"
        )

    residual = float(np.max(np.linalg.norm(a @ vec - vec * lambdas, axis=0)))
    return SpectralDecomposition(
        matrix=np.array(a, copy=True),
        lambdas=lambdas,
        v=vec,
        u=vinv.conj().T,
        kappa=float(kappa),
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        residual=residual,
    )


def dc_mode_check(dec: SpectralDecomposition) -> DcModeReport:
    """Check that the smallest-magnitude mode is the isolated constant mode.

    True for strongly connected graphs, where the unique zero eigenvalue
    carries ``v_1 = 1/sqrt(n)``. Graphs with a multidimensional null space
    (e.g. disconnected ones) report ``isolated=False`` together with the
    zero-eigenvalue multiplicity rather than raising.
    """
    n = dec.n
    mult = int(np.count_nonzero(np.abs(dec.lambdas) <= ZERO_EIGENVALUE_TOL))
    ones = np.ones(n) / np.sqrt(n)
    v1 = dec.v[:, 0]
    resid = v1 - np.vdot(ones, v1) * ones
    angle = float(np.arcsin(min(1.0, np.linalg.norm(resid))))
    isolated = bool(
        abs(dec.lambdas[0]) <= ZERO_EIGENVALUE_TOL
        and mult == 1
        and angle <= DC_ANGLE_TOL
    )
    return DcModeReport(isolated=isolated, zero_multiplicity=mult, angle=angle)


def gram_matrix(dec: SpectralDecomposition) -> np.ndarray:
    """Gram matrix ``M = V* V`` of the right eigenvectors.

    Hermitian positive definite; the metric tensor relating spectral
    coefficients to vertex-domain energy. Equals the identity iff the
    operator is normal.
    """
    return dec.v.conj().T @ dec.v


def henrici_departure(l, dec: SpectralDecomposition) -> float:
    """Henrici departure from normality ``sqrt(||L||_F^2 - sum |lambda_k|^2)``.

    Zero iff ``L`` is normal. The radicand is clamped at 0: rounding in the
    eigenvalues can push it a few ulps negative for normal matrices.
    """
    l = np.asarray(l)
    gap = np.linalg.norm(l, "fro") ** 2 - float(np.sum(np.abs(dec.lambdas) ** 2))
    return float(np.sqrt(max(0.0, gap)))
