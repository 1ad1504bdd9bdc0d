"""Benchmark inputs and the oracle checks applied to every command's output.

Everything here is the benchmark's own reference computation: graphs are
drawn with the same PCG64 stream the program's generator documents, and
outputs are checked against plain numpy linear algebra on the edge lists,
never against the library under test. Each check returns ``None`` when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: relative slack for numbers printed with 12 significant digits
PRINT_RTOL = 1e-9
#: relative tolerance of round trips through the eigenbasis
ROUND_TRIP_RTOL = 1e-6


# -- graphs -------------------------------------------------------------------

@dataclass(frozen=True)
class Edges:
    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def laplacian(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.src, self.dst] = self.weight
        return np.diag(a.sum(axis=1)) - a

    def write(self, path: Path) -> None:
        lines = ["src,dst,weight"]
        lines += [f"{s},{d},{w:.12g}" for s, d, w in zip(self.src, self.dst, self.weight)]
        path.write_text("\n".join(lines) + "\n")


def cycle(n: int) -> Edges:
    src = np.arange(n)
    return Edges(n, src, (src + 1) % n, np.ones(n))


def perturbed_cycle(n: int, p: float, w: float, seed: int) -> Edges:
    """Directed cycle plus an edge of weight ``w`` on each other ordered pair
    with probability ``p``: one uniform variate per candidate pair, pairs in
    lexicographic order, from ``numpy.random.default_rng(seed)``."""
    i, j = np.divmod(np.arange(n * n), n)
    cand = (i != j) & (j != (i + 1) % n)
    hit = np.random.default_rng(seed).random(int(cand.sum())) < p
    base = cycle(n)
    extra_src, extra_dst = i[cand][hit], j[cand][hit]
    return Edges(
        n,
        np.concatenate([base.src, extra_src]),
        np.concatenate([base.dst, extra_dst]),
        np.concatenate([base.weight, np.full(extra_src.size, float(w))]),
    )


def read_edges(path: Path) -> Edges:
    rows = _rows(path, ["src", "dst", "weight"])
    data = np.array(rows, dtype=float).reshape(-1, 3)
    src, dst = data[:, 0].astype(int), data[:, 1].astype(int)
    return Edges(int(max(src.max(), dst.max())) + 1, src, dst, data[:, 2])


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: expected header {','.join(header)}")
    return rows[1:]


# -- signals ------------------------------------------------------------------

def write_signal(values: np.ndarray, path: Path) -> None:
    lines = ["vertex,re,im"]
    lines += [f"{i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(values.astype(complex))]
    path.write_text("\n".join(lines) + "\n")


def read_signal(path: Path) -> np.ndarray:
    data = np.array(_rows(path, ["vertex", "re", "im"]), dtype=float).reshape(-1, 3)
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ValueError(f"{path.name}: vertex column is not 0..n-1 in order")
    return data[:, 1] + 1j * data[:, 2]


# -- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Reference eigen-data of one graph's Laplacian."""

    edges: Edges
    eigvals: np.ndarray       # sorted by magnitude
    scale: float              # ||L||_F, the yardstick for eigenvalue tolerances
    pi: np.ndarray            # left null vector (stationary weights), sums to 1
    alpha: float
    delta: float

    @property
    def n(self) -> int:
        return self.edges.n

    def lowpass_size(self, k: int) -> int:
        """Largest band size ``<= k`` whose edge is a strict magnitude gap,
        so the band does not split a conjugate pair."""
        mags = np.abs(self.eigvals)
        while k > 1 and mags[k] - mags[k - 1] <= 1e-6 * (1.0 + mags[k]):
            k -= 1
        return k

    def dc_coefficient(self, x: np.ndarray) -> complex:
        """First GFT coefficient: ``sqrt(n) pi.x / pi.1`` for the unit DC mode."""
        return complex(np.sqrt(self.n) * (self.pi @ x))


def spectrum(edges: Edges) -> Spectrum:
    lap = edges.laplacian()
    eig = np.linalg.eigvals(lap)
    eig = eig[np.argsort(np.abs(eig), kind="stable")]
    fro = float(np.linalg.norm(lap, "fro"))
    # pi^T L = 0 with sum(pi) = 1: replace one (redundant) equation by the norming row
    system = lap.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(edges.n)
    rhs[-1] = 1.0
    return Spectrum(
        edges=edges,
        eigvals=eig,
        scale=fro,
        pi=np.linalg.solve(system, rhs),
        alpha=float(np.linalg.norm(lap - lap.T, "fro") / fro),
        delta=float(np.linalg.norm(lap @ lap.T - lap.T @ lap, "fro") / fro**2),
    )


def band_signal(edges: Edges, k: int, rng: np.random.Generator) -> np.ndarray:
    """A signal in the span of modes that lie strictly inside every band of
    the ``k`` smallest-magnitude eigenvalues (tie order cannot move them out)."""
    lam, vec = np.linalg.eig(edges.laplacian())
    order = np.argsort(np.abs(lam), kind="stable")
    mags = np.abs(lam[order])
    inside = [j for j in range(k) if mags[j] < mags[k] - 1e-6 * (1.0 + mags[k])]
    coeffs = rng.standard_normal(len(inside)) + 1j * rng.standard_normal(len(inside))
    return vec[:, order[inside]] @ coeffs


# -- checks -------------------------------------------------------------------

def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def check_gen(path: Path, ref: Edges) -> str | None:
    got = read_edges(path)
    key_got = np.lexsort((got.dst, got.src))
    key_ref = np.lexsort((ref.dst, ref.src))
    if got.src.size != ref.src.size:
        return f"gen wrote {got.src.size} edges, reference has {ref.src.size}"
    if not (np.array_equal(got.src[key_got], ref.src[key_ref])
            and np.array_equal(got.dst[key_got], ref.dst[key_ref])):
        return "gen edge set differs from the reference generator"
    if not np.allclose(got.weight[key_got], ref.weight[key_ref], rtol=PRINT_RTOL, atol=0):
        return "gen edge weights differ from the reference generator"
    return None


def check_spectrum(path: Path, ref: Spectrum) -> str | None:
    data = np.array(_rows(path, ["k", "re_lambda", "im_lambda", "abs_lambda"]),
                    dtype=float).reshape(-1, 4)
    if data.shape[0] != ref.n or not np.array_equal(data[:, 0], np.arange(ref.n)):
        return f"{path.name}: expected rows k = 0..{ref.n - 1}"
    lam = data[:, 1] + 1j * data[:, 2]
    mags = data[:, 3]
    if not np.allclose(mags, np.abs(lam), rtol=PRINT_RTOL, atol=PRINT_RTOL):
        return f"{path.name}: abs_lambda does not match re/im"
    if np.any(np.diff(mags) < -PRINT_RTOL * (1.0 + mags[:-1])):
        return f"{path.name}: not sorted by |lambda|"
    dist = np.abs(lam[:, None] - ref.eigvals[None, :])
    worst = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    if worst > 1e-8 * max(1.0, ref.scale):
        return f"{path.name}: eigenvalues off numpy.linalg.eigvals by {worst:.3e}"
    return None


def check_metrics(path: Path, ref: Spectrum) -> str | None:
    payload = json.loads(path.read_text())
    if payload.get("n") != ref.n:
        return f"{path.name}: n={payload.get('n')}, graph has {ref.n}"
    for key, want in (("alpha", ref.alpha), ("delta", ref.delta)):
        if abs(payload[key] - want) > PRINT_RTOL * abs(want) + 1e-12:
            return f"{path.name}: {key}={payload[key]!r}, reference {want!r}"
    if not payload["kappa"] >= 1.0 - PRINT_RTOL:
        return f"{path.name}: kappa={payload['kappa']!r} below 1"
    return None


def check_forward(path: Path, x: np.ndarray, ref: Spectrum) -> str | None:
    xhat = read_signal(path)
    if xhat.size != ref.n:
        return f"{path.name}: {xhat.size} coefficients for n={ref.n}"
    want = ref.dc_coefficient(x)
    if abs(xhat[0] - want) > ROUND_TRIP_RTOL * (abs(want) + np.linalg.norm(x)):
        return f"{path.name}: DC coefficient {xhat[0]:.6g}, reference {want:.6g}"
    return None


def check_round_trip(path: Path, x: np.ndarray) -> str | None:
    err = _rel_err(read_signal(path), x)
    if err > ROUND_TRIP_RTOL:
        return f"{path.name}: inverse(forward(x)) misses x by {err:.3e} (relative)"
    return None


def check_filtered(path: Path, x: np.ndarray, ref: Spectrum) -> str | None:
    y = read_signal(path)
    if y.size != ref.n:
        return f"{path.name}: {y.size} entries for n={ref.n}"
    if _rel_err(y, x) < 1e-3:
        return f"{path.name}: low-pass output equals its input"
    drift = abs(ref.dc_coefficient(y) - ref.dc_coefficient(x))
    if drift > ROUND_TRIP_RTOL * np.sqrt(ref.n) * np.linalg.norm(x):
        return f"{path.name}: low-pass filter moved the DC coefficient by {drift:.3e}"
    return None


def check_idempotent(second: Path, first: Path) -> str | None:
    err = _rel_err(read_signal(second), read_signal(first))
    if err > ROUND_TRIP_RTOL:
        return f"{second.name}: a second low-pass pass changed the signal by {err:.3e}"
    return None


def check_sample(plan_path: Path, rec_path: Path, x: np.ndarray, n: int, k: int,
                 m: int) -> str | None:
    plan = json.loads(plan_path.read_text())
    chosen = plan["sample_set"]
    if plan["omega"] != list(range(k)):
        return f"{plan_path.name}: omega is not 0..{k - 1}"
    if len(set(chosen)) != m or not all(0 <= v < n for v in chosen):
        return f"{plan_path.name}: sample_set is not {m} distinct vertices of 0..{n - 1}"
    if not plan["gamma"] > 0:
        return f"{plan_path.name}: gamma={plan['gamma']!r} is not positive"
    err = _rel_err(read_signal(rec_path), x)
    if err > ROUND_TRIP_RTOL:
        return f"{rec_path.name}: in-band recovery misses by {err:.3e} (relative)"
    return None


def check_fig1(out: Path, cycle_ref: Spectrum, perturbed_ref: Spectrum) -> str | None:
    graphs = json.loads((out / "metrics.json").read_text())["graphs"]
    for name, ref in (("cycle", cycle_ref), ("perturbed", perturbed_ref)):
        if name not in graphs:
            return f"fig1 metrics.json lacks graph {name!r}"
        problem = check_spectrum(out / graphs[name]["spectrum_csv"], ref)
        if problem:
            return f"fig1 {problem}"
    return None


def check_fig2(out: Path, sigmas: int, trials: int) -> str | None:
    rows = _rows(out / "trials.csv", ["sigma", "trial", "graph", "err_l2", "bound"])
    if len(rows) != 2 * sigmas * trials:
        return f"fig2 trials.csv has {len(rows)} rows, expected {2 * sigmas * trials}"
    err = np.array([float(r[3]) for r in rows])
    bound = np.array([float(r[4]) for r in rows])
    over = np.count_nonzero(err > bound * (1.0 + PRINT_RTOL))
    if over:
        return f"fig2 trials.csv: err_l2 exceeds its bound on {over} rows"
    summary = _rows(out / "summary.csv",
                    ["graph", "sigma", "err_mean", "err_std", "err_abs_mean", "bound_mean"])
    if len(summary) != 2 * sigmas:
        return f"fig2 summary.csv has {len(summary)} rows, expected {2 * sigmas}"
    return None
