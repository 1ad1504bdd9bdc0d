"""An on-disk store of the eigensolver's output, one entry per operator.

The CLI's one load-and-decompose path reads a graph's eigenpairs from here
instead of running LAPACK's ``dgeev`` again, so ``analyze``, ``gft``,
``filter`` and ``sample`` pay for the solve once per graph and numeric
environment, not once per process. An entry holds what ``eigen._solve``
returns, the frequency-ordered unit eigenvalues, eigenvectors and conjugate
pair positions, with the operator it decomposed. A hit hands them to
``eigen._certify``, which checks and records them as it does a fresh
solve's: the same refusals, the same residual, the same bytes out.

Entries live in ``$XDG_CACHE_HOME/dirlap`` (default ``~/.cache/dirlap``),
named by the vertex count, a CRC-32 of the operator's float64 bytes and one
of the environment fingerprint, so two environments keep apart entries of
one graph. An entry is used only if all of these hold, and is otherwise a
miss, solved and stored anew:

- its operator equals the one asked for, bit for bit, so a name collision
  is a miss;
- its environment fingerprint (:func:`_fingerprint`) equals this
  process's: the entry format, dirlap's version and a CRC-32 of the solver's
  source, numpy's version and its BLAS, the host, its CPU and affinity
  counts and the BLAS thread variables, which is the condition under which
  the solve is deterministic;
- a CRC-32 of its arrays matches the one stored with them, so a truncated
  or damaged file is a miss;
- its arrays have the dtypes, shapes and pair positions of a solve of an
  n x n operator.

An entry is a run of ``.npy`` records, read by numpy's own reader with
pickles refused: the fingerprint, the CRC-32, the operator, the
eigenvalues, the eigenvectors and the two pair position arrays. It is
written to a temporary file in the directory and published by
``os.replace``, so a reader never sees half an entry. The directory is
bounded by :data:`MAX_BYTES`: after each write the least recently used
files go first, a hit refreshing its entry's mtime. An ``OSError`` or
``ValueError`` while reading or writing means "solve as without the
store", so the store changes no output byte, stderr line or exit code.
Delete the directory to clear it.
"""
from __future__ import annotations

import os
import platform
import zlib
from pathlib import Path

import numpy as np

from . import __version__, eigen
from .graphs import _square

#: layout of an entry; bumped whenever what an entry holds or how it is written changes
_FORMAT = 1
#: bound on the directory's total size in bytes. An entry is about 24 n^2 bytes (3.9 MB at
#: n = 400, 24 MB at 1000), so this holds about 130 graphs at n = 400, and none above
#: n = 4700
MAX_BYTES = 512 * 2**20
#: what reading or writing an entry may raise, each meaning "solve without the store"
_STORE_FAULTS = (OSError, ValueError)


def directory() -> Path:
    """The store's directory; ``RuntimeError`` where no home directory can be found."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):  # the XDG rule: a relative path is ignored
        return Path(base) / "dirlap"
    return Path.home() / ".cache" / "dirlap"


def _fingerprint() -> str:
    """The numeric environment a stored solve is reused in, as one line of text.

    The solver's source is part of it, so a changed ``eigen._solve`` never reads
    an entry of another.
    """
    with open(eigen.__file__, "rb") as fh:
        source = zlib.crc32(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    threads = [os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
    return repr((_FORMAT, __version__, source, np.__version__, blas.get("name"),
                 blas.get("version"), platform.node(), platform.machine(), os.cpu_count(),
                 affinity, *threads))


def _crc(arrays) -> int:
    """CRC-32 of the arrays' bytes in the order an ``.npy`` record holds them: Fortran order
    for a Fortran-contiguous array, C order for any other."""
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(arr.ravel(order="A").view(np.uint8), crc)
    return crc


def _load(fh) -> np.ndarray:
    """The next ``.npy`` record of ``fh``; ``ValueError`` for anything else, a pickle included."""
    return np.lib.format.read_array(fh, allow_pickle=False)


def _read(path: Path, a: np.ndarray, fingerprint: str):
    """The stored ``(lambdas, v, p, q)`` of ``a`` at ``path``, or None for a foreign entry."""
    n = a.shape[0]
    with open(path, "rb") as fh:
        if _load(fh).item() != fingerprint:
            return None
        checksum = _load(fh).item()
        matrix = _load(fh)
        if not (matrix.dtype == a.dtype and np.array_equal(matrix.view(np.uint64),
                                                              a.view(np.uint64))):
            return None
        lambdas, v, p, q = (_load(fh) for _ in range(4))
    if not (lambdas.dtype == v.dtype == np.complex128 and lambdas.shape == (n,)
            and v.shape == (n, n) and p.dtype == q.dtype == np.intp
            and p.ndim == 1 and p.shape == q.shape
            and _crc((matrix, lambdas, v, p, q)) == checksum):
        return None
    if p.size and not (0 <= min(p.min(), q.min()) and max(p.max(), q.max()) < n):
        return None
    return lambdas, v, p, q


def _write(path: Path, dec: eigen.SpectralDecomposition, fingerprint: str) -> None:
    """Publish ``dec``'s solve at ``path`` and evict down to :data:`MAX_BYTES`."""
    payload = (dec.matrix, dec.lambdas, dec.v, *dec.pairs)
    if sum(arr.nbytes for arr in payload) > MAX_BYTES:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for arr in (np.array(fingerprint), np.array(_crc(payload)), *payload):
                np.lib.format.write_array(fh, arr, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _evict(path.parent)


def _evict(root: Path) -> None:
    """Delete the files of ``root``, oldest mtime first, until they fit :data:`MAX_BYTES`."""
    files = []
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.is_file(follow_symlinks=False):
                stat = entry.stat(follow_symlinks=False)
                files.append((stat.st_mtime_ns, entry.name, stat.st_size))
    total = sum(size for *_, size in files)
    for _, name, size in sorted(files):
        if total <= MAX_BYTES:
            break
        (root / name).unlink(missing_ok=True)
        total -= size


def decompose(l) -> eigen.SpectralDecomposition:
    """``eigen.decompose(l)``, its solve read from the store when an entry of ``l`` is there.

    A miss solves and stores; a hit certifies the stored solve. Either way
    the result, and any error raised, is the one ``eigen.decompose`` gives.
    """
    a = _square(l, real=True).astype(np.float64, copy=False)
    try:
        fingerprint = _fingerprint()
        path = directory() / (f"{a.shape[0]}-{_crc((a,)):08x}"
                              f"-{zlib.crc32(fingerprint.encode()):08x}.basis")
    except (*_STORE_FAULTS, RuntimeError):
        return eigen.decompose(a)
    try:
        stored = _read(path, a, fingerprint)
    except _STORE_FAULTS:
        stored = None
    if stored is None:
        dec = eigen.decompose(a)
        try:
            _write(path, dec, fingerprint)
        except _STORE_FAULTS:
            pass
        return dec
    try:
        os.utime(path)  # a hit is a use: the eviction sees the entry as the newest
    except OSError:
        pass
    return eigen._certify(a, *stored)
