import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirlap
from dirlap import (
    decompose,
    directed_laplacian,
    gen_directed_cycle,
    gen_perturbed_cycle,
)

#: the directory this checkout's dirlap package is imported from
SRC = str(Path(dirlap.__file__).resolve().parents[1])


def _fresh_python(*args, spawn=subprocess.run, env=(), **kwargs):
    """Start ``python *args`` through ``spawn`` in a fresh interpreter that imports this dirlap.

    ``env`` overrides this process's environment, a ``None`` value removing the name.
    ``kwargs`` go to ``spawn``; :func:`subprocess.run` captures the output as text by default.
    """
    if spawn is subprocess.run:
        kwargs = {"capture_output": True, "text": True, **kwargs}
    env = {**os.environ, "PYTHONPATH": SRC, **dict(env)}
    return spawn([sys.executable, *args], env={k: v for k, v in env.items() if v is not None},
                 **kwargs)


@pytest.fixture(scope="session", autouse=True)
def private_store(tmp_path_factory):
    """Point the CLI's eigensolve store at a directory of this session, for every in-process
    command and every ``fresh_python`` child: no test reads or writes the user's cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def fresh_python():
    return _fresh_python


@pytest.fixture(scope="session")
def cycle20():
    lap = directed_laplacian(gen_directed_cycle(20))
    return lap, decompose(lap)


@pytest.fixture(scope="session")
def perturbed20():
    lap = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed=7))
    return lap, decompose(lap)


@pytest.fixture(scope="session")
def cycle4():
    lap = directed_laplacian(gen_directed_cycle(4))
    return lap, decompose(lap)


@pytest.fixture
def gate_calls(monkeypatch):
    """The ``what`` of every ``transform._vector`` gate run in this test, in order."""
    from dirlap import sampling, transform

    seen = []
    gate = transform._vector

    def counted(values, what, n=None):
        seen.append(what)
        return gate(values, what, n)

    for module in (transform, sampling):  # sampling holds the gate under its own name
        monkeypatch.setattr(module, "_vector", counted)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
