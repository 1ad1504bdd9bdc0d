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


def _fresh_python(*args, spawn=subprocess.run, **kwargs):
    """Start ``python *args`` through ``spawn`` in a fresh interpreter that imports this dirlap.

    ``kwargs`` go to ``spawn``; :func:`subprocess.run` captures the output as text by default.
    """
    if spawn is subprocess.run:
        kwargs = {"capture_output": True, "text": True, **kwargs}
    return spawn([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC}, **kwargs)


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
def rng():
    return np.random.default_rng(20260808)
