"""The CLI's on-disk store of eigensolves: invisible in every output, and a miss whenever in doubt."""
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from dirlap import _store, cli, fileio
from dirlap.cli import main
from dirlap.graphs import MAX_VERTICES, directed_laplacian, gen_perturbed_cycle

#: every command that decomposes its graph, outputs named relative to the working directory
COMMANDS = (
    ["analyze", "{inputs}/g.csv", "--spectrum-out", "s.csv", "--out", "m.json"],
    ["analyze", "{inputs}/g.csv", "--format", "csv"],
    ["gft", "{inputs}/g.csv", "{inputs}/x.csv", "--out", "xhat.csv"],
    ["gft", "{inputs}/g.csv", "{inputs}/x.csv", "--direction", "inverse", "--out", "xinv.csv"],
    ["filter", "{inputs}/g.csv", "{inputs}/x.csv", "--spec", "{inputs}/lp.json", "--out", "y.csv"],
    ["sample", "{inputs}/g.csv", "--k", "5", "--m", "8", "--out", "plan.json",
     "--signal", "{inputs}/x.csv", "--recover-out", "rec.csv"],
)


def write_inputs(inputs, n, seed=3):
    inputs.mkdir(exist_ok=True)
    fileio.write_edge_list(gen_perturbed_cycle(n, 0.2, 0.8, seed), inputs / "g.csv")
    rng = np.random.default_rng(n)
    fileio.write_signal(rng.standard_normal(n) + 1j * rng.standard_normal(n), inputs / "x.csv")
    (inputs / "lp.json").write_text('{"kind": "ideal", "omega": [0, 1, 2, 3, 4]}')
    return inputs


def run_commands(inputs, out, monkeypatch, commands=COMMANDS, before_each=lambda: None):
    """Each command's exit code, stdout and stderr, and the bytes of every file written to ``out``."""
    out.mkdir()
    monkeypatch.chdir(out)
    runner = CliRunner()
    streams = []
    for args in commands:
        before_each()
        result = runner.invoke(main, [arg.format(inputs=inputs) for arg in args])
        streams.append((result.exit_code, result.stdout, result.stderr))
    return streams, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def direct(inputs, out, monkeypatch, commands=COMMANDS):
    """``run_commands`` with every decomposition solved by ``eigen.decompose``, no store."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_STORE_MIN_N", MAX_VERTICES + 1)
        return run_commands(inputs, out, monkeypatch, commands)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty store directory of this test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "dirlap"


def entries(store):
    return sorted(store.iterdir()) if store.exists() else []


def no_eigensolver(monkeypatch):
    def refuse(a):
        raise AssertionError("np.linalg.eig ran")

    monkeypatch.setattr(np.linalg, "eig", refuse)


@pytest.fixture
def eig_calls(monkeypatch):
    """The number of LAPACK eigensolves run so far in this test."""
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    return calls


def test_tests_never_touch_the_users_cache(tmp_path_factory):
    assert _store.directory().is_relative_to(tmp_path_factory.getbasetemp())


@pytest.mark.parametrize("n", [150, 400])
def test_store_is_invisible_in_output_bytes(n, tmp_path, store, monkeypatch):
    inputs = write_inputs(tmp_path / "inputs", n)
    reference = direct(inputs, tmp_path / "direct", monkeypatch)
    assert [code for code, *_ in reference[0]] == [0] * len(COMMANDS)

    cold = run_commands(inputs, tmp_path / "cold", monkeypatch,
                        before_each=lambda: shutil.rmtree(store, ignore_errors=True))
    assert cold == reference
    assert len(entries(store)) == 1  # the last command's miss stored the graph's one entry

    warm = run_commands(inputs, tmp_path / "warm", monkeypatch)
    assert warm == reference

    # no eigensolver runs, so every command of this pass hit
    with monkeypatch.context() as patch:
        no_eigensolver(patch)
        hits = run_commands(inputs, tmp_path / "hits", monkeypatch)
    assert hits == reference

    blocked = tmp_path / "a-file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert run_commands(inputs, tmp_path / "unwritable", monkeypatch) == reference


def damage_truncate(path, **_):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def damage_format(path, **_):
    # no .npy record: np.load would open this zip signature as an archive
    path.write_bytes(b"PK\x03\x04" + bytes(64))


def damage_payload(path, **_):
    # a bit of an eigenvector entry, past the operator: the entry still parses
    data = bytearray(path.read_bytes())
    data[3 * len(data) // 4] ^= 1
    path.write_bytes(bytes(data))


def damage_fingerprint(path, rerun, monkeypatch, **_):
    # the same graph's entry as written under another BLAS thread setting, at this one's name
    threads = str(int(os.environ.get("OPENBLAS_NUM_THREADS") or 1) + 1)
    with monkeypatch.context() as patch:
        patch.setenv("OPENBLAS_NUM_THREADS", threads)
        path.unlink()
        rerun()
    (foreign,) = entries(path.parent)
    assert foreign != path
    os.replace(foreign, path)


def damage_operator(path, inputs, rerun, **_):
    # another graph's entry under this graph's name, as a digest collision would place it
    fileio.write_edge_list(gen_perturbed_cycle(150, 0.2, 0.8, 4), inputs / "g.csv")
    path.unlink()
    rerun()
    (other,) = entries(path.parent)
    write_inputs(inputs, 150)
    os.replace(other, path)


@pytest.mark.parametrize("damage", [damage_truncate, damage_format, damage_payload,
                                    damage_fingerprint, damage_operator],
                         ids=["truncated", "not-npy", "checksum", "fingerprint", "other-operator"])
def test_a_damaged_or_foreign_entry_is_a_miss(damage, tmp_path, store, monkeypatch, eig_calls):
    inputs = write_inputs(tmp_path / "inputs", 150)
    analyze = COMMANDS[:1]
    reference = direct(inputs, tmp_path / "direct", monkeypatch, analyze)
    runs = iter(range(100))

    def rerun():
        return run_commands(inputs, tmp_path / f"run{next(runs)}", monkeypatch, analyze)

    rerun()
    (path,) = entries(store)
    damage(path, inputs=inputs, rerun=rerun, monkeypatch=monkeypatch)
    del eig_calls[:]
    assert rerun() == reference
    assert len(eig_calls) == 1
    # the miss stored a sound entry in place of the bad one, which the next run reads
    assert entries(store) == [path]
    assert rerun() == reference
    assert len(eig_calls) == 1


@pytest.mark.parametrize("n, stored", [(20, 0), (cli._STORE_MIN_N - 1, 0), (cli._STORE_MIN_N, 1)])
def test_the_store_starts_at_its_floor(n, stored, tmp_path, store, monkeypatch):
    inputs = write_inputs(tmp_path / "inputs", n)
    run_commands(inputs, tmp_path / "out", monkeypatch)
    assert len(entries(store)) == stored
    if not stored:
        assert not store.parent.exists()  # a command below the floor writes nothing


def lap(seed, n=12):
    return directed_laplacian(gen_perturbed_cycle(n, 0.2, 0.8, seed))


def test_the_cap_evicts_the_least_recently_used_entry(store, monkeypatch):
    _store.decompose(lap(1))
    (first,) = entries(store)
    monkeypatch.setattr(_store, "MAX_BYTES", 2 * first.stat().st_size + first.stat().st_size // 2)
    _store.decompose(lap(2))
    (second,) = set(entries(store)) - {first}
    os.utime(first, (1000, 1000))
    os.utime(second, (2000, 2000))
    _store.decompose(lap(3))  # three entries overflow the cap: the oldest goes
    (third,) = set(entries(store)) - {first, second}
    assert entries(store) == sorted([second, third])

    # a hit refreshes its entry, so the entry not read since goes next
    os.utime(third, (3000, 3000))
    os.utime(second, (4000, 4000))
    with monkeypatch.context() as patch:
        no_eigensolver(patch)
        _store.decompose(lap(3))
    _store.decompose(lap(1))
    assert entries(store) == sorted([first, third])
    assert not any(path.name.endswith(".tmp") for path in store.iterdir())


def test_an_entry_over_the_cap_is_never_written(store, monkeypatch):
    monkeypatch.setattr(_store, "MAX_BYTES", 1000)
    _store.decompose(lap(1))
    assert entries(store) == []


def test_a_stored_solve_certifies_to_the_same_decomposition(store):
    fresh = _store.decompose(lap(1, n=30))
    stored = _store.decompose(lap(1, n=30))
    for name in ("matrix", "lambdas", "v", "u", "residual"):
        assert np.array_equal(getattr(fresh, name), getattr(stored, name)), name
    assert all(np.array_equal(*pair) for pair in zip(fresh.pairs, stored.pairs))
    assert stored.kappa == fresh.kappa


def test_commands_without_a_decomposition_never_load_the_store(tmp_path, fresh_python):
    # fig1 and fig2 decompose with eigen.decompose even above the floor; analyze there loads it
    n = str(cli._STORE_MIN_N)
    commands = [["--version"], ["gen", "perturbed-cycle", "--n", n, "--out", "g.csv"],
                ["experiment", "fig1", "--n", n, "--out-dir", "fig1"],
                ["experiment", "fig2", "--n", n, "--trials", "2", "--out-dir", "fig2"],
                ["analyze", "g.csv", "--out", "m.json"]]
    code = ("import sys\nfrom dirlap.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    try:\n        main(argv, standalone_mode=False)\n"
            "    except SystemExit:\n        pass\n"
            "    print('loaded:', 'dirlap._store' in sys.modules)\n")
    done = fresh_python("-c", code, cwd=tmp_path, check=True)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: False"] * 4 + ["loaded: True"]


@pytest.mark.parametrize("forge", [
    lambda dec: {"v": dec.v[:, :-1]},
    lambda dec: {"lambdas": dec.lambdas.real},
    lambda dec: {"pairs": (dec.pairs[0] + dec.n, dec.pairs[1])},
], ids=["shape", "dtype", "pair-index"])
def test_a_well_formed_entry_of_the_wrong_arrays_is_a_miss(forge, store, eig_calls):
    # checksum and fingerprint agree, but the arrays are no solve of an n x n operator
    fresh = _store.decompose(lap(1))
    (path,) = entries(store)
    fields = {"matrix": fresh.matrix, "lambdas": fresh.lambdas, "v": fresh.v, "pairs": fresh.pairs}
    fields.update(forge(fresh))
    _store._write(path, SimpleNamespace(**fields), _store._fingerprint())
    del eig_calls[:]
    assert np.array_equal(_store.decompose(lap(1)).u, fresh.u)
    assert len(eig_calls) == 1
