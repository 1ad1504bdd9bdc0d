"""Self-test of the benchmark harness, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

It runs every workload once untraced and once traced, and checks that the
traced run writes the same bytes as the untraced one, that the tracer
leaves no wrapper behind, that every metric of ``BENCHMARK.json`` is
reported with its unit, and that the oracles reject wrong outputs.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(wl: bench.Workload) -> bench.Workload:
    return dataclasses.replace(wl, n=12, sample_n=12, sample_p=wl.p, k=3, m=5, trials=3)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced result of every workload, outputs kept."""
    root = tmp_path_factory.mktemp("runs")
    saved = dict(bench.WORKLOADS)
    bench.WORKLOADS.update({name: tiny(wl) for name, wl in saved.items()})
    try:
        return {(name, trace): bench.run(name, seed=3, seconds=0, trace=trace, runs_root=root,
                                         keep=True)
                for name in saved for trace in (False, True)}
    finally:
        bench.WORKLOADS.update(saved)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_runs_are_correct(runs, name):
    for trace in (False, True):
        result, _ = runs[(name, trace)]
        assert result["correct"] and result["failed"] == 0, result


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_outputs_match_untraced(runs, name):
    _, untraced_dir = runs[(name, False)]
    _, traced_dir = runs[(name, True)]
    untraced = {p.relative_to(untraced_dir / "round0") for p in (untraced_dir / "round0").rglob("*")
                if p.is_file() and p.suffix != ".log"}
    traced = {p.relative_to(traced_dir / "traced") for p in (traced_dir / "traced").rglob("*")
              if p.is_file()}
    # the cycle is analysed only in the traced part
    assert traced - untraced == {Path("cycle.spectrum.csv"), Path("cycle.json")}
    for rel in untraced:
        assert (traced_dir / "traced" / rel).read_bytes() == \
            (untraced_dir / "round0" / rel).read_bytes(), rel


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_reported_with_its_unit(runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = runs[(name, trace)]
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_record(runs):
    _, run_dir = runs[("paper-n20", False)]
    record = json.loads((run_dir / "record.json").read_text())
    env = record["environment"]
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed"):
        assert key in env
    assert env["seed"] == 3
    assert record["output_sha256"]["round0/gen.csv"]


def test_wrappers_are_removed():
    sys.path.insert(0, str(bench.SRC))
    import dirlap.cli  # noqa: F401
    from dirlap import eigen, experiments, graphs

    original = eigen.decompose
    t = tracer.Tracer()
    t.install()
    try:
        assert experiments.decompose is eigen.decompose is not original
        assert tracer.leftover_wrappers()
        graphs.gen_directed_cycle(3)
    finally:
        t.remove()
    assert tracer.leftover_wrappers() == []
    assert experiments.decompose is eigen.decompose is original
    assert [s[0] for s in t.spans] == ["graphs.gen_directed_cycle", "graphs.DirectedGraph"]


def test_wall_times_are_scaled_by_the_neighbouring_probes():
    ref_s = bench.PROBE_REF_S
    timed = [("gen_s", 1.0), ("fig1_s", 3.0), ("gen_s", 2.0), ("gen_s", 9.0)]
    probes = [ref_s, ref_s, 2 * ref_s, 2 * ref_s, 2 * ref_s]
    # the second command straddles a switch to a host twice as slow
    assert bench.scaled_medians(timed, probes) == pytest.approx({"gen_s": 1.0, "fig1_s": 2.0})


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    summary = t.summary()
    assert summary["outer"] == {"self_s": 6.0, "total_s": 10.0, "calls": 1}
    assert summary["inner"]["self_s"] == 4.0 and summary["inner"]["calls"] == 2


def test_oracles_reject_wrong_outputs(runs, tmp_path):
    _, run_dir = runs[("paper-n20", False)]
    out = run_dir / "round0"
    x = ref.read_signal(run_dir / "inputs" / "signal.csv")
    g = ref.spectrum(ref.read_edges(run_dir / "inputs" / "graph.csv"))
    assert ref.check_round_trip(out / "roundtrip.csv", x) is None
    assert ref.check_round_trip(out / "roundtrip.csv", 1.01 * x)
    assert ref.check_filtered(out / "lowpass.csv", x, g) is None
    assert ref.check_filtered(run_dir / "inputs" / "signal.csv", x, g)
    assert ref.check_idempotent(out / "lowpass.csv", run_dir / "inputs" / "signal.csv")
    assert ref.check_forward(out / "coeffs.csv", x, g) is None
    assert ref.check_forward(out / "coeffs.csv", 2 * x, g)
    assert ref.check_spectrum(out / "graph.spectrum.csv", g) is None
    assert ref.check_spectrum(runs[("paper-n20", True)][1] / "traced" / "cycle.spectrum.csv", g)
    bad = tmp_path / "trials"
    bad.mkdir()
    lines = (out / "fig2" / "trials.csv").read_text().splitlines()
    sigma, trial, graph, err, bound = lines[1].split(",")
    lines[1] = ",".join([sigma, trial, graph, str(2 * float(bound) + 1), bound])
    (bad / "trials.csv").write_text("\n".join(lines) + "\n")
    (bad / "summary.csv").write_bytes((out / "fig2" / "summary.csv").read_bytes())
    assert ref.check_fig2(out / "fig2", len(bench.SIGMAS), 3) is None
    assert "exceeds its bound" in ref.check_fig2(bad, len(bench.SIGMAS), 3)
