"""End-to-end and per-layer benchmark of the dirlap CLI.

Run from the repository root::

    python3 perfbench/run.py --workload paper-n20 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every CLI command as its own process, the way users run
it, and reports the end-to-end metrics: medians of the wall times of all
invocations made within ``--seconds``. ``--trace 1`` runs the same commands
once plainly and once with span tracing in one interpreter (see
``tracer.py``) and reports the per-layer metrics. Either way every output
file is checked against the benchmark's own reference computation, a
failed command or check counts in ``failed``, and the last line of standard
output is the JSON result. A record of the run, with output digests and the
environment, goes to ``.perfbench-runs/``. See ``README.md`` for the
metrics and why each workload exists.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

# the harness and the CLI processes run BLAS on one thread: a process that needs
# both cores of a small shared host stalls whenever either core is taken, and
# its timings then measure the scheduler rather than the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CHILD_ENV = dict(os.environ)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

#: hard ceiling on one run, below the 180 s a run may take
RUN_LIMIT_S = 170.0
SIGMAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
#: extra-edge weight of every perturbed cycle, and the ideal low-pass band size (at most)
W = 0.8
LOWPASS = 5
#: fig1 and fig2 always run at the paper's size: n, p, k
FIG = (20, 0.2, 5)
#: the host-speed probe: a fresh interpreter importing numpy, which runs no
#: repository code; a timed command is scaled to the speed at which the probe
#: takes PROBE_REF_S (see ``run_untraced``)
PROBE = [sys.executable, "-c", "import numpy"]
PROBE_REF_S = 0.15
CLI_COMMANDS = ("gen", "analyze", "gft", "filter", "sample", "fig1", "fig2")

END_TO_END = {
    "setup_s": "s", "gen_s": "s", "analyze_s": "s", "gft_s": "s", "filter_s": "s",
    "sample_s": "s", "fig1_s": "s", "fig2_s": "s", "peak_rss_mb": "MB",
}
#: spans whose summed self time is reported as ``<name>_s``
SELF_TIME_LAYERS = (
    "fileio.read_edge_list", "graphs.DirectedGraph", "graphs.gen_perturbed_cycle",
    "fileio.write_edge_list", "eigen.decompose", "graphs.adjacency",
    "graphs.directed_laplacian", "graphs.asymmetry_index", "graphs.normality_departure",
    "eigen.henrici_departure", "transform.forward", "transform.inverse",
    "sampling.select_sampling_set", "sampling.plan_sampling", "sampling.recover",
    "experiments.run_noise_sweep", "experiments.reference_pair", "transform.apply_filter",
    "transform.GraphSignal", "sampling.synthesize_bandlimited", "fileio.write_trials_csv",
    "fileio.read_signal", "fileio.write_signal", "fileio.write_spectrum",
)
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in CLI_COMMANDS},
    **{f"{name}_s": "s" for name in SELF_TIME_LAYERS},
    "fileio.edge_rows": "count",
    "eigen.decompose_calls": "count",
    "eigen.residual": "1",
    "sampling.gamma": "1",
    "transform.apply_filter_calls": "count",
    "experiments.trial_us": "us",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; every workload runs every CLI command.

    ``n``/``p`` size the graph of gen, analyze, gft and filter, and
    ``sample_n``/``sample_p`` that of sample, so that a command too costly
    at ``n`` runs at a size the run budget allows.
    """

    n: int
    p: float
    sample_n: int
    sample_p: float
    k: int
    m: int
    trials: int           # fig2 trials per sigma


WORKLOADS = {
    # the paper's reference pair: start-up and per-call Python overhead dominate
    "paper-n20": Workload(n=20, p=0.2, sample_n=20, sample_p=0.2, k=5, m=8, trials=2000),
    # dense graph: edge-list parsing, graph validation, the generator loop and eig;
    # sample runs greedy selection at n=150, k=15, m=90, where it dominates decompose
    "dense-n400": Workload(n=400, p=0.2, sample_n=150, sample_p=0.05, k=15, m=90,
                           trials=100),
}
#: runs per round, by command label, that give every end-to-end metric about the
#: same number of samples (gft and filter get two from their two passes)
REPEATS = {"version": 2, "gen": 2, "analyze": 2, "sample": 2, "fig1": 2, "fig2": 2}
#: sizes of the untimed warm-up pass at the start of a traced run
WARMUP = Workload(n=12, p=0.2, sample_n=12, sample_p=0.2, k=3, m=5, trials=3)


@dataclass
class Command:
    label: str
    metric: str | None    # None: the command runs only in the traced part
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], str | None]   # None when the output is right


# -- inputs and commands ------------------------------------------------------

class References:
    """Reference spectra, computed once per run and shared between checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[tuple, ref.Spectrum] = {}

    def edges(self, n: int, p: float | None) -> ref.Edges:
        return ref.cycle(n) if p is None else ref.perturbed_cycle(n, p, W, self.seed)

    def spectrum(self, n: int, p: float | None) -> ref.Spectrum:
        if (n, p) not in self._cache:
            self._cache[(n, p)] = ref.spectrum(self.edges(n, p))
        return self._cache[(n, p)]


def _all(*problems):
    return next((p for p in problems if p), None)


def prepare(wl: Workload, seed: int, inputs: Path) -> list[Command]:
    """Write the workload's inputs for ``seed`` and return one round of commands.

    Commands run with a round directory as working directory, next to
    ``inputs``; outputs are named relative to it, so rounds and the traced
    run write byte-comparable files.
    """
    rel = f"../{inputs.name}"
    inputs.mkdir(parents=True)
    refs = References(seed)
    rng = np.random.default_rng([seed, 1])
    graph = refs.edges(wl.n, wl.p)
    graph.write(inputs / "graph.csv")
    ref.cycle(wl.n).write(inputs / "cycle.csv")
    g_ref, c_ref = refs.spectrum(wl.n, wl.p), refs.spectrum(wl.n, None)
    x = rng.standard_normal(wl.n) + 1j * rng.standard_normal(wl.n)
    ref.write_signal(x, inputs / "signal.csv")
    lowpass = g_ref.lowpass_size(LOWPASS)
    (inputs / "lowpass.json").write_text(json.dumps({"kind": "ideal", "omega": list(range(lowpass))}))
    if (wl.sample_n, wl.sample_p) == (wl.n, wl.p):
        sample_graph = f"{rel}/graph.csv"
        s_edges = graph
    else:
        sample_graph = f"{rel}/sample_graph.csv"
        s_edges = refs.edges(wl.sample_n, wl.sample_p)
        s_edges.write(inputs / "sample_graph.csv")
    xb = ref.band_signal(s_edges, wl.k, rng)
    ref.write_signal(xb, inputs / "band_signal.csv")

    g, sig, spec = f"{rel}/graph.csv", f"{rel}/signal.csv", f"{rel}/lowpass.json"
    fig_n, fig_p, fig_k = FIG
    fig = ["--n", str(fig_n), "--p", str(fig_p), "--w", str(W), "--k", str(fig_k),
           "--seed", str(seed)]
    fig1_refs = (refs.spectrum(fig_n, None), refs.spectrum(fig_n, fig_p))
    return [
        Command("version", "setup_s", ["--version"], [], lambda d: None),
        Command("gen", "gen_s",
                ["gen", "perturbed-cycle", "--n", str(wl.n), "--p", str(wl.p), "--w", str(W),
                 "--seed", str(seed), "--out", "gen.csv"],
                ["gen.csv"], lambda d: ref.check_gen(d / "gen.csv", graph)),
        Command("analyze", "analyze_s",
                ["analyze", g, "--spectrum-out", "graph.spectrum.csv", "--out", "graph.json"],
                ["graph.spectrum.csv", "graph.json"],
                lambda d: _all(ref.check_spectrum(d / "graph.spectrum.csv", g_ref),
                               ref.check_metrics(d / "graph.json", g_ref))),
        Command("analyze-cycle", None,
                ["analyze", f"{rel}/cycle.csv", "--spectrum-out", "cycle.spectrum.csv",
                 "--out", "cycle.json"],
                ["cycle.spectrum.csv", "cycle.json"],
                lambda d: _all(ref.check_spectrum(d / "cycle.spectrum.csv", c_ref),
                               ref.check_metrics(d / "cycle.json", c_ref))),
        Command("gft-forward", "gft_s",
                ["gft", g, sig, "--direction", "forward", "--out", "coeffs.csv"],
                ["coeffs.csv"], lambda d: ref.check_forward(d / "coeffs.csv", x, g_ref)),
        Command("gft-inverse", "gft_s",
                ["gft", g, "coeffs.csv", "--direction", "inverse", "--out", "roundtrip.csv"],
                ["roundtrip.csv"], lambda d: ref.check_round_trip(d / "roundtrip.csv", x)),
        Command("filter", "filter_s",
                ["filter", g, sig, "--spec", spec, "--out", "lowpass.csv"],
                ["lowpass.csv"], lambda d: ref.check_filtered(d / "lowpass.csv", x, g_ref)),
        Command("filter-again", "filter_s",
                ["filter", g, "lowpass.csv", "--spec", spec, "--out", "lowpass2.csv"],
                ["lowpass2.csv"],
                lambda d: ref.check_idempotent(d / "lowpass2.csv", d / "lowpass.csv")),
        Command("sample", "sample_s",
                ["sample", sample_graph, "--k", str(wl.k), "--m", str(wl.m), "--out", "plan.json",
                 "--signal", f"{rel}/band_signal.csv", "--recover-out", "recovered.csv"],
                ["plan.json", "recovered.csv"],
                lambda d: ref.check_sample(d / "plan.json", d / "recovered.csv", xb,
                                           wl.sample_n, wl.k, wl.m)),
        Command("fig1", "fig1_s", ["experiment", "fig1", *fig, "--out-dir", "fig1"],
                ["fig1/metrics.json", "fig1/cycle.spectrum.csv", "fig1/perturbed.spectrum.csv"],
                lambda d: ref.check_fig1(d / "fig1", *fig1_refs)),
        Command("fig2", "fig2_s",
                ["experiment", "fig2", *fig, "--trials", str(wl.trials),
                 "--sigmas", ",".join(map(str, SIGMAS)), "--out-dir", "fig2"],
                ["fig2/trials.csv", "fig2/summary.csv", "fig2/bundle.json"],
                lambda d: ref.check_fig2(d / "fig2", len(SIGMAS), wl.trials)),
    ]


# -- running ------------------------------------------------------------------

class Run:
    """Bookkeeping of one benchmark run: invocations, failures, digests."""

    def __init__(self, run_dir: Path):
        self.dir = run_dir
        self.started = time.perf_counter()
        self.samples: dict[str, list[float]] = {}   # raw wall seconds, by metric
        self.timed: list[tuple[str, float]] = []     # (metric, wall seconds), in run order
        self.probes: list[float] = []                # one before and one after each timed command
        self.invocations: list[dict] = []
        self.digests: dict[str, str | None] = {}
        self.env = dict(CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([CHILD_ENV["PYTHONPATH"]] if CHILD_ENV.get("PYTHONPATH") else []))

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv["problem"])

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> tuple[float, int | None]:
        """Run ``argv`` to completion; returns wall seconds and exit code (None on timeout)."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            # a blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms
            watchdog = threading.Timer(max(1.0, self.remaining()), proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
                if proc.returncode is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            return wall, (None if code == -signal.SIGKILL else code)

    def probe(self) -> None:
        self.probes.append(self.spawn(PROBE, self.dir, self.dir / "probe.log")[0])

    def cli(self, argv: list[str], cwd: Path, log: Path) -> tuple[float, int | None]:
        return self.spawn([sys.executable, "-m", "dirlap.cli", *argv], cwd, log)

    def note(self, label: str, where: str, wall: float | None, code: int | None,
             problem: str | None) -> None:
        if problem:
            print(f"FAILED {label} [{where}]: {problem}", file=sys.stderr)
        self.invocations.append(
            {"label": label, "where": where, "wall_s": wall, "exit": code, "problem": problem})

    def judge(self, cmd: Command, out: Path, code: int | None, log: Path | None = None) -> str | None:
        """The command's problem, if any: a bad exit, a failed check, or changed bytes."""
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log else []
            return f"exit {code}" + (f": {tail[0]}" if tail else "")
        try:
            problem = cmd.check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        for name in cmd.outputs:
            digest = _sha256(out / name)
            first = self.digests.get(f"round0/{name}")
            self.digests[f"{out.name}/{name}"] = digest
            if problem is None and first is not None and digest != first:
                problem = f"{name} differs from its first run (determinism)"
        return problem


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def round_schedule(commands: list[Command]) -> list[Command]:
    """One round: the ``j``-th of a command's ``r`` runs sits at ``(j + x) / r`` of
    the round, ``x`` being its place in the command list, so a command's runs
    are evenly spread and each still follows the commands it reads from."""
    slots = []
    for i, cmd in enumerate(commands):
        r = REPEATS.get(cmd.label, 1)
        slots += [((j + (i + 0.5) / len(commands)) / r, i, cmd) for j in range(r)]
    return [cmd for *_, cmd in sorted(slots, key=lambda slot: slot[:2])]


def run_untraced(commands: list[Command], seconds: float, run: Run) -> dict:
    """Repeat rounds of the commands until ``seconds`` is used up (at least one round).

    The host is shared, and its speed switches between states about 1.5x
    apart that last from seconds to minutes. So the host-speed probe runs
    between every two commands, and each command's wall time is divided by
    the mean of the probes just before and after it, then multiplied by
    ``PROBE_REF_S``: seconds at the speed where the probe takes that long.
    Each metric is the median of these samples, spread over the run: the
    repeats of a command are spread over each round, and after the first
    round the run stops at the first command that would start past
    ``seconds``.
    """
    deadline = run.started + seconds
    run.spawn([sys.executable, "-m", "dirlap.cli", "--version"], run.dir, run.dir / "warmup.log")
    schedule = round_schedule([cmd for cmd in commands if cmd.metric])
    run.probe()
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        out = run.dir / f"round{rounds}"
        out.mkdir()
        rounds += 1
        for cmd in schedule:
            if rounds > 1 and time.perf_counter() >= deadline:
                break
            log = out / f"{cmd.label}.log"
            wall, code = run.cli(cmd.argv, out, log)
            run.probe()
            run.samples.setdefault(cmd.metric, []).append(wall)
            run.timed.append((cmd.metric, wall))
            run.note(cmd.label, out.name, wall, code, run.judge(cmd, out, code, log))
            if code is None:
                deadline = 0.0
                break
    metrics = scaled_medians(run.timed, run.probes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"rounds": rounds, "metrics": metrics,
            "raw_medians": {name: statistics.median(v) for name, v in run.samples.items()}}


def scaled_medians(timed: list[tuple[str, float]], probes: list[float]) -> dict[str, float]:
    """Median per metric of ``wall * PROBE_REF_S / probe``, where ``probe`` is the
    mean of the probes just before and after the command (``probes[i]`` and
    ``probes[i + 1]`` for the ``i``-th of ``timed``)."""
    scaled: dict[str, list[float]] = {}
    for i, (name, wall) in enumerate(timed):
        probe_s = (probes[i] + probes[i + 1]) / 2
        scaled.setdefault(name, []).append(wall * PROBE_REF_S / probe_s)
    return {name: statistics.median(values) for name, values in scaled.items()}


def in_process(commands: list[Command]) -> list[Command]:
    """The commands the traced part runs: the start-up probe times nothing in one interpreter."""
    return [cmd for cmd in commands if cmd.label != "version"]


def run_traced(wl: Workload, commands: list[Command], run: Run, seed: int) -> dict:
    commands = in_process(commands)
    warmup = in_process(prepare(WARMUP, seed, run.dir / "warmup-inputs"))
    plan = {
        "src": str(SRC),
        "warmup_dir": str(run.dir / "warmup"),
        "warmup_commands": [cmd.argv for cmd in warmup],
        "plain_dir": str(run.dir / "plain"),
        "traced_dir": str(run.dir / "traced"),
        "spans_path": str(run.dir / "spans.csv.gz"),
        "commands": [cmd.argv for cmd in commands],
    }
    (run.dir / "plan.json").write_text(json.dumps(plan, indent=1))
    result_path = run.dir / "traced.json"
    wall, code = run.spawn(
        [sys.executable, str(Path(__file__).with_name("tracer.py")), str(run.dir / "plan.json"),
         str(result_path)], run.dir, run.dir / "tracer.log")
    if code != 0 or not result_path.exists():
        run.note("tracer", "child", wall, code, f"traced child exited {code}")
        return {"metrics": {}}
    res = json.loads(result_path.read_text())
    for where, cmds, codes in (("warmup", warmup, res["warmup_codes"]),
                               ("plain", commands, res["plain_codes"]),
                               ("traced", commands, res["traced_codes"])):
        for cmd, code in zip(cmds, codes):
            problem = run.judge(cmd, run.dir / where, code)
            if where == "traced" and problem is None:
                changed = [name for name in cmd.outputs
                           if run.digests.get(f"plain/{name}") != run.digests.get(f"traced/{name}")]
                if changed:
                    problem = f"traced output differs from untraced: {', '.join(changed)}"
            run.note(cmd.label, where, None, code, problem)
    if res["leftover_wrappers"]:
        run.note("tracer", "cleanup", None, 0,
                 f"wrappers left installed: {', '.join(res['leftover_wrappers'])}")
    return {"metrics": layer_metrics(res, 2 * len(SIGMAS) * wl.trials)}


def layer_metrics(res: dict, sweep_trials: int) -> dict[str, float]:
    summary, values = res["summary"], res["values"]

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    metrics = {"cli.import_s": res["import_s"]}
    metrics.update({f"cli.{cmd}.self_s": self_s(f"cli.{cmd}") for cmd in CLI_COMMANDS})
    metrics.update({f"{name}_s": self_s(name) for name in SELF_TIME_LAYERS})
    metrics["fileio.edge_rows"] = sum(values.get("fileio.edge_rows", []))
    metrics["eigen.decompose_calls"] = calls("eigen.decompose")
    metrics["eigen.residual"] = max(values.get("eigen.residual", []), default=0.0)
    metrics["sampling.gamma"] = min(values.get("sampling.gamma", []), default=0.0)
    metrics["transform.apply_filter_calls"] = calls("transform.apply_filter")
    metrics["experiments.trial_us"] = 1e6 * res["sweep_loop_s"] / sweep_trials
    metrics["trace.overhead_ratio"] = res["traced_s"] / res["plain_s"]
    return metrics


# -- run record ---------------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    # only this checkout's own commit; a checkout that is not a repository has none
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    query = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
         "import tracer; print(tracer.blas_threads())"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    blas_threads = query.stdout.strip() or None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, runs_root: Path = RUNS,
        keep: bool = False) -> tuple[dict, Path]:
    """One benchmark run; returns the result line's payload and the run directory."""
    wl = WORKLOADS[name]
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    run_dir = runs_root / name / f"seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    state = Run(run_dir)
    commands = prepare(wl, seed, run_dir / "inputs")
    outcome = (run_traced(wl, commands, state, seed) if trace
               else run_untraced(commands, seconds, state))
    names = PER_LAYER if trace else END_TO_END
    metrics = {m: {"value": outcome["metrics"][m], "unit": names[m]}
               for m in names if m in outcome["metrics"]}
    attempted = max(1, len(state.invocations))
    result = {"correct": state.failed == 0 and len(metrics) == len(names),
              "attempted": attempted, "failed": state.failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "started_utc": stamp, "environment": environment(seed),
        "failed_ratio": state.failed / attempted, "rounds": outcome.get("rounds"),
        "samples": state.samples, "probes": state.probes,
        "raw_medians": outcome.get("raw_medians"), "invocations": state.invocations,
        "output_sha256": state.digests, "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if not keep:
        for entry in run_dir.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
    return result, run_dir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dirlap" / "cli.py").is_file():
        sys.exit(f"perfbench: no dirlap sources under {SRC}; run from a checkout of the repository")
    result, run_dir = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench: record in {run_dir.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
