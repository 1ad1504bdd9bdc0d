"""Span tracing of dirlap from outside the library.

:class:`Tracer` wraps the public functions of the traced modules, the
validating ``__post_init__`` of the graph and signal records, and the
callbacks of the CLI commands. Each wrapper is installed in every ``dirlap``
module namespace that holds the original function, so calls through
``from .eigen import decompose`` are timed as well, and :meth:`Tracer.remove`
puts every original back. Spans (name, start, end, parent) are kept in
memory; a layer's self time is its span duration minus the time covered by
its child spans.

Run as a script, it executes a command plan in one interpreter: first an
untimed warm-up plan at a tiny size, then each command of the plan twice
in a row, with no wrappers and with them installed, each writing into the
directory of its kind. It writes the timings as JSON::

    python3 perfbench/tracer.py PLAN.json RESULT.json
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import io
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("cli", "fileio", "graphs", "eigen", "transform", "sampling", "experiments")
#: per-cell number formatters: a span per printed cell would time the tracer, not the writer
UNTRACED = {"fileio.fmt", "fileio.round12"}
#: records whose construction validates its input
VALIDATED_RECORDS = (("graphs", "DirectedGraph"), ("transform", "GraphSignal"))
MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack, values = self.spans, self._stack, self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = start
                stack.pop()
            if observe is not None:
                key, value = observe(result)
                values[key].append(value)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import dirlap.cli  # noqa: F401  (loads every traced module)

        package = _package_modules()
        for short in MODULES:
            module = sys.modules[f"dirlap.{short}"]
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(name, fn, OBSERVERS.get(name))
                for holder in package:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, held, wrapper)
        for short, cls_name in VALIDATED_RECORDS:
            cls = getattr(sys.modules[f"dirlap.{short}"], cls_name)
            self._set(cls, "__post_init__",
                      self._wrap(f"{short}.{cls_name}", cls.__post_init__))
        for cmd in _leaf_commands(sys.modules["dirlap.cli"].main):
            self._set(cmd, "callback", self._wrap(f"cli.{cmd.name}", cmd.callback))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, summed duration and call count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            agg["self_s"] += end - start - child
            agg["total_s"] += end - start
            agg["calls"] += 1
        return out

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Summed duration of ``child_name`` spans called directly from ``parent_name``."""
        return sum(end - start for name, start, end, parent in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


OBSERVERS = {
    "fileio.read_edge_list": lambda g: ("fileio.edge_rows", g.edge_count),
    "eigen.decompose": lambda dec: ("eigen.residual", dec.residual),
    "sampling.plan_sampling": lambda plan: ("sampling.gamma", plan.gamma),
}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dirlap" or name.startswith("dirlap."))]


def _leaf_commands(group):
    for cmd in group.commands.values():
        if hasattr(cmd, "commands"):
            yield from _leaf_commands(cmd)
        else:
            yield cmd


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from the ``dirlap`` package."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(value) and hasattr(vars(value).get("__post_init__"), MARK):
                found.append(f"{module.__name__}.{attr}.__post_init__")
    cli = sys.modules.get("dirlap.cli")
    if cli is not None:
        found += [f"cli command {c.name}" for c in _leaf_commands(cli.main)
                  if hasattr(c.callback, MARK)]
    return found


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS in this process, if it can be read."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_command(argv: list[str]) -> int:
    """Run one CLI command in this process; returns its exit code."""
    import click

    from dirlap.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            return exc.exit_code
        except Exception as exc:  # a traceback is a failed command, not a harness crash
            print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    return 0


def run_timed(argv: list[str], workdir: str) -> tuple[float, int]:
    """Run one CLI command with ``workdir`` as working directory; returns wall seconds and code."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        code = run_command(argv)
        return time.perf_counter() - start, code
    finally:
        os.chdir(home)


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import dirlap.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if not os.path.abspath(sys.modules["dirlap"].__file__).startswith(plan["src"]):
        raise SystemExit(f"dirlap imported from outside {plan['src']}")

    for key in ("warmup_dir", "plain_dir", "traced_dir"):
        os.makedirs(plan[key], exist_ok=True)
    # an untimed pass at a tiny size pays the lazy imports and first calls,
    # so that neither timed run of a command carries them
    warmup_codes = [run_timed(argv, plan["warmup_dir"])[1] for argv in plan["warmup_commands"]]
    # the two runs of a command are back to back, so that the host's speed,
    # which drifts over seconds, weighs on both sums alike; which one goes
    # first alternates, so that what the first leaves warm (page cache,
    # allocator) favours neither sum
    tracer = Tracer()
    wall_s = {"plain": 0.0, "traced": 0.0}
    codes: dict[str, list[int]] = {"plain": [], "traced": []}
    for i, argv in enumerate(plan["commands"]):
        for kind in ("plain", "traced")[::1 if i % 2 == 0 else -1]:
            if kind == "traced":
                tracer.install()
            try:
                wall, code = run_timed(argv, plan[f"{kind}_dir"])
            finally:
                tracer.remove()
            wall_s[kind] += wall
            codes[kind].append(code)
    tracer.write_spans(plan["spans_path"])
    result = {
        "import_s": import_s,
        "plain_s": wall_s["plain"],
        "traced_s": wall_s["traced"],
        "warmup_codes": warmup_codes,
        "plain_codes": codes["plain"],
        "traced_codes": codes["traced"],
        "summary": tracer.summary(),
        "values": tracer.values,
        "sweep_loop_s": tracer.summary().get("experiments.run_noise_sweep", {}).get("total_s", 0.0)
        - tracer.child_time("experiments.run_noise_sweep", "experiments.reference_pair"),
        "leftover_wrappers": leftover_wrappers(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main(*sys.argv[1:])
