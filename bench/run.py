"""Benchmark of the ``domdensity`` command line on fixed, seeded workloads.

    python3 bench/run.py --workload scan-n7 --seed 1 --seconds 10 --trace 0

Run from any directory; the package is taken from ``src/`` beside this
directory, not from an installed copy.  Workloads are in ``workloads.py``.

``--trace 0`` runs each command of the workload as its own
``python -m domdensity.cli`` process, one at a time (a closed loop with one
client), and repeats whole passes until ``--seconds`` have gone by, at least
once.  It reports the end-to-end metrics.  Their times are seconds at a fixed
machine speed: each child runs under ``calibrated.py``, which times a fixed
kernel every 25 ms, and every stretch of the command's wall time is scaled
by how long the kernel took right then (``scaled_seconds``).  The median
wall time of a pass is printed beside ``run_s``.  ``--trace 1`` calls
``domdensity.cli.main`` in-process for each command twice, untraced and then
with every layer traced (``tracing.py``), and reports the per-layer metrics;
the spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Every output is checked (``workloads.check_output``).  A wrong output counts
as failed; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when the
benchmark ran, also when outputs were wrong, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import NOOP, WORKLOADS, check_output, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A command still running this long after the benchmark started is killed
# and counts as failed, so that a run ends within three minutes.
RUN_LIMIT_S = 170

# The calibration kernel's time at the reference speed: about its median on
# a 2-vCPU Xeon VM under Python 3.11.  A scaled second is the time the
# command would take at that speed.
REF_SLICE_S = 0.0015

END_TO_END_UNITS = {"run_s": "s", "cmd_s.p50": "s", "cmd_s.max": "s",
                    "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def summarize(values) -> dict:
    """Median, largest value and sample count of a list of timings."""
    values = list(values)
    return {"p50": statistics.median(values), "max": max(values), "n": len(values)}


def scaled_seconds(start: float, end: float, slices, ref: float = REF_SLICE_S) -> float:
    """Seconds from ``start`` to ``end`` at the reference speed.

    ``slices`` are the (start, end) times of the calibration kernel runs in
    between.  The slices themselves are left out; every stretch before a
    slice is scaled by ``ref`` over that slice's time, and the stretch after
    the last slice by the last slice's.  With no slices the wall time is
    returned as it is."""
    if not slices:
        return end - start
    total, prev = 0.0, start
    for a, b in slices:
        total += (a - prev) / (b - a)
        prev = b
    last_a, last_b = slices[-1]
    total += max(end - prev, 0.0) / (last_b - last_a)
    return total * ref


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def run_child(argv: list[str], workdir: Path,
              deadline: float) -> tuple[int, str, str, float, float, int]:
    """One CLI process, killed at ``deadline`` (a ``time.perf_counter``
    value): (exit status, stdout, stderr, scaled seconds, wall seconds,
    max RSS kB)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOMDENSITY_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    slices_path = workdir / "slices.json"
    slices_path.unlink(missing_ok=True)
    with open(workdir / "stdout", "w+") as out, open(workdir / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "calibrated.py"),
                                 str(slices_path), *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        try:
            slices = json.loads(slices_path.read_text())
        except (OSError, ValueError):
            slices = []  # killed before it wrote them; the output check fails
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(), err.read(),
                scaled_seconds(start, end, slices), end - start, usage.ru_maxrss)


def run_in_process(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """``cli.main(argv)`` with captured output: (status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Checker:
    """Counts attempted and failed commands and keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, cmd, status: int, stdout: str, stderr: str = "") -> None:
        self.attempted += 1
        errors = check_output(cmd, status, stdout)
        if errors:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{cmd.label}: {'; '.join(errors)} {stderr[-300:]}")


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def set_up(wl, seed: int, repdir: Path, workdir: Path, fill, deadline: float):
    """Write the inputs into ``repdir``, start the package once, and fill
    the cache there if the workload has one.  ``fill(argv)`` runs one
    command: (status, stdout, stderr, scaled seconds, wall seconds).  The
    set-up's time is its wall time with that of every child process replaced
    by the child's scaled seconds.  Returns (inputs, extra args, set-up
    seconds, probe seconds)."""
    start = time.perf_counter()
    inputs = write_inputs(repdir, seed)
    status, _, err, probe, wall, _ = run_child(NOOP, workdir, deadline)
    if status != 0:
        raise SetupError(f"the package does not start: {err.strip()[-500:]}")
    correction = probe - wall
    extra = []
    if wl.cached:
        extra = ["--cache", str(repdir / "gamma.cache")]
        for cmd in wl.commands:
            status, out, err, seconds, wall = fill(cmd.resolve(inputs, extra))
            correction += seconds - wall
            errors = check_output(cmd, status, out)
            if errors:
                raise SetupError(f"cache fill, {cmd.label}: {errors} {err[-300:]}")
    return inputs, extra, time.perf_counter() - start + correction, probe


def measure(wl, seed: int, seconds: float, workdir: Path, checker: Checker,
            deadline: float) -> dict:
    """Closed loop of whole passes, one child process at a time.

    The workload is set up ``wl.setup_repeats`` times from scratch: once
    before the first pass and the rest between passes, in step with the
    share of ``seconds`` gone, so that the set-ups, like the passes, sample
    the machine's speed across the run.  The passes use the first set-up;
    the time of the others is not counted against ``seconds``."""
    def fill(argv):
        return run_child(argv, workdir, deadline)[:5]

    def another_set_up():
        return set_up(wl, seed, workdir / f"setup{len(setups)}", workdir, fill,
                      deadline)[2]

    inputs, extra, first, _ = set_up(wl, seed, workdir / "setup0", workdir, fill,
                                     deadline)
    setups = [first]
    samples = {cmd.label: [] for cmd in wl.commands}
    passes, wall_passes, peak_kb = [], [], 0
    measured = 0.0
    while not passes or measured < seconds:
        outputs = []
        pass_start = time.perf_counter()
        pass_s = pass_wall = 0.0
        for cmd in wl.commands:
            status, out, err, secs, wall, rss_kb = run_child(
                cmd.resolve(inputs, extra), workdir, deadline)
            outputs.append((cmd, status, out, err))
            samples[cmd.label].append(secs)
            pass_s += secs
            pass_wall += wall
            peak_kb = max(peak_kb, rss_kb)
        passes.append(pass_s)
        wall_passes.append(pass_wall)
        for cmd, status, out, err in outputs:
            checker.check(cmd, status, out, err)
        measured += time.perf_counter() - pass_start
        share = min(measured / seconds, 1.0)
        while len(setups) < 1 + math.ceil((wl.setup_repeats - 1) * share):
            setups.append(another_set_up())
    while len(setups) < wl.setup_repeats:
        setups.append(another_set_up())

    per_command = [statistics.median(v) for v in samples.values()]
    cmd_s = summarize(per_command)
    run_s = summarize(passes)
    items = sum(cmd.items for cmd in wl.commands)
    samples_n = len(passes) * len(wl.commands)
    return {
        "run_s": (run_s["p50"], f"median of {run_s['n']} passes, scaled; the wall"
                  f" time median is {statistics.median(wall_passes):.4g} s"),
        "cmd_s.p50": (cmd_s["p50"], f"median over {cmd_s['n']} commands of each"
                      f" command's median, {samples_n} samples"),
        "cmd_s.max": (cmd_s["max"], f"slowest of {cmd_s['n']} command medians"),
        "items_per_s": (items / run_s["p50"], f"{items} {wl.item_unit} per pass"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_kb / 1024, f"largest of {samples_n} child processes"),
    }


def trace(wl, seed: int, workdir: Path, checker: Checker, deadline: float) -> dict:
    """One untraced and one traced in-process pass; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import domdensity
    import domdensity.cli as cli

    setup_tracer = Tracer()

    def fill(argv):
        with setup_tracer.installed(domdensity):
            status, out, err, seconds = run_in_process(cli, argv)
        return status, out, err, seconds, seconds

    # One set-up: a repeated cache fill would count its writes again.
    inputs, extra, _, probe = set_up(wl, seed, workdir / "setup0", workdir, fill,
                                     deadline)
    probes = [probe] + [run_child(NOOP, workdir, deadline)[3] for _ in range(4)]

    # Each command runs untraced and then traced, so that a drift in machine
    # speed during the run falls on both sides of the overhead ratio.
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for i, cmd in enumerate(wl.commands):
        argv = cmd.resolve(inputs, extra)
        status, out, err, seconds = run_in_process(cli, argv)
        checker.check(cmd, status, out, err)
        plain_s += seconds
        tracer.request = i
        with tracer.installed(domdensity):
            status, out, err, seconds = run_in_process(cli, argv)
        checker.check(cmd, status, out, err)
        traced_s += seconds

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-{seed}.jsonl"
    path.unlink(missing_ok=True)
    setup_tracer.dump(path, "setup")
    tracer.dump(path, "pass")

    n = len(wl.commands)
    metrics = {name: (value, f"{len(tracer.spans)} spans over {n} commands")
               for name, value in layer_metrics(tracer.spans, setup_tracer.spans).items()}
    metrics["cli.startup_s"] = (statistics.median(probes),
                                f"median of {len(probes)} no-op commands")
    metrics["trace.pass_s"] = (traced_s, "one traced pass")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s,
                                       "traced over untraced in-process pass,"
                                       " command by command")
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "criteria.s":
        return "s"
    if name.endswith("ratio") or name.endswith("per_graph"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domdensity" / "cli.py").is_file():
        print(f"no domdensity package under {SRC}", file=sys.stderr)
        return 1
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    try:
        if args.trace:
            metrics = trace(wl, args.seed, workdir, checker, deadline)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = measure(wl, args.seed, args.seconds, workdir, checker, deadline)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    for name, (value, basis) in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}  ({basis})")
    print(f"  error_rate = {checker.failed}/{checker.attempted} commands")
    for reason in checker.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
